"""Media side-output: the K2 figure export.

The reference writes one PNG per figure to ``figure_dir`` with deterministic
names (``libpdf/extract.py:647-652,734-754`` of the reference).  The engine
writes one crop per figure ``media_ref`` under a media root, from the
parse task that already built the document's element model
(``stages/outputs.py``): same ref → same path → overwrite, so a retried
task or a resumed run rewrites the same files.

The payloads are REAL: ``kernels/png.py`` is a stdlib PNG encoder + RGBA
canvas, so a crop rasterizes the figure's vector content (words /
segments / rects) at the reference's 300 dpi
(``libpdf/extract.py:734-754``); the SVG vector crop is its lossless twin.
"""

from __future__ import annotations


def _figure_crop_svg(bbox: tuple, words: list, segments: list,
                     rects: list) -> str:
    """Vector crop of one figure region → SVG text.

    ``bbox`` = (x0, y0, x1, y1) in PDF page coordinates (origin
    bottom-left); content coordinates translate to the crop's origin and
    flip to SVG's top-left.  ``words`` = (text, x0, y0, x1, y1);
    ``segments``/``rects`` = (x0, y0, x1, y1)."""
    from xml.sax.saxutils import escape

    fx0, fy0, fx1, fy1 = bbox
    w, h = fx1 - fx0, fy1 - fy0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:g}" '
        f'height="{h:g}" viewBox="0 0 {w:g} {h:g}">',
        f'<rect x="0" y="0" width="{w:g}" height="{h:g}" fill="white"/>',
    ]
    for x0, y0, x1, y1 in rects:
        parts.append(
            f'<rect x="{x0 - fx0:g}" y="{fy1 - y1:g}" width="{x1 - x0:g}" '
            f'height="{y1 - y0:g}" fill="none" stroke="black" '
            f'stroke-width="0.75"/>'
        )
    for x0, y0, x1, y1 in segments:
        parts.append(
            f'<line x1="{x0 - fx0:g}" y1="{fy1 - y0:g}" x2="{x1 - fx0:g}" '
            f'y2="{fy1 - y1:g}" stroke="black" stroke-width="0.75"/>'
        )
    for text, x0, y0, x1, y1 in words:
        size = max(y1 - y0, 1.0)
        parts.append(
            f'<text x="{x0 - fx0:g}" y="{fy1 - y0:g}" '
            f'font-size="{size:g}" font-family="monospace">'
            f"{escape(str(text))}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _figure_crop_png(bbox: tuple, words: list, segments: list,
                     rects: list, dpi: int = 300) -> bytes:
    """Rasterize one figure crop (same draw model as the SVG twin) at the
    reference's 300 dpi (``images_to_save``, libpdf/extract.py:734-754)."""
    from ..kernels.png import Canvas

    fx0, fy0, fx1, fy1 = bbox
    w, h = fx1 - fx0, fy1 - fy0
    cv = Canvas(w, h, dpi=dpi)
    if not (words or segments or rects):
        # pure raster figure (embedded JPEG/JPX we don't transcode): a
        # framed placeholder with the image diagonal cross, never blank
        cv.stroke_rect(0, 0, w, h, (90, 90, 90, 255), 1.5)
        cv.line(0, 0, w, h, (180, 180, 180, 255))
        cv.line(0, h, w, 0, (180, 180, 180, 255))
    for x0, y0, x1, y1 in rects:
        cv.stroke_rect(x0 - fx0, y0 - fy0, x1 - fx0, y1 - fy0,
                       (0, 0, 0, 255), 0.75)
    for x0, y0, x1, y1 in segments:
        cv.line(x0 - fx0, y0 - fy0, x1 - fx0, y1 - fy0, (0, 0, 0, 255), 0.75)
    for text, x0, y0, x1, y1 in words:
        cv.text(str(text), x0 - fx0, y0 - fy0, max(y1 - y0, 1.0),
                (0, 0, 0, 255))
    return cv.png_bytes()


def figure_crops(doc: dict, elements: list, fmt: str = "png") -> list:
    """One document's figure crops as ``(path relative to the media root,
    payload)``, one per figure ``media_ref`` (two with ``fmt="both"``).

    The reference crops the page to the figure bbox and rasterizes at
    300 dpi (``images_to_save``, libpdf/extract.py:734-754).  The
    figure's vector content — words, line segments, rect outlines inside
    the bbox — is all in the decoded document, so the crop renders both
    ways: ``fmt="png"`` rasterizes through the stdlib canvas at the
    reference dpi, ``fmt="svg"`` emits the lossless vector twin,
    ``fmt="both"`` writes the pair."""
    from ..kernels.textmodel import glyph_table_from_dicts, tab_slice

    figs = [e for e in elements
            if e["etype"] == "figure" and e.get("media_ref")]
    if not figs:
        return []
    # raw vector content, bucketed per page once per document
    words_by_page: dict = {}
    for tb in doc.get("textboxes") or []:
        page_words = words_by_page.setdefault(int(tb["page"]), [])
        if tb.get("words"):  # dict-list word rows (unit rows)
            for g in tb["words"]:
                page_words.append(
                    (g["text"], float(g["x0"]), float(g["y0"]),
                     float(g["x1"]), float(g["y1"]))
                )
            continue
        # glyph / word tables; a pseudo-anno glyph's NaN box is never
        # inside a figure
        wt = tab_slice(tb.get("wordtab") or tb.get("chartab"))
        if wt is None and tb.get("chars"):
            wt = glyph_table_from_dicts(tb["chars"])
        if wt is None:
            continue
        for i in range(len(wt["text"])):
            page_words.append(
                (wt["text"][i], float(wt["x0"][i]), float(wt["y0"][i]),
                 float(wt["x1"][i]), float(wt["y1"][i]))
            )
    segs_by_page: dict = {}
    for sg in doc.get("segments") or []:
        segs_by_page.setdefault(int(sg["page"]), []).append(
            (float(sg["x0"]), float(sg["y0"]), float(sg["x1"]), float(sg["y1"]))
        )
    rects_by_page: dict = {}
    for r in doc.get("rects") or []:
        rects_by_page.setdefault(int(r["page"]), []).append(
            (float(r["x0"]), float(r["y0"]), float(r["x1"]), float(r["y1"]))
        )

    def inside(bb, x0, y0, x1, y1):
        return x0 >= bb[0] and y0 >= bb[1] and x1 <= bb[2] and y1 <= bb[3]

    files = []
    for fig in figs:
        bb = (float(fig["x0"]), float(fig["y0"]),
              float(fig["x1"]), float(fig["y1"]))
        page = int(fig["page"])
        words = [wd for wd in words_by_page.get(page, [])
                 if inside(bb, *wd[1:])]
        segs = [sg for sg in segs_by_page.get(page, [])
                if inside(bb, min(sg[0], sg[2]), min(sg[1], sg[3]),
                          max(sg[0], sg[2]), max(sg[1], sg[3]))]
        rcts = [rc for rc in rects_by_page.get(page, []) if inside(bb, *rc)]
        stem = fig["media_ref"]
        stem = stem[:-4] if stem.endswith(".png") else stem
        if fmt in ("svg", "both"):
            files.append((stem + ".svg", _figure_crop_svg(bb, words, segs, rcts)))
        if fmt in ("png", "both"):
            files.append((stem + ".png", _figure_crop_png(bb, words, segs, rcts)))
    return files
