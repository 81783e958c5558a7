"""Media side-output: the K2 figure-export sink.

The reference writes one PNG per figure to ``figure_dir`` with deterministic
names (``/root/reference/libpdf/extract.py:647-652,734-754``).  The engine's
analog writes one object per ``media_ref`` under a media root — executed
distributed (each task writes its own batch's objects), idempotent (same ref
→ same path → overwrite), and resumable for free.

Round 5: payloads are REAL.  ``kernels/png.py`` is a stdlib PNG encoder
+ RGBA canvas, so the crop writers rasterize the figure's vector content
(words / segments / rects) at the reference's 300 dpi
(``libpdf/extract.py:734-754``) — and the spans-only sink renders a real,
decodable label card per ref.  The SVG vector crops remain available
side by side.
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd


def _label_card_png(media_ref: str) -> bytes:
    """Deterministic REAL PNG for a ref-only export (no geometry in
    scope): a 128×96 card carrying the ref text and a color derived from
    its digest — decodable by any viewer, stable across workers/runs."""
    from ..kernels.png import Canvas

    digest = hashlib.sha256(media_ref.encode()).digest()
    cv = Canvas(128, 96, dpi=72)
    cv.fill_rect(4, 4, 124, 92, (digest[0], digest[1], digest[2], 255))
    cv.stroke_rect(0, 0, 128, 96, (0, 0, 0, 255), 2.0)
    tail = media_ref.rsplit("/", 1)[-1]
    cv.text(tail[:20], 8, 44, 8.0, (255, 255, 255, 255))
    return cv.png_bytes()


class MediaWriter:
    """Actor-pool sink stage: writes each batch's media objects, returns a
    (media_ref, path, n_bytes) manifest row per object."""

    def __init__(self, media_root: str):
        self.media_root = media_root

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        paths, sizes = [], []
        for ref in batch["media_ref"]:
            path = os.path.join(self.media_root, ref)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            payload = _label_card_png(ref)
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)  # atomic, idempotent on retry
            paths.append(path)
            sizes.append(len(payload))
        return pd.DataFrame(
            {"media_ref": batch["media_ref"], "path": paths, "n_bytes": sizes}
        )


def export_media(spans_ds, media_root: str, batch_size: int = 256):
    """Figure spans → written media objects; returns the manifest Dataset."""
    from ..ops.multimodal import media_table

    return media_table(spans_ds).map_batches(
        MediaWriter,
        fn_constructor_kwargs={"media_root": media_root},
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=2,
    )


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


class VectorCropWriter:
    """Actor-pool sink: raw corpus rows → one REAL crop per figure.

    The reference crops the page to the figure bbox and rasterizes at
    300 dpi (``images_to_save``, libpdf/extract.py:734-754).  The
    figure's vector content — words, line segments, rect outlines inside
    the bbox — is all in the corpus, so the crop renders both ways:
    ``fmt="png"`` rasterizes through the stdlib canvas
    (``kernels/png.py``) at the reference dpi; ``fmt="svg"`` emits the
    lossless vector twin; ``fmt="both"`` writes the pair."""

    def __init__(self, cfg, media_root: str, fmt: str = "svg",
                 dpi: int = 300):
        self.cfg = cfg
        self.media_root = media_root
        self.fmt = fmt
        self.dpi = dpi

    def __call__(self, batch) -> pd.DataFrame:
        import pandas as pd  # noqa: F811 - worker-side import

        from ..kernels.document import extract_document_full
        from ..kernels.textmodel import glyph_table_from_dicts, tab_slice
        from ..stages.decoder import SidecarDecoder

        rows = SidecarDecoder().decode(batch)
        out = {"doc_id": [], "media_ref": [], "path": [], "n_words": [],
               "n_shapes": [], "error": []}
        for row in rows:
            try:
                _, elements = extract_document_full(row, self.cfg)
            except Exception as exc:  # noqa: BLE001 - poison-doc discipline
                out["doc_id"].append(row["doc_id"])
                out["media_ref"].append("")
                out["path"].append("")
                out["n_words"].append(0)
                out["n_shapes"].append(0)
                out["error"].append(f"{type(exc).__name__}: {exc}")
                continue
            figs = [e for e in elements
                    if e["etype"] == "figure" and e.get("media_ref")]
            if not figs:
                continue
            # raw vector content, bucketed per page once per document
            words_by_page: dict = {}
            for tb in row.get("textboxes") or []:
                page_words = words_by_page.setdefault(int(tb["page"]), [])
                if tb.get("words"):  # dict-list word rows (unit rows)
                    for g in tb["words"]:
                        page_words.append(
                            (g["text"], float(g["x0"]), float(g["y0"]),
                             float(g["x1"]), float(g["y1"]))
                        )
                    continue
                # glyph / word tables; a pseudo-anno glyph's NaN box is
                # never inside a figure
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
            for s in row.get("segments") or []:
                segs_by_page.setdefault(int(s["page"]), []).append(
                    (float(s["x0"]), float(s["y0"]),
                     float(s["x1"]), float(s["y1"]))
                )
            rects_by_page: dict = {}
            for r in row.get("rects") or []:
                rects_by_page.setdefault(int(r["page"]), []).append(
                    (float(r["x0"]), float(r["y0"]),
                     float(r["x1"]), float(r["y1"]))
                )

            def inside(bb, x0, y0, x1, y1):
                return (x0 >= bb[0] and y0 >= bb[1]
                        and x1 <= bb[2] and y1 <= bb[3])

            for fig in figs:
                bb = (float(fig["x0"]), float(fig["y0"]),
                      float(fig["x1"]), float(fig["y1"]))
                page = int(fig["page"])
                words = [wd for wd in words_by_page.get(page, [])
                         if inside(bb, *wd[1:])]
                segs = [sg for sg in segs_by_page.get(page, [])
                        if inside(bb, min(sg[0], sg[2]), min(sg[1], sg[3]),
                                  max(sg[0], sg[2]), max(sg[1], sg[3]))]
                rcts = [rc for rc in rects_by_page.get(page, [])
                        if inside(bb, *rc)]
                ref = fig["media_ref"]
                if self.fmt in ("svg", "both"):
                    rel = (ref[:-4] + ".svg" if ref.endswith(".png")
                           else ref + ".svg")
                    path = os.path.join(self.media_root, rel)
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    svg = _figure_crop_svg(bb, words, segs, rcts)
                    tmp = path + ".tmp"
                    with open(tmp, "w", encoding="utf-8") as fh:
                        fh.write(svg)
                    os.replace(tmp, path)  # atomic, idempotent on retry
                if self.fmt in ("png", "both"):
                    rel = ref if ref.endswith(".png") else ref + ".png"
                    path = os.path.join(self.media_root, rel)
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    payload = _figure_crop_png(bb, words, segs, rcts,
                                               self.dpi)
                    tmp = path + ".tmp"
                    with open(tmp, "wb") as fh:
                        fh.write(payload)
                    os.replace(tmp, path)  # atomic, idempotent on retry
                out["doc_id"].append(row["doc_id"])
                out["media_ref"].append(ref)
                out["path"].append(path)
                out["n_words"].append(len(words))
                out["n_shapes"].append(len(segs) + len(rcts))
                out["error"].append("")
        return pd.DataFrame(out)


def export_media_svg(corpus_ds, cfg, media_root: str,
                     batch_size: int = 16, concurrency: int = 2,
                     fmt: str = "svg", dpi: int = 300):
    """REAL figure export: one crop per figure media_ref — ``fmt`` picks
    SVG vector, 300-dpi raster PNG, or both.  Returns the manifest
    Dataset (doc_id, media_ref, path, n_words, n_shapes, error); consume
    it to drive execution."""
    return corpus_ds.map_batches(
        VectorCropWriter,
        fn_constructor_kwargs={"cfg": cfg, "media_root": media_root,
                               "fmt": fmt, "dpi": dpi},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def export_media_png(corpus_ds, cfg, media_root: str, **kwargs):
    """300-dpi raster figure crops (the reference's images_to_save
    shape).  See :func:`export_media_svg`."""
    kwargs.setdefault("fmt", "png")
    return export_media_svg(corpus_ds, cfg, media_root, **kwargs)
