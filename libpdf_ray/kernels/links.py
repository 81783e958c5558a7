"""Link-annotation kernels: anchor char spans and target resolution.

Re-derives the semantics of:

- ``extract_linked_chars`` / ``annos_scanner`` / char-in-anno marking
  /root/reference/libpdf/textbox.py:603-795 (char-level intersection of a
  textbox with annotation rects, with ANNO_X/Y_TOLERANCE)
- ``render_link`` + named-destination lookup
  /root/reference/libpdf/textbox.py:798-844
- ``libpdf_target_explorer`` / ``find_target_id``
  /root/reference/libpdf/process.py:397-536 (resolve (page, x, y) to the
  first containing element's hierarchical uid, else ``page.<n>/<x>:<y>``)

Char geometry: the synthetic interleaved source renders every textbox on a
fixed-pitch grid — char ``j`` of line ``i`` occupies
``[x0 + j*CHAR_W, x0 + (j+1)*CHAR_W] × [y1-(i+1)*LINE_H, y1-i*LINE_H]``.
This is the sidecar's documented char model (the analog of pdfminer's
per-char bboxes that a real PDF source would supply); both the generator and
this kernel derive from it, so char indices are exact.
"""

from __future__ import annotations

from .bbox import contains_coord

CHAR_W = 6.0
LINE_H = 12.0


def line_char_offsets(lines: list) -> list:
    """Start offset of each line within the '\\n'-joined box text."""
    offsets = []
    pos = 0
    for line in lines:
        offsets.append(pos)
        pos += len(line) + 1  # +1 for the '\n'
    return offsets


def _char_centers_from_lines(lines: list) -> list:
    """(char_index, cx, cy) for every glyph of an assembled textbox, from
    REAL word geometry: char centers interpolate the word bbox at uniform
    pitch (the per-char boxes a true char stream carries; word-accurate
    for fixed-pitch runs).  Char indices follow the ``' '``/``'\\n'`` join
    convention of the box text."""
    from .textmodel import line_word_dicts

    centers = []
    offset = 0
    for line in lines:
        pos = offset
        words = line_word_dicts(line)
        for k, w in enumerate(words):
            n = max(len(w["text"]), 1)
            pitch = (w["x1"] - w["x0"]) / n
            cy = (w["y0"] + w["y1"]) / 2.0
            for j in range(len(w["text"])):
                centers.append(
                    (pos + j, w["x0"] + (j + 0.5) * pitch, cy)
                )
            pos += len(w["text"])
            if k + 1 < len(words):
                # the joining space: a position-less LTAnno in the
                # reference; give it the midpoint between the words so
                # an anno rect that spans the gap includes it
                # (first_last_char_in_anno_marker LTAnno attachment,
                # textbox.py:767-795)
                centers.append(
                    (pos, (w["x1"] + words[k + 1]["x0"]) / 2.0, cy)
                )
            pos += 1  # space / newline slot
        offset += len(line["text"]) + 1
    return centers


def extract_links_for_textbox(
    textbox: dict,
    annotations: list,
    anno_x_tolerance: float = 3.0,
    anno_y_tolerance: float = 3.0,
    lines: list | None = None,
) -> list:
    """Intersect one textbox with the page's annotation rects.

    ``textbox``: {x0,y0,x1,y1,text} with text = '\\n'-joined lines.
    ``annotations``: page-local dicts {x0,y0,x1,y1,dest_page,dest_x,dest_y,
    dest_name}.  Returns links sorted by idx_start:
    ``{"idx_start", "idx_stop", "anchor", "dest": {...}}`` with Python slice
    convention for the span (libpdf/models/link.py:21-74).

    A char belongs to an annotation when its center falls inside the rect
    expanded by the x/y tolerances (the observable effect of the
    first/last-char marking in libpdf/textbox.py:737-795).  When assembled
    ``lines`` with word geometry are supplied, char centers come from the
    REAL word boxes (annos_scanner over the glyph stream, textbox.py:
    670-795 — M16/M17); the fixed-pitch grid model is only the fallback
    for legacy corpora without geometry.
    """
    # quick reject before materializing any word geometry
    live = []
    for anno in annotations:
        ax0 = float(anno["x0"]) - anno_x_tolerance
        ax1 = float(anno["x1"]) + anno_x_tolerance
        ay0 = float(anno["y0"]) - anno_y_tolerance
        ay1 = float(anno["y1"]) + anno_y_tolerance
        if (
            ax1 <= textbox["x0"]
            or ax0 >= textbox["x1"]
            or ay1 <= textbox["y0"]
            or ay0 >= textbox["y1"]
        ):
            continue
        live.append((anno, ax0, ay0, ax1, ay1))
    if not live:
        return []

    centers = _char_centers_from_lines(lines) if lines else []
    if not centers:
        # grid fallback (legacy corpora without word geometry)
        text_lines = textbox["text"].split("\n")
        offsets = line_char_offsets(text_lines)
        for i, line in enumerate(text_lines):
            cy = textbox["y1"] - (i + 0.5) * LINE_H
            for j in range(len(line)):
                centers.append(
                    (offsets[i] + j, textbox["x0"] + (j + 0.5) * CHAR_W, cy)
                )

    text = textbox["text"]
    links = []
    for anno, ax0, ay0, ax1, ay1 in live:
        start = None
        stop = None
        for idx, cx, cy in centers:
            if ax0 <= cx <= ax1 and ay0 <= cy <= ay1:
                if start is None:
                    start = idx
                stop = idx + 1
        if start is not None:
            links.append(
                {
                    "idx_start": start,
                    "idx_stop": stop,
                    "anchor": text[start:stop],
                    "dest": {
                        "page": int(anno.get("dest_page") or 0),
                        "x": float(anno.get("dest_x") or 0.0),
                        "y": float(anno.get("dest_y") or 0.0),
                        "name": anno.get("dest_name") or "",
                    },
                }
            )
    links.sort(key=lambda lk: lk["idx_start"])
    return links


def resolve_named_dest(dest: dict, named_dests: dict) -> dict:
    """``anno.des_name → catalog['dests'][name]`` (libpdf/textbox.py:817-830).

    ``named_dests``: {name: (page, x, y)}.  Unknown names keep the explicit
    coordinates."""
    name = dest.get("name") or ""
    if name and name in named_dests:
        page, x, y = named_dests[name]
        return {"page": int(page), "x": float(x), "y": float(y), "name": name}
    return dest


def find_target_uid(
    dest: dict,
    elements_in_doc_order: list,
    tolerance: float = 65.0,
) -> str:
    """find_target_id (process.py:489-536): first element on the destination
    page whose bbox contains the coordinate (leftward/upward tolerance) wins;
    fallback is the raw page coordinate string."""
    page = dest["page"]
    x, y = dest["x"], dest["y"]
    if not page:
        return "Out Of extracted pages scope"
    for el in elements_in_doc_order:
        if el["page"] != page:
            continue
        if contains_coord(
            (el["x0"], el["y0"], el["x1"], el["y1"]), page, page, x, y, tolerance
        ):
            return el["uid"]
    return f"page.{page}/{x}:{y}"
