"""Visual-debug rendering over the element geometry.

- :func:`debug_draw_table` — per-element draw commands with the
  reference's per-type colors (libpdf/parameters.py:190-214) for feeding
  any 2D canvas.
- :func:`debug_pages` — the actual page renderer
  (libpdf/utils.py:679-838 ``visual_debug_libpdf`` + ``render_pages``):
  one image per page with each element's bbox drawn translucent in its
  type color + include/exclude filtering (:func:`rendered_elements`) +
  the split-per-element-type output mode.  The parse task writes its
  files from the element model it already built.  The reference
  rasterizes via pdf2image/PIL; here SVG (pure-text vector) and PNG (the
  stdlib canvas of ``kernels/png.py``) are both REAL — same boxes, same
  colors, same alpha, same file layout.
"""

from __future__ import annotations

import os

from ..config import PipelineConfig
from .views import view_table

#: per-element-type debug colors (VIS_DBG_MAP_ELEMENTS_COLOR analog)
DEBUG_COLORS = {
    "chapter": "red",
    "paragraph": "blue",
    "table": "green",
    "figure": "orange",
    "rect": "purple",
}

#: rgba fills matching VIS_DBG_MAP_ELEMENTS_COLOR (alpha 40-160 / 255),
#: libpdf/parameters.py:199-206
DEBUG_RGBA = {
    "chapter": (0, 255, 0, 80),
    "paragraph": (0, 0, 255, 40),
    "table": (255, 0, 0, 40),
    "figure": (255, 255, 0, 80),
    "rect": (255, 255, 1, 160),
}

#: default element types rendered (RENDER_ELEMENTS,
#: libpdf/parameters.py:208-214)
RENDER_ELEMENTS = ("chapter", "paragraph", "table", "figure", "rect")


def debug_draw_table(ds, cfg: PipelineConfig | None = None):
    """Draw-command rows: (doc_id, page, color, x0, y0, x1, y1, label)."""
    import pandas as pd

    els = view_table(ds, "elements", cfg)

    def to_draw(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["etype"].isin(DEBUG_COLORS)].copy()
        df["color"] = df["etype"].map(DEBUG_COLORS)
        df["label"] = df["uid"]
        return df[["doc_id", "page", "color", "x0", "y0", "x1", "y1", "label"]]

    return els.map_batches(to_draw, batch_format="pandas")


def _page_svg(width: float, height: float, boxes: list) -> str:
    """One page's SVG: white page + one translucent rect per element.

    ``boxes``: (etype, uid, x0, y0, x1, y1) in PDF coordinates (origin
    bottom-left) — flipped to SVG's top-left here."""
    from xml.sax.saxutils import escape

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" '
        f'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for etype, uid, x0, y0, x1, y1 in boxes:
        r, g, b, a = DEBUG_RGBA[etype]
        top = height - y1
        parts.append(
            f'<rect x="{x0:g}" y="{top:g}" width="{x1 - x0:g}" '
            f'height="{y1 - y0:g}" fill="rgb({r},{g},{b})" '
            f'fill-opacity="{a / 255:.3f}" stroke="rgb({r},{g},{b})" '
            f'stroke-width="1">'
            f"<title>{escape(uid)}</title></rect>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _page_png(width: float, height: float, boxes: list,
              dpi: int = 150) -> bytes:
    """Raster twin of :func:`_page_svg` at the reference's debug dpi
    (``visual_debug_libpdf`` renders pages at resolution=150,
    libpdf/utils.py:752-838): white page, one translucent rgba fill +
    solid outline per element, rendered through the stdlib canvas."""
    from ..kernels.png import Canvas

    cv = Canvas(width, height, dpi=dpi)
    cv.stroke_rect(0, 0, width, height, (0, 0, 0, 255), 1.0)
    for etype, _uid, x0, y0, x1, y1 in boxes:
        r, g, b, a = DEBUG_RGBA[etype]
        cv.fill_rect(x0, y0, x1, y1, (r, g, b, a))
        cv.stroke_rect(x0, y0, x1, y1, (r, g, b, 255), 1.0)
    return cv.png_bytes()


def rendered_elements(include: tuple = (), exclude: tuple = ()) -> tuple:
    """The element types a visual-debug run draws, following
    ``visual_debug_libpdf`` (libpdf/utils.py:718-726): ``include`` wins
    when given, else RENDER_ELEMENTS minus ``exclude``."""
    if include:
        return tuple(t for t in RENDER_ELEMENTS if t in include)
    return tuple(t for t in RENDER_ELEMENTS if t not in exclude)


def debug_pages(doc: dict, elements: list, rendered: tuple = RENDER_ELEMENTS,
                split: bool = False, fmt: str = "svg") -> list:
    """One document's visual-debug files as ``(relative path, payload)``:
    one render per (page, group) with each element's bbox drawn
    translucent in its reference color, in the reference layout
    (``<doc_id>/libpdf_<page>.<ext>``, or one subdirectory per element
    type when ``split`` — libpdf/utils.py:727-748).  Every page of the
    document is drawn.  ``fmt``: "svg" (vector), "png" (the reference's
    150-dpi raster) or "both"."""
    by_page: dict = {}
    for el in elements:
        if el["etype"] in rendered:
            by_page.setdefault(int(el["page"]), []).append(
                (el["etype"], el["uid"], float(el["x0"]), float(el["y0"]),
                 float(el["x1"]), float(el["y1"]))
            )
    groups = [(t,) for t in rendered] if split else [rendered]
    page_dims = {
        int(p["number"]): (float(p["width"]), float(p["height"]))
        for p in doc.get("pages") or []
    }
    files = []
    for page_no, (w, h) in sorted(page_dims.items()):
        boxes = by_page.get(page_no, [])
        for group in groups:
            kept = [b for b in boxes if b[0] in group]
            base = os.path.join(doc["doc_id"], group[0] if split else "",
                                f"libpdf_{page_no}")
            if fmt in ("svg", "both"):
                files.append((base + ".svg", _page_svg(w, h, kept)))
            if fmt in ("png", "both"):
                files.append((base + ".png", _page_png(w, h, kept)))
    return files
