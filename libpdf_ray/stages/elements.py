"""Visual-debug rendering over the element geometry.

- :func:`debug_draw_table` — per-element draw commands with the
  reference's per-type colors (libpdf/parameters.py:190-214) for feeding
  any 2D canvas.
- :func:`render_debug_svg` — the actual page renderer
  (libpdf/utils.py:679-838 ``visual_debug_libpdf`` + ``render_pages``):
  one image per page with each element's bbox drawn translucent in its
  type color + include/exclude filtering + the split-per-element-type
  output mode.  The reference rasterizes via pdf2image/PIL (env-blocked
  here: no raster codec); SVG is a pure-text vector format, so the
  renderer is REAL — same boxes, same colors, same alpha, same file
  layout — and any browser displays it.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import PipelineConfig
from ..kernels.document import extract_document_full
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


class _SvgRenderer:
    """Actor-pool sink: raw corpus rows → one render per (doc, page) under
    ``out_dir`` (reference layout: ``libpdf_<page>.png`` per page,
    optionally split per element type into subdirectories —
    libpdf/utils.py:727-748).  ``fmt``: "svg" (vector), "png" (the
    reference's 150-dpi raster, real bytes via kernels/png.py), "both"."""

    def __init__(self, cfg: PipelineConfig, out_dir: str,
                 render_elements: tuple, split_elements: bool,
                 fmt: str = "svg", dpi: int = 150):
        self.cfg = cfg
        self.out_dir = out_dir
        self.render_elements = render_elements
        self.split_elements = split_elements
        self.fmt = fmt
        self.dpi = dpi

    def _write(self, path: str, payload):
        import os

        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        if isinstance(payload, bytes):
            with open(tmp, "wb") as fh:
                fh.write(payload)
        else:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(payload)
        os.replace(tmp, path)  # atomic, idempotent on retry

    def __call__(self, batch: pa.Table):
        import os

        import pandas as pd

        from .decoder import decode_sidecar_rows

        rows = decode_sidecar_rows(batch)
        out = {"doc_id": [], "page": [], "path": [], "n_boxes": [],
               "error": []}
        for row in rows:
            try:
                _, elements = extract_document_full(row, self.cfg)
            except Exception as exc:  # noqa: BLE001 - poison-doc discipline
                out["doc_id"].append(row["doc_id"])
                out["page"].append(0)
                out["path"].append("")
                out["n_boxes"].append(0)
                out["error"].append(f"{type(exc).__name__}: {exc}")
                continue
            page_dims = {
                int(p["number"]): (float(p["width"]), float(p["height"]))
                for p in row.get("pages") or []
            }
            by_page: dict = {}
            for el in elements:
                if el["etype"] not in self.render_elements:
                    continue
                by_page.setdefault(int(el["page"]), []).append(
                    (el["etype"], el["uid"], float(el["x0"]), float(el["y0"]),
                     float(el["x1"]), float(el["y1"]))
                )
            groups = (
                [(t,) for t in self.render_elements]
                if self.split_elements
                else [self.render_elements]
            )
            for page_no, (w, h) in sorted(page_dims.items()):
                boxes = by_page.get(page_no, [])
                for group in groups:
                    kept = [b for b in boxes if b[0] in group]
                    sub = group[0] if self.split_elements else ""
                    base = os.path.join(self.out_dir, row["doc_id"], sub)
                    path = ""
                    if self.fmt in ("svg", "both"):
                        path = os.path.join(base, f"libpdf_{page_no}.svg")
                        self._write(path, _page_svg(w, h, kept))
                    if self.fmt in ("png", "both"):
                        path = os.path.join(base, f"libpdf_{page_no}.png")
                        self._write(
                            path, _page_png(w, h, kept, self.dpi)
                        )
                    out["doc_id"].append(row["doc_id"])
                    out["page"].append(page_no)
                    out["path"].append(path)
                    out["n_boxes"].append(len(kept))
                    out["error"].append("")
        return pd.DataFrame(out)


def render_debug_svg(ds, cfg: PipelineConfig | None = None,
                     out_dir: str = "/tmp/libpdf_ray_visual_debug",
                     include_elements: tuple = (),
                     exclude_elements: tuple = (),
                     split_elements: bool = False,
                     batch_size: int = 16, concurrency: int = 2,
                     fmt: str = "svg", dpi: int = 150):
    """Visual debug, rendered: one SVG per (document, page) with every
    element's bbox drawn translucent in its reference color.

    Include/exclude semantics follow ``visual_debug_libpdf``
    (libpdf/utils.py:718-726): ``include`` wins when given, else
    RENDER_ELEMENTS minus ``exclude``.  Returns the manifest Dataset
    (doc_id, page, path, n_boxes, error); consume it to drive execution."""
    cfg = cfg or PipelineConfig()
    if include_elements:
        rendered = tuple(t for t in RENDER_ELEMENTS if t in include_elements)
    elif exclude_elements:
        rendered = tuple(
            t for t in RENDER_ELEMENTS if t not in exclude_elements
        )
    else:
        rendered = RENDER_ELEMENTS
    return ds.map_batches(
        _SvgRenderer,
        fn_constructor_kwargs={
            "cfg": cfg, "out_dir": out_dir,
            "render_elements": rendered, "split_elements": split_elements,
            "fmt": fmt, "dpi": dpi,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
