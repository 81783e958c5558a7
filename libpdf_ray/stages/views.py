"""The relational views of the element model, as one Ray Data stage.

The reference's ``Root → Chapter/Paragraph/Table/Figure/Rect`` object graph
(plus cells, links, per-char styles and ``FileMeta``/``Page``) reaches
users here as seven flat tables.  :data:`VIEWS` maps each view name to its
output schema and a per-document row generator ``rows(doc, elements, cfg)``
over the FINISHED model: ``elements`` is ``extract_document_full``'s
element list, computed once per document by whoever calls the generators
(the parse task for every view a run asks for, :func:`view_batch` for the
driver's Dataset API).  :func:`view_table` runs any view over a Dataset of
raw document rows:

- ``elements`` — one row per element with uid, bbox and payload (the
  reference's ``ApiObjects`` flattened view, libpdf/apiobjects.py:18-79);
- ``cells`` — one row per table cell (``Cell(row, col, …)``,
  libpdf/models/table.py:108-160);
- ``links`` — one row per paragraph, cell or figure link
  (models/link.py:21-74); ``row``/``col`` are 0 for non-cell sources and
  ``target`` is "" for figure links (the reference never resolves them);
- ``text_styles`` — one row per WORD with its own color/font plus the
  line- and box-level lifted attributes, None where children are mixed
  (models/horizontal_box.py:6-211);
- ``rect_styles`` — one row per rect with its fill color and captured
  text (models/rect.py:17-54);
- ``file_meta`` / ``pages`` — the ``FileMeta`` and ``Page`` models
  (extract.py:489-590).

Every batch is decoded by :func:`decode_sidecar_rows`, so the views run
unchanged on sidecar rows and on real-PDF ``pdf_bytes`` rows, and every
output batch — 0 rows included — carries the view's declared schema.
Each :data:`VIEWS` entry says whether its rows read ``elements``;
``file_meta``, ``pages`` and ``text_styles`` never run the element layout.
When the document was laid out already (the parse task),
``text_styles`` reads the lines of the boxes that layout kept
(``textmodel.box_lines``) and assembles only the rest.
A document that fails to decode or lay out contributes no rows (its span
row carries the error).
Colors land as nullable ``(r, g, b)`` doubles so the tables stay joinable
and Arrow-clean.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import PipelineConfig
from ..kernels.document import extract_document_full, selected_pages, textbox_lines
from ..kernels.meta import parse_pdf_datetime, string_to_identifier
from ..kernels.textmodel import box_lines, hbox_from_lines, line_word_dicts
from .decoder import decode_sidecar_rows

_S, _I, _F = pa.string(), pa.int32(), pa.float64()


def _rgb(color):
    if color is None:
        return (None, None, None)
    c = tuple(float(v) for v in color)
    return (c + (None, None, None))[:3]


def _element_rows(doc, elements, cfg):
    for el in elements:
        yield {
            "doc_id": doc["doc_id"], "uid": el["uid"], "etype": el["etype"],
            "page": el["page"], "x0": el["x0"], "y0": el["y0"],
            "x1": el["x1"], "y1": el["y1"], "text": el.get("text", ""),
            "media_ref": el.get("media_ref", ""),
            "n_links": len(el.get("links", [])),
        }


def _cell_rows(doc, elements, cfg):
    # table_idx: 1-based reading-order ordinal per document (the uid is
    # chapter-scoped, the ordinal is the stable doc-level key the
    # generator-as-oracle expected_cells column uses)
    tables = [el for el in elements if el["etype"] == "table"]
    for table_idx, el in enumerate(tables, 1):
        for cell in el.get("cells", []):
            yield {
                "doc_id": doc["doc_id"], "page": el["page"],
                "table_uid": el["uid"], "table_idx": table_idx,
                **{k: cell[k] for k in ("row", "col", "text", "x0", "y0", "x1", "y1")},
            }


def _link_rows(doc, elements, cfg):
    def row(uid, kind, r, c, link):
        return {
            "doc_id": doc["doc_id"], "source_uid": uid, "source_kind": kind,
            "row": r, "col": c, "idx_start": link["idx_start"],
            "idx_stop": link["idx_stop"], "anchor": link["anchor"],
            "target": link.get("target", ""),
        }

    for el in elements:
        for link in el.get("links", []):
            yield row(el["uid"], el["etype"], 0, 0, link)
        if el["etype"] == "table":
            for cell in el.get("cells", []):
                for link in cell.get("links", []):
                    yield row(el["uid"], "cell", cell["row"], cell["col"], link)


def _text_style_rows(doc, elements, cfg):
    # the style model is read off ALL assembled textboxes (the layout
    # kernel the span path runs), independent of element classification:
    # the boxes this document's layout kept, through their lines, and the
    # rest (a page crop drops boxes) assembled here
    pages = selected_pages(doc, cfg)
    laid_cfg, laid_out = doc.get("_textboxes") or (None, {})
    if laid_cfg != cfg:
        laid_out = {}
    for box_idx, tb in enumerate(doc.get("textboxes") or []):
        if int(tb["page"]) not in pages:
            continue
        laid = laid_out.get(box_idx)
        lines = box_lines(laid) if laid is not None else textbox_lines(tb, cfg)
        hbox = hbox_from_lines(lines)
        br, bg, bb = _rgb(hbox["ncolor"])
        for line_idx, ln in enumerate(lines):
            lr, lg, lb = _rgb(ln["ncolor"])
            for word_idx, w in enumerate(line_word_dicts(ln)):
                wr, wg, wb = _rgb(w["ncolor"])
                yield {
                    "doc_id": doc["doc_id"], "page": int(tb["page"]),
                    "box_idx": box_idx, "line_idx": line_idx,
                    "word_idx": word_idx, "word_text": w["text"],
                    "word_ncolor_r": wr, "word_ncolor_g": wg,
                    "word_ncolor_b": wb, "word_fontname": w["fontname"],
                    "line_ncolor_r": lr, "line_ncolor_g": lg,
                    "line_ncolor_b": lb, "line_fontname": ln["fontname"],
                    "box_ncolor_r": br, "box_ncolor_g": bg,
                    "box_ncolor_b": bb, "box_fontname": hbox["fontname"],
                }


def _rect_style_rows(doc, elements, cfg):
    for el in elements:
        if el["etype"] == "rect":
            r, g, b = _rgb(el.get("ncolor"))
            yield {
                "doc_id": doc["doc_id"], "page": el["page"],
                "x0": el["x0"], "y0": el["y0"], "x1": el["x1"], "y1": el["y1"],
                "ncolor_r": r, "ncolor_g": g, "ncolor_b": b,
                "text": el.get("text", ""),
            }


_META_FIELDS = ("author", "title", "subject", "creator", "producer", "keywords")


def _file_meta_rows(doc, elements, cfg):
    # a PDF "D:" string (``*_date_raw``) is parsed with the reference's
    # lenient grammar; the sidecar's native timestamp is passed otherwise
    meta = doc.get("meta") or {}

    def date(key):
        raw = meta.get(f"{key}_raw")
        return parse_pdf_datetime(raw) if raw else meta.get(key)

    yield {
        "doc_id": doc["doc_id"],
        "file_identifier": string_to_identifier(str(doc["doc_id"])),
        **{k: meta.get(k) for k in _META_FIELDS},
        "creation_date": date("creation_date"),
        "modified_date": date("modified_date"),
        "trapped": meta.get("trapped"),
        "n_pages": len(doc.get("pages") or []),
    }


def _page_rows(doc, elements, cfg):
    for p in doc.get("pages") or []:
        yield {"doc_id": doc["doc_id"], "number": int(p["number"]),
               "width": float(p["width"]), "height": float(p["height"])}


_BBOX = [("x0", _F), ("y0", _F), ("x1", _F), ("y1", _F)]
_RGB = [("ncolor_r", _F), ("ncolor_g", _F), ("ncolor_b", _F)]


def _style(level):
    return [(f"{level}_{n}", t) for n, t in _RGB + [("fontname", _S)]]


#: view name → (output schema, per-document row generator
#: ``rows(doc, elements, cfg)``, whether the rows read ``elements``; a
#: view that does not gets ``elements=None``)
VIEWS = {
    "elements": (pa.schema(
        [("doc_id", _S), ("uid", _S), ("etype", _S), ("page", _I), *_BBOX,
         ("text", _S), ("media_ref", _S), ("n_links", _I)]), _element_rows, True),
    "cells": (pa.schema(
        [("doc_id", _S), ("page", _I), ("table_uid", _S), ("table_idx", _I),
         ("row", _I), ("col", _I), ("text", _S), *_BBOX]), _cell_rows, True),
    "links": (pa.schema(
        [("doc_id", _S), ("source_uid", _S), ("source_kind", _S),
         ("row", _I), ("col", _I), ("idx_start", _I), ("idx_stop", _I),
         ("anchor", _S), ("target", _S)]), _link_rows, True),
    "text_styles": (pa.schema(
        [("doc_id", _S), ("page", _I), ("box_idx", _I), ("line_idx", _I),
         ("word_idx", _I), ("word_text", _S),
         *_style("word"), *_style("line"), *_style("box")]), _text_style_rows,
        False),
    "rect_styles": (pa.schema(
        [("doc_id", _S), ("page", _I), *_BBOX, *_RGB, ("text", _S)]),
        _rect_style_rows, True),
    "file_meta": (pa.schema(
        [("doc_id", _S), ("file_identifier", _S),
         *((k, _S) for k in _META_FIELDS),
         ("creation_date", pa.timestamp("s")),
         ("modified_date", pa.timestamp("s")), ("trapped", pa.bool_()),
         ("n_pages", _I)]), _file_meta_rows, False),
    "pages": (pa.schema(
        [("doc_id", _S), ("number", _I), ("width", _F), ("height", _F)]),
        _page_rows, False),
}


def view_batch(batch: pa.Table, name: str, cfg: PipelineConfig) -> pa.Table:
    """Arrow batch of raw document rows → the ``name`` view's rows: one
    decode per batch, one layout per document (none for a view whose rows
    do not read ``elements``)."""
    schema, rows, reads_elements = VIEWS[name]
    out = []
    for doc in decode_sidecar_rows(batch):
        if doc.get("_decode_error"):
            continue
        elements = None
        if reads_elements:
            try:
                elements = extract_document_full(doc, cfg)[1]
            except Exception:  # noqa: BLE001 - poison doc, as in parse_batch
                continue
        out.extend(rows(doc, elements, cfg))
    return pa.Table.from_pylist(out, schema=schema)


def view_table(ds, name: str, cfg: PipelineConfig | None = None):
    """Dataset of raw document rows (sidecar or ``pdf_bytes``) → the
    ``name`` view (one of :data:`VIEWS`)."""
    if name not in VIEWS:
        raise KeyError(f"unknown view {name!r}; expected one of {list(VIEWS)}")
    return ds.map_batches(
        view_batch, fn_kwargs={"name": name, "cfg": cfg or PipelineConfig()},
        batch_format="pyarrow", batch_size=64,
    )
