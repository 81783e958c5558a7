"""The relational-view stage (``stages/views.py``): every view declares its
schema, and the views agree with the span path on real-PDF bytes."""

from __future__ import annotations

import pyarrow as pa
import pytest

import libpdf_ray.kernels.document as document
from libpdf_ray.config import PipelineConfig
from libpdf_ray.fixtures import build_document, corpus_table
from libpdf_ray.kernels.pdfwrite import write_pdf
from libpdf_ray.kernels.textmodel import line_word_dicts
from libpdf_ray.stages.decoder import decode_sidecar_rows
from libpdf_ray.stages.views import VIEWS, view_batch

CFG = PipelineConfig()


def _pdf_batch(doc: dict) -> pa.Table:
    return pa.table({"doc_id": [doc["doc_id"]], "pdf_bytes": [write_pdf(doc)]})


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_empty_batch_keeps_declared_schema(name):
    out = view_batch(corpus_table(1).slice(0, 0), name, CFG)
    assert out.num_rows == 0
    assert out.schema == VIEWS[name][0]


def test_rect_styles_on_pdf_bytes_match_elements():
    batch = _pdf_batch(build_document(100, "rects"))
    rects = [
        (r["page"], r["x0"], r["y0"], r["x1"], r["y1"], r["text"])
        for r in view_batch(batch, "elements", CFG).to_pylist()
        if r["etype"] == "rect"
    ]
    styles = [
        (r["page"], r["x0"], r["y0"], r["x1"], r["y1"], r["text"])
        for r in view_batch(batch, "rect_styles", CFG).to_pylist()
    ]
    assert len(rects) == 2
    assert sorted(styles) == sorted(rects)


@pytest.mark.parametrize("seed", [100, 317])
def test_text_styles_on_pdf_bytes_match_prepare_pages(seed, monkeypatch):
    """text_styles words per (page, box_idx, line_idx) are the lines
    prepare_pages assembles for each raw textbox (the PDF decoder emits
    one ungrouped char soup per page, so table-row cells stay apart)."""
    batch = _pdf_batch(build_document(seed, "tables"))
    got: dict = {}
    for r in view_batch(batch, "text_styles", CFG).to_pylist():
        key = (r["page"], r["box_idx"], r["line_idx"])
        got.setdefault(key, []).append(r["word_text"])

    # capture each raw textbox's assembled lines where prepare_pages hands
    # them to the line-to-box grouping
    seen = []
    group = document.group_lines_into_boxes_la

    def record(lines, *args, **kwargs):
        seen.append(lines)
        return group(lines, *args, **kwargs)

    monkeypatch.setattr(document, "group_lines_into_boxes_la", record)
    doc = decode_sidecar_rows(batch)[0]
    document.prepare_pages(doc, document.selected_pages(doc, CFG), CFG)
    assert len(seen) == len(doc["textboxes"])
    want = {
        (tb["page"], box_idx, line_idx): [w["text"] for w in line_word_dicts(ln)]
        for box_idx, (tb, lines) in enumerate(zip(doc["textboxes"], seen))
        for line_idx, ln in enumerate(lines)
        if line_word_dicts(ln)
    }
    assert got == want


def test_word_colors_on_generated_pdf():
    """Generated-PDF twin of the colour assertions of
    ``tests/test_pdf_bytes.py::TestWordColors``: per-word fill colours
    survive byte decode → glyph layout → line lift.  Uniform lines lift
    their colour; the mixed line (first word red, the rest in the PDF
    default fill) lifts None.  Fonts are left out: the writer uses one."""
    from libpdf_ray.config import SMART_CROP_CONFIG

    doc = build_document(10, "colors")
    paras = [s["text"].split("\n") for s in doc["expected_spans"]
             if s["kind"] == "paragraph"]
    red_lines, (blue, green), (mixed,) = paras[0], paras[1], paras[2]
    lines: dict = {}
    for r in view_batch(_pdf_batch(doc), "text_styles", SMART_CROP_CONFIG).to_pylist():
        lines.setdefault((r["page"], r["box_idx"], r["line_idx"]), []).append(r)
    by_text = {" ".join(r["word_text"] for r in rows): rows for rows in lines.values()}

    def rgb(row, level):
        return tuple(row[f"{level}_ncolor_{c}"] for c in "rgb")

    for text, color in [(t, (1.0, 0.0, 0.0)) for t in red_lines] + [
            (blue, (0.0, 0.0, 1.0)), (green, (0.0, 1.0, 0.0))]:
        assert rgb(by_text[text][0], "line") == color, text
    assert mixed.startswith("ex")
    rows = by_text[mixed]
    assert rgb(rows[0], "line") == (None, None, None)
    assert rgb(rows[0], "word") == (1.0, 0.0, 0.0)
    assert {rgb(r, "word") for r in rows[1:]} == {(0.0, 0.0, 0.0)}
