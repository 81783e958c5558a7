"""Style views: exact word/line/box color+font tuples (reference
tests/test_word_colors.py:7-143) and rect non_stroking_color
(tests/test_rects.py:118-233)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import build_document
from libpdf_ray.schema import RAW_DOC_SCHEMA


def _write(tmp_path, rows, name):
    path = str(tmp_path / name)
    pq.write_table(pa.Table.from_pylist(rows, schema=RAW_DOC_SCHEMA), path)
    return path


def test_text_styles_lifting_tuples(ray_session, tmp_path):
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    # colors family, doc 10: box 0 uniform red Courier; box 1 two lines with
    # different per-line colors; box 2 one line with mixed word colors
    doc = build_document(10, "colors")
    path = _write(tmp_path, [doc], "colors.parquet")
    df = view_table(read_corpus(path), "text_styles", SMART_CROP_CONFIG).to_pandas()

    b0 = df[df["box_idx"] == 0]
    assert (b0["word_ncolor_r"] == 1.0).all()
    assert (b0["word_fontname"] == "Courier").all()
    # uniform children lift all the way to the box
    assert (b0["box_ncolor_r"] == 1.0).all() and (b0["box_fontname"] == "Courier").all()

    b1 = df[df["box_idx"] == 1]
    # per-line colors: blue line then green line; box-level must NOT lift
    assert b1["box_ncolor_r"].isna().all()
    line0 = b1[b1["line_idx"] == 0]
    line1 = b1[b1["line_idx"] == 1]
    assert (line0["line_ncolor_b"] == 1.0).all()
    assert (line1["line_ncolor_g"] == 1.0).all()
    # fontname uniform across both lines → lifts to the box
    assert (b1["box_fontname"] == "Helvetica").all()

    b2 = df[df["box_idx"] == 2]
    # mixed word colors within ONE line: line-level color must not lift,
    # word-level colors survive exactly
    assert b2["line_ncolor_r"].isna().all()
    first = b2[b2["word_idx"] == 0].iloc[0]
    rest = b2[b2["word_idx"] > 0]
    assert (first["word_ncolor_r"], first["word_ncolor_g"], first["word_ncolor_b"]) == (1.0, 0.0, 0.0)
    assert (rest["word_ncolor_r"] == 0.0).all()
    assert (b2["line_fontname"] == "Courier").all()


def test_rawchars_styles_survive_char_assembly(ray_session, tmp_path):
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    doc = build_document(12, "rawchars")
    path = _write(tmp_path, [doc], "rawchars.parquet")
    df = view_table(read_corpus(path), "text_styles", SMART_CROP_CONFIG).to_pandas()
    # the mixed-style char box: first word red, rest black (box index 3)
    b = df[df["box_idx"] == 3]
    assert len(b) > 1
    assert b[b["word_idx"] == 0].iloc[0]["word_ncolor_r"] == 1.0
    assert (b[b["word_idx"] > 0]["word_ncolor_r"] == 0.0).all()
    assert b["line_ncolor_r"].isna().all()


def test_rect_styles_exact_colors(ray_session, tmp_path):
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    doc = build_document(7, "rects")
    path = _write(tmp_path, [doc], "rects.parquet")
    df = view_table(read_corpus(path), "rect_styles", SMART_CROP_CONFIG).to_pandas()
    assert len(df) == 2
    colors = sorted(
        tuple(round(v, 3) for v in t)
        for t in zip(df["ncolor_r"], df["ncolor_g"], df["ncolor_b"])
    )
    assert colors == [(0.9, 0.9, 0.5), (1.0, 0.5, 0.5)]
    # the filled rect captured its code text; the empty admonition bar none
    assert sorted(df["text"] != "") == [False, True]
