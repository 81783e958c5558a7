"""The word layout kernel (``textmodel.assemble_word_lines``) against the
dict word fold it replaced, and the routes that feed it.

The oracle is the old dict fold kept in ``tests/test_glyph_layout.py``
(``_cluster_into_lines`` with the absolute y tolerance only, then
``_line_from_words``).  Seeded word soups go in three ways — decoded
``wordtab`` views over one flat table, per-cell row lists over one page
table (a word may sit in two cells), and word dicts — and every box must
come out as the oracle's lines: text, style, bbox and word dicts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from libpdf_ray.config import SMART_CROP_CONFIG, PipelineConfig
from libpdf_ray.fixtures import corpus_table
from libpdf_ray.kernels.textmodel import (
    assemble_textbox_lines,
    assemble_word_lines,
    glyph_table_from_dicts,
    word_box_table,
)
from libpdf_ray.schema import RAW_DOC_SCHEMA
from libpdf_ray.stages import decoder
from libpdf_ray.stages.parse import parse_batch
from libpdf_ray.stages.views import view_batch
from tests.test_glyph_layout import (
    _COLORS,
    _FONTS,
    _cluster_into_lines,
    _line_from_words,
    _norm_color,
    outcome,
)


def oracle_word_lines(words: list, y_tolerance: float = 0.5) -> list:
    """The old ``assemble_textbox_lines`` words branch."""
    norm = [
        {"text": w["text"], "x0": float(w["x0"]), "y0": float(w["y0"]),
         "x1": float(w["x1"]), "y1": float(w["y1"]),
         "ncolor": _norm_color(w.get("ncolor")),
         "fontname": w.get("fontname") or None}
        for w in words
    ]
    return [_line_from_words(g) for g in _cluster_into_lines(norm, y_tolerance)]


# y offsets within a row: centers just under, at and over 0.5 pt apart
_DY = [0.0, 0.0, 0.25, 0.4999, 0.5, 0.5001, 0.75, 1.0]


def word_soup(rng) -> tuple:
    """One page: ``(words, boxes)``, boxes being lists of word indices.
    Rows of words whose y-centers sit under, at and over 0.5 pt apart, x0
    on a coarse grid (equal x0 happen), rows styled, mixed or unstyled,
    empty boxes and one word in two boxes; table and box order shuffled."""
    words: list = []
    boxes: list = []
    for b in range(int(rng.integers(1, 5))):
        box: list = []
        boxes.append(box)
        if rng.random() < 0.2:
            continue
        for row in range(int(rng.integers(1, 4))):
            style = rng.random()
            color = _COLORS[int(rng.integers(len(_COLORS)))] if style < 0.6 else None
            font = _FONTS[int(rng.integers(len(_FONTS)))] if style < 0.6 else None
            height = float(rng.choice([10.0, 12.0]))
            for _ in range(int(rng.integers(1, 6))):
                if style < 0.3 and rng.random() < 0.4:  # a mixed row
                    color = _COLORS[int(rng.integers(len(_COLORS)))]
                    font = _FONTS[int(rng.integers(len(_FONTS)))]
                y0 = 700.0 - 60.0 * b - 14.0 * row + float(rng.choice(_DY))
                x0 = 50.0 + 6.0 * int(rng.integers(0, 12))
                text = "".join(rng.choice(list("abcdefgh"), int(rng.integers(1, 6))))
                box.append(len(words))
                words.append({"text": text, "x0": x0, "y0": y0,
                              "x1": x0 + 6.0 * len(text), "y1": y0 + height,
                              "ncolor": color, "fontname": font})
    filled = [box for box in boxes if box]
    if len(boxes) > 1 and filled:
        src = filled[int(rng.integers(len(filled)))]
        dst = boxes[int(rng.integers(len(boxes)))]
        shared = src[int(rng.integers(len(src)))]
        if shared not in dst:
            dst.append(shared)
    perm = rng.permutation(len(words))
    new_index = np.argsort(perm)
    words = [words[i] for i in perm]
    boxes = [[int(new_index[i]) for i in rng.permutation(box)] for box in boxes]
    return words, boxes


def _decoded_boxes(box_words: list) -> list:
    """The boxes as the sidecar decoder hands them over: ``wordtab``
    views over one flat table decoded from the Arrow textboxes column."""
    tbs = [{"page": 1, "x0": 0.0, "y0": 0.0, "x1": 612.0, "y1": 792.0,
            "words": [dict(w, ncolor=None if w["ncolor"] is None else list(w["ncolor"]))
                      for w in ws],
            "chars": None}
           for ws in box_words]
    col = pa.array([tbs], RAW_DOC_SCHEMA.field("textboxes").type)
    return decoder._decode_textboxes(pa.chunked_array([col]))[0]


@pytest.mark.parametrize("seed", range(25))
def test_word_kernel_equals_dict_fold(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        words, boxes = word_soup(rng)
        box_words = [[words[i] for i in box] for box in boxes]
        want = [outcome(oracle_word_lines(ws)) for ws in box_words]

        # per-cell row lists over one page table
        rows = np.array([i for box in boxes for i in box], dtype=np.int64)
        counts = [len(box) for box in boxes]
        got = assemble_word_lines(glyph_table_from_dicts(words), rows, counts)
        assert [outcome(lines) for lines in got] == want

        # word dicts: box by box, and every box in one call
        dict_boxes = [{"words": ws} for ws in box_words]
        assert [outcome(assemble_textbox_lines(tb)) for tb in dict_boxes] == want
        got = assemble_word_lines(*word_box_table(dict_boxes))
        assert [outcome(lines) for lines in got] == want

        # decoded wordtab views over one shared table, with bounds; then
        # decoded and dict boxes mixed, which takes two tables
        decoded = _decoded_boxes(box_words)
        got = assemble_word_lines(*word_box_table(decoded))
        assert [outcome(lines) for lines in got] == want
        k = len(boxes) // 2
        got = assemble_word_lines(*word_box_table(decoded[:k] + dict_boxes[k:]))
        assert [outcome(lines) for lines in got] == want


def test_word_in_two_cell_crops_belongs_to_both():
    """A word straddling the border of two cells lies inside both cells'
    ±5 pt crops, so both cells' texts carry it."""
    from libpdf_ray.kernels.regions import table_from_grid

    cells = [{"row": 1, "col": c + 1, "x0": x0, "y0": 570.0, "x1": x0 + 100.0,
              "y1": 600.0} for c, x0 in enumerate((72.0, 172.0))]
    grid = {"cells": cells, "n_rows": 1, "n_cols": 2, "page": 1,
            "row_edges": [600.0, 570.0], "col_edges": [72.0, 172.0, 272.0]}
    words = [{"text": t, "x0": x, "y0": 580.0, "x1": x + 5.0, "y1": 590.0,
              "ncolor": None, "fontname": None}
             for t, x in (("left", 100.0), ("edge", 170.0), ("right", 200.0))]
    table = table_from_grid(grid, words, PipelineConfig())
    assert [c["text"] for c in table["cells"]] == ["left edge", "edge right"]
    assert table["text"] == "left edge\tedge right"


def _no_flat_decode(col):
    raise KeyError("schema-deviant textboxes column")


def test_missing_word_coordinate_is_an_error_row_on_both_routes(monkeypatch):
    """A word with a null coordinate is malformed outside input: the doc
    becomes the same error row whether the textboxes column takes the
    flat decode or the ``to_pylist`` fallback."""
    from libpdf_ray.fixtures import build_document

    doc = build_document(3, "colors")
    next(tb for tb in doc["textboxes"] if tb.get("words"))["words"][0]["x0"] = None
    batch = pa.Table.from_pylist([doc], schema=RAW_DOC_SCHEMA)
    flat = parse_batch(batch, PipelineConfig()).to_pylist()[0]
    monkeypatch.setattr(decoder, "_decode_textboxes", _no_flat_decode)
    fallback = parse_batch(batch, PipelineConfig()).to_pylist()[0]
    for row in (flat, fallback):
        assert row["n_spans"] == 0
        assert row["error"] == "ValueError: word box with a missing coordinate"


@pytest.mark.parametrize("cfg", [PipelineConfig(), SMART_CROP_CONFIG],
                         ids=["default", "smart_crop"])
def test_pylist_fallback_equals_flat_decode(cfg, monkeypatch):
    """Schema-deviant corpora decode through ``batch.to_pylist()``: dict
    ``words``/``chars`` then reach the kernels through
    ``glyph_table_from_dicts``.  Spans and text styles must equal the flat
    decode's on every family."""
    batch = corpus_table(64, seed=42, skew_pages=6)
    spans = parse_batch(batch, cfg).to_pylist()
    styles = view_batch(batch, "text_styles", cfg).to_pylist()
    monkeypatch.setattr(decoder, "_decode_textboxes", _no_flat_decode)
    tb = decoder.decode_sidecar_rows(batch)[0]["textboxes"][0]
    assert "wordtab" not in tb and "words" in tb  # the fallback really ran
    assert parse_batch(batch, cfg).to_pylist() == spans
    assert view_batch(batch, "text_styles", cfg).to_pylist() == styles
