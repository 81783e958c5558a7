"""The glyph-table layout kernel (``textmodel.assemble_glyph_lines``)
against the per-glyph dict fold it replaced.

The oracle below is the previous dict route, kept verbatim: pseudo-anno
deletion, the running-center line fold (with pdfminer's relative-overlap
rule and the ``char_margin`` column split) or the stream-order neighbour
fold, then the chars→words loop and the uniform-or-None style lifts.  For
every glyph soup both must produce the same lines: text, style, bbox and
word dicts.  Soups are seeded and cover whitespace glyphs, NaN pseudo-anno
glyphs, ligature expansions sharing one box, zero-width glyphs, mixed
colors and fonts, two columns across a narrow gutter, mixed metrics on one
baseline, and text drawn bottom-to-top or shuffled.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from libpdf_ray.config import PipelineConfig
from libpdf_ray.fixtures import build_document
from libpdf_ray.kernels.document import textbox_lines
from libpdf_ray.kernels.pdfwrite import write_pdf
from libpdf_ray.kernels.textmodel import (
    assemble_glyph_lines,
    assemble_textbox_lines,
    glyph_table_from_dicts,
    line_word_dicts,
    tab_slice,
)
from libpdf_ray.schema import RAW_DOC_SCHEMA
from libpdf_ray.stages.decoder import _decode_textboxes
from libpdf_ray.stages.pdf_decoder import decode_pdf_document

# -- the oracle: the dict fold as it was ---------------------------------


def _uniform(values):
    it = iter(values)
    try:
        first = next(it)
    except StopIteration:
        return None
    for v in it:
        if v != first:
            return None
    return first


def _norm_color(ncolor):
    if ncolor is None:
        return None
    t = tuple(float(c) for c in ncolor)
    return t if t else None


def _is_pseudo_anno(run: dict) -> bool:
    if run.get("text") not in (" ", "\n"):
        return False
    x0 = run.get("x0")
    return x0 is None or x0 != x0


def _cluster_into_lines(items: list, y_tolerance: float,
                        line_overlap: float = 0.0) -> list:
    if not items:
        return []
    ordered = sorted(
        items, key=lambda it: (-(it["y0"] + it["y1"]) / 2.0, it["x0"])
    )
    lines = [[ordered[0]]]
    last = ordered[0]
    last_yc = (last["y0"] + last["y1"]) / 2.0
    for it in ordered[1:]:
        yc = (it["y0"] + it["y1"]) / 2.0
        same = abs(yc - last_yc) < y_tolerance
        if not same and line_overlap > 0.0:
            overlap = min(last["y1"], it["y1"]) - max(last["y0"], it["y0"])
            min_h = min(last["y1"] - last["y0"], it["y1"] - it["y0"])
            same = overlap > line_overlap * min_h > 0
        if same:
            lines[-1].append(it)
        else:
            lines.append([it])
        last = it
        last_yc = yc
    for line in lines:
        line.sort(key=lambda it: it["x0"])
    return lines


def chars_to_words(line_chars: list, word_margin: float) -> list:
    """Chars of ONE x-sorted line → word dicts (pdfminer word semantics)."""
    words = []
    cur: list = []

    def flush():
        if cur:
            words.append(_make_word(cur))
            cur.clear()

    prev = None
    for ch in line_chars:
        if ch["text"].strip() == "":
            flush()
            prev = ch
            continue
        if prev is not None and cur:
            gap = ch["x0"] - prev["x1"]
            if gap > word_margin * (ch["x1"] - ch["x0"]):
                flush()
        cur.append(ch)
        prev = ch
    flush()
    return words


def _make_word(chars: list) -> dict:
    return {
        "text": "".join(c["text"] for c in chars),
        "x0": min(c["x0"] for c in chars),
        "y0": min(c["y0"] for c in chars),
        "x1": max(c["x1"] for c in chars),
        "y1": max(c["y1"] for c in chars),
        "ncolor": _uniform(_norm_color(c.get("ncolor")) for c in chars),
        "fontname": _uniform(c.get("fontname") or None for c in chars),
    }


def _line_from_words(words: list) -> dict:
    line = {
        "text": " ".join(w["text"] for w in words),
        "ncolor": _uniform(w["ncolor"] for w in words),
        "fontname": _uniform(w["fontname"] for w in words),
        "words": words,
    }
    if words:
        line["x0"] = min(w["x0"] for w in words)
        line["y0"] = min(w["y0"] for w in words)
        line["x1"] = max(w["x1"] for w in words)
        line["y1"] = max(w["y1"] for w in words)
    return line


def _stream_lines(chars: list, line_overlap: float, char_margin: float) -> list:
    lines: list = []
    cur: list = []
    last = None
    for ch in chars:
        if last is not None:
            ov = min(last["y1"], ch["y1"]) - max(last["y0"], ch["y0"])
            min_h = min(last["y1"] - last["y0"], ch["y1"] - ch["y0"])
            if ch["x0"] >= last["x1"]:
                hdist = ch["x0"] - last["x1"]
            elif last["x0"] >= ch["x1"]:
                hdist = last["x0"] - ch["x1"]
            else:
                hdist = 0.0
            w = max(last["x1"] - last["x0"], ch["x1"] - ch["x0"])
            if not (ov > line_overlap * min_h and hdist < char_margin * w):
                lines.append(cur)
                cur = []
        cur.append(ch)
        last = ch
    if cur:
        lines.append(cur)
    for ln in lines:
        ln.sort(key=lambda c: c["x0"])
    return lines


def _split_by_char_margin(line_chars: list, char_margin: float) -> list:
    if len(line_chars) < 2:
        return [line_chars]
    out = [[line_chars[0]]]
    prev = line_chars[0]
    for ch in line_chars[1:]:
        gap = ch["x0"] - prev["x1"]
        w = max(prev["x1"] - prev["x0"], ch["x1"] - ch["x0"])
        if gap >= char_margin * w and gap > 0:
            out.append([])
        out[-1].append(ch)
        prev = ch
    return out


def oracle_lines(chars: list, y_tolerance: float = 0.5,
                 word_margin: float = 0.1, char_margin: float = 0.0,
                 stream_ordered: bool = False) -> list:
    """The old ``assemble_textbox_lines`` chars branch."""
    chars = [c for c in chars if not _is_pseudo_anno(c)]
    if not chars:
        return []
    if char_margin > 0.0 and stream_ordered:
        groups = _stream_lines(chars, 0.5, char_margin)
        groups.sort(
            key=lambda g: (
                -(min(c["y0"] for c in g) + max(c["y1"] for c in g)) / 2.0,
                g[0]["x0"],
            )
        )
    else:
        groups = _cluster_into_lines(list(chars), y_tolerance, line_overlap=0.5)
        if char_margin > 0.0:
            groups = [p for g in groups for p in _split_by_char_margin(g, char_margin)]
    lines = [_line_from_words(chars_to_words(g, word_margin)) for g in groups]
    return [ln for ln in lines if ln["words"]]


def outcome(lines: list) -> list:
    """What a line list means downstream: text, style, bbox, word dicts."""
    return [
        (ln["text"], ln["ncolor"], ln["fontname"],
         ln["x0"], ln["y0"], ln["x1"], ln["y1"], line_word_dicts(ln))
        for ln in lines
    ]


# -- seeded glyph soups ---------------------------------------------------

_COLORS = [None, (), [0, 0, 0], (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), [0.0, 0.0, 1]]
_FONTS = [None, "", "Courier", "Helvetica-Bold"]
_TEXT = "abcdefghijklmnopqrstuvwxyz0123456789.,;"
_SPACES = [" ", "\xa0", "\t", " "]


def soup(rng) -> list:
    """One page's glyphs in stream order: rows of words in one or two
    columns, with every irregularity the decoders hand the kernel."""
    n_cols = int(rng.integers(1, 3))
    gutter = float(rng.choice([2.0, 8.0, 40.0]))
    col_w = float(rng.uniform(60, 160))
    rows = int(rng.integers(1, 6))
    styled = rng.random() < 0.6
    line_h = float(rng.choice([9.0, 12.0, 14.0]))
    glyphs: list = []
    for col in range(n_cols):
        for row in range(rows):
            base = 700.0 - row * line_h + float(rng.choice([0.0, 0.0, 0.3, 0.7, 2.0]))
            x = 50.0 + col * (col_w + gutter) + float(rng.uniform(0, 4))
            size = float(rng.choice([8.0, 10.0, 10.0, 12.0]))
            color = _COLORS[int(rng.integers(len(_COLORS)))] if styled else None
            font = _FONTS[int(rng.integers(len(_FONTS)))] if styled else None
            run: list = []
            while x < 50.0 + col * (col_w + gutter) + col_w:
                r = rng.random()
                if r < 0.05:  # metric change on the same baseline
                    size = float(rng.choice([6.0, 8.0, 10.0, 12.0]))
                if styled and r > 0.9:  # per-glyph style change
                    color = _COLORS[int(rng.integers(len(_COLORS)))]
                    font = _FONTS[int(rng.integers(len(_FONTS)))]
                w = size * float(rng.uniform(0.3, 0.7))
                y0, y1 = base - 0.2 * size, base + 0.8 * size
                if r < 0.1:  # explicit whitespace glyph with a box
                    ch, x1 = _SPACES[int(rng.integers(len(_SPACES)))], x + w
                elif r < 0.13:  # zero-width glyph
                    ch, x1 = _TEXT[int(rng.integers(len(_TEXT)))], x
                else:
                    ch, x1 = _TEXT[int(rng.integers(len(_TEXT)))], x + w
                g = {"text": ch, "x0": x, "y0": y0, "x1": x1, "y1": y1,
                     "ncolor": color, "fontname": font}
                run.append(g)
                if 0.13 <= r < 0.16:  # ligature: "fi" shares one box
                    run.append(dict(g, text="i", x0=x1))
                x = x1 + float(rng.choice([0.0, 0.0, 0.2, 0.5, 2.0, 6.0]))
            glyphs.extend(run)
    for _ in range(int(rng.integers(0, 4))):  # pseudo-anno glyphs: no box
        nan = float("nan") if rng.random() < 0.7 else None
        glyphs.insert(int(rng.integers(0, len(glyphs) + 1)),
                      {"text": " " if rng.random() < 0.5 else "\n",
                       "x0": nan, "y0": nan, "x1": nan, "y1": nan,
                       "ncolor": None, "fontname": None})
    order = rng.random()
    if order < 0.25:  # drawn bottom-to-top
        glyphs.reverse()
    elif order < 0.5:  # shuffled, as the sidecar writes them
        glyphs = [glyphs[i] for i in rng.permutation(len(glyphs))]
    return glyphs


MODES = [(False, 0.0), (False, 6.0), (True, 6.0), (True, 0.0)]


def _interned(tab: dict) -> dict:
    """The PDF decoder's form: per-table color / font ids."""
    out = dict(tab)
    for key, id_key in (("ncolor", "_color_id"), ("fontname", "_font_id")):
        seen: dict = {}
        out[id_key] = np.array(
            [0 if v is None else seen.setdefault(v, len(seen) + 1) for v in tab[key]],
            dtype=np.int64,
        )
    return out


@pytest.mark.parametrize("seed", range(40))
def test_glyph_kernel_equals_dict_fold(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        glyphs = soup(rng)
        tab = glyph_table_from_dicts(glyphs)
        for stream_ordered, char_margin in MODES:
            want = outcome(oracle_lines(glyphs, 0.5, 0.1, char_margin, stream_ordered))
            box = {"chars": glyphs, "stream_ordered": stream_ordered}
            assert outcome(assemble_textbox_lines(box, 0.5, 0.1, char_margin)) == want
            for t in (tab, _interned(tab)):
                got = assemble_glyph_lines(t, 0.5, 0.1, char_margin, stream_ordered)
                assert outcome(got) == want


def _rows(tab: dict) -> list:
    return [
        {"text": tab["text"][i], "x0": float(tab["x0"][i]),
         "y0": float(tab["y0"][i]), "x1": float(tab["x1"][i]),
         "y1": float(tab["y1"][i]), "ncolor": tab["ncolor"][i],
         "fontname": tab["fontname"][i]}
        for i in range(len(tab["text"]))
    ]


@pytest.mark.parametrize("family", ["tables", "twocolumn", "colors", "rawchars"])
def test_pdf_glyph_tables_equal_dict_fold(family):
    """Interpreter columns → decoder glyph table → kernel, against the
    dict fold over the same glyphs (one dict per glyph, as the decoder
    used to emit them)."""
    cfg = PipelineConfig()
    for seed in range(3):
        doc = build_document(seed, family)
        dec = decode_pdf_document(doc["doc_id"], write_pdf(doc))
        assert dec["textboxes"]
        for tb in dec["textboxes"]:
            glyphs = _rows(tab_slice(tb["chartab"]))
            want = outcome(oracle_lines(
                glyphs, cfg.line_y_tolerance, cfg.word_margin, cfg.char_margin,
                stream_ordered=True))
            assert outcome(textbox_lines(tb, cfg)) == want


# -- the sidecar chartab route agrees with the dict route ------------------


def _glyphs(text: str, x: float, y0: float, y1: float, pitch: float) -> list:
    return [
        {"text": ch, "x0": x + k * pitch, "y0": y0, "x1": x + (k + 1) * pitch,
         "y1": y1, "ncolor": None, "fontname": None}
        for k, ch in enumerate(text)
    ]


def _sidecar_box(glyphs: list, ungrouped: bool) -> dict:
    """The textbox as the sidecar decoder hands it over: a ``chartab``
    view decoded from the Arrow textboxes column."""
    tb = {"page": 1, "x0": 0.0, "y0": 0.0, "x1": 612.0, "y1": 792.0,
          "words": None, "chars": glyphs, "ungrouped": ungrouped}
    col = pa.array([[tb]], RAW_DOC_SCHEMA.field("textboxes").type)
    box = _decode_textboxes(pa.chunked_array([col]))[0][0]
    assert box["chartab"] is not None
    return box


@pytest.mark.parametrize("ungrouped", [False, True])
def test_mixed_metric_glyphs_share_a_line(ungrouped):
    """A 10 pt run next to an 8 pt run on one baseline: the centers are
    1 pt apart, but the boxes overlap most of the smaller height."""
    glyphs = _glyphs("code", 50.0, 690.0, 700.0, 6.0) + _glyphs(
        "mono", 80.0, 692.0, 700.0, 5.0)
    cfg = PipelineConfig()
    as_dicts = {"chars": glyphs, "ungrouped": ungrouped}
    for tb in (as_dicts, _sidecar_box(glyphs, ungrouped)):
        assert [ln["text"] for ln in textbox_lines(tb, cfg)] == ["code mono"]


def test_ungrouped_columns_split_at_char_margin():
    """Two runs on one row across a gutter far wider than char_margin ×
    the glyph width are two lines in an ungrouped soup."""
    glyphs = _glyphs("left", 50.0, 690.0, 700.0, 6.0) + _glyphs(
        "right", 300.0, 690.0, 700.0, 6.0)
    cfg = PipelineConfig()
    as_dicts = {"chars": glyphs, "ungrouped": True}
    for tb in (as_dicts, _sidecar_box(glyphs, True)):
        assert [ln["text"] for ln in textbox_lines(tb, cfg)] == ["left", "right"]
    # a grouped box keeps its extent as one line
    assert [ln["text"] for ln in textbox_lines(_sidecar_box(glyphs, False), cfg)] == [
        "left right"]


@pytest.mark.parametrize("gap, want", [(36.0, ["ab", "cd"]), (35.9, ["ab cd"])])
def test_char_margin_split_is_inclusive(gap, want):
    """The column split fires at a gap of exactly char_margin × the wider
    glyph (6 × 6 pt here), not only beyond it."""
    glyphs = _glyphs("ab", 50.0, 690.0, 700.0, 6.0) + _glyphs(
        "cd", 62.0 + gap, 690.0, 700.0, 6.0)
    cfg = PipelineConfig()
    for tb in ({"chars": glyphs, "ungrouped": True}, _sidecar_box(glyphs, True)):
        assert [ln["text"] for ln in textbox_lines(tb, cfg)] == want
