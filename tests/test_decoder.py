"""The DocumentDecoder seam (round-4 verdict item 5).

The parse boundary is a named protocol so a real PDF-byte decoder
(pdfminer-backed, env-blocked here) can drop in where the synthetic
sidecar decoder sits.  These tests pin the seam: the shipping decoder
satisfies the protocol, parse_batch routes through an injected decoder,
and the decoded dict feeds extract_document to span equality.
"""

import pyarrow as pa

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.kernels.document import extract_document
from libpdf_ray.stages.decoder import (DocumentDecoder, SidecarDecoder,
                                       decode_sidecar_rows)
from libpdf_ray.stages.parse import parse_batch


def _sidecar_batch(n=6):
    from libpdf_ray.fixtures import corpus_table

    return corpus_table(n)


def test_sidecar_decoder_satisfies_protocol():
    assert isinstance(SidecarDecoder(), DocumentDecoder)
    # a class with the right method shape also satisfies it (structural)

    class Custom:
        def decode(self, batch):
            return []

    assert isinstance(Custom(), DocumentDecoder)
    assert not isinstance(object(), DocumentDecoder)


def test_decoded_rows_feed_extract_document():
    """decoder output → extract_document == the generator oracle, for every
    fixture family (the span-equality contract crosses the seam intact)."""
    batch = _sidecar_batch()
    rows = SidecarDecoder().decode(batch)
    assert len(rows) == batch.num_rows
    for i, row in enumerate(rows):
        expect = build_document(
            i, DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)]
        )["expected_spans"]
        assert extract_document(row, SMART_CROP_CONFIG) == expect


def test_parse_batch_routes_through_injected_decoder():
    """A custom decoder is the single source of documents for parse_batch —
    inject one that rewrites doc_ids and assert the output carries them."""
    batch = _sidecar_batch(3)

    class Renaming:
        def __init__(self):
            self.calls = 0

        def decode(self, b):
            self.calls += 1
            rows = decode_sidecar_rows(b)
            for r in rows:
                r["doc_id"] = "custom-" + r["doc_id"]
            return rows

    dec = Renaming()
    out = parse_batch(batch, SMART_CROP_CONFIG, decoder=dec)
    assert dec.calls == 1
    assert all(d.startswith("custom-") for d in out.column("doc_id").to_pylist())
    # spans unchanged by the rename
    base = parse_batch(batch, SMART_CROP_CONFIG)
    assert out.column("spans").to_pylist() == base.column("spans").to_pylist()


def test_parse_batch_holds_decoder_across_calls():
    """One decoder instance serves every parse_batch call it is passed to
    (extract_spans ships it once per task via fn_kwargs), not rebuilt per
    batch."""
    batch = _sidecar_batch(2)

    class Counting(SidecarDecoder):
        def __init__(self):
            self.calls = 0

        def decode(self, b):
            self.calls += 1
            return super().decode(b)

    dec = Counting()
    first = parse_batch(batch, SMART_CROP_CONFIG, decoder=dec)
    second = parse_batch(batch, SMART_CROP_CONFIG, decoder=dec)
    assert dec.calls == 2
    assert first.equals(second)


def test_default_decoder_is_sidecar():
    """parse_batch without a decoder decodes sidecar rows."""
    from libpdf_ray.stages import parse

    assert isinstance(parse._DEFAULT_DECODER, SidecarDecoder)
    batch = _sidecar_batch(2)
    assert parse_batch(batch, SMART_CROP_CONFIG).equals(
        parse_batch(batch, SMART_CROP_CONFIG, decoder=SidecarDecoder())
    )


def test_style_masks_from_arrow_lengths():
    """``_has_color`` / ``_has_font`` built from Arrow list and string
    lengths equal the per-row Python predicates they replaced, on rows
    whose color and font are null, empty and set."""
    import numpy as np

    from libpdf_ray.schema import WORD_STRUCT
    from libpdf_ray.stages.decoder import _decode_word_runs

    styles = [(None, None), ([], ""), ([0.0, 0.0, 1.0], "F1"),
              (None, "F2"), ([1.0], None), ([], "F3"), ([0.5, 0.5], "")]
    words = [
        {"text": f"w{i}", "x0": float(i), "y0": 0.0, "x1": i + 1.0,
         "y1": 10.0, "ncolor": c, "fontname": f}
        for i, (c, f) in enumerate(styles)
    ]
    col = pa.array([words, None, words[:2]], pa.list_(WORD_STRUCT))
    _, tab = _decode_word_runs(col)
    want_color = np.fromiter((c is not None for c in tab["ncolor"]), bool)
    want_font = np.fromiter((bool(f) for f in tab["fontname"]), bool)
    assert tab["_has_color"].dtype == bool and tab["_has_font"].dtype == bool
    assert tab["_has_color"].tolist() == want_color.tolist()
    assert tab["_has_font"].tolist() == want_font.tolist()
    assert tab["_has_color"].tolist() == [False, False, True, False, True,
                                          False, True, False, False]
    assert tab["_has_font"].tolist() == [False, False, True, True, False,
                                         True, False, False, False]


def _same(a, b) -> bool:
    """Equality that also requires equal types at every level: ``1 == 1.0``
    and ``{} == None``-style slips fail it."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b or (a != a and b != b)  # NaN equals NaN here


def _struct_cases():
    from libpdf_ray.schema import RAW_DOC_SCHEMA

    names = RAW_DOC_SCHEMA.field("names_nodes").type
    rows = [
        [{"node_id": 1, "kids": [2, 3], "names": None}, None,
         {"node_id": 2, "kids": [], "names": [
             {"name": "a", "page": 1, "x": 1.5, "y": None}, None,
             {"name": None, "page": None, "x": float("nan"), "y": 2.0}]}],
        None,
        [],
        [{"node_id": 4, "kids": None, "names": []}, {"node_id": None, "kids": [None, 7],
                                                     "names": [None]}],
    ]
    arr = pa.array(rows, names)
    # offsets that do not start at 0: a list array over the tail of a values array
    values = pa.array([r for row in rows if row for r in row], names.value_type)
    tail = pa.ListArray.from_arrays(pa.array([2, 3, 3, 5], pa.int32()), values)
    nested = pa.array(
        [{"p": {"q": 1, "r": [1.0]}, "s": "x"}, None, {"p": None, "s": None},
         {"p": {"q": None, "r": None}, "s": "y"}],
        pa.struct([("p", pa.struct([("q", pa.int64()), ("r", pa.list_(pa.float64()))])),
                   ("s", pa.string())]))
    return {
        "whole": arr,
        "sliced": arr.slice(1, 3),
        "sliced_inner": arr.slice(3),
        "empty_slice": arr.slice(2, 0),
        "offsets_not_zero": tail,
        "chunks": pa.chunked_array([arr.slice(0, 2), arr.slice(1), tail]),
        "no_chunks": pa.chunked_array([], names),
        "struct_of_struct": nested.slice(1),
        "list_of_struct_of_struct": pa.ListArray.from_arrays(
            pa.array([0, 1, 1, 4], pa.int32()), nested, mask=pa.array([False, True, False])),
    }


def test_struct_columns_decode_like_to_pylist():
    """The field-wise list<struct> decode equals ``to_pylist`` value for
    value and type for type: null rows, null struct elements, empty
    lists, nested list<int32> and list<struct>, several chunks and sliced
    arrays whose offsets do not start at 0."""
    from libpdf_ray.stages.decoder import _column_values

    for name, arr in _struct_cases().items():
        assert _same(_column_values(arr), arr.to_pylist()), name


def test_decoded_columns_equal_to_pylist_on_fixture_rows():
    """Every non-textbox column of a decoded fixture batch (every family)
    equals its ``to_pylist`` rows, types included."""
    batch = _sidecar_batch(len(DEFAULT_FAMILIES))
    for doc, want in zip(decode_sidecar_rows(batch), batch.to_pylist()):
        for key in want:
            if key != "textboxes":
                assert _same(doc[key], want[key]), key


def test_foreign_textboxes_schema_takes_to_pylist_fallback():
    """A textboxes column whose ``chars`` lost its struct type (a
    schema-inferred ingest of all-null chars) decodes through plain
    ``to_pylist``, whole rows unchanged."""
    from libpdf_ray.schema import WORD_STRUCT

    box = pa.struct([("page", pa.int32()), ("x0", pa.float64()), ("y0", pa.float64()),
                     ("x1", pa.float64()), ("y1", pa.float64()),
                     ("words", pa.list_(WORD_STRUCT)), ("chars", pa.list_(pa.null()))])
    word = {"text": "w", "x0": 1.0, "y0": 2.0, "x1": 3.0, "y1": 4.0,
            "ncolor": None, "fontname": None}
    batch = pa.table({
        "doc_id": pa.array(["d0", "d1"]),
        "textboxes": pa.array([[{"page": 1, "x0": 0.0, "y0": 0.0, "x1": 9.0, "y1": 9.0,
                                 "words": [word], "chars": None}], None], pa.list_(box)),
        "pages": pa.array([[{"number": 1}], []], pa.list_(pa.struct([("number", pa.int32())]))),
    })
    assert _same(decode_sidecar_rows(batch), batch.to_pylist())
