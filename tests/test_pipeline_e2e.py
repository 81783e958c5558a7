"""End-to-end: synthetic corpus → Ray Data pipeline → span-sequence equality.

The per-row invariant of the north rule (BASELINE.json:15): the extracted
span sequence must equal the generator-as-oracle expectation under
(kind, text, media_ref, order) equality, per doc_id."""

import pyarrow.parquet as pq
import pytest

from libpdf_ray.config import SMART_CROP_CONFIG, PipelineConfig
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.kernels.document import extract_document


def _expected_by_doc(corpus_dir):
    import glob

    expected = {}
    for path in sorted(glob.glob(f"{corpus_dir}/part-*.parquet")):
        t = pq.read_table(path, columns=["doc_id", "expected_spans"])
        for row in t.to_pylist():
            expected[row["doc_id"]] = row["expected_spans"]
    return expected


def test_span_sequence_equality_all_families(ray_session, small_corpus_dir):
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus

    ds = read_corpus(small_corpus_dir)
    out = extract_spans(ds, SMART_CROP_CONFIG)
    got = {row["doc_id"]: row["spans"] for row in out.take_all()}
    expected = _expected_by_doc(small_corpus_dir)
    assert set(got) == set(expected)
    mismatches = [d for d in expected if got[d] != expected[d]]
    assert mismatches == [], f"span mismatch for {mismatches[:3]}"


def test_explicit_decoder_small_batches_match(ray_session, small_corpus_dir):
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus
    from libpdf_ray.stages.decoder import SidecarDecoder

    cfg = PipelineConfig(smart_page_crop=True, parse_batch_size=4)
    ds = read_corpus(small_corpus_dir)
    out = extract_spans(ds, cfg, decoder=SidecarDecoder())
    got = {r["doc_id"]: r["spans"] for r in out.take_all()}
    expected = _expected_by_doc(small_corpus_dir)
    assert got == expected


def test_exploded_spans_view(ray_session, small_corpus_dir):
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus, spans_table

    flat = spans_table(extract_spans(read_corpus(small_corpus_dir), SMART_CROP_CONFIG))
    table = flat.to_pandas()
    assert set(table.columns) == {"doc_id", "kind", "text", "media_ref", "offset"}
    kinds = set(table["kind"].unique())
    assert {"chapter", "paragraph", "table", "figure", "rect", "link"} <= kinds
    # offsets are a dense 0..n-1 sequence per document
    for _, grp in table.groupby("doc_id"):
        assert sorted(grp["offset"]) == list(range(len(grp)))


def test_arrow_roundtrip_preserves_extraction(small_corpus_dir):
    """Parquet → Arrow → pylist rows must extract identically to in-memory
    dicts (guards nested-struct/null round-trip bugs)."""
    import glob

    path = sorted(glob.glob(f"{small_corpus_dir}/part-*.parquet"))[0]
    rows = pq.read_table(path).to_pylist()
    for row in rows:
        assert extract_document(row, SMART_CROP_CONFIG) == row["expected_spans"]


@pytest.mark.parametrize("family", DEFAULT_FAMILIES)
def test_each_family_pure(family):
    idx = DEFAULT_FAMILIES.index(family)
    doc = build_document(idx, family, skew_pages=6)
    assert extract_document(doc, SMART_CROP_CONFIG) == doc["expected_spans"]


def test_feature_toggles():
    """The reference's no_* flags (core.py:23-45) suppress element kinds."""
    doc = build_document(6, "tables")
    spans = extract_document(doc, PipelineConfig(no_tables=True, smart_page_crop=True))
    assert all(s["kind"] != "table" for s in spans)
    doc = build_document(5, "figures")
    spans = extract_document(doc, PipelineConfig(no_figures=True, smart_page_crop=True))
    assert all(s["kind"] != "figure" for s in spans)
    doc = build_document(1, "outlined")
    spans = extract_document(doc, PipelineConfig(no_chapters=True, smart_page_crop=True))
    assert all(s["kind"] != "chapter" for s in spans)


def test_fused_extract_matches_unfused(ray_session, small_corpus_dir):
    """extract_spans_fused (read+parse in one task per row group) must be
    span-identical to the two-operator path."""
    import pandas as pd

    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.pipelines.extract import (
        extract_spans,
        extract_spans_fused,
        read_corpus,
        spans_table,
    )

    a = (
        spans_table(extract_spans(read_corpus(small_corpus_dir), SMART_CROP_CONFIG))
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )
    b = (
        spans_table(extract_spans_fused(small_corpus_dir, SMART_CROP_CONFIG))
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
