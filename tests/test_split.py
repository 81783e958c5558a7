"""Intra-document page-split parallelism: for sidecar and PDF input, the
split's rows equal the monolithic path's, error rows included."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libpdf_ray.config import SMART_CROP_CONFIG, PipelineConfig
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.schema import RAW_DOC_SCHEMA


def _rows(ds) -> dict:
    """doc_id → the whole output row (doc_id, spans, n_spans, est_pages,
    error)."""
    return {r["doc_id"]: dict(r) for r in ds.take_all()}


def _write(out: str, source: str, docs: list) -> str:
    """Write ``docs`` as one sidecar parquet file or as one PDF each."""
    if source == "sidecar":
        pq.write_table(
            pa.Table.from_pylist(docs, schema=RAW_DOC_SCHEMA),
            os.path.join(out, "part-0000.parquet"),
        )
    else:
        from libpdf_ray.kernels.pdfwrite import write_pdf

        for d in docs:
            with open(os.path.join(out, f"{d['doc_id']}.pdf"), "wb") as fh:
                fh.write(write_pdf(d))
    return out


def _monolith(source: str, corpus: str, cfg) -> dict:
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus
    from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

    if source == "sidecar":
        return _rows(extract_spans(read_corpus(corpus), cfg))
    return _rows(
        extract_spans(read_pdf_files(corpus), cfg, decoder=PdfByteDecoder())
    )


def _split(corpus: str, cfg, **kwargs) -> dict:
    from libpdf_ray.pipelines.split import extract_spans_split

    return _rows(extract_spans_split(corpus, cfg, **kwargs))


def test_split_equals_monolith(ray_session, tmp_path_factory):
    from libpdf_ray.fixtures import write_corpus

    corpus = str(tmp_path_factory.mktemp("split_corpus"))
    write_corpus(corpus, n_docs=24, seed=42, shards=3, skew_pages=30)
    plain = _monolith("sidecar", corpus, SMART_CROP_CONFIG)
    split = _split(corpus, SMART_CROP_CONFIG, split_pages=8, heavy_pages=10)
    assert split == plain
    # skew docs actually crossed the heavy threshold and took the split path
    assert any(r["est_pages"] >= 10 for r in plain.values())
    assert all(r["error"] == "" for r in plain.values())


def test_split_links_and_chapters_cross_ranges(ray_session, tmp_path):
    """A link whose source and target chapters land in different page
    ranges must still resolve (resolution is finish-phase, whole-doc)."""
    rows = [build_document(i, "linked") for i in range(3)]
    corpus = _write(str(tmp_path), "sidecar", rows)
    # linked docs have 2 pages; split at 1 page per range forces the link
    # source (page 1) and target chapter (page 2) into different splits
    split = _split(corpus, SMART_CROP_CONFIG, split_pages=1, heavy_pages=1)
    for doc in rows:
        assert split[doc["doc_id"]]["spans"] == doc["expected_spans"]


@pytest.mark.parametrize("source", ["sidecar", "pdf"])
def test_split_respects_page_range(ray_session, tmp_path, source):
    docs = [build_document(800 + i, "skew", skew_pages=12) for i in range(2)]
    docs.append(build_document(810, "tables"))
    corpus = _write(str(tmp_path), source, docs)
    cfg = PipelineConfig(smart_page_crop=True, page_range="1-5")
    split = _split(corpus, cfg, split_pages=2, heavy_pages=3)
    assert split == _monolith(source, corpus, cfg)
    assert len(split) == 3


@pytest.mark.parametrize("source", ["sidecar", "pdf"])
def test_split_no_heavy_docs(ray_session, tmp_path, source):
    """All-light corpus: the heavy branch short-circuits (no range rows)
    and the light-only result equals the monolithic path."""
    docs = [build_document(700 + i, DEFAULT_FAMILIES[i], skew_pages=4)
            for i in range(3)]
    corpus = _write(str(tmp_path), source, docs)
    split = _split(corpus, SMART_CROP_CONFIG, split_pages=16, heavy_pages=40,
                   num_partitions=2)
    assert split == _monolith(source, corpus, SMART_CROP_CONFIG)
    assert len(split) == 3


def test_split_poison_heavy_doc(ray_session, tmp_path):
    """A heavy document that raises becomes the monolithic path's error
    row; the other heavy documents still split and finish."""
    docs = [build_document(900 + i, "skew", skew_pages=12) for i in range(3)]
    docs[1]["outline_nodes"][0]["title"] = None
    corpus = _write(str(tmp_path), "sidecar", docs)
    split = _split(corpus, SMART_CROP_CONFIG, split_pages=4, heavy_pages=5)
    assert split == _monolith("sidecar", corpus, SMART_CROP_CONFIG)
    poison = split[docs[1]["doc_id"]]
    assert poison["error"].startswith("AttributeError")
    assert poison["n_spans"] == 0 and poison["est_pages"] == 12
    assert [split[d["doc_id"]]["error"] for d in (docs[0], docs[2])] == ["", ""]


def test_split_rejects_mixed_input(tmp_path):
    from libpdf_ray.pipelines.split import extract_spans_split

    (tmp_path / "a.pdf").write_bytes(b"%PDF-1.4")
    (tmp_path / "b.parquet").write_bytes(b"PAR1")
    with pytest.raises(ValueError, match="not a mix"):
        extract_spans_split(str(tmp_path))
