"""Tests for metadata kernels/stages, page-range selection, sources, media
export, and the CLI."""

import datetime
import glob
import json
import os
import subprocess
import sys

from libpdf_ray.config import SMART_CROP_CONFIG, PipelineConfig
from libpdf_ray.fixtures import build_document
from libpdf_ray.kernels.document import extract_document
from libpdf_ray.kernels.meta import (
    parse_page_range,
    parse_pdf_datetime,
    string_to_identifier,
)


class TestMetaKernels:
    def test_page_range_grammar(self):
        assert parse_page_range("3-5,7") == {3, 4, 5, 7}
        assert parse_page_range("1") == {1}
        assert parse_page_range("") == set()

    def test_pdf_datetime(self):
        dt = parse_pdf_datetime("D:20200102120000+01'00'")
        assert dt.year == 2020 and dt.utcoffset() == datetime.timedelta(hours=1)
        assert parse_pdf_datetime("D:20200102").day == 2
        assert parse_pdf_datetime("D:2020").month == 1
        z = parse_pdf_datetime("D:20200102120000Z")
        assert z.tzinfo == datetime.timezone.utc
        assert parse_pdf_datetime("garbage") is None
        assert parse_pdf_datetime("") is None

    def test_identifier(self):
        assert string_to_identifier("my file.pdf") == "my_file_pdf"
        assert string_to_identifier("1report") == "_1report"

    def test_decode_title(self):
        from libpdf_ray.kernels.meta import decode_title

        assert decode_title("already str") == "already str"
        assert decode_title("Résumé".encode("utf-8")) == "Résumé"
        assert decode_title("title".encode("utf-16")) == "title"
        # undecodable bytes never raise
        assert "\\x" in decode_title(b"\xff\xfe\xff\x00bad\xff")  or decode_title(b"\xff\xfe\xff\x00bad\xff")


class TestPageRange:
    def test_page_range_drops_unselected_pages(self):
        # 6-page outlined manual: 2 chapters + 6 paragraphs per page
        doc = build_document(11, "skew", skew_pages=6)
        full = extract_document(doc, PipelineConfig())
        limited = extract_document(doc, PipelineConfig(page_range="2-3"))
        assert len(full) == 48
        assert len(limited) == 16  # pages 2-3 only

    def test_page_range_empty_selection(self):
        doc = build_document(0, "plain")
        assert extract_document(doc, PipelineConfig(page_range="99")) == []


class TestMetaStages:
    def test_file_meta_and_pages_tables(self, ray_session, small_corpus_dir):
        import ray.data as rd

        from libpdf_ray.stages.views import view_table

        ds = rd.read_parquet(small_corpus_dir)
        meta = view_table(ds, "file_meta").to_pandas()
        assert len(meta) == 36
        assert (meta["n_pages"] >= 1).all()
        assert meta["producer"].eq("libpdf-ray-synth").all()
        pages = view_table(ds, "pages").to_pandas()
        assert pages["width"].eq(612.0).all()
        assert (
            pages.groupby("doc_id")["number"].count().sum() == meta["n_pages"].sum()
        )


class TestSources:
    def test_text_source_segments(self, ray_session):
        from libpdf_ray.sources.text_source import segment_text, text_to_spans
        import pyarrow as pa

        assert segment_text("a\n\nb\n\nc") == ["a", "b", "c"]
        parts = segment_text(" ".join(["w"] * 120), words_per_span=50)
        assert [len(p.split()) for p in parts] == [50, 50, 20]
        t = text_to_spans(pa.table({"doc_id": [1], "text": ["hello world"]}))
        assert t.column("n_spans").to_pylist() == [1]

    def test_reader_format_gate(self, ray_session, small_corpus_dir):
        from libpdf_ray.sources.readers import lance_available, read_documents

        ds = read_documents(small_corpus_dir, columns=["doc_id"])
        assert ds.count() == 36
        if not lance_available():
            import pytest

            with pytest.raises(NotImplementedError):
                read_documents("/tmp/nope.lance", file_format="lance")


class TestMediaExport:
    def test_export_media_idempotent(self, ray_session, small_corpus_dir, tmp_path):
        """A second CLI run with ``--media-dir`` rewrites the same crop
        files with the same bytes (deterministic names, atomic writes)."""
        from libpdf_ray.__main__ import main

        root = str(tmp_path / "media")

        def crops():
            return {p: open(p, "rb").read() for p in glob.glob(
                os.path.join(root, "**", "*.*"), recursive=True)}

        args = [small_corpus_dir, "--smart-page-crop", "--media-dir", root,
                "--media-format", "both"]
        assert main(args[:1] + ["-o", str(tmp_path / "a")] + args[1:]) == 0
        first = crops()
        assert first and all(p.endswith((".png", ".svg")) for p in first)
        # idempotent rerun: same refs, same paths, stable bytes
        assert main(args[:1] + ["-o", str(tmp_path / "b")] + args[1:]) == 0
        assert crops() == first


def test_cli_end_to_end(small_corpus_dir, tmp_path):
    """Drive the CLI in a fresh process (it owns its own Ray session)."""
    out = str(tmp_path / "cli_out")
    env = dict(os.environ, PYTHONPATH="/root/repo")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "libpdf_ray",
            small_corpus_dir,
            "-o",
            out,
            "--smart-page-crop",
            "--num-cpus",
            "2",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["total_partitions"] == 4
    assert len(summary["ran"]) == 4
    assert glob.glob(os.path.join(out, "_manifest", "*.json"))


def test_static_page_crop():
    """page_crop fixed margins (PAGE_CROP_MARGINS analog) drop furniture
    without the smart occurrence algorithm."""
    from libpdf_ray.fixtures import build_document
    from libpdf_ray.kernels.document import extract_document

    doc = build_document(8, "headerfooter")
    plain = extract_document(doc, PipelineConfig())
    cropped = extract_document(doc, PipelineConfig(page_crop=(100.0, 100.0, 0.0, 0.0)))
    texts = [s["text"] for s in cropped]
    assert not any(t.startswith("Confidential") or t.startswith("Page ") for t in texts)
    body = [s for s in plain if not (s["text"].startswith("Confidential") or s["text"].startswith("Page "))]
    assert [(s["kind"], s["text"]) for s in cropped] == [(s["kind"], s["text"]) for s in body]


def test_cli_views_export(ray_session, small_corpus_dir, tmp_path):
    """--views exports relational view parquet alongside the span dump."""
    import glob

    import pyarrow.parquet as pq

    from libpdf_ray.__main__ import main

    out = str(tmp_path / "cli_out")
    rc = main([small_corpus_dir, "-o", out, "--smart-page-crop",
               "--views", "cells,links,pages,file_meta"])
    assert rc == 0
    for view in ("cells", "links", "pages", "file_meta"):
        files = glob.glob(f"{out}/views/{view}/*.parquet")
        assert files, view
        assert sum(pq.ParquetFile(f).metadata.num_rows for f in files) > 0
    # file_meta carries the source meta, not all-null columns
    got = pq.read_table(f"{out}/views/file_meta").to_pylist()
    source = {
        r["doc_id"]: r["meta"]
        for f in glob.glob(f"{small_corpus_dir}/*.parquet")
        for r in pq.read_table(f, columns=["doc_id", "meta"]).to_pylist()
    }
    assert len(got) == len(source)
    for row in got:
        meta = source[row["doc_id"]]
        assert (row["author"], row["title"]) == (meta["author"], meta["title"])
        assert row["author"] is not None
