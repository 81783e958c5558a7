"""Resume semantics: a killed partitioned run skips completed partitions."""

import glob
import json
import os

import pytest

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.pipelines.checkpoint import (
    completed_partitions,
    plan_partitions,
    run_resumable,
)


def test_kill_and_resume(ray_session, small_corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out")

    # first attempt dies after 2 of 4 partitions
    with pytest.raises(RuntimeError, match="injected failure"):
        run_resumable(
            small_corpus_dir, out_dir, SMART_CROP_CONFIG, fail_after_partitions=2
        )
    done = completed_partitions(out_dir)
    assert len(done) == 2

    # record output mtimes of completed partitions
    mtimes = {}
    for part_id in done:
        for f in glob.glob(os.path.join(out_dir, f"part-{part_id}", "*.parquet")):
            mtimes[f] = os.path.getmtime(f)

    # resume completes the rest without touching finished output
    summary = run_resumable(small_corpus_dir, out_dir, SMART_CROP_CONFIG)
    assert sorted(summary["skipped"]) == sorted(done)
    assert len(summary["ran"]) == 2
    for f, old in mtimes.items():
        assert os.path.getmtime(f) == old, f"recomputed completed partition file {f}"

    # manifests carry lineage + metrics
    m = json.load(
        open(sorted(glob.glob(os.path.join(out_dir, "_manifest", "*.json")))[0])
    )
    assert m["input_files"] and m["n_docs"] > 0 and m["n_spans"] > 0
    assert m["wall_time_s"] > 0

    # final output covers every input doc exactly once
    import pyarrow.parquet as pq

    doc_ids = []
    for f in glob.glob(os.path.join(out_dir, "part-*", "*.parquet")):
        doc_ids.extend(pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist())
    in_ids = []
    for f in glob.glob(os.path.join(small_corpus_dir, "part-*.parquet")):
        in_ids.extend(pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist())
    assert sorted(doc_ids) == sorted(in_ids)


def test_plan_partitions(small_corpus_dir):
    plan = plan_partitions(small_corpus_dir)
    assert len(plan) == 4
    assert all(len(files) == 1 for _, files in plan)


def test_torn_manifest_treated_as_incomplete(tmp_path):
    out_dir = str(tmp_path / "out")
    os.makedirs(os.path.join(out_dir, "_manifest"))
    with open(os.path.join(out_dir, "_manifest", "part-0000.json"), "w") as fh:
        fh.write('{"part_id": "0000", "n_docs"')  # torn write
    assert completed_partitions(out_dir) == {}


def test_nested_corpus_every_reader_sees_every_doc(ray_session, tmp_path):
    """Shards in a sub-directory: every sidecar reader lists parquet files
    the same way (recursively), so all four entry points and the CLI's
    spans and views see the same documents."""
    import pyarrow.parquet as pq

    from libpdf_ray.__main__ import main
    from libpdf_ray.fixtures import write_corpus
    from libpdf_ray.pipelines.extract import (extract_spans, extract_spans_fused,
                                              read_corpus)
    from libpdf_ray.pipelines.split import extract_spans_split

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=8, seed=3, shards=2, skew_pages=6)
    write_corpus(os.path.join(corpus, "sub"), n_docs=4, seed=5, shards=1, skew_pages=6)

    def doc_ids(pattern):
        return sorted(
            i for f in glob.glob(pattern, recursive=True)
            for i in pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist()
        )

    want = doc_ids(os.path.join(corpus, "**", "*.parquet"))
    assert len(want) == 12
    for ds in (extract_spans(read_corpus(corpus)), extract_spans_fused(corpus),
               extract_spans_split(corpus)):
        assert sorted(r["doc_id"] for r in ds.take_all()) == want
    run = str(tmp_path / "run")
    run_resumable(corpus, run)
    assert doc_ids(os.path.join(run, "part-*", "*.parquet")) == want
    cli = str(tmp_path / "cli")
    assert main([corpus, "-o", cli, "--views", "file_meta"]) == 0
    assert doc_ids(os.path.join(cli, "part-*", "*.parquet")) == want
    assert doc_ids(os.path.join(cli, "views", "file_meta", "*.parquet")) == want


def test_resume_covers_side_outputs(ray_session, small_corpus_dir, tmp_path):
    """Views are written inside the partitions: a killed run resumes to the
    same view rows as an uninterrupted one, and a resume that asks for an
    output no manifest records reruns those partitions."""
    import pyarrow.parquet as pq

    from libpdf_ray.stages.outputs import Outputs

    def views(out, *names):
        return Outputs(views=names, views_dir=os.path.join(out, "views"))

    def rows(out, name):
        files = glob.glob(os.path.join(out, "views", name, "*.parquet"))
        return sorted((r for f in files for r in pq.read_table(f).to_pylist()),
                      key=repr)

    full = str(tmp_path / "full")
    run_resumable(small_corpus_dir, full, SMART_CROP_CONFIG,
                  outputs=views(full, "elements", "file_meta"))

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG,
                      fail_after_partitions=1,
                      outputs=views(out, "elements", "file_meta"))
    summary = run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG,
                            outputs=views(out, "elements", "file_meta"))
    assert len(summary["skipped"]) == 1 and len(summary["ran"]) == 3
    for name in ("elements", "file_meta"):
        assert rows(out, name) == rows(full, name)
    # a spans-only resume is covered by every manifest
    assert run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG)["ran"] == []

    # "pages" is in no manifest: every partition reruns, nothing duplicates
    summary = run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG,
                            outputs=views(out, "elements", "pages"))
    assert len(summary["ran"]) == 4
    assert rows(out, "elements") == rows(full, "elements")
    doc_ids = {r["doc_id"] for r in rows(full, "file_meta")}
    assert {r["doc_id"] for r in rows(out, "pages")} == doc_ids
    spans = [i for f in glob.glob(os.path.join(out, "part-*", "*.parquet"))
             for i in pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist()]
    assert sorted(spans) == sorted(doc_ids)
    m = completed_partitions(out)["0000"]
    assert m["outputs"] == views(out, "elements", "pages").keys()
