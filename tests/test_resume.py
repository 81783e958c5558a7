"""Resume semantics: a killed run reruns exactly the row-group partitions
it had not committed, in one plan."""

import glob
import json
import os

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.pipelines.checkpoint import (
    completed_partitions,
    plan_partitions,
    run_resumable,
)


def _span_rows(out_dir):
    """(doc_id, spans as JSON, n_spans, error) of every span file, sorted."""
    import pyarrow.parquet as pq

    return sorted(
        (r["doc_id"], json.dumps(r["spans"], sort_keys=True), r["n_spans"], r["error"])
        for f in glob.glob(os.path.join(out_dir, "part-*", "*.parquet"))
        for r in pq.read_table(f).to_pylist()
    )


def _kill(out_dir, orphan, lost) -> set:
    """Simulate a run killed after committing every partition but
    ``orphan`` (its span file was written, torn here, its manifest was
    not) and ``lost`` (neither was written).  Returns the files the resume
    must write again."""
    rewrite = set()
    for part_id in orphan + lost:
        m = completed_partitions(out_dir)[part_id]
        rewrite |= {m["output_file"], _manifest(out_dir, part_id)}
        os.remove(_manifest(out_dir, part_id))
        if part_id in lost:
            os.remove(m["output_file"])
        else:
            with open(m["output_file"], "wb") as fh:
                fh.write(b"PAR1 torn")
    return rewrite


def _manifest(out_dir, part_id):
    return os.path.join(out_dir, "_manifest", f"part-{part_id}.json")


def _mtimes(out_dir):
    return {f: os.path.getmtime(f)
            for f in glob.glob(os.path.join(out_dir, "**", "*.*"), recursive=True)}


def test_kill_and_resume(ray_session, tmp_path):
    """A resume reruns exactly the partitions without a manifest, replaces
    an orphan span file, touches no committed file, and ends with the
    uninterrupted run's rows, every document once."""
    from libpdf_ray.fixtures import write_corpus

    # 4 shards of 9 docs, 3 row groups each: 12 partitions
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=36, seed=42, shards=4, skew_pages=6,
                 row_group_size=4)
    out_dir = str(tmp_path / "out")
    full = run_resumable(corpus, out_dir, SMART_CROP_CONFIG)
    assert full["total_partitions"] == 12 and len(full["ran"]) == 12
    assert (full["documents"], full["errors"]) == (36, 0)
    uninterrupted = _span_rows(out_dir)
    assert full["n_spans"] == sum(r[2] for r in uninterrupted)

    orphan, lost = ["0001-0000"], ["0001-0002", "0003-0001"]
    rewrite = _kill(out_dir, orphan, lost)
    kept = {f: t for f, t in _mtimes(out_dir).items() if f not in rewrite}
    summary = run_resumable(corpus, out_dir, SMART_CROP_CONFIG)
    assert summary["ran"] == sorted(orphan + lost)
    assert len(summary["skipped"]) == 9
    assert {k: summary[k] for k in ("documents", "errors", "n_spans")} == \
        {k: full[k] for k in ("documents", "errors", "n_spans")}
    after = _mtimes(out_dir)
    for f, old in kept.items():
        assert after[f] == old, f"recomputed committed file {f}"
    # the orphan is replaced and the lost files written; nothing else
    assert set(after) == set(kept) | rewrite
    assert _span_rows(out_dir) == uninterrupted
    # every input document exactly once
    import pyarrow.parquet as pq

    doc_ids = [r[0] for r in uninterrupted]
    in_ids = pq.read_table(corpus, columns=["doc_id"]).column("doc_id").to_pylist()
    assert sorted(doc_ids) == sorted(in_ids) and len(set(doc_ids)) == 36

    # manifests carry lineage + metrics
    m = completed_partitions(out_dir)["0001-0000"]
    assert m["input_file"].endswith("part-0001.parquet") and m["row_group"] == 0
    assert m["output_file"] == os.path.join(out_dir, "part-0001", "rg-0000.parquet")
    assert m["n_docs"] == 4 and m["n_errors"] == 0 and m["n_spans"] > 0
    assert m["wall_time_s"] > 0 and m["outputs"] == []


def test_one_plan_per_run(ray_session, small_corpus_dir, tmp_path, monkeypatch):
    """A run builds ONE Dataset over every uncommitted partition (wrapped
    the way perfbench wraps it); a fully committed rerun builds none."""
    import libpdf_ray.pipelines.checkpoint as checkpoint

    fused = checkpoint.extract_spans_fused
    calls = []

    def keep(*args, **kwargs):
        calls.append(fused(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(checkpoint, "extract_spans_fused", keep)
    out_dir = str(tmp_path / "out")
    assert len(checkpoint.run_resumable(small_corpus_dir, out_dir)["ran"]) == 4
    assert len(calls) == 1
    summary = checkpoint.run_resumable(small_corpus_dir, out_dir)
    assert (summary["ran"], len(summary["skipped"]), len(calls)) == ([], 4, 1)


def test_resume_with_another_config_is_refused(ray_session, tmp_path, capsys):
    """Rerunning the CLI on an output directory with flags that change the
    output exits 2 naming the differing field, and leaves the output as it
    was; a rerun that only changes the batch size resumes."""
    from libpdf_ray.__main__ import main
    from libpdf_ray.fixtures import write_corpus

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=8, seed=3, shards=2, skew_pages=6)
    out = str(tmp_path / "out")
    assert main([corpus, "-o", out]) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    before = _span_rows(out)
    assert any('"paragraph"' in r[1] for r in before)

    assert main([corpus, "-o", out, "--no-paragraphs"]) == 2
    assert "no_paragraphs" in capsys.readouterr().err
    assert _span_rows(out) == before

    assert main([corpus, "-o", out, "--batch-size", "8"]) == 0
    again = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert again["ran"] == [] and again["skipped"] == first["ran"]
    assert {k: again[k] for k in ("documents", "errors", "spans")} == \
        {k: first[k] for k in ("documents", "errors", "spans")} == \
        {"documents": 8, "errors": 0, "spans": sum(r[2] for r in before)}


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
    first = run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG,
                          outputs=views(out, "elements", "file_meta"))
    assert first["ran"] == ["0000-0000", "0001-0000", "0002-0000", "0003-0000"]
    orphan, lost = ["0002-0000"], ["0000-0000"]
    rewrite = _kill(out, orphan, lost)
    kept = {f: t for f, t in _mtimes(out).items()
            if f not in rewrite and "views" not in f}
    summary = run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG,
                            outputs=views(out, "elements", "file_meta"))
    assert summary["ran"] == sorted(orphan + lost)
    assert summary["skipped"] == ["0001-0000", "0003-0000"]
    assert all(_mtimes(out)[f] == t for f, t in kept.items())
    for name in ("elements", "file_meta"):
        assert rows(out, name) == rows(full, name)
    assert _span_rows(out) == _span_rows(full)
    # a spans-only resume is covered by every manifest
    assert run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG)["ran"] == []

    # "pages" is in no manifest: every partition reruns, nothing duplicates
    summary = run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG,
                            outputs=views(out, "elements", "pages"))
    assert len(summary["ran"]) == 4
    assert rows(out, "elements") == rows(full, "elements")
    doc_ids = {r["doc_id"] for r in rows(full, "file_meta")}
    assert {r["doc_id"] for r in rows(out, "pages")} == doc_ids
    spans = [r[0] for r in _span_rows(out)]
    assert sorted(spans) == sorted(doc_ids)
    assert _span_rows(out) == _span_rows(full)
    m = completed_partitions(out)["0000-0000"]
    assert m["outputs"] == views(out, "elements", "pages").keys()
