"""Resume semantics: a killed run reruns exactly the inputs it had not
committed, in one plan, for every input format and output mode."""

import collections
import dataclasses
import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.pipelines.checkpoint import (
    completed_partitions,
    plan_partitions,
    run_resumable,
)
from libpdf_ray.pipelines.extract import part_id
from libpdf_ray.stages.outputs import Outputs

#: every input format, and the sidecar leg writing YAML trees instead
FORMATS = ("sidecar", "pdf", "html", "yaml")


def _span_rows(out_dir):
    """(doc_id, spans as JSON, n_spans, error) of every span file under
    ``out_dir`` (views aside), sorted."""
    return sorted(
        (r["doc_id"], json.dumps(r["spans"], sort_keys=True), r["n_spans"], r["error"])
        for f in glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True)
        if os.sep + "views" + os.sep not in f
        for r in pq.read_table(f).to_pylist()
    )


def _yaml_trees(out_dir):
    return sorted((os.path.basename(f), open(f, encoding="utf-8").read())
                  for f in glob.glob(os.path.join(out_dir, "*.yaml")))


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """fmt → (input dir, input format, document count): 36 sidecar docs in
    12 row groups; 11 generated PDFs plus one poison file; 12 HTML pages."""
    from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document, write_corpus
    from libpdf_ray.kernels.htmldom import render_html
    from libpdf_ray.kernels.pdfwrite import write_pdf

    root = tmp_path_factory.mktemp("resume_corpora")
    sidecar = str(root / "sidecar")
    write_corpus(sidecar, n_docs=36, seed=42, shards=4, skew_pages=6,
                 row_group_size=4)
    pdf, html = root / "pdf", root / "html"
    pdf.mkdir()
    html.mkdir()
    for i in range(11):
        d = build_document(300 + i, DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)])
        (pdf / f"{d['doc_id']}.pdf").write_bytes(write_pdf(d))
    (pdf / "poison.pdf").write_bytes(b"%PDF-1.4 garbage")
    for i in range(12):
        (html / f"page{i:02d}.html").write_text(
            render_html(f"page{i:02d}", " ".join(f"w{i}x{j}" for j in range(40))))
    return {"sidecar": (sidecar, "sidecar", 36), "yaml": (sidecar, "sidecar", 36),
            "pdf": (str(pdf), "pdf", 12), "html": (str(html), "html", 12)}


def _run(corpora, fmt, out_dir, cfg=SMART_CROP_CONFIG):
    corpus, input_format, _ = corpora[fmt]
    outputs = Outputs(yaml_dir=out_dir) if fmt == "yaml" else None
    return run_resumable(corpus, out_dir, cfg, outputs, input_format)


def _outputs(out_dir, fmt):
    return _yaml_trees(out_dir) if fmt == "yaml" else _span_rows(out_dir)


def _item_docs(corpus, fmt, m) -> list:
    """The doc ids of a committed item, from its manifest's inputs."""
    if fmt != "yaml":
        return []
    docs = []
    for i in m["inputs"]:
        path, rg = i.rsplit("#", 1)
        docs += pq.ParquetFile(os.path.join(corpus, path)).read_row_group(
            int(rg), columns=["doc_id"]).column("doc_id").to_pylist()
    return docs


def _written(out_dir, corpus, fmt, m) -> set:
    """Every file a committed item wrote: its manifest, its parquet files
    and (``-f yaml``) its documents' YAML trees."""
    return ({_manifest(out_dir, m["part_id"])}
            | {os.path.join(out_dir, f) for f in m["files"]}
            | {os.path.join(out_dir, f"{d}.yaml") for d in _item_docs(corpus, fmt, m)})


def _kill(out_dir, corpus, fmt, orphan, lost) -> None:
    """Simulate a run killed after committing every item but ``orphan``
    (its span file, or one YAML tree, was written, torn here, its manifest
    was not) and ``lost`` (nothing was written)."""
    done = completed_partitions(out_dir)
    for part in orphan + lost:
        os.remove(_manifest(out_dir, part))
        files = sorted(_written(out_dir, corpus, fmt, done[part])
                       - {_manifest(out_dir, part)})
        for f in files if part in lost else files[:1]:
            if part in lost:
                os.remove(f)
            else:
                with open(f, "wb") as fh:
                    fh.write(b"PAR1 torn")


def _manifest(out_dir, part):
    return os.path.join(out_dir, "_manifest", f"part-{part}.json")


def _mtimes(out_dir):
    return {f: os.path.getmtime(f) for f in glob.glob(
        os.path.join(out_dir, "**", "*"), recursive=True) if os.path.isfile(f)}


@pytest.mark.parametrize("fmt", FORMATS)
def test_kill_and_resume(ray_session, corpora, tmp_path, fmt):
    """A resume reruns exactly the inputs without a manifest, replaces an
    orphan output file, touches no committed file, and ends with the
    uninterrupted run's output, every document once."""
    corpus, _, n_docs = corpora[fmt]
    out_dir = str(tmp_path / "out")
    full = _run(corpora, fmt, out_dir)
    n_items = full["total_partitions"]
    assert len(full["ran"]) == n_items and n_items >= 8
    row_groups = fmt in ("sidecar", "yaml")  # one item per row group
    assert n_items == 12 or not row_groups
    assert (full["documents"], full["errors"]) == (n_docs, int(fmt == "pdf"))
    uninterrupted = _outputs(out_dir, fmt)
    if fmt != "yaml":
        assert full["n_spans"] == sum(r[2] for r in uninterrupted)
    before = completed_partitions(out_dir)

    orphan, lost = full["ran"][1:2], [full["ran"][3], full["ran"][-1]]
    rerun_inputs = sorted(i for p in orphan + lost for i in before[p]["inputs"])
    gone = set().union(*(_written(out_dir, corpus, fmt, before[p])
                         for p in orphan + lost))
    _kill(out_dir, corpus, fmt, orphan, lost)
    kept = {f: t for f, t in _mtimes(out_dir).items() if f not in gone}
    summary = _run(corpora, fmt, out_dir)
    after = completed_partitions(out_dir)
    assert sorted(i for p in summary["ran"] for i in after[p]["inputs"]) == rerun_inputs
    if row_groups:  # a file item's inputs may be regrouped, a row group not
        assert summary["ran"] == sorted(orphan + lost)
    assert summary["skipped"] == sorted(set(full["ran"]) - set(orphan + lost))
    assert {k: summary[k] for k in ("documents", "errors", "n_spans")} == \
        {k: full[k] for k in ("documents", "errors", "n_spans")}
    mtimes = _mtimes(out_dir)
    for f, old in kept.items():
        assert mtimes[f] == old, f"recomputed committed file {f}"
    # the orphan is replaced and the lost files written; nothing else
    rewritten = set().union(*(_written(out_dir, corpus, fmt, after[p])
                              for p in summary["ran"]))
    assert set(mtimes) == set(kept) | rewritten
    assert _outputs(out_dir, fmt) == uninterrupted
    # every input document exactly once
    doc_ids = ([os.path.splitext(name)[0] for name, _ in uninterrupted]
               if fmt == "yaml" else [r[0] for r in uninterrupted])
    assert len(doc_ids) == len(set(doc_ids)) == n_docs
    if row_groups:
        in_ids = pq.read_table(corpus, columns=["doc_id"]).column("doc_id").to_pylist()
        assert sorted(doc_ids) == sorted(in_ids)

    # manifests carry lineage + metrics
    m = after[orphan[0]] if row_groups else after[summary["ran"][0]]
    assert m["part_id"] == part_id(m["inputs"])
    assert m["files"] == ([] if fmt == "yaml" else
                          [os.path.join(f"part-{m['part_id']}", "spans.parquet")])
    assert m["documents"] == len(m["inputs"]) * (4 if row_groups else 1)
    assert m["n_spans"] > 0 or m["errors"] == 1
    assert m["wall_time_s"] > 0 or fmt == "html"  # a page parses in < 0.5 ms
    assert m["outputs"] == ([f"yaml {out_dir}"] if fmt == "yaml" else ["spans"])
    if fmt == "sidecar":
        sidecar = after[part_id(["part-0001.parquet#0"])]
        assert sidecar["inputs"] == ["part-0001.parquet#0"] and sidecar["documents"] == 4


@pytest.mark.parametrize("fmt", FORMATS)
def test_one_plan_per_run(ray_session, corpora, tmp_path, monkeypatch, fmt):
    """A run builds ONE Dataset over every uncommitted item (wrapped the
    way perfbench wraps it); a fully committed rerun builds none."""
    import libpdf_ray.pipelines.checkpoint as checkpoint

    fused = checkpoint.extract_spans_fused
    calls = []

    def keep(*args, **kwargs):
        calls.append(fused(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(checkpoint, "extract_spans_fused", keep)
    out_dir = str(tmp_path / "out")
    first = _run(corpora, fmt, out_dir)
    assert len(first["ran"]) == first["total_partitions"] >= 8
    assert len(calls) == 1
    # another batch size groups files differently, and still reruns nothing
    summary = _run(corpora, fmt, out_dir,
                   dataclasses.replace(SMART_CROP_CONFIG, parse_batch_size=1))
    assert (summary["ran"], summary["skipped"], len(calls)) == ([], first["ran"], 1)


def test_resume_after_a_shard_that_sorts_first(ray_session, tmp_path):
    """A corpus that gains a shard listed before the others resumes by
    input identity: the rerun parses only the new shard, and the output
    equals a fresh run of the grown corpus, every document once."""
    from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document, write_corpus
    from libpdf_ray.schema import RAW_DOC_SCHEMA

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=9, seed=3, shards=3, skew_pages=6)
    out = str(tmp_path / "out")
    run_resumable(corpus, out, SMART_CROP_CONFIG)
    docs = [build_document(100 + i, DEFAULT_FAMILIES[i], 3, 6) for i in range(3)]
    pq.write_table(pa.Table.from_pylist(docs, schema=RAW_DOC_SCHEMA),
                   os.path.join(corpus, "a-first.parquet"))
    summary = run_resumable(corpus, out, SMART_CROP_CONFIG)
    fresh = str(tmp_path / "fresh")
    run_resumable(corpus, fresh, SMART_CROP_CONFIG)

    def pairs(out_dir):
        return collections.Counter((r[0], r[1]) for r in _span_rows(out_dir))

    assert pairs(out) == pairs(fresh)
    assert sorted(pairs(out).values()) == [1] * 12
    assert summary["ran"] == [part_id(["a-first.parquet#0"])]
    assert (len(summary["skipped"]), summary["documents"]) == (3, 12)


@pytest.mark.parametrize("fmt", ("pdf", "html"))
def test_cli_rerun_with_another_batch_size_adds_no_rows(ray_session, corpora,
                                                        tmp_path, capsys, fmt):
    """The file legs commit per item too: a rerun of a finished run with
    another batch size parses nothing and leaves the span rows as they
    were, one per document."""
    from libpdf_ray.__main__ import main

    corpus, _, n_docs = corpora[fmt]
    out = str(tmp_path / "out")
    argv = [corpus, "-o", out, "--input-format", fmt, "--smart-page-crop"]
    assert main(argv + ["--batch-size", "64"]) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rows = _span_rows(out)
    assert first["documents"] == len(rows) == len({r[0] for r in rows}) == n_docs
    assert main(argv + ["--batch-size", "1"]) == 0
    again = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert _span_rows(out) == rows
    assert again["ran"] == [] and again["skipped"] == first["ran"]
    assert {k: again[k] for k in ("documents", "errors", "spans")} == \
        {k: first[k] for k in ("documents", "errors", "spans")}


def test_cli_rerun_into_another_spelling_of_the_output_runs_nothing(
        ray_session, small_corpus_dir, tmp_path, capsys):
    """The side outputs' manifest keys name their directories as absolute
    paths: a finished run with ``--views`` rerun into the same directory
    spelled ``<dir>/./out`` runs no item."""
    from libpdf_ray.__main__ import main

    argv = [small_corpus_dir, "--views", "cells", "-o"]
    assert main(argv + [str(tmp_path / "out")]) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert first["ran"]
    assert main(argv + [os.path.join(str(tmp_path), ".", "out")]) == 0
    again = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert again["ran"] == [] and again["skipped"] == first["ran"]


def test_main_leaves_the_callers_session_running(ray_session, small_corpus_dir,
                                                 tmp_path, capsys):
    """``main()`` shuts down only a Ray session it started: inside a
    caller's session, a finished run and each refused run leave it up."""
    import ray

    from libpdf_ray.__main__ import main

    out = str(tmp_path / "out")
    assert main([small_corpus_dir, "-o", out]) == 0
    assert ray.is_initialized()
    assert main([small_corpus_dir, "-o", out, "--views", "nope"]) == 2
    assert ray.is_initialized()
    assert main([small_corpus_dir, "-o", out, "--input-format", "html",
                 "--views", "elements"]) == 2
    assert ray.is_initialized()
    assert main([small_corpus_dir, "-o", out, "--no-paragraphs"]) == 2
    assert ray.is_initialized()


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
    shard = [part_id([f"part-{i:04d}.parquet#0"]) for i in range(4)]
    assert first["ran"] == sorted(shard)
    orphan, lost = [shard[2]], [shard[0]]
    done = completed_partitions(out)
    rewrite = set().union(*(_written(out, small_corpus_dir, "sidecar", done[p])
                            for p in orphan + lost))
    _kill(out, small_corpus_dir, "sidecar", orphan, lost)
    kept = {f: t for f, t in _mtimes(out).items()
            if f not in rewrite and "views" not in f}
    summary = run_resumable(small_corpus_dir, out, SMART_CROP_CONFIG,
                            outputs=views(out, "elements", "file_meta"))
    assert summary["ran"] == sorted(orphan + lost)
    assert summary["skipped"] == sorted([shard[1], shard[3]])
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
    m = completed_partitions(out)[shard[0]]
    assert m["outputs"] == sorted(views(out, "elements", "pages").keys() + ["spans"])
