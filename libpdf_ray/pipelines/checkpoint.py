"""Resumable runs: ONE streaming plan per run that commits per work item,
for every input format (sidecar parquet, PDF files, HTML files).

Ray Data has no pipeline checkpointing (SURVEY §4.2), so a killed run
resumes from the output layout.  The driver lists every input once
(``extract.list_inputs``: a sidecar row group or one file, identified by
its relative path, never a list index) and groups them into items
(``extract.group_items``).  The task that parses an item commits it at
once: its span file ``part-<part id>/spans.parquet`` (none for a
``-f yaml`` run), then ``_manifest/part-<part id>.json`` (its inputs, the
parquet files it wrote, the config, the output keys, counts and wall
time), each tmp + rename under names taken from the item's inputs
(``extract.part_id``), so a retried task overwrites its own files.  A
rerun keeps the covering manifests, removes everything else
(:func:`_resume`) and runs one plan over the inputs left, none when
nothing is.  No barrier sits between items, and nothing per-document
reaches the driver: the plan's rows are one totals dict per item.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import json
import os
import time

import pyarrow.compute as pc

from ..config import PipelineConfig
from ..ops.util import list_files
from ..schema import SPANS_SCHEMA
from ..stages.outputs import COUNT_COLUMNS, parquet_bytes, view_file, write_file
from .extract import extract_spans_fused, group_items, input_ids, list_inputs, part_id

class ConfigMismatch(ValueError):
    """The output directory holds partitions written with another config."""


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _manifest_path(out_dir: str, part: str) -> str:
    return os.path.join(_manifest_dir(out_dir), f"part-{part}.json")


def completed_partitions(out_dir: str) -> dict:
    """part_id → manifest dict for every completed partition."""
    done = {}
    for path in glob.glob(os.path.join(_manifest_dir(out_dir), "part-*.json")):
        try:
            with open(path) as fh:
                m = json.load(fh)
            done[m["part_id"]] = m
        except (json.JSONDecodeError, KeyError):
            # torn manifest from a kill between write and rename never
            # happens (rename is atomic) — an unreadable file is treated as
            # not-done and the partition reruns
            continue
    return done


def write_manifest(out_dir: str, manifest: dict) -> None:
    """Atomic write: tmp file + rename, so a killed run can never leave a
    half manifest that claims completion."""
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    final = _manifest_path(out_dir, manifest["part_id"])
    tmp = final + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)


def plan_partitions(input_dir: str) -> list:
    """Sidecar shards → ``[(shard id, [file]), ...]``, listed like every
    sidecar reader lists them (:func:`ops.util.list_files`: recursive,
    sorted), each id named from the shard's input identity
    (``extract.part_id``).  The in-process replay of ``perfbench`` commits
    per shard under these ids."""
    files = list_files(input_dir, (".parquet",))
    return [(part_id([i]), [f]) for i, f in zip(input_ids(input_dir, files), files)]


def _commit(out_dir: str, run: dict, sum_cols: tuple, outputs, item: dict,
            spans, wall_s: float) -> dict:
    """Commit one parsed item from its parse task: the span file (when the
    run asks for it), then the manifest.  Returns the item's totals."""
    part = item["part_id"]
    # the parse task wrote a view file for every view with rows
    files = [f for f in (view_file(outputs, v, part) for v in
                         (outputs.views if outputs else ())) if os.path.exists(f)]
    if "spans" in run["outputs"]:
        files.insert(0, os.path.join(out_dir, f"part-{part}", "spans.parquet"))
        write_file(files[0], parquet_bytes(spans.select(SPANS_SCHEMA.names)))
    totals = {"documents": spans.num_rows,
              "errors": pc.sum(pc.not_equal(spans["error"], "")).as_py() or 0,
              **{c: pc.sum(spans[c]).as_py() or 0 for c in sum_cols}}
    write_manifest(out_dir, {
        **run, "part_id": part, "inputs": item["inputs"],  # lineage
        "files": [os.path.relpath(f, out_dir) for f in files],
        **totals, "wall_time_s": round(wall_s, 3),  # metrics
        "attempt_finished_at": time.time(),
    })
    return {"part_id": part, **totals}


def _resume(out_dir: str, config: dict, keys: list, inputs: set,
            outputs) -> list:
    """The manifests this run keeps: written with ``config``, covering every
    output key in ``keys`` and listing only current ``inputs``.  Every
    other manifest is removed with the parquet files it wrote, then every
    parquet file (or its ``.tmp``) under ``part-*/`` or a views directory
    that no kept manifest names.  Raises :class:`ConfigMismatch`
    (before removing anything) when a manifest has another config."""
    done = completed_partitions(out_dir)
    for m in done.values():
        recorded = m.get("config")
        differ = (["config (none recorded)"] if recorded is None else
                  sorted(k for k in config if recorded.get(k) != config[k]))
        if differ:
            raise ConfigMismatch(
                f"{out_dir} holds output written with another config "
                f"(differs in: {', '.join(differ)}); write to a new "
                "directory or remove it first")
    kept = []
    for part, m in done.items():
        if m.get("inputs") and set(m["inputs"]) <= inputs and set(keys) <= set(m["outputs"]):
            kept.append(m)
        else:
            for f in [_manifest_path(out_dir, part)] + [
                    os.path.join(out_dir, f) for f in m.get("files", ())]:
                if os.path.exists(f):
                    os.remove(f)
    named = {os.path.abspath(os.path.join(out_dir, f)) for m in kept for f in m["files"]}
    views_dirs = {os.path.join(out_dir, "views")}
    if outputs and outputs.views_dir:
        views_dirs.add(outputs.views_dir)
    for pattern in [os.path.join(out_dir, "part-*", "*.parquet*")] + [
            os.path.join(d, "*", "*.parquet*") for d in views_dirs]:
        for f in glob.glob(pattern):
            if os.path.abspath(f) not in named:
                os.remove(f)
    return kept


def run_resumable(
    input_dir: str,
    out_dir: str,
    cfg: PipelineConfig | None = None,
    outputs=None,
    input_format: str = "sidecar",
) -> dict:
    """Parse every input of ``input_dir`` (``input_format``: ``sidecar``,
    ``pdf`` or ``html``) not yet committed under ``out_dir`` in ONE Ray
    plan.  Returns ``{"ran", "skipped", "total_partitions", "documents",
    "errors", "n_spans", ...}``: the part ids of the items run and kept,
    and the totals summed from the plan's per-item rows and the kept
    manifests.

    ``outputs`` (``stages/outputs.py:Outputs``) adds the side files the
    parse tasks write (views, YAML, visual-debug pages, figure crops); the
    totals then also carry ``visual_debug_pages`` / ``media_crops``.  The
    span files are an output of every run that writes no YAML trees.

    Raises :class:`ConfigMismatch` (a ``ValueError``) when ``out_dir``
    holds manifests written with another output config.
    """
    cfg = cfg or PipelineConfig()
    # the fields that shape output (all but the batch size), as JSON values
    config = json.loads(json.dumps(dataclasses.asdict(cfg)))
    del config["parse_batch_size"]
    keys = sorted((outputs.keys() if outputs else []) +
                  ([] if outputs and outputs.yaml_dir else ["spans"]))
    inputs = list_inputs(input_dir, input_format)
    kept = _resume(out_dir, config, keys, {u["id"] for u in inputs}, outputs)
    covered = {i for m in kept for i in m["inputs"]}
    items = group_items([u for u in inputs if u["id"] not in covered],
                        input_format, cfg.parse_batch_size)
    sum_cols = ("n_spans",) + (COUNT_COLUMNS if outputs else ())
    totals = {k: sum(m.get(k, 0) for m in kept) for k in ("documents", "errors") + sum_cols}
    ran = []
    if items:
        commit = functools.partial(
            _commit, out_dir, {"config": config, "outputs": keys}, sum_cols, outputs)
        for row in extract_spans_fused(items, cfg, outputs, commit,
                                       input_format).iter_rows():
            ran.append(row["part_id"])
            for k in totals:
                totals[k] += row[k]
    return {"ran": sorted(ran), "skipped": sorted(m["part_id"] for m in kept),
            "total_partitions": len(kept) + len(items), **totals}
