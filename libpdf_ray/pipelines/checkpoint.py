"""Resumable runs: one streaming plan that commits per row-group partition.

Ray Data has no pipeline checkpointing (SURVEY §4.2), so a killed run
resumes from the output layout:

- a *partition* is one row group of one input shard, listed once on the
  driver (``extract.list_fragments``, heaviest first);
- ONE Ray plan parses every partition not yet committed.  The task that
  parses a partition commits it at once: its span file
  ``out_dir/part-<shard>/rg-<row group>.parquet``, then its manifest
  ``out_dir/_manifest/part-<shard>-<row group>.json`` (lineage, the output
  config, the side outputs its parse wrote — ``stages/outputs.py`` — and
  docs/errors/spans/side-output counts and wall time), each tmp + rename
  under a name fixed by the partition, so a rerun replaces what a killed
  attempt left;
- resume = list manifests, drop each partition whose manifest covers every
  output the run asks for, run one plan over the rest (none when nothing
  is left).  Output written with another config is refused.

No barrier sits between partitions, and nothing per-document reaches the
driver: the plan's rows are one totals dict per partition.
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import json
import os
import time

from ..config import PipelineConfig
from ..ops.util import list_files
from ..schema import SPANS_SCHEMA
from ..stages.outputs import COUNT_COLUMNS, parquet_bytes, write_file
from .extract import extract_spans_fused, list_fragments
from .summary import table_totals

#: run-summary total → the manifest field that records it
_MANIFEST_FIELD = {"documents": "n_docs", "errors": "n_errors"}


class ConfigMismatch(ValueError):
    """The output directory holds partitions written with another config."""


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


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
    final = os.path.join(_manifest_dir(out_dir), f"part-{manifest['part_id']}.json")
    tmp = final + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)


def plan_partitions(input_dir: str) -> list:
    """Input shards → [(shard id, [file]), ...]; the shards are listed like
    every sidecar reader lists them (:func:`ops.util.list_files`:
    recursive, sorted).  Each row group of a shard is one partition of
    :func:`run_resumable`."""
    files = list_files(input_dir, (".parquet",))
    return [(f"{i:04d}", [f]) for i, f in enumerate(files)]


def _commit(out_dir: str, manifest: dict, sum_cols: tuple, item: dict,
            spans, wall_s: float) -> dict:
    """Commit one parsed partition from its parse task: the span file, then
    the manifest.  Returns the partition's totals."""
    path = os.path.join(out_dir, f"part-{item['shard']}", f"rg-{item['rg']:04d}.parquet")
    write_file(path, parquet_bytes(spans.select(SPANS_SCHEMA.names)))
    totals = table_totals(spans, sum_cols)
    write_manifest(out_dir, {
        **manifest,
        "part_id": item["part_id"],
        "input_file": item["path"],  # lineage
        "row_group": item["rg"],
        "output_file": path,
        **{_MANIFEST_FIELD.get(k, k): v for k, v in totals.items()},  # metrics
        "wall_time_s": round(wall_s, 3),
        "attempt_finished_at": time.time(),
    })
    return {"part_id": item["part_id"], **totals}


def run_resumable(
    input_dir: str,
    out_dir: str,
    cfg: PipelineConfig | None = None,
    outputs=None,
) -> dict:
    """Parse every partition of ``input_dir`` not yet committed under
    ``out_dir`` in ONE Ray plan.  Returns ``{"ran", "skipped",
    "total_partitions", "documents", "errors", "n_spans", ...}``, the
    totals summed from the plan's per-partition rows and the skipped
    partitions' manifests.

    ``outputs`` (``stages/outputs.py:Outputs``) adds the side files the
    parse tasks write (views, YAML, visual-debug pages, figure crops).  A
    partition is skipped only when its manifest lists every output key the
    run asks for; the totals then also carry ``visual_debug_pages`` /
    ``media_crops``, completed partitions included.

    Raises :class:`ConfigMismatch` (a ``ValueError``) when ``out_dir``
    holds manifests written with another output config.
    """
    # the fields that shape output (all but the batch size), as JSON values
    config = json.loads(json.dumps(dataclasses.asdict(cfg or PipelineConfig())))
    del config["parse_batch_size"]
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
    wanted = outputs.keys() if outputs else []
    sum_cols = ("n_spans",) + (COUNT_COLUMNS if outputs else ())
    shards = {files[0]: part_id for part_id, files in plan_partitions(input_dir)}
    units = list_fragments(list(shards))
    totals = dict.fromkeys(("documents", "errors") + sum_cols, 0)
    todo, skipped = [], []
    for u in units:
        u["shard"] = shards[u["path"]]
        u["part_id"] = f"{u['shard']}-{u['rg']:04d}"
        manifest = done.get(u["part_id"])
        if manifest and set(wanted) <= set(manifest["outputs"]):
            skipped.append(u["part_id"])
            for k in totals:
                totals[k] += manifest[_MANIFEST_FIELD.get(k, k)]
        else:
            todo.append(u)
    ran = []
    if todo:
        commit = functools.partial(
            _commit, out_dir, {"config": config, "outputs": wanted}, sum_cols)
        for row in extract_spans_fused(todo, cfg, outputs, commit).iter_rows():
            ran.append(row["part_id"])
            for k in totals:
                totals[k] += row[k]
    return {"ran": sorted(ran), "skipped": sorted(skipped),
            "total_partitions": len(units), **totals}
