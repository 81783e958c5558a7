"""Resumable partitioned runs: per-partition lineage + metrics manifests.

The north rule requires "every partition writes lineage + metrics checkpoints
so a killed ``ray job submit`` run resumes without recomputing completed
partitions".  Ray Data has no built-in pipeline checkpointing (SURVEY §4.2),
so the engine provides it at the layout level:

- the *partition* is an input shard (one or more sidecar parquet files);
- each partition runs as its own streaming pipeline and writes
  ``out_dir/part-<id>/`` (parquet) plus ``out_dir/_manifest/part-<id>.json``
  containing lineage (exact input files), the side outputs its parse tasks
  wrote (views, YAML, visual-debug pages, figure crops — see
  ``stages/outputs.py``) and metrics (docs, spans, side-output counts,
  wall time, attempt) — written ATOMICALLY (tmp + rename) after the data;
- resume = list manifests, skip each partition whose manifest covers every
  output the run asks for, run the rest.

The driver loop over partitions is control flow only — each partition's data
still streams through Ray Data with backpressure; nothing is materialized
driver-side.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

from ..config import PipelineConfig
from ..ops.util import list_files
from .extract import extract_spans_fused


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _manifest_path(out_dir: str, part_id: str) -> str:
    return os.path.join(_manifest_dir(out_dir), f"part-{part_id}.json")


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


def plan_partitions(input_dir: str, files_per_partition: int = 1) -> list:
    """Input shards → partition plan: [(part_id, [files...]), ...]; the
    shards are listed like every sidecar reader lists them
    (:func:`ops.util.list_files`: recursive, sorted)."""
    files = list_files(input_dir, (".parquet",))
    plan = []
    for i in range(0, len(files), files_per_partition):
        chunk = files[i : i + files_per_partition]
        plan.append((f"{i // files_per_partition:04d}", chunk))
    return plan


def run_resumable(
    input_dir: str,
    out_dir: str,
    cfg: PipelineConfig | None = None,
    files_per_partition: int = 1,
    fail_after_partitions: int | None = None,
    outputs=None,
) -> dict:
    """Run the extraction pipeline partition by partition, skipping
    completed ones.  Returns a summary dict.

    ``outputs`` (``stages/outputs.py:Outputs``) adds the side files the
    parse tasks write (views, YAML, visual-debug pages, figure crops).  A
    partition is skipped only when its manifest lists every output key the
    run asks for; the summary then carries the run's ``visual_debug_pages``
    / ``media_crops`` totals, completed partitions included.

    ``fail_after_partitions`` is a test hook: raise after N newly-completed
    partitions to simulate a killed job.
    """
    from ..stages.outputs import COUNT_COLUMNS
    from .summary import write_spans

    cfg = cfg or PipelineConfig()
    os.makedirs(out_dir, exist_ok=True)
    plan = plan_partitions(input_dir, files_per_partition)
    done = completed_partitions(out_dir)
    wanted = outputs.keys() if outputs else []
    counted = COUNT_COLUMNS if outputs else ()
    ran, skipped = [], []
    counts = dict.fromkeys(counted, 0)
    for part_id, files in plan:
        manifest = done.get(part_id)
        if manifest and set(wanted) <= set(manifest.get("outputs", [])):
            skipped.append(part_id)
            for c in counted:
                counts[c] += manifest.get(c, 0)
            continue
        t0 = time.time()
        part_out = os.path.join(out_dir, f"part-{part_id}")
        # a rerun replaces whatever an earlier attempt left here.
        # fused read+parse: one task per row-group fragment — only span
        # output crosses the object store (see extract_spans_fused)
        shutil.rmtree(part_out, ignore_errors=True)
        ds = extract_spans_fused(files, cfg, outputs)
        totals = write_spans(ds, part_out, ("n_spans",) + counted)
        for c in counted:
            counts[c] += totals[c]
        write_manifest(
            out_dir,
            {
                "part_id": part_id,
                "input_files": files,          # lineage
                "output_dir": part_out,
                "outputs": wanted,
                "n_docs": totals["documents"],  # metrics
                "n_spans": totals["n_spans"],
                **{c: totals[c] for c in counted},
                "wall_time_s": round(time.time() - t0, 3),
                "attempt_finished_at": time.time(),
            },
        )
        ran.append(part_id)
        if fail_after_partitions is not None and len(ran) >= fail_after_partitions:
            raise RuntimeError(f"injected failure after {len(ran)} partitions")
    return {"ran": ran, "skipped": skipped, "total_partitions": len(plan), **counts}
