"""Shared dataset helpers: partition-tuned aggregates and shuffle-free top-k.

Two systematic wins over naive Dataset usage (measured on this node — see
BENCH notes in BASELINE.md):

- ``groupby(...)`` defaults to a partition count meant for huge key spaces;
  a 6-row aggregate then pays for hundreds of empty shuffle tasks (10-15 s
  → ~2 s with a key-cardinality-sized ``num_partitions``).  Every grouped
  op in the engine takes an explicit ``num_partitions``.
- global top-k via ``sort().limit(k)`` range-shuffles the whole dataset
  (~20 s for 15 k rows); :func:`topk` instead takes per-block partial
  top-k (embarrassingly parallel) and merges the ≤ k·n_blocks survivors in
  one single-block task.  At 100 TB the partial pass is the only stage that
  touches the data.
"""

from __future__ import annotations

import math
import os

import pandas as pd
import pyarrow as pa

# Above this many distinct keys, a single-task combine of per-batch partials
# stops being safe (one worker would hold every partial row); flip to the
# bucketed groupby().map_groups combine.  ~200k keys × a few int columns is
# still only tens of MB in one task — well inside a worker heap.
SINGLE_TASK_COMBINE_KEY_LIMIT = 200_000

# A broadcast lookup dict beyond this is a driver/worker memory hazard —
# callers must switch to the bucketed hash-join pattern (q_priority_revenue).
BROADCAST_LOOKUP_ROW_LIMIT = 5_000_000


def cluster_cpus(default: int = 8) -> int:
    """Total CPUs visible to Ray (the helper is import-safe without an
    initialized cluster, for unit tests and driver-side planning)."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", default))
    except Exception:  # noqa: BLE001
        pass
    return default


def list_files(paths, extensions: tuple) -> list:
    """A directory, a file, or a list of either → the sorted files whose
    extension is in ``extensions`` (case-insensitive, e.g. ``(".pdf",)``).
    Directories are walked recursively; explicit files are filtered too —
    the file set ``read_binary_files(file_extensions=...)`` reads.  Raises
    ``FileNotFoundError`` for a missing path and ``ValueError`` when
    nothing matches."""
    files = []
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            files += [os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs]
        elif os.path.exists(p):
            files.append(p)
        else:
            raise FileNotFoundError(p)
    files = sorted(f for f in files if f.lower().endswith(extensions))
    if not files:
        raise ValueError(f"no {'/'.join(extensions)} files under {paths!r}")
    return files


def file_doc_id(path: str) -> str:
    """A file's document id: its basename minus the extension."""
    return os.path.splitext(os.path.basename(path))[0]


def read_files(paths, extensions: tuple, column: str):
    """File paths (see :func:`list_files`) → Dataset of ``{doc_id, path,
    <column>}`` rows, ``<column>`` holding each file's raw bytes.

    The driver only lists; each task opens its own block's files.  The plan
    is ``FromItems → MapBatches(read)``, and since a map never changes row
    counts Ray fuses the read with the caller's parse ``map_batches`` and
    ``Write`` into one operator: no separate read tasks, and no file bytes
    crossing the object store.  Blocks are capped at the file count, so no
    block is ever empty, and at ~2× cluster CPUs (straggler slack; fixed
    per-task dispatch dominates tiny tasks)."""
    import ray.data

    files = list_files(paths, extensions)
    return ray.data.from_items(
        [{"path": f} for f in files],
        override_num_blocks=min(len(files), max(8, 2 * cluster_cpus())),
    ).map_batches(
        _read_batch, fn_kwargs={"column": column},
        batch_format="pyarrow", batch_size=None,
    )


def _read_batch(batch: pa.Table, column: str) -> pa.Table:
    paths = batch.column("path").to_pylist()
    data = []
    for p in paths:
        with open(p, "rb") as fh:
            data.append(fh.read())
    return pa.table({
        "doc_id": pa.array([file_doc_id(p) for p in paths], pa.string()),
        "path": pa.array(paths, pa.string()),
        column: pa.array(data, pa.binary()),
    })


def normalize_blocks(ds, target_blocks: int | None = None):
    """Merge away the COLUMN-LESS empty pandas blocks that Ray's hash
    shuffle emits for key-partitions that received no rows.

    Map UDFs are skipped on empty blocks, so these schema-less empties
    survive every downstream map stage — and then crash ``Dataset.join``
    (Arrow: "No match or multiple matches for key field") or any other
    consumer that needs a per-block schema.  ``repartition`` rebuilds
    blocks by concatenation, which restores the real schema everywhere.

    Cost: one pass over the dataset's bytes (no hash exchange).  Use on
    the post-shuffle side(s) of a join; reads/maps from parquet never need
    it."""
    return ds.repartition(target_blocks or max(2, cluster_cpus() // 2))


def shuffle_partitions(
    est_keys: int | None = None,
    est_bytes: int | None = None,
    cpus: int | None = None,
) -> int:
    """Cardinality/volume-aware ``num_partitions`` for a grouped shuffle.

    Replaces the round-1 hard-coded ``num_partitions=4/8`` constants (judged
    a scale-killer): partitions grow with expected distinct keys (one
    partition per ~64k keys) and with shuffled bytes (one per ~64 MB), are
    never fewer than 2 (a 6-key aggregate should not pay for hundreds of
    empty shuffle tasks — measured 10-15 s → ~2 s on this node), and are
    capped at 2×cluster CPUs so a 256-node cluster automatically fans out
    where this sandbox picks ~4-8.
    """
    cpus = cpus if cpus is not None else cluster_cpus()
    # compute-parallelism floor for raw-row shuffles: the per-partition
    # map_groups work parallelizes BY partition, but each hash-shuffle
    # partition also costs an aggregator actor (~seconds of startup on
    # this Ray version) — cpus/4 balances both (A/B on a 150k-row
    # sessionization at 32 CPUs: 2 parts 5.2 s, 8 parts 3.6 s, 32 parts
    # 15 s); grows to hundreds on a real multi-node cluster.
    compute_floor = int(min(cpus, max(4, cpus // 4)))
    if est_keys is None and est_bytes is None:
        return compute_floor
    if est_keys is not None and est_bytes is None:
        # partial-combine shuffles: the exchange carries one small row per
        # (key, batch) — size purely by key cardinality
        want = max(2, math.ceil(est_keys / 65_536))
        return int(max(2, min(want, max(4, 2 * cpus))))
    want = compute_floor
    if est_keys is not None:
        want = max(want, math.ceil(est_keys / 65_536))
    if est_bytes is not None:
        want = max(want, math.ceil(est_bytes / (64 << 20)))
    return int(max(2, min(want, max(4, 2 * cpus))))


def put_id_set(values):
    """Broadcast a membership set, numpy-first.

    Integer ids go into the object store as a SORTED int64 array —
    workers read it zero-copy and test membership with ``np.isin``.
    A python ``frozenset`` at the :data:`BROADCAST_LOOKUP_ROW_LIMIT` cap
    costs a multi-hundred-ms unpickle in EVERY batch plus a set→array
    conversion inside ``Series.isin`` (the cume_dist rank-map lesson:
    6.7 → 0.6 s from exactly this change).  Non-integer ids keep the
    frozenset form.  Returns ``(object_ref, is_int_array)``."""
    import numpy as np
    import ray

    try:
        arr = np.asarray(list(values) if isinstance(values, (set, frozenset))
                         else values)
    except Exception:
        arr = None
    if arr is not None and arr.dtype.kind in "iu":
        return ray.put(np.unique(arr.astype(np.int64))), True
    return ray.put(values if isinstance(values, frozenset)
                   else frozenset(values)), False


def isin_broadcast(series: "pd.Series", ref, is_int_array: bool):
    """Vectorized membership of ``series`` against a :func:`put_id_set`
    broadcast; returns a boolean numpy mask."""
    import numpy as np
    import ray

    ids = ray.get(ref)
    if is_int_array:
        return np.isin(series.to_numpy(dtype=np.int64), ids,
                       assume_unique=False)
    return series.isin(ids).to_numpy()


def file_bytes(path_glob: str) -> int:
    """On-disk byte size of a parquet file/dir — the volume estimate for
    raw-row shuffles."""
    import glob as _glob
    import os

    if os.path.isdir(path_glob):
        return sum(
            os.path.getsize(p)
            for p in _glob.glob(os.path.join(path_glob, "*.parquet"))
        )
    return os.path.getsize(path_glob)


def parquet_row_count(path_glob: str) -> int:
    """Metadata-only row count of a parquet file/dir (no data read) — the
    cheap cardinality estimate for key columns that are primary keys."""
    import glob as _glob
    import os

    import pyarrow.parquet as pq

    paths = (
        sorted(_glob.glob(os.path.join(path_glob, "*.parquet")))
        if os.path.isdir(path_glob)
        else [path_glob]
    )
    return sum(pq.ParquetFile(p).metadata.num_rows for p in paths)


def combine_partials(
    partials,
    combine_fn,
    key_cols,
    est_keys: int,
    key_to_bucket=None,
    merge_fn=None,
):
    """Combine per-batch partial aggregates, strategy chosen by key
    cardinality (the round-1 ``repartition(1)`` combine had no scale path):

    - ``est_keys`` ≤ :data:`SINGLE_TASK_COMBINE_KEY_LIMIT`: one small task
      merges all partials (cheapest shape; measured ~2 s where Ray's own
      aggregate costs 14-17 s on 15k keys).
    - larger: hash-bucket the partial rows by key and co-group with ONE
      ``groupby(bucket).map_groups`` sized by :func:`shuffle_partitions`.

    ``combine_fn`` must be a pandas frame → frame reduction that is correct
    both globally and per key-disjoint bucket (any per-key aggregation is).
    ``merge_fn``, if given, is a partial→partial reduction that lets the
    single-task branch tree-merge instead of funneling every partial
    block into one task.  It must be ASSOCIATIVE over arbitrary block
    subsets (intermediate tasks see unordered subsets, not key-disjoint
    buckets): plain per-key aggregations qualify, and so does per-key
    smallest-k-by-deterministic-order selection (a deterministic top-k is
    an associative idempotent reduction — merging any two partial top-k
    sets and re-selecting yields the global top-k; the samplers rely on
    this).  Output FORMATTING (renames, ratios) must stay in
    ``combine_fn``, which runs exactly once per key.
    """
    if est_keys <= SINGLE_TASK_COMBINE_KEY_LIMIT:
        if merge_fn is not None:
            return tree_merge(partials, merge_fn, combine_fn)
        return partials.repartition(1).map_batches(
            combine_fn, batch_format="pandas", batch_size=None
        )
    n_parts = shuffle_partitions(est_keys=est_keys)
    first_key = key_cols[0] if isinstance(key_cols, (list, tuple)) else key_cols
    if key_to_bucket is None:
        key_to_bucket = lambda s: pd.util.hash_pandas_object(s, index=False).astype(
            "int64"
        ).abs() % (n_parts * 4)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(bucket=key_to_bucket(df[first_key]))

    def combine_drop(df: pd.DataFrame) -> pd.DataFrame:
        return combine_fn(df.drop(columns=["bucket"]))

    return (
        partials.map_batches(add_bucket, batch_format="pandas")
        .groupby("bucket", num_partitions=n_parts)
        .map_groups(combine_drop, batch_format="pandas")
    )


def tune_data_context() -> None:
    """Session-level Ray Data tuning, idempotent; call from any entry point
    that owns query execution (bench, driver contract, tests).

    Measured on this node: the default sort-based shuffle's AggregateMap
    spends ~4 s per block sorting even 2 k-row partial blocks (a 15 k-key
    aggregate took 23 s); the hash-shuffle strategy does the same exchange
    in ~3 s end-to-end."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    # aggregator actors default to 1 CPU each: a num_partitions=8 shuffle
    # then reserves 8 whole CPUs for the lifetime of the pipeline and
    # starves upstream map tasks on small clusters (measured: the split
    # pipeline's prepare stage serialized behind them).  Fractional CPUs
    # keep the aggregators schedulable without monopolizing the node.
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.25
    ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.25


TREE_MERGE_FAN_IN = 64


def tree_merge(partials, merge_fn, final_fn=None, fan_in: int = TREE_MERGE_FAN_IN,
               est_blocks: int | None = None):
    """Hierarchical final merge: coalesce blocks in waves of ≤ ``fan_in``
    until one remains, so NO single task's input scales with block count
    (the round-2 ``repartition(1)`` finals held k·n_blocks rows — fine at
    thousands of blocks, a driver-shaped bottleneck at 10^6+).

    ``merge_fn`` must be an associative partial→partial reduction over a
    pandas frame (output consumable as input); ``final_fn`` (default
    ``merge_fn``) formats the last level.  At ≤ ``fan_in`` blocks this is
    byte-identical to the old single-task shape: one repartition(1) +
    ``final_fn``.

    ``est_blocks=None`` materializes ``partials`` (they are post-reduction
    and tiny) to read the true block count; pass an estimate to keep the
    pipeline fully streaming."""
    if final_fn is None:
        final_fn = merge_fn
    if est_blocks is None:
        partials = partials.materialize()
        est_blocks = partials.num_blocks()
    n = int(max(1, est_blocks))
    while n > fan_in:
        n = math.ceil(n / fan_in)
        partials = partials.repartition(n).map_batches(
            merge_fn, batch_format="pandas", batch_size=None
        )
    return partials.repartition(1).map_batches(
        final_fn, batch_format="pandas", batch_size=None
    )


def topk(ds, keys, descending, k: int):
    """Deterministic global top-k: ``keys`` must be a total order (include
    tie-break columns).  ``descending`` is a list of bools per key."""
    ascending = [not d for d in descending]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(keys, ascending=ascending).head(k)

    survivors = ds.map_batches(partial, batch_format="pandas")
    # ≤ k rows per input block survive; sort+head is associative, so the
    # tree merge finishes without a block-count-sized final task
    return tree_merge(survivors, partial)


# Size-aware read block sizing: target this many FILE bytes per read block
# (≈3× that decompressed in memory).  Ray Data's own parallelism floor is
# 2× cluster CPUs regardless of input size, which splits a 10 MB table
# into 64 sub-MB blocks and makes every downstream map stage pay ~64 task
# launches for milliseconds of vectorized work each (measured: the read +
# SplitBlocks(64) operator alone spent 1.5-2.0 s per query at sf0.1 while
# its remote compute summed to ~120 ms).
TARGET_READ_BLOCK_BYTES = 8 << 20


def read_sized(path, columns=None, **kwargs):
    """``read_parquet`` with column pruning and SIZE-AWARE block count.

    Blocks ≈ file_bytes / :data:`TARGET_READ_BLOCK_BYTES`, clamped to
    [1, 4 × cluster CPUs].  At warehouse scale the size term dominates and
    the CPU cap binds, so behavior converges to Ray's default; at small
    scale it stops paying per-task scheduling for confetti blocks.
    """
    import os

    import ray
    import ray.data as rd

    size = 0
    try:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                size += sum(
                    os.path.getsize(os.path.join(root, f))
                    for f in files
                    if f.endswith(".parquet")
                )
        else:
            size = os.path.getsize(path)
    except OSError:
        size = 0
    if size <= 0:
        return rd.read_parquet(path, columns=columns, **kwargs)
    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 0)) or (os.cpu_count() or 8)
    else:
        cpus = os.cpu_count() or 8
    blocks = max(1, min(4 * cpus, math.ceil(size / TARGET_READ_BLOCK_BYTES)))
    return rd.read_parquet(
        path, columns=columns, override_num_blocks=blocks, **kwargs
    )
