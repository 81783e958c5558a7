"""Relational operator suite over the driver's TPC-H-ish tables.

Each ``q_*`` function takes ``sf_dir`` and returns a lazy ``ray.data.Dataset``
whose result matches the DuckDB oracle in ``__ray_entry__.oracle_sql`` —
row-for-row, column-name-for-column-name, value-hash-exact.

Engine patterns demonstrated (SURVEY §2 relational coverage):

- column pruning at the read (``read_parquet(columns=...)``) everywhere;
- partial aggregation: per-batch pandas combiners emit one row per key per
  batch, the global ``groupby`` shuffles only the partials;
- broadcast joins: dimension tables (< a few MB) are loaded once driver-side
  and mapped inside batches — no shuffle join in any query;
- deterministic float math: every aggregate is integer-exact (cents /
  percent scaling) with at most one final division, so Ray and DuckDB
  produce bit-identical doubles regardless of summation order;
- sort + limit with total tie-break keys for deterministic top-k.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd

from .text import add_text_stats
from .util import file_bytes, read_sized, shuffle_partitions


def _cents(col: pd.Series) -> pd.Series:
    """2-decimal currency → exact integer cents (values are 2dp by
    construction, so round() only strips float representation noise)."""
    return (col * 100).round().astype("int64")


def _pct(col: pd.Series) -> pd.Series:
    return (col * 100).round().astype("int64")


def _lookup(sf_dir: str, table: str, key: str, val: str) -> dict:
    """Broadcast-side dimension lookup, size-guarded: beyond the cap a
    driver-built dict is a memory hazard and the caller must use the
    bucketed hash-join pattern (see q_priority_revenue)."""
    from .util import BROADCAST_LOOKUP_ROW_LIMIT, parquet_row_count

    path = f"{sf_dir}/{table}.parquet"
    n = parquet_row_count(path)
    if n > BROADCAST_LOOKUP_ROW_LIMIT:
        raise ValueError(
            f"{table} has {n} rows — too large for a broadcast lookup; "
            "use the bucketed hash join (q_priority_revenue pattern)"
        )
    t = pq.read_table(path, columns=[key, val])
    return dict(zip(t.column(key).to_pylist(), t.column(val).to_pylist()))


def _group_aggregate(part, keys, aggs, names):
    """``part.group_by(keys).aggregate(aggs)`` → columns ``keys + names``.

    The output columns are picked by their pyarrow names (``<col>_<fn>``),
    never by position: pyarrow has put the key columns first in some major
    versions and last in others, and a positional rename would mislabel
    every column without an error."""
    agg = part.group_by(keys).aggregate(aggs)
    return agg.select(list(keys) + [f"{c}_{fn}" for c, fn in aggs]).rename_columns(
        list(keys) + list(names)
    )


def _sum_combine(partials, key_cols, est_keys: int):
    """Tree-merged sum combine for grouped per-batch partials.

    Replaces Ray's actor-based hash aggregate for the small-cardinality
    queries: the aggregate's per-query aggregator-actor cold start plus the
    shuffle barrier cost a near-constant ~1.5 s at 32 CPUs regardless of
    data size (ds.stats(): 1.58 s of useful partial-agg CPU inside a 2.6 s
    wall for TPC-H Q1 at sf0.1), while :func:`combine_partials` merges the
    same partials through stateless tasks.  Cardinality routing inside
    combine_partials keeps the bucketed co-group path for large key counts.
    """
    from .util import combine_partials

    keys = list(key_cols) if isinstance(key_cols, (list, tuple)) else [key_cols]

    def red(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False).sum()

    return combine_partials(partials, red, keys, est_keys=est_keys, merge_fn=red)


# ---------------------------------------------------------------------------


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary with partial aggregation."""
    ds = read_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )
    cutoff = pd.Timestamp("2000-01-01")

    def partial(batch: "pa.Table") -> "pa.Table":
        # Arrow-native partial on the biggest scan in the system: the
        # string key columns stay zero-copy from the object store — the
        # former pandas form copied them per batch (round-4 verdict #4).
        # Integer math matches _cents/_pct bit-for-bit (round half-even).
        import pyarrow as pa
        import pyarrow.compute as pc

        mask = pc.less_equal(
            batch.column("l_shipdate"), pa.scalar(cutoff.to_datetime64())
        )
        batch = batch.filter(mask)
        i64 = pa.int64()
        price_c = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)), i64
        )
        disc_p = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), 100.0)), i64
        )
        tax_p = pc.cast(
            pc.round(pc.multiply(batch.column("l_tax"), 100.0)), i64
        )
        disc_i = pc.multiply(price_c, pc.subtract(pa.scalar(100, i64), disc_p))
        part = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty_i": pc.cast(pc.round(batch.column("l_quantity")), i64),
                "base_i": price_c,
                "disc_i": disc_i,
                "charge_i": pc.multiply(
                    disc_i, pc.add(pa.scalar(100, i64), tax_p)
                ),
                "discpct_i": disc_p,
            }
        )
        return _group_aggregate(
            part,
            ["l_returnflag", "l_linestatus"],
            [("qty_i", "sum"), ("base_i", "sum"), ("disc_i", "sum"),
             ("charge_i", "sum"), ("discpct_i", "sum"), ("qty_i", "count")],
            ["qty_i", "base_i", "disc_i", "charge_i", "discpct_i", "n"],
        )

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        est_keys=8,
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["qty_i"].astype("int64"),
                "sum_base_price": df["base_i"] / 100.0,
                "sum_disc_price": df["disc_i"] / 10000.0,
                "sum_charge": df["charge_i"] / 1000000.0,
                "avg_qty": df["qty_i"] * 1.0 / df["n"],
                "avg_price": df["base_i"] / 100.0 / df["n"],
                "avg_disc": df["discpct_i"] / 100.0 / df["n"],
                "count_order": df["n"].astype("int64"),
            }
        )

    return agg.map_batches(finalize, batch_format="pandas")


def q_top_customers(sf_dir: str):
    """Grouped sum per customer + deterministic top-10, with the combine
    strategy driven by key cardinality (customer-table row count from
    parquet metadata — a pure-metadata estimate):

    - small key space: per-batch combiner → ONE small combine task
      (measured ~2 s where Ray's aggregate on 15k keys costs 14-17 s);
    - large key space: the same partials flow into a bucketed
      ``groupby(bucket).map_groups`` combine with per-bucket top-10, then a
      final ≤ 10·buckets-row merge — no task ever holds all keys.

    Customer names are attached to the FINAL 10 rows only (filtered parquet
    read inside the last map), never broadcast — at 10^9 customers a
    broadcast name map is exactly the anti-pattern the size guard in
    ``_lookup`` rejects."""
    from .util import combine_partials, parquet_row_count, topk

    est_keys = parquet_row_count(f"{sf_dir}/customer.parquet")
    ds = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "c_custkey": df["o_custkey"],
                "spent_i": _cents(df["o_totalprice"]),
                "n": np.ones(len(df), dtype="int64"),
            }
        )
        return part.groupby("c_custkey", as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pandas")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby("c_custkey", as_index=False)[["spent_i", "n"]].sum()
        # keep only this task's top-10 — correct per key-disjoint bucket,
        # and the global top-10 merge below sees ≤ 10 rows per task
        return agg.sort_values(
            ["spent_i", "c_custkey"], ascending=[False, True]
        ).head(10)

    combined = combine_partials(
        partials, combine, key_cols="c_custkey", est_keys=est_keys,
        # pure partial→partial sum (no head(10)!) for intermediate tree
        # levels — a key's partials may straddle two intermediate tasks
        merge_fn=lambda df: df.groupby("c_custkey", as_index=False)[
            ["spent_i", "n"]
        ].sum(),
    )
    top = topk(
        combined, ["spent_i", "c_custkey"], descending=[True, False], k=10
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        keys = df["c_custkey"].tolist()
        t = pq.read_table(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name"],
            filters=[("c_custkey", "in", keys)],
        )
        names = dict(zip(t.column("c_custkey").to_pylist(), t.column("c_name").to_pylist()))
        return pd.DataFrame(
            {
                "c_custkey": df["c_custkey"],
                "c_name": df["c_custkey"].map(names),
                "total_spent": df["spent_i"] / 100.0,
                "n_orders": df["n"].astype("int64"),
            }
        )

    return top.map_batches(finalize, batch_format="pandas", batch_size=None)


def q_revenue_by_nation(sf_dir: str):
    """Two broadcast lookups (customer→nation→name) folded into the partial
    combiner: zero shuffle joins."""
    cust_nation = _lookup(sf_dir, "customer", "c_custkey", "c_nationkey")
    nation_name = _lookup(sf_dir, "nation", "n_nationkey", "n_name")
    ds = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "n_name": df["o_custkey"].map(cust_nation).map(nation_name),
                "rev_i": _cents(df["o_totalprice"]),
                "n": np.ones(len(df), dtype="int64"),
            }
        )
        return part.groupby("n_name", as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), "n_name", est_keys=32
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_name": df["n_name"],
                "n_orders": df["n"].astype("int64"),
                "revenue": df["rev_i"] / 100.0,
            }
        )

    return agg.map_batches(finalize, batch_format="pandas")


def q_supplier_region(sf_dir: str):
    nation_region = _lookup(sf_dir, "nation", "n_nationkey", "n_regionkey")
    region_name = _lookup(sf_dir, "region", "r_regionkey", "r_name")
    ds = read_sized(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey", "s_acctbal"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "r_name": df["s_nationkey"].map(nation_region).map(region_name),
                "bal_i": _cents(df["s_acctbal"]),
                "n": np.ones(len(df), dtype="int64"),
            }
        )
        return part.groupby("r_name", as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), "r_name", est_keys=8
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "r_name": df["r_name"],
                "n_suppliers": df["n"].astype("int64"),
                "total_acctbal": df["bal_i"] / 100.0,
            }
        ),
        batch_format="pandas",
    )


def q_order_priority(sf_dir: str):
    ds = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_orderdate"]
    )
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["o_orderdate"] >= lo) & (df["o_orderdate"] < hi)]
        part = pd.DataFrame(
            {"o_orderpriority": df["o_orderpriority"], "n": np.ones(len(df), "int64")}
        )
        return part.groupby("o_orderpriority", as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), "o_orderpriority", est_keys=8
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {"o_orderpriority": df["o_orderpriority"], "n_orders": df["n"].astype("int64")}
        ),
        batch_format="pandas",
    )


def q_parts_by_brand(sf_dir: str):
    ds = read_sized(
        f"{sf_dir}/part.parquet", columns=["p_brand", "p_size", "p_retailprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "p_brand": df["p_brand"],
                "size_i": df["p_size"].astype("int64"),
                "retail_i": _cents(df["p_retailprice"]),
                "n": np.ones(len(df), "int64"),
            }
        )
        return part.groupby("p_brand", as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), "p_brand", est_keys=64
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "p_brand": df["p_brand"],
                "n_parts": df["n"].astype("int64"),
                "total_size": df["size_i"].astype("int64"),
                "total_retail": df["retail_i"] / 100.0,
            }
        ),
        batch_format="pandas",
    )


def q_events_hourly(sf_dir: str):
    """Streaming-shaped log → keyed tumbling-window counts (the engine's
    window model: event-time bucketing as a grouped aggregate)."""
    ds = read_sized(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def partial(batch: "pa.Table") -> "pa.Table":
        # Arrow-native: event_type strings never convert to objects; the
        # hour bucket is integer division on the raw microsecond view
        # (timestamps are positive, so truncation == floor == pandas //)
        import pyarrow as pa
        import pyarrow.compute as pc

        i64 = pa.int64()
        us = pc.cast(batch.column("ts"), i64)
        part = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour_bucket": pc.divide(us, pa.scalar(3_600_000_000, i64)),
                "value_i": pc.cast(
                    pc.round(pc.multiply(batch.column("value"), 100.0)), i64
                ),
            }
        )
        return _group_aggregate(
            part,
            ["event_type", "hour_bucket"],
            [("value_i", "sum"), ("value_i", "count")],
            ["value_i", "n"],
        )

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour_bucket"],
        est_keys=100_000,
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "event_type": df["event_type"],
                "hour_bucket": df["hour_bucket"].astype("int64"),
                "n_events": df["n"].astype("int64"),
                "total_value": df["value_i"] / 100.0,
            }
        ),
        batch_format="pandas",
    )


#: below this input size the hash shuffle is skipped entirely: Ray's
#: shuffle operator carries ~1.5 s of aggregator-actor spin-up per plan
#: (measured: 1.7 s wall to exchange a 2.4 MB / 100k-row table at sf0.1),
#: while a single coalesced task runs the same vectorized kernel in
#: milliseconds.  128 MiB of pruned key+value columns ≈ several million
#: rows — still a trivial single-task pandas pass.
SINGLE_TASK_GROUP_BYTES = 128 * 1024 * 1024


def _bucketed_groups(ds, key: str, n_parts: int, kernel,
                     est_bytes: int | None = None):
    """Per-key grouped computation WITHOUT a per-group Python call:
    hash-partition rows by ``key`` into disjoint buckets (every row of a
    key lands in the same bucket) and run ``kernel`` ONCE per bucket as a
    vectorized pandas pass over all of its keys.  Replaces
    ``groupby(key).map_groups(per_key_fn)``, whose per-group interpreter
    dispatch dominates wall time when keys are numerous and groups small
    (~10k single-row pandas frames per partition at sf0.1).

    ``est_bytes`` (pass the pruned input's file size when known) routes
    SMALL inputs around the shuffle: one coalesced task runs the same
    kernel over all keys at once — key-disjointness holds trivially, and
    the shuffle operator's fixed actor spin-up (which dwarfs the data
    cost at megabyte scale) is never paid.  Above the threshold the
    plan is the distributed bucket shuffle, unchanged."""
    if est_bytes is not None and est_bytes <= SINGLE_TASK_GROUP_BYTES:
        return ds.repartition(1).map_batches(
            kernel, batch_format="pandas", batch_size=None
        )

    nb = max(n_parts * 4, 16)

    def add_bucket_arrow(batch):
        # integer keys: multiplicative hash on the zero-copy int view —
        # the whole batch (string payloads included) passes through
        # without an Arrow→pandas conversion.  Any key→bucket assignment
        # is correct (the kernel needs only key-disjoint buckets), and
        # this one is deterministic across workers.
        import pyarrow as pa

        vals = batch.column(key).to_numpy(zero_copy_only=False)
        h = (vals.astype(np.uint64, copy=False)
             * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
        return batch.append_column(
            "_bucket", pa.array((h % np.uint64(nb)).astype(np.int64))
        )

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[key], index=False).astype("int64")
        return df.assign(_bucket=h.abs() % nb)

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return kernel(g.drop(columns=["_bucket"]))

    key_type = None
    try:
        # fetch_if_missing=False: never trigger execution just to pick a
        # bucketing codepath — unknown schema falls back to pandas hashing
        schema = ds.schema(fetch_if_missing=False)
        if schema is not None:
            key_type = schema.field(key).type
    except Exception:
        pass
    import pyarrow as pa

    if key_type is not None and pa.types.is_integer(key_type):
        bucketed = ds.map_batches(add_bucket_arrow, batch_format="pyarrow")
    else:
        # string/other keys: pandas hash is the stable cross-worker hash
        bucketed = ds.map_batches(add_bucket, batch_format="pandas")
    return (
        bucketed
        .groupby("_bucket", num_partitions=n_parts)
        .map_groups(run, batch_format="pandas")
    )


def q_events_sessions(sf_dir: str, gap_seconds: int = 1800):
    """Sessionization: per-key ordered gap detection, vectorized over
    hash-disjoint user buckets (events sorted by (user, ts) inside each
    bucket; a session break is a user change or a gap > threshold)."""
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    fb = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)
    gap_us = gap_seconds * 1_000_000

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="stable")
        uid = g["user_id"].to_numpy()
        us = g["ts"].astype("int64").to_numpy()
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        gap = np.diff(us, prepend=us[:1])
        new_sess = new_user | (gap > gap_us)
        per = pd.DataFrame({"user_id": uid, "s": new_sess.astype("int64")})
        return per.groupby("user_id", as_index=False, sort=False).agg(
            n_events=("s", "size"), n_sessions=("s", "sum")
        )

    return _bucketed_groups(ds, "user_id", n_parts, sessions, est_bytes=fb)


def q_events_sliding(sf_dir: str, window_hours: int = 2):
    """Sliding event-time windows (size 2h, step 1h): each event lands in
    ``window_hours`` buckets; expressed as a vectorized per-batch expansion
    + one grouped sum — the engine's sliding-window model."""
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hour = df["ts"].astype("int64") // 3_600_000_000
        frames = []
        for off in range(window_hours):
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": df["event_type"],
                        "window_hour": hour - off,
                        "n": np.ones(len(df), "int64"),
                    }
                )
            )
        both = pd.concat(frames, ignore_index=True)
        return both.groupby(["event_type", "window_hour"], as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "window_hour"],
        est_keys=200_000,
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "event_type": df["event_type"],
                "window_hour": df["window_hour"].astype("int64"),
                "n_events": df["n"].astype("int64"),
            }
        ),
        batch_format="pandas",
    )


def q_user_gaps(sf_dir: str):
    """LAG-window analog: per-user inter-event gap statistics (the
    event-time ordering + lag() OVER (PARTITION BY user ORDER BY ts)
    pattern), as a per-key sorted diff inside ``map_groups``."""
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    fb = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        # integer-exact in MICROSECONDS (the storage precision) — flooring
        # to seconds first would round differently than the SQL window
        g = g.sort_values(["user_id", "ts"], kind="stable")
        uid = g["user_id"].to_numpy()
        us = g["ts"].astype("int64").to_numpy()
        same = np.r_[False, uid[1:] == uid[:-1]]  # rows with a predecessor
        d = np.diff(us, prepend=us[:1])
        per = pd.DataFrame({"user_id": uid[same], "gap": d[same]})
        # single-event users drop out here, matching the SQL lag() shape
        return per.groupby("user_id", as_index=False, sort=False).agg(
            n_gaps=("gap", "size"),
            total_gap_us=("gap", "sum"),
            max_gap_us=("gap", "max"),
        )

    return _bucketed_groups(ds, "user_id", n_parts, gaps, est_bytes=fb)


def q_distinct_parts(sf_dir: str):
    """COUNT(DISTINCT) with ONE shuffle: per-batch pair dedup (the
    combiner), then ``groupby(flag).map_groups(nunique)`` — the shuffle
    carries only the per-batch-distinct (flag, partkey) pairs."""
    ds = read_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_partkey"]
    )
    deduped = ds.map_batches(
        lambda df: df.drop_duplicates(), batch_format="pandas"
    )
    fb = file_bytes(f"{sf_dir}/lineitem.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)

    # partition by PARTKEY, not flag: 3 flag values would put the whole
    # table through 3 groups (skew); partkey-disjoint buckets each count
    # their own distinct (flag, partkey) pairs, then a tiny flag-sum merges
    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates()
        per = pd.DataFrame(
            {"l_returnflag": d["l_returnflag"], "n_parts": np.ones(len(d), "int64")}
        )
        return per.groupby("l_returnflag", as_index=False, sort=False).sum()

    partials = _bucketed_groups(deduped, "l_partkey", n_parts, count_bucket,
                                est_bytes=fb)
    return _sum_combine(partials, "l_returnflag", est_keys=8)


def q_filter_topk(sf_dir: str):
    ds = read_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = pd.Timestamp("1997-01-01")

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["l_discount"] >= 0.05) & (df["l_shipdate"] >= cutoff)]
        return pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"],
                "l_linenumber": df["l_linenumber"].astype("int64"),
                "price": df["l_extendedprice"],
            }
        )

    from .util import topk

    return topk(
        ds.map_batches(filt, batch_format="pandas"),
        ["price", "l_orderkey", "l_linenumber"],
        descending=[True, False, False],
        k=15,
    )


def _cogrouped(tagged, key_col: str, merge_bucket,
               num_buckets: int | None = None,
               est_bytes: int | None = None):
    """Tagged-union co-group: assign ``bucket = key % B`` and
    ``groupby("bucket").map_groups(merge_bucket)`` — with the
    `_bucketed_groups` small route.  Join keys are bucket-disjoint, so
    running ``merge_bucket`` over the WHOLE tagged union in one coalesced
    task is identical below :data:`SINGLE_TASK_GROUP_BYTES` — and skips
    both the per-row bucket column and the hash shuffle's fixed
    aggregator spin-up (~1.5 s/plan).  An EXPLICIT ``num_buckets`` forces
    the distributed plan (the public plan-shape knob must not be silently
    ignored).  Route equality is pinned in
    tests/test_ops.py::TestCogroupRoutes."""
    if (num_buckets is None and est_bytes is not None
            and est_bytes <= SINGLE_TASK_GROUP_BYTES):
        return tagged.repartition(1).map_batches(
            merge_bucket, batch_format="pandas", batch_size=None
        )
    nb = (num_buckets if num_buckets is not None
          else shuffle_partitions(est_bytes=est_bytes))
    bucketed = tagged.map_batches(
        lambda df: df.assign(bucket=(df[key_col] % nb).astype("int64")),
        batch_format="pandas",
    )
    return bucketed.groupby("bucket", num_partitions=nb).map_groups(
        merge_bucket, batch_format="pandas"
    )


def q_priority_revenue(sf_dir: str, num_buckets: int | None = None):
    """Large⋈large hash join: lineitem ⋈ orders on orderkey, as ONE explicit
    hash-partitioned shuffle.

    Pattern (measured: chaining two shuffle stages costs 25-60 s in actor
    startup alone, see BASELINE.md bench notes):

    1. pre-aggregate the fact side per join key inside ``map_batches`` —
       the shuffle then carries one row per key, not the raw fact table;
    2. tag both sides, union, add ``bucket = key % B`` and co-group with a
       single ``groupby(bucket).map_groups`` that merges and pre-aggregates
       per bucket (≤ n_priorities rows out per bucket);
    3. combine the ≤ B·n_priorities survivors in one single-block task —
       no second shuffle.

    Skewed keys would be salted into sub-buckets here; orderkey is uniform
    so B=8 plain buckets suffice."""
    est_bytes = (file_bytes(f"{sf_dir}/lineitem.parquet")
                 + file_bytes(f"{sf_dir}/orders.parquet"))
    li = read_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        price_c = _cents(df["l_extendedprice"])
        disc_p = _pct(df["l_discount"])
        part = pd.DataFrame(
            {
                "key": df["l_orderkey"],
                "rev_i": price_c * (100 - disc_p),
                "n": np.ones(len(df), "int64"),
            }
        )
        agg = part.groupby("key", as_index=False).sum()
        agg["side"] = 0
        agg["o_orderpriority"] = ""
        return agg[["key", "rev_i", "n", "side", "o_orderpriority"]]

    left = li.map_batches(partial, batch_format="pandas")
    orders = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["o_orderkey"],
                "rev_i": np.zeros(len(df), "int64"),
                "n": np.zeros(len(df), "int64"),
                "side": np.ones(len(df), "int64"),
                "o_orderpriority": df["o_orderpriority"],
            }
        )

    right = orders.map_batches(tag_right, batch_format="pandas")
    tagged = left.union(right)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["side"] == 0]
        r = g[g["side"] == 1][["key", "o_orderpriority"]]
        m = l.merge(r, on="key", how="inner", suffixes=("_x", ""))
        return m.groupby("o_orderpriority", as_index=False)[["rev_i", "n"]].sum()

    partials = _cogrouped(tagged, "key", merge_bucket,
                          num_buckets=num_buckets, est_bytes=est_bytes)

    def merge_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_orderpriority", as_index=False)[["rev_i", "n"]].sum()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        agg = merge_partial(df)
        return pd.DataFrame(
            {
                "o_orderpriority": agg["o_orderpriority"],
                "revenue": agg["rev_i"] / 10000.0,
                "n_items": agg["n"].astype("int64"),
            }
        )

    from .util import tree_merge

    return tree_merge(partials, merge_partial, combine)


def q_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                        cutoff: str = "1998-01-01"):
    """TPC-H Q3-style 3-table join: customer(segment) ⋉ orders(date) ⋈
    lineitem(date) → top-10 order revenue.

    Shape: the FILTERED customer key set is broadcast into the orders scan
    (semi-join; size-guarded — at 10^9 customers flip to the bucketed
    co-group of q_priority_revenue), lineitem revenue pre-aggregates per
    orderkey inside map_batches, and ONE bucketed hash join meets the two
    sides; the ≤10-per-bucket survivors merge in a single task."""
    from .util import BROADCAST_LOOKUP_ROW_LIMIT, topk

    cut = pd.Timestamp(cutoff)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        filters=[("c_mktsegment", "=", segment)],
    )
    if cust.num_rows > BROADCAST_LOOKUP_ROW_LIMIT:
        raise ValueError("segment key set too large to broadcast — use the "
                         "bucketed semi-join (q_priority_revenue pattern)")
    seg_keys = frozenset(cust.column("c_custkey").to_pylist())
    est_bytes = (file_bytes(f"{sf_dir}/lineitem.parquet")
                 + file_bytes(f"{sf_dir}/orders.parquet"))

    orders = read_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def order_side(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df["o_orderdate"] < cut) & df["o_custkey"].isin(seg_keys)]
        return pd.DataFrame(
            {
                "key": df["o_orderkey"],
                "rev_i": np.zeros(len(df), "int64"),
                "o_orderdate": df["o_orderdate"],
                "side": np.ones(len(df), "int64"),
            }
        )

    li = read_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def line_side(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] > cut]
        part = pd.DataFrame(
            {
                "key": df["l_orderkey"],
                "rev_i": _cents(df["l_extendedprice"]) * (100 - _pct(df["l_discount"])),
            }
        )
        agg = part.groupby("key", as_index=False).sum()
        agg["o_orderdate"] = pd.NaT
        agg["side"] = 0
        return agg[["key", "rev_i", "o_orderdate", "side"]]

    tagged = li.map_batches(line_side, batch_format="pandas").union(
        orders.map_batches(order_side, batch_format="pandas")
    )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["side"] == 0].groupby("key", as_index=False)[["rev_i"]].sum()
        r = g[g["side"] == 1][["key", "o_orderdate"]]
        m = l.merge(r, on="key", how="inner")
        # per-bucket top-10: keys are bucket-disjoint, so the global top-10
        # is among the per-bucket winners
        return m.sort_values(
            ["rev_i", "o_orderdate", "key"], ascending=[False, True, True]
        ).head(10)

    partials = _cogrouped(tagged, "key", merge_bucket, est_bytes=est_bytes)
    top = topk(partials, ["rev_i", "o_orderdate", "key"],
               descending=[True, False, False], k=10)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": df["key"],
                "o_orderdate": df["o_orderdate"],
                "revenue": df["rev_i"] / 10000.0,
            }
        )

    return top.map_batches(finalize, batch_format="pandas", batch_size=None)


def q_top_event_per_user(sf_dir: str):
    """Per-key argmax (window row_number()=1 analog) via
    groupby().map_groups with a total ordering."""
    ds = read_sized(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"]
    )
    fb = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)

    def top1(g: pd.DataFrame) -> pd.DataFrame:
        # global sort by (value desc, event_id asc) + first-per-user ==
        # per-user argmax with the same tie-break, one vectorized pass
        g = g.sort_values(["value", "event_id"], ascending=[False, True], kind="stable")
        return g.drop_duplicates("user_id", keep="first")[
            ["user_id", "event_id", "value"]
        ]

    return _bucketed_groups(ds, "user_id", n_parts, top1, est_bytes=fb)


def q_events_asof_join(sf_dir: str):
    """AS-OF join (point-in-time lookup): for every event, the user's most
    recent order at-or-before the event timestamp — the canonical
    feature-backfill join of a training-data pipeline (DuckDB expresses it
    as ``ASOF LEFT JOIN``; Ray Data has no native analog).

    Shape: BOTH sides hash-partition ONCE by the join key into disjoint
    buckets (every event and every order of a user land in the same
    bucket), then each bucket runs pandas ``merge_asof`` — a vectorized
    sorted backward search — in one task.  No broadcast (the right side
    scales with users), no per-key Python dispatch, and the only shuffle
    is the single key-hash exchange; at 100 TB the bucket count grows with
    byte size via ``shuffle_partitions``.  Only the matched order DATE is
    projected, so (custkey, date) ties cannot make the result
    nondeterministic."""
    ev_f = f"{sf_dir}/events.parquet"
    or_f = f"{sf_dir}/orders.parquet"
    ev = read_sized(ev_f, columns=["event_id", "user_id", "ts"])
    orders = read_sized(or_f, columns=["o_custkey", "o_orderdate"])
    n_parts = shuffle_partitions(est_bytes=file_bytes(ev_f) + file_bytes(or_f))
    nb = max(n_parts * 4, 16)

    def ev_side(df: pd.DataFrame) -> pd.DataFrame:
        key = df["user_id"].astype("int64")
        return pd.DataFrame(
            {
                "key": key,
                "event_id": df["event_id"].astype("int64"),
                "t": df["ts"],
                "side": np.ones(len(df), "int64"),
                "_bucket": key % nb,
            }
        )

    def ord_side(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_custkey"].astype("int64")
        return pd.DataFrame(
            {
                "key": key,
                "event_id": np.zeros(len(df), "int64"),
                "t": df["o_orderdate"],
                "side": np.zeros(len(df), "int64"),
                "_bucket": key % nb,
            }
        )

    tagged = ev.map_batches(ev_side, batch_format="pandas").union(
        orders.map_batches(ord_side, batch_format="pandas")
    )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["side"] == 1][["key", "event_id", "t"]].sort_values(
            "t", kind="stable"
        )
        o = (
            g[g["side"] == 0][["key", "t"]]
            .rename(columns={"t": "od"})
            .sort_values("od", kind="stable")
        )
        if e.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "last_order_date": pd.Series([], dtype="datetime64[us]"),
                }
            )
        m = pd.merge_asof(
            e.reset_index(drop=True),
            o.reset_index(drop=True),
            left_on="t",
            right_on="od",
            by="key",
            direction="backward",
        )
        return pd.DataFrame(
            {
                "event_id": m["event_id"],
                "user_id": m["key"],
                "last_order_date": m["od"],
            }
        )

    return tagged.groupby("_bucket", num_partitions=n_parts).map_groups(
        merge_bucket, batch_format="pandas"
    )


# 4-day promo windows stepping 2 days over the events month: OVERLAPPING
# intervals, so an interior event matches exactly two — a genuine range
# join, not a binning.  Literal constants so the DuckDB oracle can carry
# the identical VALUES list.
PROMO_WINDOWS: list[tuple[int, str, str]] = [
    (k, f"2024-01-{1 + 2 * k:02d}", f"2024-01-{min(5 + 2 * k, 31):02d}")
    for k in range(14)
]


def q_events_range_join(sf_dir: str):
    """Range (interval-overlap) join: events × overlapping promo windows,
    aggregated per window.  The window table is tiny and CONSTANT, so it
    ships inside the task closure (broadcast-by-closure — the ``ray.put``
    pattern without even needing the put); each batch computes per-window
    membership as vectorized timestamp masks and pre-aggregates, so only
    (window, count, cents) partials — a few rows per batch — enter the
    one small hash shuffle.  Integer-cents math keeps the float total
    bit-identical to the SQL oracle."""
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    bounds = [
        (wid, pd.Timestamp(lo), pd.Timestamp(hi)) for wid, lo, hi in PROMO_WINDOWS
    ]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"]
        cents = _cents(df["value"])
        out = []
        for wid, lo, hi in bounds:
            m = (ts >= lo) & (ts < hi)
            n = int(m.sum())
            if n:
                out.append((wid, n, int(cents[m.to_numpy()].sum())))
        if not out:
            return pd.DataFrame(
                {
                    "window_id": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                    "cents": pd.Series([], dtype="int64"),
                }
            )
        w, n, c = zip(*out)
        return pd.DataFrame(
            {
                "window_id": np.asarray(w, "int64"),
                "n": np.asarray(n, "int64"),
                "cents": np.asarray(c, "int64"),
            }
        )

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        ["window_id"],
        est_keys=len(PROMO_WINDOWS),
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "window_id": df["window_id"].astype("int64"),
                "n_events": df["n"].astype("int64"),
                "total_value": df["cents"] / 100.0,
            }
        )

    return agg.map_batches(finalize, batch_format="pandas")


# --- documents table ---


def q_doc_stats(sf_dir: str):
    ds = read_sized(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "lang": df["lang"],
                "chars_i": df["n_chars"].astype("int64"),
                "n": np.ones(len(df), "int64"),
            }
        )
        return part.groupby("lang", as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), "lang", est_keys=16
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "lang": df["lang"],
                "n_docs": df["n"].astype("int64"),
                "total_chars": df["chars_i"].astype("int64"),
                "avg_chars": df["chars_i"] * 1.0 / df["n"],
            }
        ),
        batch_format="pandas",
    )


def q_token_counts(sf_dir: str):
    ds = read_sized(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = add_text_stats(df)
        part = pd.DataFrame(
            {
                "lang": df["lang"],
                "tok_i": df["token_count"],
                "n": np.ones(len(df), "int64"),
            }
        )
        return part.groupby("lang", as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), "lang", est_keys=16
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "lang": df["lang"],
                "total_tokens": df["tok_i"].astype("int64"),
                "n_docs": df["n"].astype("int64"),
            }
        ),
        batch_format="pandas",
    )


def q_alpha_quality(sf_dir: str):
    ds = read_sized(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = add_text_stats(df)
        part = pd.DataFrame(
            {
                "source": df["source"],
                "alpha_i": df["alpha_chars"],
                "len_i": df["len_chars"],
            }
        )
        return part.groupby("source", as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), "source", est_keys=64
    )
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "source": df["source"],
                "alpha_chars": df["alpha_i"].astype("int64"),
                "total_chars": df["len_i"].astype("int64"),
                "alpha_ratio": df["alpha_i"] * 1.0 / df["len_i"],
            }
        ),
        batch_format="pandas",
    )


def q_exact_dedup(sf_dir: str):
    from .dedup import exact_dedup_stats
    from .util import parquet_row_count

    ds = read_sized(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_dedup_stats(
        ds,
        est_keys=parquet_row_count(f"{sf_dir}/documents.parquet"),
        est_bytes=file_bytes(f"{sf_dir}/documents.parquet"),
    )


def q_knn(sf_dir: str, n_queries: int = 8, k: int = 5):
    from .similarity import knn_bruteforce

    queries_t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    mask = [i for i, v in enumerate(queries_t.column("vec_id").to_pylist()) if v < n_queries]
    q_ids = [queries_t.column("vec_id")[i].as_py() for i in mask]
    q_mat = np.stack(
        [np.asarray(queries_t.column("embedding")[i].as_py(), dtype=np.float64) for i in mask]
    )
    ds = read_sized(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return knn_bruteforce(ds, {"ids": q_ids, "matrix": q_mat}, k=k,
                          est_bytes=file_bytes(f"{sf_dir}/embeddings.parquet"))


def _grouped_price_percentile(sf_dir: str, p_num: int, p_den: int, out_col: str):
    """EXACT distributed grouped percentile (complement of the approximate
    bottom-k sketch in ops/sketch.py): per-group integer-cents HISTOGRAM.

    Scale shape: per-batch (priority, cents) counts collapse each block to
    its distinct prices; the combine is keyed on (priority, cents) —
    cardinality bounded by the PRICE DOMAIN (~10^7 cents values), not the
    order count — and the final per-priority selection walks one sorted
    histogram per group (`groupby(priority).map_groups`, 5 tiny groups).
    Nothing anywhere holds rows proportional to the corpus.  Selection
    rank is ceil(p·n) over the cumulative counts (integer arithmetic:
    ``(p_num·n + p_den − 1) // p_den``) = SQL ``percentile_disc(p)``
    exactly; the result = cents / 100.0 is one double division with
    identical operands both sides."""
    from .util import combine_partials, parquet_row_count

    ds = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "cents": _cents(df["o_totalprice"]),
            }
        )
        g = part.groupby(["o_orderpriority", "cents"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    def red(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["o_orderpriority", "cents"], as_index=False).sum()

    hist = combine_partials(
        ds.map_batches(partial, batch_format="pandas"),
        red,
        ["o_orderpriority", "cents"],
        # distinct (priority, cents) pairs: bounded by the price domain —
        # use the order count as a conservative proxy so large corpora
        # route to the bucketed combine
        est_keys=parquet_row_count(f"{sf_dir}/orders.parquet"),
        merge_fn=red,
    )

    def select_rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("cents")
        n = int(df["n"].sum())
        rank = (p_num * n + p_den - 1) // p_den  # ceil(p·n), 1-based
        cum = df["n"].cumsum()
        sel_cents = int(df.loc[cum >= rank, "cents"].iloc[0])
        return pd.DataFrame(
            {
                "o_orderpriority": [df["o_orderpriority"].iloc[0]],
                "n_orders": np.array([n], dtype="int64"),
                out_col: np.array([sel_cents], dtype="int64") / 100.0,
            }
        )

    # explicit num_partitions: under the session's hash-shuffle strategy a
    # default-partition groupby spawns aggregator actors far beyond the
    # key count and can deadlock small-CPU sessions waiting for slots
    return hist.groupby("o_orderpriority", num_partitions=2).map_groups(
        select_rank, batch_format="pandas"
    )


def q_median_order_price(sf_dir: str):
    """percentile_disc(0.5) per order priority — see
    :func:`_grouped_price_percentile`."""
    return _grouped_price_percentile(sf_dir, 1, 2, "median_price")


def q_order_price_p95(sf_dir: str):
    """percentile_disc(0.95) per order priority (tail-price SLO flavor) —
    identical histogram machinery, rank ceil(19n/20)."""
    return _grouped_price_percentile(sf_dir, 19, 20, "p95_price")


def q_revenue_rollup(sf_dir: str):
    """GROUP BY ROLLUP(region, nation) in one streaming pass: the detail
    aggregate is the only corpus-sized reduction; the region subtotals and
    the grand total are re-aggregations of the 25-row detail result (key
    domain fixed by the dimension tables, independent of corpus size).
    'ALL' literals mark the rolled-up levels (COALESCE'd identically in
    the SQL oracle, avoiding NULL-ordering ambiguity)."""
    cust_nation = _lookup(sf_dir, "customer", "c_custkey", "c_nationkey")
    nation_name = _lookup(sf_dir, "nation", "n_nationkey", "n_name")
    nation_region = _lookup(sf_dir, "nation", "n_nationkey", "n_regionkey")
    region_name = _lookup(sf_dir, "region", "r_regionkey", "r_name")
    ds = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        nk = df["o_custkey"].map(cust_nation)
        part = pd.DataFrame(
            {
                "r_name": nk.map(nation_region).map(region_name),
                "n_name": nk.map(nation_name),
                "rev_i": _cents(df["o_totalprice"]),
                "n": np.ones(len(df), dtype="int64"),
            }
        )
        return part.groupby(["r_name", "n_name"], as_index=False).sum()

    detail = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        ["r_name", "n_name"],
        est_keys=32,
    )

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        # df = the complete 25-row detail aggregate (single block: the
        # key domain is the nation table, fixed at any corpus size)
        region = df.groupby("r_name", as_index=False)[["rev_i", "n"]].sum()
        region["n_name"] = "ALL"
        total = pd.DataFrame(
            {
                "r_name": ["ALL"],
                "n_name": ["ALL"],
                "rev_i": [df["rev_i"].sum()],
                "n": [df["n"].sum()],
            }
        )
        out = pd.concat([df, region, total], ignore_index=True)
        return pd.DataFrame(
            {
                "r_name": out["r_name"],
                "n_name": out["n_name"],
                "n_orders": out["n"].astype("int64"),
                "revenue": out["rev_i"].astype("int64") / 100.0,
            }
        )

    return detail.repartition(1).map_batches(rollup, batch_format="pandas")


def q_user_running_value(sf_dir: str):
    """Cumulative window: SUM(value) OVER (PARTITION BY user ORDER BY ts,
    event_id ROWS UNBOUNDED PRECEDING) — the running-balance shape.

    Same machinery as sessionization: ONE hash shuffle lands every user's
    events in the same bucket, a vectorized sort + per-user cumulative sum
    inside each bucket does the window.  Integer-exact: the running sum
    accumulates cents (int64) and divides once at emission, so every row
    equals the SQL window frame bit-for-bit."""
    ds = read_sized(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    fb = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        cents = _cents(g["value"])
        run = cents.groupby(g["user_id"].to_numpy()).cumsum()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "running_value": run.to_numpy(dtype="int64") / 100.0,
            }
        )

    return _bucketed_groups(ds, "user_id", n_parts, running, est_bytes=fb)


def q_customer_order_counts(sf_dir: str, since: str = "1998-01-01"):
    """LEFT OUTER join aggregate: every customer with their recent
    (``o_orderdate >= since``) order count and spend — zero rows preserved
    (the outer-join complement of the anti-join in
    ops/corpus.customers_no_orders; the date restriction makes the outer
    path real — some customers have no qualifying order).

    Shape: the fact side pre-aggregates per custkey inside ``map_batches``
    (the shuffle carries one row per customer, not per order), both sides
    are tagged and co-grouped by ``custkey % B`` in ONE hash shuffle, and
    each bucket emits its customers' final rows directly — left rows
    without a match get 0 via the outer merge, and no second shuffle or
    broadcast exists at any size."""
    est_bytes = (file_bytes(f"{sf_dir}/customer.parquet")
                 + file_bytes(f"{sf_dir}/orders.parquet"))
    orders = read_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderdate"],
    )
    cutoff = pd.Timestamp(since)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[pd.to_datetime(df["o_orderdate"]) >= cutoff]
        part = pd.DataFrame(
            {
                "key": df["o_custkey"],
                "spent_i": _cents(df["o_totalprice"]),
                "n": np.ones(len(df), "int64"),
            }
        )
        agg = part.groupby("key", as_index=False).sum()
        agg["side"] = 0
        agg["c_name"] = ""
        return agg[["key", "spent_i", "n", "side", "c_name"]]

    left = orders.map_batches(partial, batch_format="pandas")
    customer = read_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["c_custkey"],
                "spent_i": np.zeros(len(df), "int64"),
                "n": np.zeros(len(df), "int64"),
                "side": np.ones(len(df), "int64"),
                "c_name": df["c_name"],
            }
        )

    right = customer.map_batches(tag_right, batch_format="pandas")
    tagged = left.union(right)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        facts = (
            g[g["side"] == 0]
            .groupby("key", as_index=False)[["spent_i", "n"]]
            .sum()
        )
        cust = g[g["side"] == 1][["key", "c_name"]]
        m = cust.merge(facts, on="key", how="left")
        return pd.DataFrame(
            {
                "c_custkey": m["key"],
                "c_name": m["c_name"],
                "n_orders": m["n"].fillna(0).astype("int64"),
                "total_spent": m["spent_i"].fillna(0).astype("int64") / 100.0,
            }
        )

    return _cogrouped(tagged, "key", merge_bucket, est_bytes=est_bytes)


def q_value_histogram(sf_dir: str, bucket_cents: int = 500):
    """Distributed histogram of the event value distribution ($5 buckets):
    per-batch bucket counts collapse each block to its distinct buckets,
    one cardinality-sized combine merges them — the key domain is the
    VALUE RANGE / bucket width, independent of corpus size (the same
    domain-keyed shape as the exact percentile histograms).  Bucket
    assignment is floor(cents / width) via one correctly-rounded double
    division — identical on both engines, exact at bucket boundaries
    (multiples of the width divide exactly)."""
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["value"])
        part = pd.DataFrame(
            {
                "bucket": np.floor(
                    cents.to_numpy() / float(bucket_cents)
                ).astype("int64"),
                "n_events": np.ones(len(df), "int64"),
                "value_i": cents,
            }
        )
        return part.groupby("bucket", as_index=False).sum()

    agg = _sum_combine(ds.map_batches(partial, batch_format="pandas"),
                       ["bucket"], est_keys=4096)
    return agg.map_batches(
        lambda df: pd.DataFrame(
            {
                "bucket": df["bucket"].astype("int64"),
                "n_events": df["n_events"].astype("int64"),
                "total_value": df["value_i"].astype("int64") / 100.0,
            }
        ),
        batch_format="pandas",
    )


def q_user_activity_outer(sf_dir: str, threshold: float = 100.0):
    """FULL OUTER join: per-user high-value purchase stats vs per-user
    high-value error stats — users present on either side only are kept
    with zeros on the missing side (completing the engine's join family:
    inner / broadcast / left-outer / anti / semi / as-of / range).

    Shape: both fact slices pre-aggregate per user inside ``map_batches``,
    a tagged union lands each user's rows (from both sides) in one bucket
    of a single hash shuffle, and each bucket emits final rows via an
    outer pandas merge — no broadcast, no second shuffle, no driver
    collect at any corpus size."""
    est_bytes = file_bytes(f"{sf_dir}/events.parquet")
    ds = read_sized(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hi = df[df["value"] > threshold]
        frames = []
        for side, etype in ((0, "purchase"), (1, "error")):
            part = hi[hi["event_type"] == etype]
            g = pd.DataFrame(
                {
                    "user_id": part["user_id"],
                    "n": np.ones(len(part), "int64"),
                    "value_i": _cents(part["value"]),
                }
            ).groupby("user_id", as_index=False).sum()
            g["side"] = side
            frames.append(g)
        return pd.concat(frames, ignore_index=True)

    tagged = ds.map_batches(partial, batch_format="pandas")

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a = (
            g[g["side"] == 0]
            .groupby("user_id", as_index=False)[["n", "value_i"]]
            .sum()
        )
        b = (
            g[g["side"] == 1]
            .groupby("user_id", as_index=False)[["n", "value_i"]]
            .sum()
        )
        m = a.merge(b, on="user_id", how="outer", suffixes=("_p", "_e"))
        return pd.DataFrame(
            {
                "user_id": m["user_id"].astype("int64"),
                "n_purchases": m["n_p"].fillna(0).astype("int64"),
                "purchase_value": m["value_i_p"].fillna(0).astype("int64") / 100.0,
                "n_errors": m["n_e"].fillna(0).astype("int64"),
                "error_value": m["value_i_e"].fillna(0).astype("int64") / 100.0,
            }
        )

    return _cogrouped(tagged, "user_id", merge_bucket, est_bytes=est_bytes)


def q_discount_tax_stats(sf_dir: str):
    """Exact distributed second moments: covariance + variances of the
    lineitem discount and tax rates (percent units) from ONE streaming
    pass of integer partial sums (n, Σx, Σy, Σx², Σy², Σxy — six int64
    scalars per block; the percent domain ≤ 100 keeps every per-block sum
    far inside int64).

    The finals n·Σxy − Σx·Σy etc. exceed int64 at warehouse scale, so the
    single final task computes them in arbitrary-precision Python ints
    (exact) and rounds ONCE to double for the division — the SQL oracle
    mirrors this with HUGEINT arithmetic and one CAST, giving
    bit-identical population covariance/variance without trusting either
    engine's float accumulation order."""
    ds = read_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_discount", "l_tax"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = _pct(df["l_discount"]).to_numpy()
        y = _pct(df["l_tax"]).to_numpy()
        return pd.DataFrame(
            {
                "g": np.zeros(1, "int64"),
                "n": [np.int64(len(df))],
                "sx": [x.sum()],
                "sy": [y.sum()],
                "sxx": [(x * x).sum()],
                "syy": [(y * y).sum()],
                "sxy": [(x * y).sum()],
            }
        )

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"), ["g"], est_keys=1
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = int(df["n"].iloc[0])
        sx, sy = int(df["sx"].iloc[0]), int(df["sy"].iloc[0])
        sxx, syy = int(df["sxx"].iloc[0]), int(df["syy"].iloc[0])
        sxy = int(df["sxy"].iloc[0])
        nn = n * n  # exact bigint
        return pd.DataFrame(
            {
                "n": np.array([n], "int64"),
                "avg_disc": float(sx) / float(n) / 100.0,
                "avg_tax": float(sy) / float(n) / 100.0,
                # percent² units → /10000 folded into the denominator
                "cov_pop": float(n * sxy - sx * sy) / float(nn * 10000),
                "var_disc": float(n * sxx - sx * sx) / float(nn * 10000),
                "var_tax": float(n * syy - sy * sy) / float(nn * 10000),
            }
        )

    return agg.repartition(1).map_batches(finalize, batch_format="pandas")


def q_events_weekday_pivot(sf_dir: str):
    """PIVOT: event counts as one row per event_type × seven ISO-weekday
    columns.  The long-form aggregate is the only corpus-sized reduction
    (per-batch (type, dow) partials, domain-keyed combine ≤ |types|·7
    rows); the wide reshape touches only that tiny result in one final
    task — the scale-correct way to pivot (never pivot inside the
    shuffle)."""
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "event_type": df["event_type"],
                # pandas dayofweek is 0=Monday; ISO dow is 1=Monday
                "dow": (df["ts"].dt.dayofweek + 1).astype("int64"),
                "n": np.ones(len(df), "int64"),
            }
        )
        return part.groupby(["event_type", "dow"], as_index=False).sum()

    agg = _sum_combine(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "dow"],
        est_keys=64,
    )

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        wide = (
            df.pivot_table(
                index="event_type", columns="dow", values="n",
                aggfunc="sum", fill_value=0,
            )
            .reindex(columns=range(1, 8), fill_value=0)
            .reset_index()
        )
        out = pd.DataFrame({"event_type": wide["event_type"]})
        for d in range(1, 8):
            out[f"dow{d}"] = wide[d].astype("int64")
        return out

    return agg.repartition(1).map_batches(pivot, batch_format="pandas")


def q_median_cont_order_price(sf_dir: str):
    """percentile_cont(0.5) per order priority — the INTERPOLATED twin of
    the exact-histogram percentile_disc family.  Same domain-keyed
    histogram; the final selection takes the two cents values at 0-based
    ranks floor(r)/ceil(r) for r = 0.5·(n−1) and interpolates with
    frac ∈ {0.0, 0.5} — every arithmetic step is an exact double op with
    identical operands in both engines."""
    from .util import combine_partials, parquet_row_count

    ds = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "cents": _cents(df["o_totalprice"]),
            }
        )
        g = part.groupby(["o_orderpriority", "cents"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    def red(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["o_orderpriority", "cents"], as_index=False).sum()

    hist = combine_partials(
        ds.map_batches(partial, batch_format="pandas"),
        red,
        ["o_orderpriority", "cents"],
        est_keys=parquet_row_count(f"{sf_dir}/orders.parquet"),
        merge_fn=red,
    )

    def select_cont(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("cents")
        n = int(df["n"].sum())
        r = 0.5 * (n - 1)
        k1 = int(r)
        frac = r - k1
        cum = df["n"].cumsum().to_numpy()
        cents = df["cents"].to_numpy()
        a = float(cents[np.searchsorted(cum, k1 + 1)])
        b = a if frac == 0.0 else float(cents[np.searchsorted(cum, k1 + 2)])
        val = (a + (b - a) * frac) / 100.0
        return pd.DataFrame(
            {
                "o_orderpriority": [df["o_orderpriority"].iloc[0]],
                "n_orders": np.array([n], dtype="int64"),
                "median_cont": [val],
            }
        )

    return hist.groupby("o_orderpriority", num_partitions=2).map_groups(
        select_cont, batch_format="pandas"
    )


def q_user_funnel(sf_dir: str, window_hours: int = 24):
    """Funnel analysis: how far each user progresses through the ordered
    view → click → purchase sequence within a conversion window
    (earliest-first semantics: the first view, then the first click
    strictly after it within ``window_hours``, then the first purchase
    strictly after that within the same window — the standard windowed
    funnel definition).

    Same shuffle shape as sessionization: ONE hash shuffle lands each
    user's events in a bucket; inside a bucket the three stages are
    vectorized filtered groupby-mins + merges (no per-user Python), each
    stage keyed on the previous stage's timestamp."""
    ds = read_sized(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )
    fb = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)
    win_us = window_hours * 3600 * 1_000_000

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        us = g["ts"].astype("int64")
        base = pd.DataFrame({"user_id": g["user_id"], "t": us, "et": g["event_type"]})
        users = base[["user_id"]].drop_duplicates()
        t1 = (
            base[base["et"] == "view"]
            .groupby("user_id", as_index=False)["t"].min()
            .rename(columns={"t": "t1"})
        )
        m = base.merge(t1, on="user_id", how="inner")
        t2 = (
            m[(m["et"] == "click") & (m["t"] > m["t1"])
              & (m["t"] - m["t1"] <= win_us)]
            .groupby("user_id", as_index=False)["t"].min()
            .rename(columns={"t": "t2"})
        )
        m = base.merge(t2, on="user_id", how="inner")
        t3 = (
            m[(m["et"] == "purchase") & (m["t"] > m["t2"])
              & (m["t"] - m["t2"] <= win_us)]
            .groupby("user_id", as_index=False)["t"].min()
            .rename(columns={"t": "t3"})
        )
        out = (
            users.merge(t1, on="user_id", how="left")
            .merge(t2, on="user_id", how="left")
            .merge(t3, on="user_id", how="left")
        )
        stage = (
            out["t1"].notna().astype("int64")
            + out["t2"].notna().astype("int64")
            + out["t3"].notna().astype("int64")
        )
        return pd.DataFrame(
            {
                "user_id": out["user_id"].astype("int64"),
                "funnel_stage": stage,
            }
        )

    return _bucketed_groups(ds, "user_id", n_parts, funnel, est_bytes=fb)


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by the week of their first
    event (cohort), counted by how many are active in each later week
    (offset) — the classic retention triangle.

    Scale shape: the corpus-sized pass collapses to DISTINCT (user, week)
    pairs via per-batch combiners (the only big reduction — bounded by
    |users| × |weeks|, not events); one hash shuffle groups a user's
    weeks to compute the cohort + offsets vectorized per bucket; the
    (cohort, offset) count aggregate is domain-keyed and tiny.  Week
    buckets are integer floor divisions of epoch microseconds — exact and
    engine-independent."""
    from .util import combine_partials, parquet_row_count

    week_us = 7 * 86400 * 1_000_000
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame(
            {
                "user_id": df["user_id"],
                "week": df["ts"].astype("int64") // week_us,
            }
        )
        return part.drop_duplicates(["user_id", "week"])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["user_id", "week"])

    distinct = combine_partials(
        ds.map_batches(pairs, batch_format="pandas"),
        merge,
        ["user_id", "week"],
        est_keys=parquet_row_count(f"{sf_dir}/events.parquet") // 8,
        merge_fn=merge,
    )

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        w0 = g.groupby("user_id")["week"].transform("min")
        return pd.DataFrame(
            {
                "cohort_week": w0.astype("int64"),
                "week_offset": (g["week"] - w0).astype("int64"),
                "n_users": np.ones(len(g), "int64"),
            }
        )

    # size the user-keyed shuffle by the distinct-pair cardinality estimate
    # (same est as the combine above) — not a literal constant, so a
    # web-scale user base fans out instead of serializing onto 4 buckets
    n_parts = shuffle_partitions(
        est_keys=parquet_row_count(f"{sf_dir}/events.parquet") // 8
    )
    # distinct (user, week) pairs are a subset of the events table, so its
    # file size bounds the derived input for the small-route decision
    per_user = _bucketed_groups(
        distinct, "user_id", n_parts, offsets,
        est_bytes=file_bytes(f"{sf_dir}/events.parquet"),
    )
    return _sum_combine(per_user, ["cohort_week", "week_offset"], est_keys=4096)


def q_event_transitions(sf_dir: str):
    """Markov transition counts: (previous event_type → next event_type)
    bigrams over each user's time-ordered stream — the sequence-mining
    companion of the funnel operator (SQL: lag() OVER (PARTITION BY user
    ORDER BY ts, event_id)).

    One user-keyed hash shuffle; inside each bucket the lag is a
    vectorized shift over the (user, ts, event_id)-sorted frame and the
    bigram counts are a per-bucket groupby; the global combine is keyed
    on the |event_types|² domain — independent of corpus size."""
    ds = read_sized(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts", "event_id"]
    )
    fb = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)

    def bigrams(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = np.r_[False, uid[1:] == uid[:-1]]
        part = pd.DataFrame(
            {
                "prev_type": np.r_[[""], et[:-1]][same],
                "next_type": et[same],
                "n": np.ones(int(same.sum()), "int64"),
            }
        )
        return part.groupby(["prev_type", "next_type"], as_index=False).sum()

    per_bucket = _bucketed_groups(ds, "user_id", n_parts, bigrams, est_bytes=fb)
    return _sum_combine(per_bucket, ["prev_type", "next_type"], est_keys=64)


def q_order_percentile_rank(sf_dir: str):
    """Per-row cumulative distribution (SQL ``cume_dist() OVER (ORDER BY
    price)``) WITHOUT a global sort: the price histogram (domain-keyed, the
    same shape as the exact percentiles) collapses to a cents → cumulative
    count map small enough to broadcast, and every row's percentile is one
    dictionary lookup + one exact integer division inside ``map_batches``.
    The corpus is never sorted or shuffled — the classic trick for global
    rank statistics at scale."""
    import ray

    from .util import combine_partials, parquet_row_count

    path = f"{sf_dir}/orders.parquet"
    ds = read_sized(path, columns=["o_orderkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({"cents": _cents(df["o_totalprice"])})
        g = part.groupby("cents", as_index=False).size()
        return g.rename(columns={"size": "n"})

    def red(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("cents", as_index=False).sum()

    from .util import BROADCAST_LOOKUP_ROW_LIMIT

    hist_ds = combine_partials(
        ds.map_batches(partial, batch_format="pandas"),
        red, ["cents"],
        est_keys=parquet_row_count(path),
        merge_fn=red,
    ).materialize()
    # guard BEFORE the driver collect: count() on the materialized reduced
    # histogram is metadata-only (object-store blocks, no driver heap), so
    # an oversized price domain raises here instead of OOMing the driver
    if hist_ds.count() > BROADCAST_LOOKUP_ROW_LIMIT:
        raise ValueError(
            "price domain too large for a broadcast rank map — bucket the "
            "domain (coarser cents) or join ranks via the bucketed co-group"
        )
    hist = hist_ds.to_pandas().sort_values("cents")
    cum = hist["n"].cumsum().to_numpy(dtype="int64")
    n = int(cum[-1]) if len(cum) else 0
    # broadcast NUMPY arrays, not a python dict: arrays read zero-copy
    # from the object store per task, while a 150k-entry dict costs a
    # pickle on put and a full rebuild in EVERY batch (measured: the
    # dict form made the rank pass 4.5 s of a 6.7 s query; searchsorted
    # over the shared arrays is ~15× cheaper)
    keys = hist["cents"].to_numpy(dtype="int64")
    ref = ray.put((keys, cum, n))

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        keys_, cum_, total = ray.get(ref)
        cents = _cents(df["o_totalprice"]).to_numpy(dtype="int64")
        idx = np.searchsorted(keys_, cents, side="right") - 1
        le = cum_[idx]
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"],
                "price_pct": le / float(total),
            }
        )

    return ds.map_batches(rank, batch_format="pandas")


def q_user_anomalies(sf_dir: str):
    """Per-user 2σ outlier counts over event values — the anomaly-flagging
    window shape (SQL: AVG/STDDEV OVER (PARTITION BY user_id)) — decided in
    EXACT integer arithmetic so the engine and any SQL oracle agree at the
    boundary bit-for-bit:

        |x − μ| > 2σ  ⇔  (n·x − S)² > 4·(n·Q − S²)

    with x the value in cents, S = Σx, Q = Σx² per user.  The products
    reach n²·x² — int64-safe only while max(n)·max(|x|) < 2³⁰·√2 ≈ 1.5e9
    (e.g. 25k events/user at $600) — so the kernel checks that bound per
    bucket and escalates the whole bucket to Python-int (arbitrary
    precision) arithmetic when it would overflow; the oracle does the
    same products in HUGEINT (int128).  Both sides are exact at any
    per-user volume, never silently wrapped.

    Scale shape: ONE hash shuffle of the pruned (user_id, cents) pairs via
    the `_bucketed_groups` small route; each bucket computes per-user
    (n, S, Q) AND counts that user's outliers in one vectorized pass —
    no second pass over the corpus, no broadcast of per-user stats."""
    est_bytes = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=est_bytes)
    ds = read_sized(f"{sf_dir}/events.parquet", columns=["user_id", "value"])

    def to_cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"),
             "x": _cents(df["value"])}
        )

    return _bucketed_groups(
        ds.map_batches(to_cents, batch_format="pandas"),
        "user_id", n_parts, _anomaly_counts, est_bytes=est_bytes,
    )


def _anomaly_counts(g: pd.DataFrame) -> pd.DataFrame:
    """Bucket kernel for :func:`q_user_anomalies`: per-user (n, S, Q) and
    outlier count in one vectorized pass, with the Python-int escalation
    described there (exactness pinned in tests/test_ops.py)."""
    x = g["x"].to_numpy(dtype=np.int64)
    gb = g.groupby("user_id", sort=False)
    n = gb["x"].transform("size").to_numpy(dtype=np.int64)
    s = gb["x"].transform("sum").to_numpy(dtype=np.int64)
    q = (
        g.assign(x2=x * x).groupby("user_id", sort=False)["x2"]
        .transform("sum").to_numpy(dtype=np.int64)
    )
    # int64 is safe while every product stays under 2^63:
    # |n·x − S| ≤ 2·max(n)·max|x| and 4·n·Q ≤ 4·(max(n)·max|x|)² —
    # both hold when max(n)·max|x| ≤ 1.5e9.  Above that, redo the
    # bucket in Python ints (exact, rare: needs ~10^9 cent·events
    # concentrated in one user).
    if len(x) and int(n.max()) * int(np.abs(x).max() or 1) > 1_500_000_000:
        hit = np.fromiter(
            (
                (int(ni) * int(xi) - int(si)) ** 2
                > 4 * (int(ni) * int(qi) - int(si) ** 2)
                for ni, xi, si, qi in zip(n, x, s, q)
            ),
            dtype=np.int64, count=len(x),
        )
    else:
        dev = n * x - s
        hit = (dev * dev > 4 * (n * q - s * s)).astype("int64")
    out = (
        pd.DataFrame({"user_id": g["user_id"].to_numpy(),
                      "n_events": n, "hit": hit})
        .groupby("user_id", as_index=False)
        .agg(n_events=("n_events", "first"), n_anomalies=("hit", "sum"))
    )
    return out.astype(
        {"user_id": "int64", "n_events": "int64", "n_anomalies": "int64"}
    )


#: trailing-window width for q_user_rolling_value (frame = W PRECEDING
#: .. CURRENT ROW); shared verbatim with the SQL oracle
ROLLING_WINDOW_ROWS = 3


def q_user_rolling_value(sf_dir: str, window: int = ROLLING_WINDOW_ROWS):
    """Bounded-frame window: SUM(value) OVER (PARTITION BY user ORDER BY
    ts, event_id ROWS BETWEEN ``window`` PRECEDING AND CURRENT ROW) —
    the trailing-window companion to the unbounded cumsum
    (:func:`q_user_running_value`); same ONE-shuffle machinery, same
    integer-cents exactness (the trailing sum accumulates int64 cents
    via cumsum-minus-shifted-cumsum and divides once at emission).

    The difference kernel is exact for any frame width: within each
    sorted user run, ``rolling = cs - shift(cs, window+1, fill=0)``
    evaluated per user with numpy segment arithmetic — no pandas
    .rolling() python dispatch in the bucket kernel."""
    ds = read_sized(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    fb = file_bytes(f"{sf_dir}/events.parquet")
    n_parts = shuffle_partitions(est_bytes=fb)
    w1 = window + 1

    def rolling(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        cents = _cents(g["value"]).to_numpy()
        users = g["user_id"].to_numpy()
        # segment-local positions: index within each user's sorted run
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        seg_id = np.cumsum(np.r_[True, users[1:] != users[:-1]]) - 1
        pos = np.arange(len(users)) - starts[seg_id]
        cs = np.cumsum(cents)
        base = np.where(
            pos >= w1,
            cs[np.arange(len(users)) - w1],
            # frame start precedes the user's run: subtract everything
            # before the run (exclusive prefix at the segment start)
            cs[starts[seg_id]] - cents[starts[seg_id]],
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": users,
                "rolling_value": (cs - base) / 100.0,
            }
        )

    return _bucketed_groups(ds, "user_id", n_parts, rolling, est_bytes=fb)


#: trim fraction numerator/denominator for q_trimmed_mean_price — shared
#: verbatim with the SQL oracle (5% per tail)
TRIM_NUM, TRIM_DEN = 5, 100


def q_trimmed_mean_price(sf_dir: str):
    """EXACT 5%-trimmed mean of order prices — the outlier-robust mean,
    computed WITHOUT sorting the data: the same integer-cents histogram
    as the grouped percentiles, then pure rank arithmetic on the sorted
    histogram.  Rows with 1-based rank in (k, n−k] survive, where
    ``k = n·5//100`` and ties at the cut values contribute exactly the
    number of copies their rank window covers (``overlap of [cum−cnt+1,
    cum] with (k, n−k]``) — identical to SQL's row_number() trim.  Sum
    of surviving cents is int64; ONE double division at emission."""
    from .util import combine_partials, parquet_row_count

    ds = read_sized(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame({"cents": _cents(df["o_totalprice"])})
            .groupby("cents", as_index=False).size()
            .rename(columns={"size": "n"})
        )
        return g.astype({"n": "int64"})

    def red(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("cents", as_index=False)["n"].sum()

    hist = combine_partials(
        ds.map_batches(partial, batch_format="pandas"),
        red, ["cents"],
        est_keys=parquet_row_count(f"{sf_dir}/orders.parquet"),
        merge_fn=red,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("cents")
        cnt = df["n"].to_numpy(dtype=np.int64)
        cents = df["cents"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        k = (n * TRIM_NUM) // TRIM_DEN
        lo, hi = k, n - k  # keep ranks in (lo, hi], 1-based
        cum = np.cumsum(cnt)
        first = cum - cnt + 1
        # copies of each distinct value whose rank lands inside the window
        take = np.clip(np.minimum(cum, hi) - np.maximum(first - 1, lo), 0, None)
        kept = int(take.sum())
        total = int((take * cents).sum())
        return pd.DataFrame(
            {
                "n_orders": np.array([n], dtype="int64"),
                "n_kept": np.array([kept], dtype="int64"),
                "trimmed_mean": [total / kept / 100.0 if kept else 0.0],
            }
        )

    # the histogram is domain-bounded (~1e7 distinct cents) — one final
    # task walks it; rank arithmetic replaces any global sort of rows
    return hist.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )
