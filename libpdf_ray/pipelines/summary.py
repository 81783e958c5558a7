"""Streaming run summaries — no O(n_docs) driver materialization.

A run's summary (documents, errors, spans, side-output counts) is reduced
in-stream, never from a per-document driver DataFrame:
:func:`write_spans` writes a span Dataset (or, given no directory, only
sums it) and each write task returns ONE totals dict for its rows, so the
driver only ever sees per-task scalars.  The resumable sidecar run sums
one totals row per committed partition the same way
(``pipelines/checkpoint.py``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Datasink

from ..schema import SPANS_SCHEMA


def table_totals(t: pa.Table, sum_cols: tuple = ()) -> dict:
    """``{"documents", "errors", <sum_cols>}`` of one Arrow table.

    ``errors`` counts rows with a non-empty ``error`` string (absent column
    → 0 errors).  ``sum_cols`` are summed as int64 (absent column → 0)."""
    out = {"documents": t.num_rows, "errors": 0}
    if "error" in t.column_names:
        nonempty = pc.not_equal(t.column("error").fill_null(""), "")
        out["errors"] = pc.sum(pc.cast(nonempty, pa.int64())).as_py() or 0
    for c in sum_cols:
        out[c] = 0
        if c in t.column_names:
            out[c] = pc.sum(pc.cast(t.column(c).fill_null(0), pa.int64())).as_py() or 0
    return out


class _SpanWriter(Datasink):
    """Writes each task's span rows as one parquet file (none when
    ``out_dir`` is empty) and returns the task's :func:`table_totals`.
    The file is named after the write task's index and the file's bytes
    and written tmp + rename (``stages/outputs.py:write_table``), so a
    retried task overwrites it; columns beyond ``SPANS_SCHEMA`` (the parse
    task's side-output counts) are summed, not written."""

    def __init__(self, out_dir: str, sum_cols: tuple):
        self.out_dir = out_dir
        self.sum_cols = tuple(sum_cols)
        self.totals: dict = {}

    def write(self, blocks, ctx) -> dict:
        from ray.data.block import BlockAccessor

        from ..stages.outputs import write_table

        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return table_totals(pa.table({}), self.sum_cols)
        t = pa.concat_tables(tables)
        if self.out_dir:
            write_table(self.out_dir, t.select(SPANS_SCHEMA.names), str(ctx.task_idx))
        return table_totals(t, self.sum_cols)

    def on_write_complete(self, write_result) -> None:
        keys = ("documents", "errors") + self.sum_cols
        self.totals = {k: sum(r[k] for r in write_result.write_returns) for k in keys}


def write_spans(ds, out_dir: str, sum_cols: tuple = ("n_spans",)) -> dict:
    """Write a span Dataset under ``out_dir`` (an empty ``out_dir``: only
    run it) and return its totals (``{"documents", "errors",
    <sum_cols>}``), reduced from one dict per write task."""
    sink = _SpanWriter(out_dir, sum_cols)
    ds.write_datasink(sink)
    return sink.totals
