"""The parse stage: raw document rows → span rows, as a Ray Data batch op.

This is the engine's hot stage — the analog of the reference's whole
single-threaded ``extract()`` loop (``/root/reference/libpdf/extract.py:60-222``),
re-expressed as ``Dataset.map_batches(parse_batch)`` over Arrow batches.  One
input row is one document, so every reference semantic stays intra-row and
the stage is embarrassingly parallel across documents (SURVEY §4.3).
Compiled regex state lives at kernel-module import time, so stateless tasks
need no per-worker warm-up.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..config import PipelineConfig
from ..kernels.document import extract_document, extract_document_full
from ..schema import SPANS_SCHEMA, SPANS_TYPE
# the decode machinery lives behind the DocumentDecoder seam (the parse
# boundary where a real PDF-byte decoder would bind — see stages/decoder.py)
from .decoder import DocumentDecoder, SidecarDecoder
from .outputs import COUNT_COLUMNS, Outputs, write_doc_outputs, write_views

__all__ = [
    "DocumentDecoder",
    "Outputs",
    "SidecarDecoder",
    "parse_batch",
    "explode_spans",
]


def parse_batch(batch: pa.Table, cfg: PipelineConfig,
                decoder: DocumentDecoder | None = None,
                outputs: Outputs | None = None, name: str | None = None) -> pa.Table:
    """Arrow batch of raw document rows → Arrow batch of (doc_id, spans,
    n_spans, est_pages, error) rows.  The per-doc kernel consumes deeply
    nested structs — the *document* is the vectorization unit, matching a
    per-PDF parser — but the word-level payload (the bulk of the bytes) is
    decoded flat, not via ``to_pylist`` (see ``stages/decoder.py``).

    ``decoder`` is the parse-boundary seam (:class:`DocumentDecoder`):
    defaults to the synthetic :class:`SidecarDecoder`; a PDF-byte decoder
    drops in here without touching anything downstream.

    ``outputs`` (:class:`Outputs`) names the side files the run asks for:
    views, YAML trees, visual-debug pages and figure crops are written from
    the same per-document model as the span row (``stages/outputs.py``),
    and the rows gain the :data:`COUNT_COLUMNS`.  The batch's view files
    are ``<views_dir>/<view>/<name>.parquet``; ``name`` defaults to a
    digest of the batch's input identity (its file paths, else its doc
    ids).  This task is the only place a run decodes and lays out a
    document."""
    rows = list((decoder or _DEFAULT_DECODER).decode(batch))
    doc_ids = []
    spans_col = []
    n_spans = []
    est_pages = []
    errors = []
    counts = []
    view_rows = {name: [] for name in outputs.views} if outputs else {}
    for i in range(len(rows)):
        # a decoded document, and the layout its outputs read, is released
        # as soon as its row is built, not kept to the end of the batch
        row, rows[i] = rows[i], None
        # poison-document discipline (SURVEY §4.2): a malformed document
        # becomes an error row, never a dead task — at 10^12 docs a single
        # raising row must not kill the batch or poison retries
        written = (0, 0)
        try:
            if row.get("_decode_error"):
                # decoder-level poison (e.g. encrypted/corrupt PDF bytes):
                # carry the decode failure, don't run the kernel
                raise RuntimeError(row["_decode_error"])
            if outputs is None:
                # spans only: the same one layout, through the name
                # perfbench's tracer times as the layout layer
                spans = extract_document(row, cfg)
            else:
                spans, elements = extract_document_full(row, cfg)
                written = write_doc_outputs(row, spans, elements, cfg,
                                            outputs, view_rows)
            errors.append("")
        except Exception as exc:  # noqa: BLE001 - deliberate catch-all
            spans = []
            errors.append(f"{type(exc).__name__}: {exc}")
        doc_ids.append(row["doc_id"])
        spans_col.append(spans)
        n_spans.append(len(spans))
        est_pages.append(int(row.get("est_pages") or len(row.get("pages") or [])))
        counts.append(written)
    table = pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": pa.array(spans_col, SPANS_TYPE),
            "n_spans": pa.array(n_spans, pa.int32()),
            "est_pages": pa.array(est_pages, pa.int32()),
            "error": pa.array(errors, pa.string()),
        },
        schema=SPANS_SCHEMA,
    )
    if outputs is None:
        return table
    if name is None:
        # the file paths of a path-list read (ops/util.py:read_files), else
        # the doc ids
        source = batch.column("path" if "path" in batch.column_names else "doc_id")
        name = hashlib.sha1("\n".join(map(str, source.to_pylist())).encode(
            "utf-8")).hexdigest()[:16]
    write_views(view_rows, outputs, name)
    for i, column in enumerate(COUNT_COLUMNS):
        table = table.append_column(
            column, pa.array([c[i] for c in counts], pa.int64()))
    return table


#: module-level default so parse_batch calls don't rebuild a decoder per
#: batch (the decoder is stateless)
_DEFAULT_DECODER = SidecarDecoder()


def explode_spans(batch: pa.Table) -> pa.Table:
    """(doc_id, spans) rows → one row per span, zero-copy where possible.

    Uses Arrow list-flatten + parent indices instead of Python loops; this is
    the bridge from the nested corpus shape to relational span analytics
    (``groupby("kind")`` metrics etc.)."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    # repeat doc_id by each row's span count (vectorized np.repeat — a
    # Python loop here was round-1's explode cost)
    import numpy as np

    counts = (
        pa.compute.list_value_length(spans)
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    doc_ids = batch.column("doc_id").take(
        pa.array(np.repeat(np.arange(len(counts), dtype=np.int64), counts))
    )
    return pa.table(
        {
            "doc_id": doc_ids,
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        }
    )
