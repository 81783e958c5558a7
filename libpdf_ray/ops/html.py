"""HTML main-content extraction over Ray Data — the "HTML boilerplate
strip, DOM heuristics" leg of the north rule.

Deployment shape: a corpus of raw HTML pages streams through stateless
``map_batches`` tasks (the token grammar and prune tables are
module-level compiled constants, so there is no per-worker state to warm
up), each page parsed into a DOM and reduced to its main-content record
(kernels/htmldom.py).  Per-document python parsing IS the workload here,
exactly like the PDF byte decoder — the distribution win is Ray
streaming blocks of pages through the tasks with backpressure, not
vectorizing the parse itself.

Oracle loop: this container has no real HTML corpus, so the pipeline's
first stage *renders* one deterministically from the ``documents`` table
(``render_html`` wraps each row's ``text`` in seeded page chrome — nav,
sidebar, inline ads, comments, footer).  Extraction must then recover
``text`` EXACTLY, making the DuckDB oracle a plain projection of the
source table: a hash-checked, end-to-end contract on the whole
strip-the-boilerplate path (the generator-as-oracle pattern of
kernels/pdfwrite.py).  At real scale the render stage is replaced by
``read_parquet``/``read_html_files`` over stored pages; nothing else
changes.
"""

from __future__ import annotations

import pyarrow as pa

DOC_COLUMNS = ["doc_id", "text", "lang", "source"]


def render_pages_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text, lang, source) → (doc_id, source, html).

    Deterministic per doc_id — replayable on task retry."""
    from ..kernels.htmldom import render_html

    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    pages = [
        render_html(i, t or "", lang or "en")
        for i, t, lang in zip(ids, texts, langs)
    ]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "html": pa.array(pages, pa.string()),
        }
    )


def extract_main_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, source, html) → main-content record, one DOM parse per
    page.  STATELESS on purpose: the prune tables and regexes are
    module-level compiled constants, so there is nothing to warm up —
    plain tasks reach full width immediately, where an autoscaling actor
    pool spends the whole job ramping (measured 3.6 → 3.0 s at sf0.1;
    same round-2 finding as the parse stage)."""
    from ..kernels.htmldom import extract_main as ex

    recs = [ex(h or "") for h in batch.column("html").to_pylist()]
    n_words = [
        len(r["main_text"].split(" ")) if r["main_text"] else 0 for r in recs
    ]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "main_text": pa.array([r["main_text"] for r in recs], pa.string()),
            "title": pa.array([r["title"] for r in recs], pa.string()),
            "n_blocks": pa.array([r["n_blocks"] for r in recs], pa.int64()),
            "n_dropped": pa.array([r["n_dropped"] for r in recs], pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
        }
    )


def html_extract_dataset(sf_dir: str):
    """documents.parquet → rendered pages → extracted main-content table.

    The cost here is per-DOCUMENT python (DOM parse), not bytes, so block
    count must track row count, not file size: a compressed corpus small
    enough for one read block would otherwise serialize the whole render +
    parse behind a single task (measured: the repartition takes ~0.1 s and
    the stage goes wall-parallel).  At real corpus sizes the read already
    produces enough blocks and the repartition is a no-op-sized reshuffle
    of block metadata."""
    import math
    import os

    from .util import TARGET_READ_BLOCK_BYTES, parquet_row_count, read_sized

    path = f"{sf_dir}/documents.parquet"
    ds = read_sized(path, columns=DOC_COLUMNS)
    row_blocks = max(1, min(64, parquet_row_count(path) // 64))
    try:
        size_blocks = math.ceil(os.path.getsize(path) / TARGET_READ_BLOCK_BYTES)
    except OSError:
        size_blocks = row_blocks
    if size_blocks < row_blocks:  # small file, many docs: read under-splits
        ds = ds.repartition(row_blocks)
    pages = ds.map_batches(render_pages_batch, batch_format="pyarrow")
    return pages.map_batches(
        extract_main_batch, batch_format="pyarrow", batch_size=64
    )


def read_html_files(paths):
    """.html/.htm file paths (a directory, a file, or a list of either) →
    Dataset of ``{doc_id, path, html}`` rows, ``html`` the page's raw bytes.

    Read inside the parse task as ``read_pdf_files`` is
    (:func:`ops.util.read_files`).  The bytes are decoded per page in
    :func:`html_spans_batch`, so one page that is not UTF-8 becomes one
    error row rather than failing its whole batch."""
    from .util import read_files

    return read_files(paths, (".html", ".htm"), "html")


def html_spans_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, html) → the engine's span-document shape
    ``(doc_id, spans, n_spans, est_pages, error)``.

    The page ``<title>`` becomes a ``chapter`` span at offset 0 and each
    surviving content block a ``paragraph`` span — the same ordered-span
    contract the PDF and sidecar decoders emit, so every downstream stage
    (views, dedup, yaml dump, checkpointed writes) runs unchanged on HTML
    input.  ``html`` is raw bytes (``read_html_files``), decoded here as
    UTF-8 per page, or already ``str``.  Poison-document discipline as in
    stages/parse.py: a page that fails to decode or breaks the parser
    becomes an error row, never a dead task."""
    from ..kernels.htmldom import extract_blocks
    from ..schema import SPANS_TYPE

    doc_ids, spans_col, n_spans, errors = [], [], [], []
    for doc_id, html in zip(
        batch.column("doc_id").to_pylist(), batch.column("html").to_pylist()
    ):
        try:
            if isinstance(html, bytes):
                html = html.decode("utf-8")
            title, blocks, _dropped = extract_blocks(html or "")
            spans = []
            off = 0
            if title:
                spans.append(
                    {"kind": "chapter", "text": title,
                     "media_ref": "", "offset": off}
                )
                off += 1
            for text in blocks:
                spans.append(
                    {"kind": "paragraph", "text": text,
                     "media_ref": "", "offset": off}
                )
                off += 1
            errors.append("")
        except Exception as exc:  # noqa: BLE001 — poison-row discipline
            spans = []
            errors.append(f"{type(exc).__name__}: {exc}")
        doc_ids.append(doc_id)
        spans_col.append(spans)
        n_spans.append(len(spans))
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "spans": pa.array(spans_col, SPANS_TYPE),
            "n_spans": pa.array(n_spans, pa.int32()),
            "est_pages": pa.array([1] * len(doc_ids), pa.int32()),
            "error": pa.array(errors, pa.string()),
        }
    )


def q_html_main_text(sf_dir: str):
    """Per-document extracted main text + title.

    Oracle: the extraction must invert the renderer exactly —
    ``SELECT doc_id, text AS main_text, substr(text,1,40) AS title``."""
    return html_extract_dataset(sf_dir).select_columns(
        ["doc_id", "main_text", "title"]
    )


def q_html_block_stats(sf_dir: str):
    """Per-source totals of the extracted main content (docs, words).

    Word counts survive the render→parse→strip round trip exactly, so
    the oracle derives them from the source text alone."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate(
            [("doc_id", "count"), ("n_words", "sum")]
        )
        return pa.table(
            {
                "source": g.column("source"),
                "n_docs": g.column("doc_id_count").cast(pa.int64()),
                "total_words": g.column("n_words_sum").cast(pa.int64()),
            }
        )

    from .util import combine_partials

    ds = html_extract_dataset(sf_dir).select_columns(
        ["source", "doc_id", "n_words"]
    )
    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(df):
        return (
            df.groupby("source", as_index=False)
            .agg(n_docs=("n_docs", "sum"), total_words=("total_words", "sum"))
            .sort_values("source")
            .reset_index(drop=True)
        )

    # source cardinality is tiny (one key per corpus source); plain
    # per-key sums are associative, so merge doubles as the tree reducer
    return combine_partials(
        partials, merge, key_cols="source", est_keys=64, merge_fn=merge
    )
