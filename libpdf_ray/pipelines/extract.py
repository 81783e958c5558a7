"""The flagship extraction pipeline: read → parse → spans, Ray-Data-first.

Replaces the reference lifecycle ``python -m libpdf <pdf>`` → object graph →
YAML (``/root/reference/libpdf/core.py:23-168``) with::

    read_parquet(sidecar shards, pruned columns)
      → map_batches(parse_batch, batch_format="pyarrow", batch_size=B)
      → write_parquet(out_dir)  /  explode_spans for analytics

Scale design (north rule):
- the document is the unit of parallelism; one row = one doc, so no
  cross-document shuffle exists in the hot path (SURVEY §4.3);
- skew (1-page flyers vs 5000-page manuals) is handled by a small
  ``batch_size`` + dynamic batching into stateless tasks, so one huge doc
  never stalls the others, and Ray's block splitting bounds memory; a
  manual too long for one worker takes the page-range split
  (``pipelines.split``);
- output is partitioned parquet, one file per input row group: the
  resumable run commits each row group's span file and manifest from the
  task that parsed it (``pipelines.checkpoint``).
"""

from __future__ import annotations

import ray.data

from ..config import PipelineConfig
from ..ops.util import list_files
from ..stages.parse import explode_spans, parse_batch

#: columns the parser actually consumes — read_parquet prunes the rest
#: (notably the test-only expected_spans column never leaves storage)
PARSE_COLUMNS = [
    "doc_id",
    "est_pages",
    "pages",
    "textboxes",
    "outline_nodes",
    "outline_root",
    "names_nodes",
    "rects",
    "segments",
    "figures",
    "raw_annots",
]


def read_corpus(paths, columns=PARSE_COLUMNS, **kwargs) -> "ray.data.Dataset":
    """Read the sidecar corpus with column pruning at the read.

    The parquet files are listed the way every sidecar reader lists them
    (:func:`ops.util.list_files`: directories walked recursively).
    Optional sidecar columns (rects, figures, raw_annots, …) may be absent
    in lean corpora; the projection intersects with the first file's
    schema so such corpora parse with the matching stages as no-ops."""
    files = list_files(paths, (".parquet",))
    if columns:
        import pyarrow.parquet as _pq

        available = set(_pq.ParquetFile(files[0]).schema_arrow.names)
        columns = [c for c in columns if c in available]
    return ray.data.read_parquet(files, columns=columns, **kwargs)


def extract_spans(
    ds: "ray.data.Dataset",
    cfg: PipelineConfig | None = None,
    decoder=None,
    outputs=None,
) -> "ray.data.Dataset":
    """Raw document Dataset → span-row Dataset (``schema.SPANS_SCHEMA``).

    ``decoder`` is the parse-boundary seam (``stages/decoder.py``):
    default sidecar rows; pass ``PdfByteDecoder()`` for a Dataset of
    ``{doc_id, pdf_bytes}`` rows (``read_pdf_files``).  ``outputs``
    (``stages/outputs.py:Outputs``) adds the side files each parse task
    writes from the same per-document model."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        parse_batch, fn_kwargs={"cfg": cfg, "decoder": decoder, "outputs": outputs},
        batch_format="pyarrow", batch_size=cfg.parse_batch_size,
    )


def spans_table(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exploded per-span view (doc_id, kind, text, media_ref, offset)."""
    return ds.map_batches(explode_spans, batch_format="pyarrow")


def list_fragments(paths) -> list:
    """Parquet (file, row-group) fragment descriptors — the work units of
    the fused read+parse path."""
    import pyarrow.parquet as _pq

    files = list_files(paths, (".parquet",))
    items = []
    for f in files:
        md = _pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            items.append(
                {
                    "path": f,
                    "rg": rg,
                    "bytes": int(md.row_group(rg).total_byte_size),
                }
            )
    # HEAVY-FIRST: schedule the most expensive fragments first so the
    # stragglers of the last wave are the lightest tasks, not the
    # heaviest (the classic LPT bound) — row-group byte size is the
    # parse-cost proxy (word payloads dominate both).  Path tie-break
    # keeps the order deterministic.
    items.sort(key=lambda it: (-it["bytes"], it["path"], it["rg"]))
    return items


def read_fragment(item: dict, columns=PARSE_COLUMNS):
    """One ``list_fragments`` descriptor → its row group, pruned to
    ``columns`` (those present), read in the calling task."""
    import pyarrow.parquet as _pq

    pf = _pq.ParquetFile(item["path"])
    avail = set(pf.schema_arrow.names)
    return pf.read_row_group(
        int(item["rg"]), columns=[c for c in columns if c in avail]
    )


def extract_spans_fused(paths, cfg: PipelineConfig | None = None, outputs=None,
                        commit=None):
    """Read+parse FUSED into one task per parquet row group.

    Fusing the read into the parse task reads each fragment locally, so
    only the compact span output enters the object store, not the raw
    word payloads.  Measured on the 4200-doc bench corpus at 4 CPUs:
    73.5 s unfused (aligned row groups) → 65.5 s fused, vs a 57.7 s no-Ray
    multiprocessing floor.  Trade-offs: no reader-level predicate pushdown,
    and fragment granularity is the corpus' row-group size (keep
    ``row_group_size ≈ parse_batch_size``, the fixtures.write_corpus
    default); column pruning is kept.

    ``paths`` may also be a :func:`list_fragments` list the caller has
    already listed (and filtered), so no footer is read twice.
    ``outputs`` (``stages/outputs.py:Outputs``) adds the side files each
    parse task writes; such a run also reads ``meta`` (``file_meta``).
    ``commit(item, spans, wall_s)`` is called in the task with each
    fragment's span table as soon as it is parsed; the Dataset then holds
    the dicts it returns (one row per fragment) instead of the span rows
    (``pipelines/checkpoint.py``).
    """
    import time

    import pyarrow as pa

    cfg = cfg or PipelineConfig()
    items = paths if paths and isinstance(paths[0], dict) else list_fragments(paths)

    # coalesce fragments toward ~2 task waves per CPU: dispatch overhead
    # dominates the per-fragment parse.  Swept at 32 CPUs on the bench
    # corpus: 1/2/3/4 frags per task = 1.97/1.66/1.61/1.69 s.
    from ..ops.util import cluster_cpus

    per = round(len(items) / max(1, 2 * cluster_cpus()))
    fragments_per_task = int(max(1, min(4, per)))

    columns = PARSE_COLUMNS + ["meta"] if outputs else PARSE_COLUMNS

    def run(item: dict):
        t0 = time.perf_counter()
        spans = parse_batch(read_fragment(item, columns), cfg, outputs=outputs)
        return commit(item, spans, time.perf_counter() - t0) if commit else spans

    def read_and_parse(batch: pa.Table) -> pa.Table:
        done = [run(item) for item in batch.to_pylist()]
        return pa.Table.from_pylist(done) if commit else pa.concat_tables(done)

    return ray.data.from_items(
        items, override_num_blocks=max(1, len(items))
    ).map_batches(
        read_and_parse, batch_format="pyarrow", batch_size=fragments_per_task
    )
