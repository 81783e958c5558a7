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
- the work items of one plan (:func:`group_items`) are parquet row groups
  or runs of PDF/HTML files, each read inside the task that parses it
  (:func:`extract_spans_fused`); the resumable run commits each item's
  span file and manifest from that task (``pipelines.checkpoint``).
"""

from __future__ import annotations

import hashlib
import os
import re

import ray.data

from ..config import PipelineConfig
from ..ops.html import html_spans_batch
from ..ops.util import _read_batch, cluster_cpus, list_files
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
) -> "ray.data.Dataset":
    """Raw document Dataset → span-row Dataset (``schema.SPANS_SCHEMA``).

    ``decoder`` is the parse-boundary seam (``stages/decoder.py``):
    default sidecar rows; pass ``PdfByteDecoder()`` for a Dataset of
    ``{doc_id, pdf_bytes}`` rows (``read_pdf_files``).  Side outputs
    (views, YAML, visual-debug pages, figure crops) are written by the
    resumable run (``pipelines/checkpoint.py:run_resumable``)."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        parse_batch, fn_kwargs={"cfg": cfg, "decoder": decoder},
        batch_format="pyarrow", batch_size=cfg.parse_batch_size,
    )


def spans_table(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exploded per-span view (doc_id, kind, text, media_ref, offset)."""
    return ds.map_batches(explode_spans, batch_format="pyarrow")


#: input format → (file extensions, the column a file's bytes are read into)
FORMATS = {"sidecar": ((".parquet",), ""), "pdf": ((".pdf",), "pdf_bytes"),
           "html": ((".html", ".htm"), "html")}


def input_ids(paths, files: list) -> list:
    """Each file's input identity: its path relative to ``paths`` when that
    is a directory, else to the files' common directory — never a list
    index, so an identity survives files added to the corpus."""
    root = paths if isinstance(paths, str) and os.path.isdir(paths) else \
        os.path.commonpath([os.path.dirname(os.path.abspath(f)) for f in files])
    return [os.path.relpath(os.path.abspath(f), os.path.abspath(root)).replace(os.sep, "/")
            for f in files]


def list_inputs(paths, input_format: str = "sidecar") -> list:
    """Every input of a run, listed once on the driver: ``[{"id", "path",
    "rg", "bytes"}]``.  A sidecar input is one parquet row group (``id``
    ``<relative path>#<row group>``, cost its bytes); a PDF or HTML input
    is one file (``id`` its relative path, cost its size, ``rg`` -1)."""
    import pyarrow.parquet as _pq

    files = list_files(paths, FORMATS[input_format][0])
    if input_format != "sidecar":
        return [{"id": i, "path": f, "rg": -1, "bytes": os.path.getsize(f)}
                for i, f in zip(input_ids(paths, files), files)]
    items = []
    for i, f in zip(input_ids(paths, files), files):
        md = _pq.ParquetFile(f).metadata
        items += [{"id": f"{i}#{rg}", "path": f, "rg": rg,
                   "bytes": int(md.row_group(rg).total_byte_size)}
                  for rg in range(md.num_row_groups)]
    # HEAVY-FIRST: schedule the most expensive row groups first so the
    # stragglers of the last wave are the lightest tasks, not the
    # heaviest (the classic LPT bound) — row-group byte size is the
    # parse-cost proxy (word payloads dominate both).  Path tie-break
    # keeps the order deterministic.
    items.sort(key=lambda it: (-it["bytes"], it["path"], it["rg"]))
    return items


def read_fragment(path: str, rg: int, columns=PARSE_COLUMNS):
    """Row group ``rg`` of the parquet file ``path``, pruned to ``columns``
    (those present), read in the calling task."""
    import pyarrow.parquet as _pq

    pf = _pq.ParquetFile(path)
    avail = set(pf.schema_arrow.names)
    return pf.read_row_group(int(rg), columns=[c for c in columns if c in avail])


def part_id(inputs: list) -> str:
    """A work item's name, from its input identities: the first one made
    filename-safe, then a digest of them all.  Two items never share a
    name, and a retried task overwrites its own files."""
    digest = hashlib.sha1("\n".join(inputs).encode("utf-8")).hexdigest()[:8]
    return f"{re.sub(r'[^A-Za-z0-9._-]', '_', inputs[0])[:80]}-{digest}"


def group_items(inputs: list, input_format: str = "sidecar",
                batch_size: int = 64) -> list:
    """:func:`list_inputs` entries → work items ``{"part_id", "inputs",
    "bytes", "paths", "rg"}``, heaviest first: one row group each, or runs
    of consecutive files — ``min(n, max(8, 2 × CPUs))`` runs of near-equal
    count, more when a run would hold over ``batch_size`` files."""
    n = len(inputs)
    k = n if input_format == "sidecar" else max(
        min(n, max(8, 2 * cluster_cpus())), -(-n // max(1, batch_size)))
    runs = [inputs[i * n // k:(i + 1) * n // k] for i in range(k)]
    items = [{"part_id": part_id([u["id"] for u in run]),
              "inputs": [u["id"] for u in run], "bytes": sum(u["bytes"] for u in run),
              "paths": [u["path"] for u in run], "rg": run[0]["rg"]} for run in runs]
    return sorted(items, key=lambda it: (-it["bytes"], it["part_id"]))


def extract_spans_fused(paths, cfg: PipelineConfig | None = None, outputs=None,
                        commit=None, input_format: str = "sidecar"):
    """Read+parse FUSED into one task per work item (:func:`group_items`):
    a parquet row group, or a run of PDF or HTML files.

    Fusing the read into the parse task reads each item locally, so only
    the compact span output enters the object store, not the raw word
    payloads or file bytes.  Measured on the 4200-doc bench corpus at 4
    CPUs: 73.5 s unfused (aligned row groups) → 65.5 s fused, vs a 57.7 s
    no-Ray multiprocessing floor.  Trade-offs: no reader-level predicate
    pushdown, and sidecar granularity is the corpus' row-group size (keep
    ``row_group_size ≈ parse_batch_size``, the fixtures.write_corpus
    default); column pruning is kept.

    ``paths`` may also be a :func:`group_items` list the caller has
    already listed (and filtered), so no footer is read twice.
    ``outputs`` (``stages/outputs.py:Outputs``) adds the side files each
    parse task writes, its view files named after the item's ``part_id``;
    such a sidecar run also reads ``meta`` (``file_meta``).
    ``commit(item, spans, wall_s)`` is called in the task with each item's
    span table as soon as it is parsed; the Dataset then holds the dicts it
    returns (one row per item) instead of the span rows
    (``pipelines/checkpoint.py``).
    """
    import time

    import pyarrow as pa

    cfg = cfg or PipelineConfig()
    items = (paths if paths and isinstance(paths[0], dict) else
             group_items(list_inputs(paths, input_format), input_format,
                         cfg.parse_batch_size))

    # coalesce items toward ~2 task waves per CPU: dispatch overhead
    # dominates the per-item parse.  Swept at 32 CPUs on the bench
    # corpus: 1/2/3/4 frags per task = 1.97/1.66/1.61/1.69 s.
    per = round(len(items) / max(1, 2 * cluster_cpus()))
    items_per_task = int(max(1, min(4, per)))

    columns = PARSE_COLUMNS + ["meta"] if outputs else PARSE_COLUMNS
    column = FORMATS[input_format][1]
    decoder = None
    if input_format == "pdf":
        from ..stages.pdf_decoder import PdfByteDecoder

        decoder = PdfByteDecoder()

    def parse(item: dict) -> pa.Table:
        if input_format == "sidecar":
            batch = read_fragment(item["paths"][0], item["rg"], columns)
        else:
            batch = _read_batch(pa.table({"path": item["paths"]}), column)
        if input_format == "html":
            return html_spans_batch(batch)
        return parse_batch(batch, cfg, decoder, outputs, item["part_id"])

    def run(item: dict):
        t0 = time.perf_counter()
        spans = parse(item)
        return commit(item, spans, time.perf_counter() - t0) if commit else spans

    def read_and_parse(batch: pa.Table) -> pa.Table:
        done = [run(item) for item in batch.to_pylist()]
        return pa.Table.from_pylist(done) if commit else pa.concat_tables(done)

    return ray.data.from_items(
        items, override_num_blocks=max(1, len(items))
    ).map_batches(
        read_and_parse, batch_format="pyarrow", batch_size=items_per_task
    )
