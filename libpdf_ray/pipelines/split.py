"""Page-range split for skewed corpora: one plan for sidecar and PDF input.

The skew tail of the north rule is the 5000-page manual: as one row it
serializes on a single worker for minutes.  :func:`extract_spans_split`
routes every document by page count:

1. **light** documents (under ``heavy_pages``) take the ordinary
   per-document parse (:func:`stages.parse.parse_batch`) in the task that
   reads them;
2. **heavy** documents are cut into ranges of ``split_pages`` selected
   pages; each range is decoded and runs the page-local extraction phase
   (:func:`kernels.document.prepare_pages` — textboxes, regions, fuzzy
   chapter matching, paragraphs: ~95% of the compute) as its own row;
3. ONE ``groupby(doc_id)`` reassembles each heavy document with the light
   document tail (:func:`kernels.document.finish_document`) — the v2 shape
   planned in SURVEY §4.3.

Both branches emit the ``extract_spans`` rows (:data:`SPANS_SCHEMA`), and
a document that raises anywhere becomes one error row, as in the
monolithic path.  Only two things depend on the input format
(:class:`_Sidecar`, :class:`_Pdf`): reading a unit — a parquet row group or a PDF file —
and decoding one page range.  A sidecar range row ships its document row
Arrow-sliced to the range; a PDF range row ships the file path and
re-reads the file, trading cheap sequential storage reads for NOT moving
the whole manual through the object store once per range.  Catalog
context (outline / names / pages) is whole-document in every range, so
every range derives the identical tree.

Empty blocks: Ray skips map UDFs on empty blocks, so an empty block of
the wrong schema travels on, and a hash shuffle or union fed it next to
typed blocks fails (ArrowInvalid in the aggregator).  So every stage
returns its declared schema for every batch, 0 rows included
(:func:`_stage`), and the range repartition is capped at the exact range
count, which leaves no block without a row before the prepare stage.

Caveats:

- with ``smart_page_crop`` the figure/rect/table crops run in the finish
  phase, after tables and paragraph candidates were computed — observably
  identical unless repeating page furniture is itself a figure/rect/table
  overlapping other regions (the reference crops those lists before table
  extraction).
- a heavy document whose ranges fail differently reports the error of its
  first failing range; the monolithic path reports the first error of its
  single pass over all pages.
- measured single-node economics: the split adds fixed costs (a second
  read, the range repartition, the doc_id shuffle).  On a single synthetic
  manual (~2 ms/page kernels) it does not beat the monolithic parse; it
  pays off when per-page cost is real-parser-sized (~100 ms/page ⇒
  break-even at a few dozen pages) or when a manual's serial parse would
  otherwise be the straggler tail of a large corpus job.
"""

from __future__ import annotations

import functools
import os
import pickle

import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig
from ..kernels.document import finish_document, prepare_pages, selected_pages
from ..ops.util import cluster_cpus, file_doc_id, list_files
from ..schema import SPANS_SCHEMA
from ..stages.decoder import decode_sidecar_rows
from ..stages.parse import parse_batch
from ..stages.pdf_decoder import PdfByteDecoder, decode_pdf_document, pdf_page_count
from .extract import list_inputs, read_fragment

#: one page range of one heavy document.  ``payload`` holds what the
#: source decodes before the prepare stage, and the pickled
#: ``(finish_doc, prepared)`` part after it
_RANGE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("est_pages", pa.int32()),
        ("split_id", pa.int32()),
        ("range", pa.list_(pa.int32())),
        ("payload", pa.binary()),
        ("error", pa.string()),
    ]
)

#: document-level keys the finish phase needs besides the prepared parts
_FINISH_KEYS = ("doc_id", "pages", "outline_nodes", "outline_root", "names_nodes")


def _stage(schema: pa.Schema):
    """Batch UDF from a generator over the batch's rows.  The generator
    yields output row dicts or whole tables of ``schema``; the UDF returns
    them as ONE ``schema`` table, with 0 rows when nothing was yielded."""

    def wrap(fn):
        @functools.wraps(fn)
        def udf(batch: pa.Table, **kwargs) -> pa.Table:
            rows, tables = [], []
            for out in fn(batch.to_pylist(), **kwargs):
                (tables if isinstance(out, pa.Table) else rows).append(out)
            return pa.concat_tables(
                [pa.Table.from_pylist(rows, schema=schema), *tables]
            )

        return udf

    return wrap


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Sidecar:
    """Parquet sidecar corpus: a unit is one row group."""

    decoder = None  # parse_batch's default, the sidecar decoder

    def units(self, files: list) -> list:
        return list_inputs(files)

    def read(self, unit: dict) -> tuple:
        """Unit → (raw rows for ``parse_batch``, per-row (est_pages, pages))."""
        t = read_fragment(unit["path"], unit["rg"])
        pages = t.column("pages").to_pylist()
        est = (
            t.column("est_pages").to_pylist()
            if "est_pages" in t.column_names
            else [None] * t.num_rows
        )
        return t, [(int(e or len(p or [])), p or []) for e, p in zip(est, pages)]

    def payload(self, unit: dict, raw: pa.Table, i: int, rng: list) -> bytes:
        # pickle of a pa.Table uses IPC — no python-object hop
        return pickle.dumps(_slice_row_table(raw.slice(i, 1), rng))

    def decode_range(self, payload: bytes, doc_id: str, rng: list) -> dict:
        return decode_sidecar_rows(pickle.loads(payload))[0]


class _Pdf:
    """Real PDF files: a unit is one file."""

    decoder = PdfByteDecoder()

    def units(self, files: list) -> list:
        return [{"path": f} for f in files]

    def read(self, unit: dict) -> tuple:
        with open(unit["path"], "rb") as fh:
            data = fh.read()
        try:
            n = pdf_page_count(data)  # xref + page tree only
        except Exception:  # noqa: BLE001 - poison file: light, the parse reports it
            n = 0
        raw = pa.table(
            {
                "doc_id": [file_doc_id(unit["path"])],
                "pdf_bytes": pa.array([data], pa.binary()),
            }
        )
        return raw, [(n, [{"number": p} for p in range(1, n + 1)])]

    def payload(self, unit: dict, raw: pa.Table, i: int, rng: list) -> bytes:
        return unit["path"].encode()

    def decode_range(self, payload: bytes, doc_id: str, rng: list) -> dict:
        with open(payload.decode(), "rb") as fh:
            return decode_pdf_document(doc_id, fh.read(), page_subset=set(rng))


_PAGE_LOCAL_COLUMNS = ("textboxes", "figures", "rects", "segments", "raw_annots")
_DOC_LEVEL_COLUMNS = ("doc_id", "est_pages", "pages", "outline_nodes", "outline_root", "names_nodes")


def _slice_row_table(row: pa.Table, rng: list) -> pa.Table:
    """1-row Arrow doc → 1-row Arrow sub-doc with page-local list columns
    filtered to ``rng`` — pure C++ kernels (flatten + is_in + filter), no
    Python-object conversion.  The expensive Arrow→python step then runs in
    the PARALLEL prepare tasks, not serially here."""
    arrays: dict = {}
    for col in _DOC_LEVEL_COLUMNS:
        if col in row.column_names:
            arrays[col] = row.column(col)
    for col in _PAGE_LOCAL_COLUMNS:
        if col not in row.column_names:
            continue
        ca = row.column(col).combine_chunks()
        values = ca.flatten()
        if len(values) == 0:
            arrays[col] = ca
            continue
        page_field = values.field("page")
        mask = pc.is_in(
            page_field, value_set=pa.array(rng).cast(page_field.type)
        )
        filt = values.filter(mask)
        arrays[col] = pa.ListArray.from_arrays(
            pa.array([0, len(filt)], pa.int32()), filt
        )
    return pa.table(arrays)


def _ranges(n_pages: int, pages: list, cfg: PipelineConfig,
            split_pages: int, heavy_pages: int) -> list:
    """Routing by page count and range cutting for one document: the
    ranges of ``split_pages`` selected pages it splits into, or ``[]`` for
    the ordinary parse — under ``heavy_pages`` pages, no page left after
    ``cfg.page_range``, or page metadata the parse should report on."""
    if n_pages < heavy_pages:
        return []
    try:
        sel = sorted(selected_pages({"pages": pages}, cfg))
    except Exception:  # noqa: BLE001 - the ordinary parse's error row
        return []
    return [sel[i : i + split_pages] for i in range(0, len(sel), split_pages)]


@_stage(SPANS_SCHEMA)
def _light(units, source, cfg, split_pages, heavy_pages):
    """Units → parsed rows of their light documents."""
    for unit in units:
        raw, metas = source.read(unit)
        light = [not _ranges(*m, cfg, split_pages, heavy_pages) for m in metas]
        if any(light):
            yield parse_batch(raw.filter(pa.array(light)), cfg, decoder=source.decoder)


@_stage(_RANGE_SCHEMA)
def _cut(units, source, cfg, split_pages, heavy_pages):
    """Units → one range row per page range of their heavy documents."""
    for unit in units:
        raw, metas = source.read(unit)
        doc_ids = raw.column("doc_id").to_pylist()
        for i, (n_pages, pages) in enumerate(metas):
            ranges = _ranges(n_pages, pages, cfg, split_pages, heavy_pages)
            for split_id, rng in enumerate(ranges):
                row = {"doc_id": doc_ids[i], "est_pages": n_pages,
                       "split_id": split_id, "range": rng, "payload": b"",
                       "error": ""}
                try:
                    row["payload"] = source.payload(unit, raw, i, rng)
                except Exception as exc:  # noqa: BLE001 - poison document
                    row["error"] = _error(exc)
                yield row


@_stage(_RANGE_SCHEMA)
def _prepare(rows, source, cfg):
    """Range rows → the same rows carrying their prepared page-local part
    (and, for range 0, the document-level keys the finish needs)."""
    for row in rows:
        if not row["error"]:
            try:
                doc = source.decode_range(row["payload"], row["doc_id"], row["range"])
                prepared = prepare_pages(
                    doc, selected_pages(doc, cfg), cfg,
                    page_subset=row["range"], defer_smart_crop=True,
                )
                finish_doc = (
                    {k: doc.get(k) for k in _FINISH_KEYS}
                    if row["split_id"] == 0 else None
                )
                row["payload"] = pickle.dumps((finish_doc, prepared))
            except Exception as exc:  # noqa: BLE001 - poison document
                row["payload"], row["error"] = b"", _error(exc)
        yield row


@_stage(SPANS_SCHEMA)
def _finish(rows, cfg):
    """All prepared range rows of one document → its span row."""
    rows.sort(key=lambda r: r["split_id"])
    error = next((r["error"] for r in rows if r["error"]), "")
    spans = []
    if not error:
        try:
            parts = [pickle.loads(r["payload"]) for r in rows]
            doc = parts[0][0]
            spans, _ = finish_document(
                doc, selected_pages(doc, cfg), [p for _, p in parts], cfg,
                crop_deferred=True,
            )
        except Exception as exc:  # noqa: BLE001 - poison document
            spans, error = [], _error(exc)
    yield {"doc_id": rows[0]["doc_id"], "spans": spans,
           "n_spans": len(spans), "est_pages": rows[0]["est_pages"],
           "error": error}


def _open(paths) -> tuple:
    """Input paths → (source, files), told apart by file extension; the
    files are listed as the file readers list them
    (:func:`ops.util.list_files`)."""
    files = list_files(paths, (".parquet", ".pdf"))
    kinds = {os.path.splitext(f)[1].lower() for f in files}
    if kinds == {".parquet"}:
        return _Sidecar(), files
    if kinds == {".pdf"}:
        return _Pdf(), files
    raise ValueError(
        "extract_spans_split takes .parquet sidecar files or .pdf files, "
        f"not a mix; got {sorted(kinds)}"
    )


def extract_spans_split(
    paths,
    cfg: PipelineConfig | None = None,
    split_pages: int = 50,
    heavy_pages: int = 200,
    num_partitions: int = 8,
):
    """Skew-aware extraction of a sidecar parquet corpus or a set of PDF
    files (a directory, a file, or a list of either): light documents
    through the ordinary parse, heavy ones page-split → parallel prepare →
    ``groupby(doc_id)`` finish.  Returns the ``extract_spans`` Dataset
    (``doc_id, spans, n_spans, est_pages, error``)."""
    import ray.data

    cfg = cfg or PipelineConfig()
    source, files = _open(paths)
    units = source.units(files)
    plan = ray.data.from_items(
        units, override_num_blocks=max(1, min(len(units), 2 * cluster_cpus()))
    )
    route = {"source": source, "cfg": cfg, "split_pages": split_pages,
             "heavy_pages": heavy_pages}
    light = plan.map_batches(_light, fn_kwargs=route, batch_format="pyarrow")
    # materialized for the exact range count that caps the repartition
    ranges = plan.map_batches(_cut, fn_kwargs=route, batch_format="pyarrow").materialize()
    n_ranges = ranges.count()
    if n_ranges == 0:
        return light
    heavy = (
        # the repartition spreads one manual's ranges over many workers
        # (fused, cut → prepare would run them all in the reading task);
        # with no more blocks than rows, no block reaches prepare empty
        ranges.repartition(min(4 * num_partitions, n_ranges))
        .map_batches(_prepare, fn_kwargs={"source": source, "cfg": cfg},
                     batch_format="pyarrow", batch_size=1)
        .groupby("doc_id", num_partitions=num_partitions)
        .map_groups(_finish, fn_kwargs={"cfg": cfg}, batch_format="pyarrow")
    )
    return light.union(heavy)
