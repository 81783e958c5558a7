"""How each input leg is driven: the CLI's Ray plan, and an in-process
replay of the same job that calls each layer's public functions.

``run_ray`` builds the same plan as ``python -m libpdf_ray <in> -o <out>
--smart-page-crop [--input-format pdf|html]`` from the same public
functions, inside a Ray session the caller owns (the CLI itself shuts its
session down, so it cannot be called once per timed pass).

``replay`` runs the job with no Ray, one document at a time.  Untraced it
is the single-threaded baseline of the same job; with a tracer installed
it gives the per-layer breakdown.
"""

from __future__ import annotations

import glob
import os

from corpora import CLI_BATCH_SIZE, cfg


def load_plan(leg: str) -> None:
    """Import the modules the leg's plan uses in the driver."""
    import ray.data  # noqa: F401

    import libpdf_ray.pipelines.checkpoint  # noqa: F401
    if leg == "pdf":
        import libpdf_ray.stages.pdf_decoder  # noqa: F401
    elif leg == "html":
        import libpdf_ray.ops.html  # noqa: F401


def run_ray(leg: str, corpus: str, out_dir: str) -> list:
    """Run the CLI's plan for ``leg`` on ``corpus`` into ``out_dir``.

    Returns the executed Datasets, for ``stats()``.  The sidecar plan is
    ``run_resumable`` itself; its per-partition Datasets are collected by
    wrapping the ``extract_spans_fused`` it calls for the length of the
    call."""
    if leg != "sidecar":
        return [_write_spans(leg, corpus, out_dir)]
    import libpdf_ray.pipelines.checkpoint as checkpoint

    fused = checkpoint.extract_spans_fused
    datasets = []

    def keep(*args, **kwargs):
        datasets.append(fused(*args, **kwargs))
        return datasets[-1]

    checkpoint.extract_spans_fused = keep
    try:
        checkpoint.run_resumable(corpus, out_dir, cfg())
    finally:
        checkpoint.extract_spans_fused = fused
    return datasets


def _write_spans(leg: str, corpus: str, out_dir: str):
    out = os.path.join(out_dir, "spans")
    if leg == "pdf":
        from libpdf_ray.pipelines.extract import extract_spans
        from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

        ds = extract_spans(read_pdf_files(corpus), cfg(), decoder=PdfByteDecoder())
    else:
        from libpdf_ray.ops.html import html_spans_batch, read_html_files

        ds = read_html_files(corpus).map_batches(
            html_spans_batch, batch_format="pyarrow", batch_size=CLI_BATCH_SIZE
        )
    ds.write_parquet(out)
    return ds


def output_files(leg: str, out_dir: str) -> list:
    pattern = "part-*/*.parquet" if leg == "sidecar" else "spans/*.parquet"
    return sorted(glob.glob(os.path.join(out_dir, pattern)))


# -- in-process replay ---------------------------------------------------


class _NoTrace:
    """Stand-in tracer for the untraced replay: spans cost one call."""

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _null = _Null()

    def span(self, name):
        return self._null

    def count(self, name, n):
        pass


def replay(leg: str, corpus: str, out_dir: str, tracer=None) -> int:
    """Run the job in-process, one document at a time; returns docs done.

    ``tracer`` wraps each layer boundary the replay itself crosses (input
    read, parse stage, output write); the tracer's own module wrappers
    cover the layers inside the parse stage."""
    tr = tracer or _NoTrace()
    os.makedirs(out_dir, exist_ok=True)
    return {"sidecar": _replay_sidecar, "pdf": _replay_files,
            "html": _replay_files}[leg](leg, corpus, out_dir, tr)


def _replay_sidecar(leg, corpus, out_dir, tr) -> int:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from libpdf_ray.pipelines.checkpoint import (
        completed_partitions,
        plan_partitions,
        write_manifest,
    )
    from libpdf_ray.pipelines.extract import PARSE_COLUMNS
    from libpdf_ray.stages.parse import parse_batch

    run_cfg = cfg()
    n = 0
    with tr.span("checkpoint.manifest"):
        done = completed_partitions(out_dir)
    for part_id, files in plan_partitions(corpus):
        if part_id in done:
            continue
        outs = []
        for path in files:
            pf = pq.ParquetFile(path)
            cols = [c for c in PARSE_COLUMNS if c in set(pf.schema_arrow.names)]
            for rg in range(pf.metadata.num_row_groups):
                with tr.span("io.read"):
                    t = pf.read_row_group(rg, columns=cols)
                tr.count("io.read_bytes", pf.metadata.row_group(rg).total_byte_size)
                for i in range(t.num_rows):
                    with tr.span("parse"):
                        outs.append(parse_batch(t.slice(i, 1), run_cfg))
                n += t.num_rows
        part_out = os.path.join(out_dir, f"part-{part_id}")
        os.makedirs(part_out, exist_ok=True)
        with tr.span("checkpoint.write"):
            pq.write_table(pa.concat_tables(outs),
                           os.path.join(part_out, "part.parquet"))
        with tr.span("checkpoint.manifest"):
            write_manifest(out_dir, {"part_id": part_id, "input_files": files,
                                     "output_dir": part_out})
    return n


def _replay_files(leg, corpus, out_dir, tr) -> int:
    import pyarrow as pa
    import pyarrow.parquet as pq

    if leg == "pdf":
        from libpdf_ray.stages.parse import parse_batch
        from libpdf_ray.stages.pdf_decoder import PdfByteDecoder

        decoder, run_cfg = PdfByteDecoder(), cfg()
        ext, col, typ = ".pdf", "pdf_bytes", pa.binary()

        def parse(table):
            return parse_batch(table, run_cfg, decoder=decoder)
    else:
        from libpdf_ray.ops.html import html_spans_batch as parse

        ext, col, typ = ".html", "html", pa.string()
    names = sorted(f for f in os.listdir(corpus) if f.endswith(ext))
    outs = []
    for name in names:
        with tr.span("io.read"):
            with open(os.path.join(corpus, name), "rb") as fh:
                data = fh.read()
        tr.count("io.read_bytes", len(data))
        if leg == "html":
            data = data.decode("utf-8")
        table = pa.table({
            "doc_id": pa.array([os.path.splitext(name)[0]], pa.string()),
            col: pa.array([data], typ),
        })
        with tr.span("parse"):
            outs.append(parse(table))
    with tr.span("io.write"):
        os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
        pq.write_table(pa.concat_tables(outs),
                       os.path.join(out_dir, "spans", "part.parquet"))
    return len(names)
