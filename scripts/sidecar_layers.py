"""In-process CPU of the sidecar parse task, layer by layer.

The corpus is perfbench's ``sidecar_skewed`` shape (``fixtures.build_document``
over the 16 default families plus two more slots of 100-page manuals, 288
documents, 8 shards, row groups of 24), written once by this checkout's
generators, or any directory of sidecar parquet files given with
``--corpus``.  Every run then measures in a fresh child process: it reads
every row group (the columns the CLI's plan reads), parses them all once
untimed, then parses them all again through ``stages.parse.parse_batch``
(the parse task of the CLI's plan, spans only unless ``--views`` asks for
view files) with timing wrappers around each layer.  A layer's time is its own ``time.thread_time`` minus
that of the wrapped layers it calls:

- ``decode.structs``: ``decode_sidecar_rows`` without the textboxes column
  (the list<struct> columns: pages, outline, names, rects, segments,
  figures, annotations);
- ``decode.textboxes``: ``decoder._decode_textboxes``;
- ``layout.word_texts``: the document layer's word layout call
  (``lay_out_word_boxes``, or ``assemble_word_lines`` where a checkout
  builds word lines eagerly), without line dict builds;
- ``layout.line_builds``: ``textmodel._build_lines``, wherever it is called
  (word layouts, glyph boxes, table-cell and rect crops);
- ``catalog``: ``resolve_catalog`` + ``assign_chapter_numbers``;
- ``prepare.rest`` / ``finish``: the rest of ``prepare_pages`` /
  ``finish_document``;
- ``views``: ``write_doc_outputs`` (view rows and files), with ``--views``;
- ``encode``: the rest of ``parse_batch`` (span rows to Arrow);
- ``other``: the rest of ``extract_document``;
- ``gc``: the garbage collector's passes, wherever they start (taken out
  of the layer they interrupt, which would otherwise pay for objects
  other layers left alive);
- ``total``: the whole timed pass.

It also counts the documents whose line dicts were built and the line
dicts built.  Given several checkouts, the runs alternate between them,
so two commits are compared under the same host load:

    python3 scripts/sidecar_layers.py                       # this checkout
    python3 scripts/sidecar_layers.py /path/to/parent .     # parent vs this
    python3 scripts/sidecar_layers.py A B --runs 25 --seed 3 --views text_styles

It prints, per layer and checkout, the median and minimum CPU seconds over
the runs and the ratio of each median to the first checkout's.  Only
names that exist at every commit since the word table and the parse
task's outputs (``parse_batch``, ``decode_sidecar_rows``,
``_decode_textboxes``, ``prepare_pages``, ``finish_document``,
``_build_lines``) are required, so older checkouts run it unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = ("decode.structs", "decode.textboxes", "layout.word_texts",
          "layout.line_builds", "catalog", "prepare.rest", "finish", "views",
          "encode", "other", "gc", "total")


def write_corpus(root: str, seed: int) -> None:
    """perfbench's ``sidecar_skewed`` corpus for ``seed`` under ``root``."""
    sys.path.insert(0, HERE)
    import pyarrow as pa
    import pyarrow.parquet as pq

    from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
    from libpdf_ray.schema import RAW_DOC_SCHEMA

    fams = tuple(DEFAULT_FAMILIES) + ("skew", "skew")
    docs = [build_document(i, fams[i % len(fams)], seed, 100) for i in range(288)]
    for shard in range(8):
        pq.write_table(pa.Table.from_pylist(docs[shard * 36:(shard + 1) * 36],
                                            schema=RAW_DOC_SCHEMA),
                       os.path.join(root, f"part-{shard:04d}.parquet"), row_group_size=24)


# -- one measured run (child process) -------------------------------------


class _Layers:
    """Self-time wrappers: each wrapped call's thread time, minus that of
    the wrapped calls inside it, is added to its layer."""

    def __init__(self):
        import gc
        import time

        self.clock = time.thread_time
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.stack: list = []
        self.doc = None
        self.docs_built: set = set()
        self.lines_built = 0
        self.gc_start = 0.0
        gc.callbacks.append(self.on_gc)

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_start = self.clock()
            return
        spent = self.clock() - self.gc_start
        self.seconds["gc"] += spent
        if self.stack:
            self.stack[-1] += spent

    def wrap(self, owner, attr: str, layer: str, on_call=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if on_call:
                on_call(args)
            self.stack.append(0.0)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = self.clock() - t0
                inner = self.stack.pop()
                self.seconds[layer] += spent - inner
                if self.stack:
                    self.stack[-1] += spent
            if layer == "layout.line_builds":
                self.docs_built.add(self.doc)
                self.lines_built += len(out)
            return out

        setattr(owner, attr, wrapper)


def measure(corpus: str, views: list, work: str) -> dict:
    import pyarrow.parquet as pq

    import libpdf_ray.kernels.document as document
    import libpdf_ray.kernels.textmodel as textmodel
    import libpdf_ray.stages.decoder as decoder
    import libpdf_ray.stages.parse as parse
    from libpdf_ray.config import PipelineConfig
    from libpdf_ray.pipelines.extract import PARSE_COLUMNS

    cfg = PipelineConfig(smart_page_crop=True, parse_batch_size=64)
    # the columns the CLI's plan reads (extract_spans_fused)
    columns = PARSE_COLUMNS + (["meta"] if views else [])
    batches = []
    for fn in sorted(os.listdir(corpus)):
        if fn.endswith(".parquet"):
            pf = pq.ParquetFile(os.path.join(corpus, fn))
            batches += [pf.read_row_group(rg, columns=columns)
                        for rg in range(pf.num_row_groups)]
    outputs = None
    if views:
        from libpdf_ray.stages.outputs import Outputs

        outputs = Outputs(views=tuple(views), views_dir=os.path.join(work, "views"))

    def run():
        for k, batch in enumerate(batches):
            parse.parse_batch(batch, cfg, outputs=outputs, name=f"b{k}")

    run()  # untimed: imports, regex compiles, allocator warm-up
    layers = _Layers()

    def enter(args):
        layers.doc = args[0]["doc_id"]

    layers.wrap(parse, "extract_document", "other", enter)
    layers.wrap(parse, "extract_document_full", "other", enter)
    layers.wrap(parse, "write_doc_outputs", "views")
    layers.wrap(decoder, "decode_sidecar_rows", "decode.structs")
    layers.wrap(decoder, "_decode_textboxes", "decode.textboxes")
    layers.wrap(document, "prepare_pages", "prepare.rest")
    layers.wrap(document, "finish_document", "finish")
    layers.wrap(document, "resolve_catalog", "catalog")
    layers.wrap(document, "assign_chapter_numbers", "catalog")
    word_layout = ("lay_out_word_boxes" if hasattr(document, "lay_out_word_boxes")
                   else "assemble_word_lines")
    layers.wrap(document, word_layout, "layout.word_texts")
    layers.wrap(textmodel, "_build_lines", "layout.line_builds")
    t0 = layers.clock()
    layers.stack.append(0.0)
    run()
    total = layers.clock() - t0
    layers.seconds["encode"] += total - layers.stack.pop()
    layers.seconds["total"] = total
    return {"seconds": layers.seconds, "docs_built": len(layers.docs_built),
            "lines_built": layers.lines_built}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[HERE],
                    help="repository roots to compare (default: this one)")
    ap.add_argument("--runs", type=int, default=15, help="runs per checkout")
    ap.add_argument("--seed", type=int, default=1, help="corpus seed")
    ap.add_argument("--corpus", help="directory of sidecar parquet files to parse "
                                     "instead of a generated corpus")
    ap.add_argument("--views", default="",
                    help="comma-separated views the parse task also writes")
    ap.add_argument("--measure", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    views = [v for v in args.views.split(",") if v]
    if args.measure:  # child: this checkout's library is first on sys.path
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(measure(args.measure, views, work)))
        return 0
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    runs = {c: [] for c in checkouts}
    with tempfile.TemporaryDirectory() as root:
        corpus = os.path.abspath(args.corpus) if args.corpus else root
        if not args.corpus:
            write_corpus(root, args.seed)
        for run in range(args.runs):
            for c in checkouts if run % 2 == 0 else checkouts[::-1]:
                res = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--measure", corpus,
                     "--views", args.views],
                    cwd=c, env=dict(os.environ, PYTHONPATH=c), check=True,
                    capture_output=True, text=True)
                runs[c].append(json.loads(res.stdout.splitlines()[-1]))
    print(f"{'layer':<19} {'checkout':<40} {'median_s':>9} {'min_s':>9} {'vs_first':>9}")
    for layer in LAYERS:
        base = statistics.median(r["seconds"][layer] for r in runs[checkouts[0]])
        for c in checkouts:
            times = [r["seconds"][layer] for r in runs[c]]
            med = statistics.median(times)
            ratio = f"{med / base:9.3f}" if base else f"{'-':>9}"
            print(f"{layer:<19} {c[-40:]:<40} {med:9.4f} {min(times):9.4f} {ratio}")
    for c in checkouts:
        r = runs[c][-1]
        print(f"line dicts built    {c[-40:]:<40} {r['lines_built']} lines in "
              f"{r['docs_built']} documents")
    print(json.dumps({c: [r["seconds"] for r in runs[c]] for c in checkouts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
