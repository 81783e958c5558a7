"""CLI: ``python -m libpdf_ray <input_dir> -o <out_dir> [flags]``.

The engine analog of ``python -m libpdf <pdf> -o out.yaml``
(/root/reference/libpdf/core.py:281-533): same feature toggles, but the unit
of work is a corpus directory of sidecar parquet shards and the output is
partitioned span parquet with resume manifests.

The CLI owns the Ray session (library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m libpdf_ray",
        description="Ray-Data-native structured-document span extraction",
    )
    p.add_argument("input_dir", help="corpus directory of sidecar parquet "
                   "shards (or of real .pdf/.html files with --input-format)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--input-format", default="sidecar",
                   choices=("sidecar", "pdf", "html"),
                   help="sidecar: raw-layout parquet corpus (default); "
                        "pdf: a directory/glob of real PDF files decoded "
                        "by the pure-stdlib PdfByteDecoder; "
                        "html: a directory of .html pages reduced to "
                        "main-content spans by the DOM heuristics")
    p.add_argument("--page-range", default="", help="e.g. '3-5,7' (default: all)")
    p.add_argument("--smart-page-crop", action="store_true")
    p.add_argument("--page-crop", default="", metavar="T,B,L,R",
                   help="static crop margins in points (top,bottom,left,right)")
    for flag in ("annotations", "chapters", "paragraphs", "tables", "figures", "rects"):
        p.add_argument(f"--no-{flag}", action="store_true")
    p.add_argument("--media-dir", default="", help="also export figure media objects")
    p.add_argument("--media-format", default="png",
                   choices=("png", "svg", "both"),
                   help="png: REAL 300-dpi raster crops of each figure "
                        "region (stdlib encoder); svg: vector crops; "
                        "both: the pair side by side")
    p.add_argument("--num-cpus", type=int, default=0, help="0 = let Ray decide")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--views", default="", metavar="V1,V2",
                   help="also export relational views (any of: elements, "
                        "cells, links, file_meta, pages, text_styles, "
                        "rect_styles) as parquet under <output>/views/")
    p.add_argument("--visual-format", default="both",
                   choices=("png", "svg", "both"),
                   help="visual-debug output: png = the reference's "
                        "150-dpi raster pages, svg = vector, both")
    p.add_argument("--visual-debug", default="", metavar="DIR",
                   help="render one SVG per (doc, page) with element bboxes "
                        "in the reference debug colors under DIR "
                        "(visual_debug_libpdf analog)")
    p.add_argument("--visual-split-elements", action="store_true",
                   help="one subdirectory per element type (reference "
                        "visual_split_elements)")
    p.add_argument("--visual-debug-include-elements", default="",
                   metavar="T1,T2", help="render only these element types")
    p.add_argument("--visual-debug-exclude-elements", default="",
                   metavar="T1,T2", help="render all but these element types")
    p.add_argument("-f", "--format", default="parquet",
                   choices=("parquet", "yaml"),
                   help="parquet (default): partitioned span parquet with "
                        "resume manifests; yaml: one nested object tree per "
                        "document (reference parity with "
                        "'python -m libpdf -f yaml')")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    import os

    import ray

    # the north-rule deployment shape is `ray job submit` onto a fixed
    # multi-node cluster: honor RAY_ADDRESS (job submission sets it to the
    # cluster address) and only default to a local session when unset —
    # hardcoding "local" would silently hijack a cluster run onto one node
    init_kwargs = dict(
        address=os.environ.get("RAY_ADDRESS", "local"),
        include_dashboard=False, ignore_reinit_error=True,
        logging_level="ERROR",
    )
    if args.num_cpus:
        init_kwargs["num_cpus"] = args.num_cpus
    if not ray.is_initialized():
        ray.init(**init_kwargs)

    from libpdf_ray.config import PipelineConfig
    from libpdf_ray.pipelines.checkpoint import ConfigMismatch, run_resumable

    page_crop = (
        tuple(float(v) for v in args.page_crop.split(","))
        if args.page_crop
        else (0.0, 0.0, 0.0, 0.0)
    )
    cfg = PipelineConfig(
        page_range=args.page_range,
        page_crop=page_crop,
        smart_page_crop=args.smart_page_crop,
        no_annotations=args.no_annotations,
        no_chapters=args.no_chapters,
        no_paragraphs=args.no_paragraphs,
        no_tables=args.no_tables,
        no_figures=args.no_figures,
        no_rects=args.no_rects,
        parse_batch_size=args.batch_size,
    )
    from libpdf_ray.stages.views import VIEWS

    def names(csv):
        return [v.strip() for v in csv.split(",") if v.strip()]

    # validate --views BEFORE any work: a typo must not cost a full run
    view_names = names(args.views)
    unknown = [v for v in view_names if v not in VIEWS]
    if unknown:
        print(f"unknown view(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.input_format == "html" and (
        args.format == "yaml" or view_names or args.visual_debug
        or args.media_dir
    ):
        # HTML pages reduce to text spans; there is no page geometry to
        # render and no element model beyond chapter/paragraph
        print("--input-format html supports span extraction only "
              "(no yaml/views/visual-debug/media modes)", file=sys.stderr)
        return 2

    from libpdf_ray.stages.elements import rendered_elements
    from libpdf_ray.stages.outputs import COUNT_COLUMNS, Outputs

    # every output of the run comes from ONE parse pass per document: the
    # parse task that builds a document's spans also writes its view rows,
    # YAML tree, visual-debug pages and figure crops (stages/outputs.py)
    outputs = Outputs(
        views=tuple(view_names),
        views_dir=os.path.join(args.output, "views"),
        yaml_dir=args.output if args.format == "yaml" else "",
        visual_dir=args.visual_debug,
        visual_format=args.visual_format,
        visual_elements=rendered_elements(
            names(args.visual_debug_include_elements),
            names(args.visual_debug_exclude_elements),
        ),
        visual_split=args.visual_split_elements,
        media_dir=args.media_dir,
        media_format=args.media_format,
    )
    outputs = outputs if outputs.keys() else None
    sum_cols = ("n_spans",) + (COUNT_COLUMNS if outputs else ())

    def parse_plan():
        if args.input_format == "html":
            from libpdf_ray.ops.html import html_spans_batch, read_html_files

            return read_html_files(args.input_dir).map_batches(
                html_spans_batch, batch_format="pyarrow", batch_size=args.batch_size)
        if args.input_format == "pdf":
            from libpdf_ray.pipelines.extract import extract_spans
            from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

            return extract_spans(read_pdf_files(args.input_dir), cfg,
                                 decoder=PdfByteDecoder(), outputs=outputs)
        from libpdf_ray.pipelines.extract import extract_spans_fused

        return extract_spans_fused(args.input_dir, cfg, outputs)

    # run summaries are reduced IN-STREAM (one totals dict per task or per
    # partition) — never a per-document driver DataFrame
    if args.format == "yaml" or args.input_format != "sidecar":
        # yaml (reference parity, libpdf/process.py:131-186): the parse pass
        # writes one YAML tree per document and is only summed.  PDF/HTML:
        # spans stream straight to parquet (resume manifests are a
        # parquet-shard concept)
        from libpdf_ray.pipelines.summary import write_spans

        yaml = args.format == "yaml"
        totals = write_spans(parse_plan(), "" if yaml else
                             os.path.join(args.output, "spans"), sum_cols)
        summary = {"format": "yaml"} if yaml else {}
    else:
        try:
            totals = run_resumable(args.input_dir, args.output, cfg, outputs=outputs)
        except ConfigMismatch as exc:
            print(exc, file=sys.stderr)
            return 2
        summary = {k: totals[k] for k in ("ran", "skipped", "total_partitions")}
    summary.update(documents=totals["documents"], errors=totals["errors"],
                   spans=totals["n_spans"], output=args.output)
    if view_names:
        summary["views"] = view_names
    if args.visual_debug:
        summary["visual_debug_pages"] = totals["visual_debug_pages"]
    if args.media_dir:
        summary["media_crops"] = totals["media_crops"]
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
