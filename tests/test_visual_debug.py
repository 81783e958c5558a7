"""SVG visual-debug renderer (K3): visual_debug_libpdf analog
(libpdf/utils.py:679-838) with real rendered output — SVG needs no raster
codec, so the page images actually exist in this environment.
"""

import glob
import os
import xml.etree.ElementTree as ET

import pytest

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.stages.elements import (DEBUG_RGBA, RENDER_ELEMENTS,
                                        _page_svg)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _rects(path):
    root = ET.parse(path).getroot()
    return root.findall(f"{SVG_NS}rect")


def test_page_svg_geometry_and_colors():
    svg = _page_svg(
        612.0, 792.0,
        [("chapter", "chapter.1", 72.0, 700.0, 300.0, 720.0),
         ("paragraph", "chapter.1/paragraph.1", 72.0, 600.0, 500.0, 690.0)],
    )
    root = ET.fromstring(svg)
    rects = root.findall(f"{SVG_NS}rect")
    assert len(rects) == 3  # page + 2 elements
    page, ch, par = rects
    assert page.get("fill") == "white"
    # PDF origin bottom-left -> SVG top-left: y_svg = page_h - y1
    assert float(ch.get("y")) == 792.0 - 720.0
    assert float(ch.get("height")) == 20.0
    r, g, b, a = DEBUG_RGBA["chapter"]
    assert ch.get("fill") == f"rgb({r},{g},{b})"
    assert ch.get("fill-opacity") == f"{a / 255:.3f}"
    # uid rides as a <title> tooltip
    assert ch.find(f"{SVG_NS}title").text == "chapter.1"


def _render(corpus, out, **kwargs):
    """Run ``corpus`` with visual-debug pages under ``out`` as the one side
    output; returns the run summary (with its ``visual_debug_pages``)."""
    from libpdf_ray.pipelines.checkpoint import run_resumable
    from libpdf_ray.stages.outputs import Outputs

    return run_resumable(corpus, out + "-run", SMART_CROP_CONFIG,
                         Outputs(visual_dir=out, **kwargs))


def _boxes(out):
    """Element boxes drawn under ``out``: every SVG's rects minus its page."""
    return sum(len(_rects(f)) - 1 for f in glob.glob(
        os.path.join(out, "**", "*.svg"), recursive=True))


def test_render_over_corpus(ray_session, tmp_path):
    from libpdf_ray.fixtures import write_corpus
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "dbg")
    write_corpus(corpus, n_docs=8, seed=42, shards=2, skew_pages=6)
    summary = _render(corpus, out)
    assert summary["errors"] == 0
    # one SVG per (doc, page), and the summary counts them
    files = glob.glob(os.path.join(out, "**", "*.svg"), recursive=True)
    pages = view_table(read_corpus(corpus), "pages").to_pandas()
    assert sorted(files) == sorted(
        os.path.join(out, d, f"libpdf_{n}.svg")
        for d, n in zip(pages["doc_id"], pages["number"]))
    assert summary["visual_debug_pages"] == len(files)
    # box count per page equals the elements view's per-page count
    els = view_table(read_corpus(corpus), "elements", SMART_CROP_CONFIG).to_pandas()
    per_page = els.groupby(["doc_id", "page"]).size()
    for d, n in zip(pages["doc_id"], pages["number"]):
        expect = int(per_page.get((d, n), 0))
        assert len(_rects(os.path.join(out, d, f"libpdf_{n}.svg"))) == expect + 1


def test_include_exclude_and_split(ray_session, tmp_path):
    from libpdf_ray.fixtures import write_corpus
    from libpdf_ray.stages.elements import rendered_elements

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=6, seed=42, shards=1, skew_pages=6)

    _render(corpus, str(tmp_path / "inc"),
            visual_elements=rendered_elements(include=("chapter",)))
    _render(corpus, str(tmp_path / "exc"),
            visual_elements=rendered_elements(exclude=("paragraph",)))
    full = _render(corpus, str(tmp_path / "all"))
    only_ch, no_par, all_boxes = (_boxes(str(tmp_path / d))
                                  for d in ("inc", "exc", "all"))
    # the 6-doc slice carries only chapters+paragraphs among rendered
    # types, so chapters-only and no-paragraphs may coincide
    assert only_ch <= no_par
    assert no_par < all_boxes
    assert only_ch < all_boxes
    ch_fill = "rgb(%d,%d,%d)" % DEBUG_RGBA["chapter"][:3]
    for path in glob.glob(str(tmp_path / "inc" / "**" / "*.svg"), recursive=True):
        if len(_rects(path)) > 1:
            fills = {r.get("fill") for r in _rects(path)} - {"white"}
            assert fills == {ch_fill}

    split = _render(corpus, str(tmp_path / "split"), visual_split=True)
    # one file per (doc, page, TYPE): 5x the page count
    n_split = len(glob.glob(str(tmp_path / "split" / "**" / "*.svg"), recursive=True))
    n_full = len(glob.glob(str(tmp_path / "all" / "**" / "*.svg"), recursive=True))
    assert n_split == 5 * n_full
    assert split["visual_debug_pages"] == n_split
    assert full["visual_debug_pages"] == n_full
    for t in RENDER_ELEMENTS:
        assert glob.glob(str(tmp_path / "split" / "*" / t / "*.svg"))


def test_cli_visual_debug_flag(ray_session, tmp_path):
    from libpdf_ray.__main__ import main
    from libpdf_ray.fixtures import write_corpus

    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "spans")
    dbg = str(tmp_path / "vdbg")
    write_corpus(corpus, n_docs=4, seed=42, shards=1, skew_pages=6)
    rc = main([corpus, "-o", out, "--smart-page-crop",
               "--visual-debug", dbg])
    assert rc == 0
    assert glob.glob(os.path.join(dbg, "**", "*.svg"), recursive=True)


class TestVectorCropExport:
    """K2 figure export, really rendered: SVG vector crops of each figure
    region (reference images_to_save, libpdf/extract.py:734-754 —
    rasterization env-blocked, vector content is lossless here)."""

    def test_svg_crops_match_figure_spans(self, ray_session, tmp_path):
        from libpdf_ray.fixtures import write_corpus
        from libpdf_ray.kernels.document import extract_document_full
        from libpdf_ray.pipelines.checkpoint import run_resumable
        from libpdf_ray.pipelines.extract import (PARSE_COLUMNS, extract_spans,
                                                  read_corpus, spans_table)
        from libpdf_ray.stages.decoder import decode_sidecar_rows
        from libpdf_ray.stages.outputs import Outputs

        corpus = str(tmp_path / "corpus")
        media = str(tmp_path / "media")
        write_corpus(corpus, n_docs=16, seed=42, shards=2, skew_pages=6)
        summary = run_resumable(corpus, str(tmp_path / "run"), SMART_CROP_CONFIG,
                                Outputs(media_dir=media, media_format="svg"))
        assert summary["errors"] == 0
        # exactly one crop per figure span media_ref
        spans = spans_table(
            extract_spans(read_corpus(corpus), SMART_CROP_CONFIG)
        ).to_pandas()
        fig_refs = set(spans[spans["kind"] == "figure"]["media_ref"])
        files = glob.glob(os.path.join(media, "**", "*.svg"), recursive=True)
        assert {os.path.relpath(f, media)[:-4] + ".png" for f in files} == fig_refs
        assert len(files) == len(fig_refs) == summary["media_crops"]
        # each crop draws exactly its figure's words / segments / rects,
        # counted here from the RAW sidecar rows (not the decoder's tables)
        import pyarrow.parquet as pq

        def inside(bb, x0, y0, x1, y1):
            return x0 >= bb[0] and y0 >= bb[1] and x1 <= bb[2] and y1 <= bb[3]

        n_crops = n_texts = 0
        for f in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
            table = pq.read_table(f, columns=PARSE_COLUMNS)
            raw = {r["doc_id"]: r for r in table.to_pylist()}
            for doc in decode_sidecar_rows(table):
                _, elements = extract_document_full(doc, SMART_CROP_CONFIG)
                r = raw[doc["doc_id"]]
                for fig in elements:
                    if fig["etype"] != "figure" or not fig.get("media_ref"):
                        continue
                    bb = (fig["x0"], fig["y0"], fig["x1"], fig["y1"])
                    on_page = [x for x in (r["segments"] or []) + (r["rects"] or [])
                               if x["page"] == fig["page"]]
                    n_words = sum(
                        inside(bb, w["x0"], w["y0"], w["x1"], w["y1"])
                        for tb in r["textboxes"] or [] if tb["page"] == fig["page"]
                        for w in (tb["words"] or tb["chars"] or []))
                    n_shapes = sum(
                        inside(bb, min(s["x0"], s["x1"]), min(s["y0"], s["y1"]),
                               max(s["x0"], s["x1"]), max(s["y0"], s["y1"]))
                        for s in on_page)
                    path = os.path.join(media, fig["media_ref"][:-4] + ".svg")
                    root = ET.parse(path).getroot()
                    assert root.tag == f"{SVG_NS}svg"
                    texts = root.findall(f"{SVG_NS}text")
                    assert len(texts) == n_words, path
                    shapes = (len(root.findall(f"{SVG_NS}line"))
                              + len(root.findall(f"{SVG_NS}rect")) - 1)  # - page rect
                    assert shapes == n_shapes, path
                    n_crops += 1
                    n_texts += len(texts)
        assert n_crops == len(files)
        assert n_texts > 0  # figure captions/labels really are drawn

    def test_crop_geometry_translates_to_origin(self):
        from libpdf_ray.state.media_store import _figure_crop_svg

        svg = _figure_crop_svg(
            (100.0, 200.0, 300.0, 400.0),
            words=[("hello", 110.0, 210.0, 160.0, 222.0)],
            segments=[(100.0, 200.0, 300.0, 200.0)],
            rects=[(120.0, 220.0, 280.0, 380.0)],
        )
        root = ET.fromstring(svg)
        assert root.get("width") == "200" and root.get("height") == "200"
        t = root.find(f"{SVG_NS}text")
        assert float(t.get("x")) == 10.0           # 110 - 100
        assert float(t.get("y")) == 400.0 - 210.0  # flip: fy1 - y0
        assert t.text == "hello"
        ln = root.find(f"{SVG_NS}line")
        assert float(ln.get("y1")) == 200.0        # bottom edge -> y = h
        rects = root.findall(f"{SVG_NS}rect")
        assert float(rects[1].get("x")) == 20.0

    def test_cli_media_format_svg(self, ray_session, tmp_path):
        import json

        from libpdf_ray.__main__ import main
        from libpdf_ray.fixtures import write_corpus

        corpus = str(tmp_path / "corpus")
        write_corpus(corpus, n_docs=8, seed=42, shards=1, skew_pages=6)
        rc = main([corpus, "-o", str(tmp_path / "out"), "--smart-page-crop",
                   "--media-dir", str(tmp_path / "media"),
                   "--media-format", "both"])
        assert rc == 0
        pngs = glob.glob(str(tmp_path / "media" / "**" / "*.png"),
                         recursive=True)
        svgs = glob.glob(str(tmp_path / "media" / "**" / "*.svg"),
                         recursive=True)
        assert pngs and svgs and len(pngs) == len(svgs)
