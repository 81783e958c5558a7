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


def test_render_over_corpus(ray_session, tmp_path):
    from libpdf_ray.fixtures import write_corpus
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.elements import render_debug_svg
    from libpdf_ray.stages.views import view_table

    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "dbg")
    write_corpus(corpus, n_docs=8, seed=42, shards=2, skew_pages=6)
    manifest = render_debug_svg(
        read_corpus(corpus), SMART_CROP_CONFIG, out
    ).to_pandas()
    assert (manifest["error"] == "").all()
    # one SVG per (doc, page), matching the manifest
    files = glob.glob(os.path.join(out, "**", "*.svg"), recursive=True)
    assert sorted(files) == sorted(manifest["path"])
    # box count per page equals the elements view's per-page count
    els = view_table(read_corpus(corpus), "elements", SMART_CROP_CONFIG).to_pandas()
    per_page = els.groupby(["doc_id", "page"]).size()
    for _, row in manifest.iterrows():
        expect = int(per_page.get((row["doc_id"], row["page"]), 0))
        assert row["n_boxes"] == expect
        assert len(_rects(row["path"])) == expect + 1  # + page rect


def test_include_exclude_and_split(ray_session, tmp_path):
    from libpdf_ray.fixtures import write_corpus
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.elements import render_debug_svg

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=6, seed=42, shards=1, skew_pages=6)

    only_ch = render_debug_svg(
        read_corpus(corpus), SMART_CROP_CONFIG, str(tmp_path / "inc"),
        include_elements=("chapter",),
    ).to_pandas()
    no_par = render_debug_svg(
        read_corpus(corpus), SMART_CROP_CONFIG, str(tmp_path / "exc"),
        exclude_elements=("paragraph",),
    ).to_pandas()
    full = render_debug_svg(
        read_corpus(corpus), SMART_CROP_CONFIG, str(tmp_path / "all"),
    ).to_pandas()
    # the 6-doc slice carries only chapters+paragraphs among rendered
    # types, so chapters-only and no-paragraphs may coincide
    assert only_ch["n_boxes"].sum() <= no_par["n_boxes"].sum()
    assert no_par["n_boxes"].sum() < full["n_boxes"].sum()
    assert only_ch["n_boxes"].sum() < full["n_boxes"].sum()
    ch_fill = "rgb(%d,%d,%d)" % DEBUG_RGBA["chapter"][:3]
    for path in only_ch[only_ch["n_boxes"] > 0]["path"]:
        fills = {r.get("fill") for r in _rects(path)} - {"white"}
        assert fills == {ch_fill}

    split = render_debug_svg(
        read_corpus(corpus), SMART_CROP_CONFIG, str(tmp_path / "split"),
        split_elements=True,
    ).to_pandas()
    # one file per (doc, page, TYPE): 5x the page count
    assert len(split) == 5 * len(full)
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
        from libpdf_ray.pipelines.extract import (extract_spans, read_corpus,
                                                  spans_table)
        from libpdf_ray.state.media_store import export_media_svg

        corpus = str(tmp_path / "corpus")
        media = str(tmp_path / "media")
        write_corpus(corpus, n_docs=16, seed=42, shards=2, skew_pages=6)
        manifest = export_media_svg(
            read_corpus(corpus), SMART_CROP_CONFIG, media
        ).to_pandas()
        assert (manifest["error"] == "").all()
        # exactly one crop per figure span media_ref
        spans = spans_table(
            extract_spans(read_corpus(corpus), SMART_CROP_CONFIG)
        ).to_pandas()
        fig_refs = set(spans[spans["kind"] == "figure"]["media_ref"])
        assert set(manifest["media_ref"]) == fig_refs
        assert len(manifest) == len(fig_refs)
        for _, row in manifest.iterrows():
            root = ET.parse(row["path"]).getroot()
            assert root.tag == f"{SVG_NS}svg"
            texts = root.findall(f"{SVG_NS}text")
            assert len(texts) == row["n_words"]
            shapes = (len(root.findall(f"{SVG_NS}line"))
                      + len(root.findall(f"{SVG_NS}rect")) - 1)  # - page rect
            assert shapes == row["n_shapes"]

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
