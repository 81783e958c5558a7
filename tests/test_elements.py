"""Element-geometry view, visual-debug commands, cost repartition."""

from libpdf_ray.config import SMART_CROP_CONFIG


def test_elements_table_uids_and_geometry(ray_session, small_corpus_dir):
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    df = view_table(read_corpus(small_corpus_dir), "elements", SMART_CROP_CONFIG).to_pandas()
    assert len(df) > 0
    # uid scheme: nested paragraph under chapters
    nested = df[df["uid"].str.contains("/")]
    assert len(nested) > 0
    assert nested["uid"].str.split("/").str[0].str.startswith("chapter.").all()
    # geometry sane: x1>x0, y1>y0 for non-degenerate elements
    assert (df["x1"] >= df["x0"]).all() and (df["y1"] >= df["y0"]).all()
    # figures carry media refs
    figs = df[df["etype"] == "figure"]
    assert figs["media_ref"].str.startswith("media/").all()


def test_debug_draw_commands(ray_session, small_corpus_dir):
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.elements import DEBUG_COLORS, debug_draw_table

    df = debug_draw_table(read_corpus(small_corpus_dir), SMART_CROP_CONFIG).to_pandas()
    assert set(df["color"].unique()) <= set(DEBUG_COLORS.values())
    assert (df["label"] != "").all()


def test_skew_aware_parse_matches_plain(ray_session, small_corpus_dir):
    """Heavy/light routed parse (the page-range split) must produce the
    same rows as the plain pipeline (same docs, same oracle)."""
    from libpdf_ray.pipelines.extract import extract_spans, read_corpus
    from libpdf_ray.pipelines.split import extract_spans_split

    plain = {
        r["doc_id"]: dict(r)
        for r in extract_spans(read_corpus(small_corpus_dir), SMART_CROP_CONFIG).take_all()
    }
    routed = {
        r["doc_id"]: dict(r)
        for r in extract_spans_split(
            small_corpus_dir, SMART_CROP_CONFIG, split_pages=2, heavy_pages=4
        ).take_all()
    }
    assert routed == plain
    # the split actually routed something to each branch
    import pyarrow.parquet as pq
    import glob

    pages = []
    for f in glob.glob(f"{small_corpus_dir}/part-*.parquet"):
        pages += pq.read_table(f, columns=["est_pages"]).column("est_pages").to_pylist()
    assert any(p >= 4 for p in pages) and any(p < 4 for p in pages)


def test_elements_match_generator_oracle():
    """Engine element identity (uid path, type, page, payload, link count)
    equals the generator's expected_elements column for every family —
    the elements-view analog of the links/cells generator-as-oracle checks
    (reference ApiObjects flattening, libpdf/apiobjects.py:18-79)."""
    from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
    from libpdf_ray.kernels.document import extract_document_full

    for fam in DEFAULT_FAMILIES:
        for i in range(2):
            row = build_document(i, fam, seed=42 + i, skew_pages=12)
            _, els = extract_document_full(row, SMART_CROP_CONFIG)
            got = [
                {
                    "uid": e["uid"],
                    "etype": e["etype"],
                    "page": e["page"],
                    "text": e.get("text", ""),
                    "media_ref": e.get("media_ref", ""),
                    "n_links": len(e.get("links", [])),
                }
                for e in els
            ]
            assert got == row["expected_elements"], f"family {fam} doc {i}"
