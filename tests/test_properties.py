"""Property-based tests: structural invariants of the extraction semantics.

Complements the golden-oracle families: for arbitrary (seeded) corpora the
pipeline must be deterministic and structurally sound even where no golden
expectation exists."""

from hypothesis import given, settings
from hypothesis import strategies as st

from libpdf_ray.config import PipelineConfig, SMART_CROP_CONFIG
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.kernels.document import extract_document, extract_document_full


@settings(max_examples=40, deadline=None)
@given(
    doc_index=st.integers(min_value=0, max_value=5000),
    family=st.sampled_from(DEFAULT_FAMILIES),
)
def test_extraction_matches_oracle_everywhere(doc_index, family):
    """The generator-as-oracle equality holds for ANY doc index, not just
    the enumerated test corpus."""
    doc = build_document(doc_index, family, skew_pages=5)
    assert extract_document(doc, SMART_CROP_CONFIG) == doc["expected_spans"]


@settings(max_examples=20, deadline=None)
@given(
    doc_index=st.integers(min_value=0, max_value=2000),
    family=st.sampled_from(DEFAULT_FAMILIES),
)
def test_determinism_and_offsets(doc_index, family):
    doc = build_document(doc_index, family, skew_pages=4)
    a = extract_document(doc, SMART_CROP_CONFIG)
    b = extract_document(doc, SMART_CROP_CONFIG)
    assert a == b  # bit-deterministic (retries preserve span equality)
    assert [s["offset"] for s in a] == list(range(len(a)))
    for s in a:
        assert s["kind"] in {"chapter", "paragraph", "table", "figure", "rect", "link"}
        assert (s["media_ref"] != "") == (s["kind"] == "figure")


@settings(max_examples=15, deadline=None)
@given(doc_index=st.integers(min_value=0, max_value=1000))
def test_uids_unique_per_document(doc_index):
    doc = build_document(doc_index, "outlined")
    _, elements = extract_document_full(doc, SMART_CROP_CONFIG)
    uids = [el["uid"] for el in elements]
    assert len(uids) == len(set(uids))


@settings(max_examples=15, deadline=None)
@given(
    doc_index=st.integers(min_value=0, max_value=1000),
    hi=st.integers(min_value=1, max_value=5),
)
def test_page_range_is_monotone(doc_index, hi):
    """Selecting a prefix of pages yields a prefix-consistent subset: every
    span extracted under the page range also appears (same kind/text) in
    the full extraction."""
    doc = build_document(doc_index, "skew", skew_pages=5)
    full = extract_document(doc, PipelineConfig())
    limited = extract_document(doc, PipelineConfig(page_range=f"1-{hi}"))
    full_keys = [(s["kind"], s["text"]) for s in full]
    lim_keys = [(s["kind"], s["text"]) for s in limited]
    # limited must be a prefix of full for a page-prefix selection
    assert lim_keys == full_keys[: len(lim_keys)]


@settings(max_examples=20, deadline=None)
@given(
    lines=st.lists(
        st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_hbox_roundtrip(lines):
    """Text join conventions survive arbitrary ASCII words: words join
    with ' ' into a line, lines with '\\n' into the box."""
    from libpdf_ray.kernels.textmodel import (assemble_textbox_lines,
                                              hbox_from_lines, line_word_dicts)

    words = [
        {"text": w, "x0": 72.0 + 80.0 * j, "y0": 588.0 - 14.0 * i,
         "x1": 72.0 + 80.0 * j + 6.0 * len(w), "y1": 600.0 - 14.0 * i,
         "ncolor": None, "fontname": None}
        for i, ln in enumerate(lines)
        for j, w in enumerate(ln)
    ]
    hbox = hbox_from_lines(assemble_textbox_lines({"words": words}))
    assert [[w["text"] for w in line_word_dicts(out)] for out in hbox["lines"]] == lines
    assert hbox["text"] == "\n".join(" ".join(ln) for ln in lines)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_assembly_recovers_any_word_layout(data):
    """For ANY set of grid-laid-out lines, shuffling the word boxes and
    re-assembling recovers the exact line texts and order."""
    import random

    n_lines = data.draw(st.integers(min_value=1, max_value=6))
    texts = [
        " ".join(
            data.draw(
                st.lists(
                    st.text(alphabet="abcdefgh", min_size=1, max_size=7),
                    min_size=1,
                    max_size=5,
                )
            )
        )
        for _ in range(n_lines)
    ]
    from libpdf_ray.kernels.textmodel import assemble_textbox_lines

    words = []
    y1 = 600.0
    for ln in texts:
        off = 0
        for w in ln.split(" "):
            words.append(
                {
                    "text": w,
                    "x0": 72.0 + off * 6.0,
                    "y0": y1 - 12.0,
                    "x1": 72.0 + (off + len(w)) * 6.0,
                    "y1": y1,
                    "ncolor": None,
                    "fontname": None,
                }
            )
            off += len(w) + 1
        y1 -= 12.0
    rnd = random.Random(data.draw(st.integers(0, 10**6)))
    rnd.shuffle(words)
    lines = assemble_textbox_lines({"words": words})
    assert [ln["text"] for ln in lines] == texts


@settings(max_examples=25, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=5),
    n_cols=st.integers(min_value=1, max_value=5),
    jitter_seed=st.integers(min_value=0, max_value=10**6),
)
def test_grid_detection_recovers_any_grid(n_rows, n_cols, jitter_seed):
    """Any full grid with sub-snap jitter is detected with the exact
    row/col structure and a full anchor set."""
    import numpy as np

    from libpdf_ray.kernels.regions import detect_table_grids

    rng = np.random.default_rng(jitter_seed)
    row_edges = [600.0 - 25.0 * r for r in range(n_rows + 1)]
    col_edges = [72.0 + 60.0 * c for c in range(n_cols + 1)]
    segs = []
    for y in row_edges:
        segs.append({"page": 1, "x0": col_edges[0] + rng.uniform(-1, 1),
                     "y0": y + rng.uniform(-1, 1), "x1": col_edges[-1],
                     "y1": y + rng.uniform(-1, 1)})
    for x in col_edges:
        segs.append({"page": 1, "x0": x + rng.uniform(-1, 1),
                     "y0": row_edges[-1], "x1": x + rng.uniform(-1, 1),
                     "y1": row_edges[0] + rng.uniform(-1, 1)})
    grids = detect_table_grids(segs)
    assert len(grids) == 1
    g = grids[0]
    assert (g["n_rows"], g["n_cols"]) == (n_rows, n_cols)
    assert len(g["cells"]) == n_rows * n_cols


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_outline_walk_preorder_paths(data):
    """Random outline forests encoded as First/Next nodes walk back to
    pre-order positional paths."""
    from libpdf_ray.kernels.catalog import walk_outline

    # draw a small forest as nested lists of child counts
    def draw_forest(depth):
        n = data.draw(st.integers(min_value=0 if depth else 1, max_value=3))
        return [draw_forest(depth + 1) if depth < 2 else [] for _ in range(n)]

    forest = draw_forest(0)
    nodes = []

    def encode(children, ids):
        first_id = None
        prev = None
        for sub in children:
            nid = len(nodes)
            nodes.append(
                {"node_id": nid, "first": -1, "next": -1,
                 "title": f"t{nid}", "dest_kind": "explicit",
                 "dest_page": 1, "dest_x": 72.0, "dest_y": 600.0,
                 "dest_name": ""}
            )
            if prev is not None:
                nodes[prev]["next"] = nid
            if first_id is None:
                first_id = nid
            prev = nid
            child_first = encode(sub, ids)
            if child_first is not None:
                nodes[nid]["first"] = child_first
        return first_id

    root = encode(forest, [])
    tree = walk_outline(nodes, root if root is not None else -1, {})

    def check(nodes_out, prefix):
        for i, n in enumerate(nodes_out):
            assert n["path"] == f"{prefix}{i + 1}"
            check(n["content"], f"{n['path']}.")

    check(tree, "")
    # every node emitted exactly once
    def count(ns):
        return len(ns) + sum(count(n["content"]) for n in ns)

    assert count(tree) == len(nodes)


@given(
    values=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=200),
    p=st.sampled_from([(1, 2), (19, 20), (1, 4), (9, 10), (1, 1)]),
)
@settings(max_examples=200, deadline=None)
def test_percentile_rank_formula_matches_percentile_disc(values, p):
    """The histogram rank selection ceil(p·n) used by the exact grouped
    percentile family must equal percentile_disc semantics (smallest value
    whose cumulative fraction ≥ p) on arbitrary multisets."""
    import numpy as np
    import pandas as pd

    p_num, p_den = p
    s = pd.Series(values)
    hist = s.value_counts().sort_index()
    n = len(values)
    rank = (p_num * n + p_den - 1) // p_den
    cum = hist.cumsum()
    got = int(hist.index[np.searchsorted(cum.to_numpy(), rank)])
    # reference: smallest v with |{x <= v}| / n >= p  (exact rationals)
    srt = sorted(values)
    ref = next(v for i, v in enumerate(srt) if (i + 1) * p_den >= p_num * n)
    assert got == ref


@given(
    values=st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                    max_size=150),
)
@settings(max_examples=200, deadline=None)
def test_cume_dist_histogram_lookup_matches_definition(values):
    """The broadcast cumulative-count map of q_order_percentile_rank must
    reproduce cume_dist: (# rows ≤ x) / n per row."""
    import pandas as pd

    s = pd.Series(values)
    hist = s.value_counts().sort_index()
    cum = hist.cumsum()
    lk = dict(zip(hist.index, cum))
    n = len(values)
    for x in set(values):
        assert lk[x] == sum(1 for v in values if v <= x)
        assert lk[x] / float(n) == sum(1 for v in values if v <= x) / float(n)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_chars=st.integers(min_value=1, max_value=60),
    styled=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_chars_to_words_equals_loop(seed, n_chars, styled):
    """The glyph-table kernel's words (vectorized) must be bit-identical
    to the reference-shaped chars→words loop (the oracle kept in
    tests/test_glyph_layout.py) on random one-line char streams — random
    widths/gaps, explicit space chars, mixed styles."""
    import numpy as np

    from libpdf_ray.kernels.textmodel import (_norm_color,
                                              assemble_glyph_lines,
                                              line_word_dicts)
    from tests.test_glyph_layout import chars_to_words

    rng = np.random.default_rng(seed)
    glyphs = list("abcdefg") + [" "]
    texts, x0s, x1s = [], [], []
    x = 0.0
    for _ in range(n_chars):
        g = glyphs[rng.integers(len(glyphs))]
        w = float(rng.uniform(2.0, 9.0))
        gap = float(rng.uniform(0.0, 3.0))  # sometimes > word_margin*w
        x += gap
        texts.append(g)
        x0s.append(x)
        x1s.append(x + w)
        x += w
    n = len(texts)
    ncolor = [
        ((1.0, 0.0, 0.0) if styled and i % 3 == 0 else None)
        for i in range(n)
    ]
    font = ["F1" if styled and i % 2 == 0 else None for i in range(n)]
    wt = {
        "text": np.array(texts, dtype=object),
        "x0": np.array(x0s),
        "y0": np.zeros(n),
        "x1": np.array(x1s),
        "y1": np.full(n, 10.0),
        "ncolor": np.array(ncolor, dtype=object),
        "fontname": np.array(font, dtype=object),
    }
    # one baseline, x-sorted by construction: the kernel sees one line
    got = [w for ln in assemble_glyph_lines(wt, 0.5, 0.1)
           for w in line_word_dicts(ln)]

    chars = [
        {"text": texts[i], "x0": x0s[i], "y0": 0.0, "x1": x1s[i],
         "y1": 10.0, "ncolor": _norm_color(ncolor[i]), "fontname": font[i]}
        for i in range(n)
    ]
    want = chars_to_words(chars, 0.1)
    assert got == want
