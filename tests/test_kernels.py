"""Unit tests for the pure extraction kernels (no Ray).

Expected values are transcribed from the reference's semantics (file:line in
each kernel's docstring), mirroring the reference test style of inline golden
assertions (/root/reference/tests/test_full_features.py etc.)."""

import numpy as np

from libpdf_ray.config import PipelineConfig
from libpdf_ray.kernels.bbox import (
    as_bbox_array,
    contains_coord,
    inside_any,
    union_bbox,
)
from libpdf_ray.kernels.chapters import (
    CHAPTER_NUMBER_PATTERN,
    assign_chapter_numbers,
    build_outline_tree,
    chapter_examiner,
)
from libpdf_ray.kernels.headerfooter import find_header_footer_eids
from libpdf_ray.kernels.links import extract_links_for_textbox
from libpdf_ray.kernels.regions import (
    detect_table_grids,
    filter_figures,
    table_from_grid,
)
from libpdf_ray.kernels.textmodel import (
    assemble_textbox_lines,
    hbox_from_lines,
    line_word_dicts,
    textbox_text,
)


class TestChapterNumberRegex:
    """DS93-chapter-issue semantics (/root/reference/tests/test_ds93_chapter.py)."""

    def test_numbered_variants(self):
        cases = {
            "3.5.4 Title Here": "3.5.4",
            "9. Title": "9.",
            "iv Roman": "iv",
            "A Letter": "A",
            "2.a.IV Mixed": "2.a.IV",
            "1 Simple": "1",
        }
        for title, number in cases.items():
            m = CHAPTER_NUMBER_PATTERN.match(title)
            assert m and m[0] == number, title

    def test_unnumbered(self):
        for title in ["Appendix Notes", "Overview", ".5 leading dot", "Title"]:
            assert CHAPTER_NUMBER_PATTERN.match(title) is None, title

    def test_virt_numbering_nested(self):
        flat = [
            {"path": "1", "title": "1 Alpha", "page": 1, "x0": 72, "y1": 600},
            {"path": "1.1", "title": "Unnumbered", "page": 1, "x0": 72, "y1": 500},
            {"path": "2", "title": "Also Unnumbered", "page": 2, "x0": 72, "y1": 600},
        ]
        tree = build_outline_tree(flat)
        assign_chapter_numbers(tree)
        assert tree[0]["number"] == "1" and tree[0]["title"] == "Alpha"
        assert tree[0]["content"][0]["number"] == "virt.1.1"
        assert tree[1]["number"] == "virt.2"


class TestChapterExaminer:
    def _chapter(self, number, title, y1=600.0):
        return {
            "title": title,
            "number": number,
            "position": {"page": 1, "x0": 72.0, "y1": y1},
        }

    def test_exact_content_match_wins(self):
        boxes = [
            {"x0": 72, "y0": 588, "x1": 200, "y1": 600, "text": "1.2 Setup Guide"},
            {"x0": 72, "y0": 500, "x1": 300, "y1": 530, "text": "lorem ipsum dolor sit amet"},
        ]
        winners = chapter_examiner(self._chapter("1.2", "Setup Guide"), boxes, 612.0, 792.0)
        assert winners == [0]

    def test_ghost_when_no_similar_box(self):
        boxes = [
            {"x0": 72, "y0": 500, "x1": 300, "y1": 530, "text": "lorem ipsum dolor sit amet"}
        ]
        winners = chapter_examiner(self._chapter("3", "Totally Different"), boxes, 612.0, 792.0)
        assert winners == []

    def test_split_number_title_two_winners(self):
        boxes = [
            {"x0": 72, "y0": 588, "x1": 92, "y1": 600, "text": "2.3"},
            {"x0": 110, "y0": 588, "x1": 220, "y1": 600, "text": "Install Steps"},
            {"x0": 72, "y0": 480, "x1": 400, "y1": 520, "text": "unrelated body text goes here"},
        ]
        winners = chapter_examiner(self._chapter("2.3", "Install Steps"), boxes, 612.0, 792.0)
        assert sorted(winners) == [0, 1]

    def test_window_excludes_far_boxes(self):
        # half-page window: y in [600-198, 600+198]
        boxes = [
            {"x0": 72, "y0": 100, "x1": 200, "y1": 112, "text": "1.2 Setup Guide"},
        ]
        winners = chapter_examiner(self._chapter("1.2", "Setup Guide"), boxes, 612.0, 792.0)
        assert winners == []


class TestFigureFilter:
    def test_min_size(self):
        kept = filter_figures(
            [{"x0": 0, "y0": 0, "x1": 10, "y1": 10}], 15.0, 15.0
        )
        assert kept == []

    def test_clamp_negative(self):
        kept = filter_figures([{"x0": -20, "y0": 5, "x1": 100, "y1": 80}], 15.0, 15.0)
        assert kept[0]["x0"] == 0.0 and kept[0]["width"] == 120.0

    def test_containment_keeps_outer(self):
        kept = filter_figures(
            [
                {"x0": 0, "y0": 0, "x1": 100, "y1": 100},
                {"x0": 10, "y0": 10, "x1": 50, "y1": 50},
            ],
            15.0,
            15.0,
        )
        assert len(kept) == 1 and kept[0]["x1"] == 100

    def test_overlap_keeps_larger(self):
        kept = filter_figures(
            [
                {"x0": 0, "y0": 0, "x1": 100, "y1": 100},
                {"x0": 80, "y0": 80, "x1": 140, "y1": 140},
            ],
            15.0,
            15.0,
        )
        assert len(kept) == 1 and kept[0]["x0"] == 0


def _word_hbox(lines: list) -> dict:
    """Line specs ``[(word texts, ncolor, fontname), ...]`` → word dicts
    laid out top-down at a 6 pt pitch, handed over bottom-up, then
    assembled into the HorizontalBox model."""
    words = []
    for k, (texts, ncolor, fontname) in enumerate(lines):
        x, y1 = 72.0, 700.0 - 14.0 * k
        for t in texts:
            words.append({"text": t, "x0": x, "y0": y1 - 12.0,
                          "x1": x + 6.0 * len(t), "y1": y1,
                          "ncolor": ncolor, "fontname": fontname})
            x += 6.0 * (len(t) + 1)
    return hbox_from_lines(assemble_textbox_lines({"words": words[::-1]}))


class TestTextModel:
    def test_join_conventions(self):
        hbox = _word_hbox(
            [
                (["hello", "world"], [0, 0, 0], "F1"),
                (["second", "line"], [0, 0, 0], "F1"),
            ]
        )
        assert hbox["text"] == "hello world\nsecond line"
        assert line_word_dicts(hbox["lines"][0])[1]["text"] == "world"

    def test_color_lifting_uniform(self):
        hbox = _word_hbox(
            [
                (["a", "b"], [1.0, 0, 0], "F1"),
                (["c"], [1.0, 0, 0], "F2"),
            ]
        )
        assert hbox["ncolor"] == (1.0, 0.0, 0.0)
        assert hbox["fontname"] is None  # mixed fonts do not lift

    def test_color_lifting_mixed(self):
        hbox = _word_hbox(
            [
                (["a"], [1.0, 0, 0], "F1"),
                (["b"], [0.0, 1.0, 0], "F1"),
            ]
        )
        assert hbox["ncolor"] is None
        assert hbox["lines"][0]["ncolor"] == (1.0, 0.0, 0.0)

    def test_trailing_newline_strip(self):
        assert textbox_text({"lines": [{"text": "x"}, {"text": ""}]}) == "x"


class TestHeaderFooter:
    def _cfg(self):
        return PipelineConfig(smart_page_crop=True)

    def test_repeating_header_removed(self):
        els = []
        for p in range(1, 6):
            els.append({"eid": f"h{p}", "page": p, "y0": 758.0, "y1": 770.0})
            els.append({"eid": f"b{p}", "page": p, "y0": 300.0 + p, "y1": 320.0 + p})
        removed = find_header_footer_eids(els, 5, 792.0, self._cfg())
        assert removed == {f"h{p}" for p in range(1, 6)}

    def test_single_occurrence_not_removed(self):
        els = [
            {"eid": "x", "page": 1, "y0": 758.0, "y1": 770.0},
            {"eid": "b", "page": 2, "y0": 300.0, "y1": 320.0},
            {"eid": "c", "page": 3, "y0": 400.0, "y1": 420.0},
            {"eid": "d", "page": 4, "y0": 200.0, "y1": 220.0},
        ]
        # appears on 1 of 4 pages < 30% → not a header
        removed = find_header_footer_eids(els, 4, 792.0, self._cfg())
        assert removed == set()

    def test_footer_band(self):
        els = []
        for p in range(1, 5):
            els.append({"eid": f"f{p}", "page": p, "y0": 40.0, "y1": 52.0})
            els.append({"eid": f"b{p}", "page": p, "y0": 300.0 + 7 * p, "y1": 330.0 + 7 * p})
        removed = find_header_footer_eids(els, 4, 792.0, self._cfg())
        assert removed == {f"f{p}" for p in range(1, 5)}


class TestLinks:
    def test_char_span_extraction(self):
        tb = {"x0": 72.0, "y0": 588.0, "x1": 72.0 + 11 * 6, "y1": 600.0, "text": "hello world"}
        annos = [
            {
                "x0": 72.0 + 6 * 6 + 1,
                "y0": 588.0,
                "x1": 72.0 + 11 * 6 - 1,
                "y1": 600.0,
                "dest_page": 2,
                "dest_x": 72.0,
                "dest_y": 600.0,
                "dest_name": "",
            }
        ]
        links = extract_links_for_textbox(tb, annos)
        assert len(links) == 1
        assert links[0]["anchor"] == "world"
        assert (links[0]["idx_start"], links[0]["idx_stop"]) == (6, 11)

    def test_contains_coord_tolerance(self):
        # target tolerance: 65pt leftward/upward (parameters.py:116)
        assert contains_coord((100, 500, 200, 520), 1, 1, 40, 580, 65.0)
        assert not contains_coord((100, 500, 200, 520), 1, 1, 34, 520, 65.0)
        assert not contains_coord((100, 500, 200, 520), 2, 1, 150, 510, 65.0)


class TestBboxAndTables:
    def test_inside_any_margin(self):
        regions = as_bbox_array([{"x0": 100, "y0": 100, "x1": 200, "y1": 200}])
        boxes = as_bbox_array(
            [
                {"x0": 95, "y0": 95, "x1": 205, "y1": 205},  # inside with margin 8
                {"x0": 80, "y0": 80, "x1": 210, "y1": 210},  # sticks out
            ]
        )
        got = inside_any(regions, boxes, margin=8.0)
        assert got.tolist() == [True, False]

    def test_union(self):
        arr = as_bbox_array(
            [{"x0": 5, "y0": 1, "x1": 10, "y1": 4}, {"x0": 2, "y0": 2, "x1": 8, "y1": 9}]
        )
        assert union_bbox(arr) == (2, 1, 10, 9)

    def _grid_segments(self, row_edges, col_edges, missing_v=()):
        segs = []
        for y in row_edges:
            segs.append({"page": 1, "x0": col_edges[0], "y0": y,
                         "x1": col_edges[-1], "y1": y})
        n_bands = len(row_edges) - 1
        for ci, x in enumerate(col_edges):
            bands = [b for b in range(n_bands) if (b, ci) not in missing_v]
            run = []
            for b in bands:
                if run and b != run[-1] + 1:
                    segs.append({"page": 1, "x0": x, "y0": row_edges[run[-1] + 1],
                                 "x1": x, "y1": row_edges[run[0]]})
                    run = []
                run.append(b)
            if run:
                segs.append({"page": 1, "x0": x, "y0": row_edges[run[-1] + 1],
                             "x1": x, "y1": row_edges[run[0]]})
        return segs

    def test_detect_grid_full(self):
        # 2×2 grid detected from raw segments with sub-snap jitter
        segs = self._grid_segments([600.0, 570.0, 540.0], [72.0, 172.0, 272.0])
        segs[0]["y0"] = segs[0]["y1"] = 600.8  # jitter < snap_tolerance
        grids = detect_table_grids(segs)
        assert len(grids) == 1
        g = grids[0]
        assert g["n_rows"] == 2 and g["n_cols"] == 2
        assert [round(v) for v in g["row_edges"]] == [601, 570, 540]
        assert [(c["row"], c["col"]) for c in g["cells"]] == [
            (1, 1), (1, 2), (2, 1), (2, 2)
        ]

    def test_detect_grid_merged_cell(self):
        # missing interior v-edge in the top band → (1,1) spans both cols
        segs = self._grid_segments(
            [600.0, 570.0, 540.0], [72.0, 172.0, 272.0], missing_v={(0, 1)}
        )
        g = detect_table_grids(segs)[0]
        cells = {(c["row"], c["col"]): c for c in g["cells"]}
        assert set(cells) == {(1, 1), (2, 1), (2, 2)}
        assert cells[(1, 1)]["x1"] == 272.0  # spans to the outer edge

    def test_detect_two_disjoint_grids(self):
        # nested/disjoint grids form separate connected components
        a = self._grid_segments([600.0, 570.0], [72.0, 172.0])
        bb = self._grid_segments([560.0, 530.0], [300.0, 400.0])
        grids = detect_table_grids(a + bb)
        assert len(grids) == 2
        assert grids[0]["row_edges"][0] > grids[1]["row_edges"][0]

    def test_table_from_grid_crops_words(self):
        cfg = PipelineConfig()
        segs = self._grid_segments([600.0, 570.0, 540.0], [72.0, 172.0, 272.0])
        g = detect_table_grids(segs)[0]
        g["page"] = 1
        words = [
            {"text": "a", "x0": 75, "y0": 585, "x1": 81, "y1": 597,
             "ncolor": None, "fontname": None},
            {"text": "d", "x0": 175, "y0": 555, "x1": 181, "y1": 567,
             "ncolor": None, "fontname": None},
        ]
        table = table_from_grid(g, words, cfg)
        assert table["text"] == "a\t\n\td"
        texts = {(c["row"], c["col"]): c["text"] for c in table["cells"]}
        assert texts == {(1, 1): "a", (1, 2): "", (2, 1): "", (2, 2): "d"}
        assert table["bbox"] == (72.0, 540.0, 272.0, 600.0)


class TestExamEqualShortcut:
    """chapter_examiner's exact-match short-circuit must be winner-identical
    to the full referee across randomized exact / fuzzy / tied scenarios."""

    def test_randomized_equivalence(self):
        import random

        from libpdf_ray.kernels.chapters import chapter_examiner

        rng = random.Random(1234)
        titles = ["Setup Guide", "Install Steps", "Overview", "Appendix B"]
        for trial in range(400):
            number = rng.choice(["1.2", "3", "virt.2", "virt.1.3", "2.a"])
            title = rng.choice(titles)
            chapter = {
                "number": number,
                "title": title,
                "content": [],
                "position": {
                    "page": 1,
                    "x0": 72.0,
                    "y1": rng.uniform(100, 700),
                },
            }
            boxes = []
            for _ in range(rng.randint(1, 7)):
                kind = rng.random()
                if kind < 0.35:
                    text = f"{number} {title}"      # content-exact
                elif kind < 0.55:
                    text = title                     # title-exact
                elif kind < 0.7:
                    text = title[:-2] + "x"          # near-miss
                elif kind < 0.8:
                    text = number                    # standalone number
                else:
                    text = rng.choice(
                        ["lorem ipsum dolor", "2.9", "other heading text"]
                    )
                y1 = rng.uniform(50, 750)
                x0 = rng.uniform(40, 200)
                boxes.append(
                    {
                        "x0": x0,
                        "y0": y1 - 12,
                        "x1": x0 + 150,
                        "y1": y1,
                        "text": text,
                    }
                )
            args = (chapter, boxes, 612.0, 792.0)
            fast = chapter_examiner(*args)
            # fresh box dicts: the memo key must not leak between variants
            boxes2 = [dict(b) for b in boxes]
            slow = chapter_examiner(
                chapter, boxes2, 612.0, 792.0, use_exact_shortcut=False
            )
            assert fast == slow, (trial, number, title, [b["text"] for b in boxes], fast, slow)


class TestSharedTableAssembly:
    """assemble_word_lines over ONE flat table: one call for every box
    must give what a call per box gives — including styled words and
    multi-line boxes."""

    def _shared_table(self):
        import numpy as np

        # three boxes: 2-line plain, styled one-liner, empty
        text = np.array(
            ["alpha", "beta", "gamma", "delta", "RED", "WORD"], dtype=object
        )
        x0 = np.array([0.0, 30.0, 0.0, 30.0, 0.0, 30.0])
        x1 = x0 + 25.0
        y0 = np.array([700.0, 700.0, 680.0, 680.0, 500.0, 500.0])
        y1 = y0 + 12.0
        ncolor = np.array(
            [None, None, None, None, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
            dtype=object,
        )
        font = np.array(
            [None, None, None, None, "Bold", "Bold"], dtype=object
        )
        shared = {
            "text": text, "x0": x0, "y0": y0, "x1": x1, "y1": y1,
            "ncolor": ncolor, "fontname": font,
        }
        import numpy as np

        shared["_has_color"] = np.array([c is not None for c in ncolor])
        shared["_has_font"] = np.array([bool(f) for f in font])
        bounds = [(0, 4), (4, 6), (6, 6)]
        return shared, bounds

    def _strip_wt(self, lines):
        out = []
        for ln in lines:
            out.append({k: v for k, v in ln.items()
                        if k not in ("_wt", "_idx", "words")})
        return out

    def test_one_call_equals_per_box_calls(self):
        from libpdf_ray.kernels.textmodel import assemble_word_lines, word_box_table

        shared, bounds = self._shared_table()
        boxes = [{"wordtab": (shared, lo, hi)} for lo, hi in bounds]
        got = assemble_word_lines(*word_box_table(boxes))
        want = [assemble_textbox_lines(tb) for tb in boxes]
        assert [self._strip_wt(b) for b in got] == [
            self._strip_wt(b) for b in want
        ]
        # styled box lifted; plain box lifted to None
        assert got[0][0]["ncolor"] is None
        assert got[1][0]["ncolor"] == (1.0, 0.0, 0.0)
        assert got[1][0]["fontname"] == "Bold"
        assert got[2] == []
        # two lines in box 0, y-descending, words x-sorted
        assert [ln["text"] for ln in got[0]] == ["alpha beta", "gamma delta"]

    def test_lazy_word_dicts_from_shared(self):
        from libpdf_ray.kernels.textmodel import assemble_word_lines, word_box_table

        shared, bounds = self._shared_table()
        lines = assemble_word_lines(
            *word_box_table([{"wordtab": (shared, lo, hi)} for lo, hi in bounds])
        )
        words = line_word_dicts(lines[1][0])
        assert [w["text"] for w in words] == ["RED", "WORD"]
        assert words[0]["ncolor"] == (1.0, 0.0, 0.0)
        assert words[0]["x0"] == 0.0 and words[1]["x0"] == 30.0
