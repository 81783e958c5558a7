"""Unit tests for the round-2 raw-layout and catalog kernels:

- char→word→line assembly (libpdf/utils.py:467-631 semantics)
- word-level style lifting (horizontal_box.py:85-92,137-144,190-196;
  reference tests/test_word_colors.py:7-143)
- Names/Kids tree flattening (catalog.py:25-133)
- First/Next outline walk incl. named dests and non-GoTo skip
  (catalog.py:230-373)
"""

from __future__ import annotations

from libpdf_ray.kernels.catalog import (
    flatten_names_tree,
    resolve_catalog,
    walk_outline,
)
from libpdf_ray.kernels.textmodel import (
    assemble_textbox_lines,
    hbox_from_lines,
    line_word_dicts,
)


def _word(text, x0, y1, ncolor=None, fontname=None, h=12.0):
    return {
        "text": text, "x0": x0, "y0": y1 - h, "x1": x0 + 6.0 * len(text),
        "y1": y1, "ncolor": ncolor, "fontname": fontname,
    }


def _char(ch, x0, y1, ncolor=None, fontname=None):
    return _word(ch, x0, y1, ncolor, fontname)


class TestWordAssembly:
    def test_shuffled_words_regroup_into_lines(self):
        # two lines, words supplied in scrambled order
        tb = {
            "words": [
                _word("world", 108, 600),
                _word("line", 102, 588),
                _word("hello", 72, 600),
                _word("second", 60, 588),
            ]
        }
        lines = assemble_textbox_lines(tb)
        assert [ln["text"] for ln in lines] == ["hello world", "second line"]

    def test_y_tolerance_quirk(self):
        # the reference passes line_overlap=0.5 POINTS as the absolute y
        # tolerance: centers 0.4pt apart group, 0.6pt apart do not
        tb_close = {"words": [_word("a", 72, 600.0), _word("b", 90, 600.4)]}
        tb_far = {"words": [_word("a", 72, 600.0), _word("b", 90, 600.6)]}
        assert [ln["text"] for ln in assemble_textbox_lines(tb_close)] == ["a b"]
        assert len(assemble_textbox_lines(tb_far)) == 2

    def test_chars_assemble_to_words_by_gap(self):
        # "ab cd": chars contiguous within words, one char-width gap between
        chars = [
            _char("a", 72, 600), _char("b", 78, 600),
            _char("c", 90, 600), _char("d", 96, 600),
        ]
        tb = {"chars": list(reversed(chars))}
        lines = assemble_textbox_lines(tb)
        assert [ln["text"] for ln in lines] == ["ab cd"]
        assert [w["text"] for w in line_word_dicts(lines[0])] == ["ab", "cd"]

    def test_small_gap_does_not_split_word(self):
        # gap 0.5pt < word_margin(0.1) × width(6) = 0.6 → same word
        chars = [_char("a", 72, 600), _char("b", 78.5, 600)]
        lines = assemble_textbox_lines({"chars": chars})
        assert [w["text"] for w in line_word_dicts(lines[0])] == ["ab"]

    def test_explicit_space_char_splits(self):
        chars = [_char("a", 72, 600), _char(" ", 78, 600), _char("b", 84, 600)]
        lines = assemble_textbox_lines({"chars": chars})
        assert lines[0]["text"] == "a b"


class TestStyleLifting:
    def test_word_styles_survive_and_line_does_not_lift(self):
        tb = {
            "words": [
                _word("red", 72, 600, ncolor=[1.0, 0, 0], fontname="F1"),
                _word("black", 100, 600, ncolor=[0.0, 0, 0], fontname="F1"),
            ]
        }
        lines = assemble_textbox_lines(tb)
        assert lines[0]["ncolor"] is None  # mixed → no lift
        assert lines[0]["fontname"] == "F1"  # uniform → lifts
        assert line_word_dicts(lines[0])[0]["ncolor"] == (1.0, 0.0, 0.0)
        assert line_word_dicts(lines[0])[1]["ncolor"] == (0.0, 0.0, 0.0)

    def test_box_level_lift(self):
        tb = {
            "words": [
                _word("a", 72, 600, ncolor=[0, 0, 1.0]),
                _word("b", 72, 588, ncolor=[0, 0, 1.0]),
            ]
        }
        hbox = hbox_from_lines(assemble_textbox_lines(tb))
        assert hbox["ncolor"] == (0.0, 0.0, 1.0)

    def test_char_styles_lift_into_words(self):
        chars = [
            _char("a", 72, 600, ncolor=[1.0, 0, 0]),
            _char("b", 78, 600, ncolor=[1.0, 0, 0]),
            _char("c", 90, 600, ncolor=[0.0, 1.0, 0]),
        ]
        lines = assemble_textbox_lines({"chars": chars})
        words = line_word_dicts(lines[0])
        assert words[0]["ncolor"] == (1.0, 0.0, 0.0)
        assert words[1]["ncolor"] == (0.0, 1.0, 0.0)
        assert lines[0]["ncolor"] is None


class TestNamesTree:
    def test_kids_recursion(self):
        nodes = [
            {"node_id": 0, "kids": [1, 2], "names": []},
            {"node_id": 1, "kids": [3], "names": []},
            {"node_id": 2, "kids": [],
             "names": [{"name": "b", "page": 2, "x": 10.0, "y": 20.0}]},
            {"node_id": 3, "kids": [],
             "names": [{"name": "a", "page": 1, "x": 5.0, "y": 6.0}]},
        ]
        assert flatten_names_tree(nodes) == {
            "a": (1, 5.0, 6.0),
            "b": (2, 10.0, 20.0),
        }

    def test_cycle_guard(self):
        nodes = [
            {"node_id": 0, "kids": [1], "names": []},
            {"node_id": 1, "kids": [0],
             "names": [{"name": "x", "page": 1, "x": 0.0, "y": 0.0}]},
        ]
        assert flatten_names_tree(nodes) == {"x": (1, 0.0, 0.0)}

    def test_empty(self):
        assert flatten_names_tree([]) == {}


def _node(nid, first, nxt, title, kind="explicit", page=1, x=72.0, y=600.0,
          name=""):
    return {
        "node_id": nid, "first": first, "next": nxt, "title": title,
        "dest_kind": kind, "dest_page": page, "dest_x": x, "dest_y": y,
        "dest_name": name,
    }


class TestOutlineWalk:
    def test_first_next_nesting(self):
        # 1 → (1.1, 1.2), 2
        nodes = [
            _node(0, 1, 3, "One"),
            _node(1, -1, 2, "One-one", y=500.0),
            _node(2, -1, -1, "One-two", y=400.0),
            _node(3, -1, -1, "Two", page=2),
        ]
        tree = walk_outline(nodes, 0, {})
        assert [n["title"] for n in tree] == ["One", "Two"]
        assert [n["path"] for n in tree] == ["1", "2"]
        kids = tree[0]["content"]
        assert [n["path"] for n in kids] == ["1.1", "1.2"]
        assert kids[0]["position"]["y1"] == 500.0

    def test_named_dest_resolution(self):
        nodes = [_node(0, -1, -1, "N", kind="named", page=0, x=0, y=0,
                       name="sec")]
        tree = walk_outline(nodes, 0, {"sec": (3, 70.0, 650.0)})
        assert tree[0]["position"] == {"page": 3, "x0": 70.0, "y1": 650.0}

    def test_unknown_name_skips_node(self):
        nodes = [_node(0, -1, -1, "N", kind="named", name="missing")]
        assert walk_outline(nodes, 0, {}) == []

    def test_external_action_children_nest_under_previous_sibling(self):
        # reference resolve_outline: a skipped (non-GoTo) node's First
        # children land in outline_list[-1]['content'] (catalog.py:365-371)
        nodes = [
            _node(0, -1, 1, "One"),
            _node(1, 2, -1, "External", kind="external"),
            _node(2, -1, -1, "Child", y=300.0),
        ]
        tree = walk_outline(nodes, 0, {})
        assert [n["title"] for n in tree] == ["One"]
        assert [n["title"] for n in tree[0]["content"]] == ["Child"]
        assert tree[0]["content"][0]["path"] == "1.1"

    def test_empty_outline(self):
        assert walk_outline([], -1, {}) == []
        assert walk_outline([], 0, {}) == []


def test_resolve_catalog_end_to_end():
    doc = {
        "names_nodes": [
            {"node_id": 0, "kids": [1, 2], "names": []},
            {"node_id": 1, "kids": [],
             "names": [{"name": "s1", "page": 1, "x": 72.0, "y": 600.0}]},
            {"node_id": 2, "kids": [], "names": []},
        ],
        "outline_nodes": [
            _node(0, -1, -1, "Via name", kind="named", name="s1"),
        ],
        "outline_root": 0,
    }
    tree, named = resolve_catalog(doc)
    assert named == {"s1": (1, 72.0, 600.0)}
    assert tree[0]["position"]["page"] == 1


class TestTextboxGrouping:
    """pdfminer group_textlines semantics (the reference's LA step,
    textbox.py:934-977, LA_PARAMS line_margin=0.4)."""

    def _lines(self, *y1s, h=12.0):
        return [
            {"text": f"line{i}", "ncolor": None, "fontname": None,
             "x0": 72.0, "y0": y1 - h, "x1": 172.0, "y1": y1, "words": []}
            for i, y1 in enumerate(y1s)
        ]

    def test_adjacent_lines_group(self):
        from libpdf_ray.kernels.textmodel import group_lines_into_boxes

        # gap 0 between consecutive 12pt lines → one box
        boxes = group_lines_into_boxes(self._lines(600.0, 588.0, 576.0))
        assert len(boxes) == 1
        assert [ln["text"] for ln in boxes[0]["lines"]] == ["line0", "line1", "line2"]
        assert boxes[0]["y1"] == 600.0 and boxes[0]["y0"] == 564.0

    def test_gap_above_margin_splits(self):
        from libpdf_ray.kernels.textmodel import group_lines_into_boxes

        # gap 10pt > 0.4 × 12 = 4.8 → split
        boxes = group_lines_into_boxes(self._lines(600.0, 588.0, 566.0))
        assert [len(b["lines"]) for b in boxes] == [2, 1]

    def test_gap_below_margin_joins(self):
        from libpdf_ray.kernels.textmodel import group_lines_into_boxes

        # gap 4pt < 4.8 → same box
        boxes = group_lines_into_boxes(self._lines(600.0, 584.0))
        assert len(boxes) == 1

    def test_rawpage_family_end_to_end(self):
        from libpdf_ray.config import SMART_CROP_CONFIG
        from libpdf_ray.fixtures import build_document
        from libpdf_ray.kernels.document import extract_document

        for i in (14, 28, 42):
            doc = build_document(i, "rawpage")
            # soup + (even doc index) the planted boilerplate blurb box
            assert len(doc["textboxes"]) == 2
            assert doc["textboxes"][0]["ungrouped"] is True
            assert doc["textboxes"][1].get("ungrouped") is None
            assert extract_document(doc, SMART_CROP_CONFIG) == doc["expected_spans"]


class TestRawAnnotResolution:
    """resolve_raw_annotations — the engine analog of
    annotation_dict_extraction/update_ann_info (libpdf/catalog.py:403-583)."""

    PAGES = [
        {"number": 1, "obj_id": 900, "width": 612.0, "height": 792.0},
        {"number": 2, "obj_id": 850, "width": 612.0, "height": 700.0},
    ]

    @staticmethod
    def _ann(**kw):
        base = {
            "page": 1, "x0": 10.0, "y0": 10.0, "x1": 50.0, "y1": 22.0,
            "subtype": "Link", "encoding": "dest", "action_type": "",
            "dest_kind": "xyz", "dest_page_obj": 850, "dest_x": 5.0,
            "dest_y": 6.0, "dest_name": "",
        }
        base.update(kw)
        return base

    def test_xyz_dest_resolves_page_by_object_id(self):
        from libpdf_ray.kernels.catalog import resolve_raw_annotations

        out = resolve_raw_annotations([self._ann()], self.PAGES)
        assert out == [
            {"page": 1, "x0": 10.0, "y0": 10.0, "x1": 50.0, "y1": 22.0,
             "dest_page": 2, "dest_x": 5.0, "dest_y": 6.0, "dest_name": ""}
        ]

    def test_fit_dest_falls_back_to_target_page_top(self):
        from libpdf_ray.kernels.catalog import resolve_raw_annotations

        out = resolve_raw_annotations(
            [self._ann(dest_kind="fit", dest_x=99.0, dest_y=99.0)], self.PAGES
        )
        assert out[0]["dest_x"] == 0.0
        assert out[0]["dest_y"] == 700.0  # MediaBox top of page obj 850

    def test_goto_action_and_direct_dest_resolve_identically(self):
        from libpdf_ray.kernels.catalog import resolve_raw_annotations

        via_dest = resolve_raw_annotations([self._ann()], self.PAGES)
        via_action = resolve_raw_annotations(
            [self._ann(encoding="action", action_type="GoTo")], self.PAGES
        )
        assert via_dest == via_action

    def test_non_goto_action_is_skipped(self):
        from libpdf_ray.kernels.catalog import resolve_raw_annotations

        anns = [self._ann(encoding="action", action_type="URI",
                          dest_name="https://x.invalid")]
        assert resolve_raw_annotations(anns, self.PAGES) == []

    def test_non_link_subtype_is_skipped(self):
        from libpdf_ray.kernels.catalog import resolve_raw_annotations

        assert resolve_raw_annotations(
            [self._ann(subtype="Square")], self.PAGES
        ) == []

    def test_named_dest_passes_through(self):
        from libpdf_ray.kernels.catalog import resolve_raw_annotations

        out = resolve_raw_annotations(
            [self._ann(dest_kind="named", dest_name="sec2")], self.PAGES
        )
        assert out[0]["dest_name"] == "sec2"
        assert out[0]["dest_page"] == 0

    def test_dangling_page_object_reference_dropped(self):
        from libpdf_ray.kernels.catalog import resolve_raw_annotations

        assert resolve_raw_annotations(
            [self._ann(dest_page_obj=12345)], self.PAGES
        ) == []


class TestPseudoAnnoCleanup:
    """delete_page_ann analog (libpdf/extract.py:446-486): layout-analysis
    pseudo whitespace glyphs with NaN geometry are deleted before
    assembly; REAL space chars (with boxes) still split words."""

    def test_pseudo_glyphs_deleted_dict_path(self):
        nan = float("nan")
        chars = [_char("a", 0.0, 12.0), _char("b", 6.0, 12.0)]
        chars.insert(1, {"text": " ", "x0": nan, "y0": nan, "x1": nan,
                         "y1": nan, "ncolor": None, "fontname": None})
        chars.append({"text": "\n", "x0": nan, "y0": nan, "x1": nan,
                      "y1": nan, "ncolor": None, "fontname": None})
        lines = assemble_textbox_lines({"chars": chars})
        assert [ln["text"] for ln in lines] == ["ab"]

    def test_pseudo_glyphs_deleted_array_path(self):
        import numpy as np

        from libpdf_ray.kernels.textmodel import assemble_glyph_lines

        nan = float("nan")
        wt = {
            "text": ["a", " ", "b", "\n"],
            "x0": np.array([0.0, nan, 6.0, nan]),
            "y0": np.array([0.0, nan, 0.0, nan]),
            "x1": np.array([6.0, nan, 12.0, nan]),
            "y1": np.array([12.0, nan, 12.0, nan]),
            "ncolor": [None] * 4,
            "fontname": [None] * 4,
        }
        lines = assemble_glyph_lines(wt)
        assert [ln["text"] for ln in lines] == ["ab"]

    def test_real_space_char_with_geometry_survives(self):
        # an explicit space char WITH a box is a word break, not noise
        chars = [_char("a", 0.0, 12.0), _char(" ", 6.0, 12.0),
                 _char("b", 12.0, 12.0)]
        lines = assemble_textbox_lines({"chars": chars})
        assert [ln["text"] for ln in lines] == ["a b"]


def test_outline_nesting_duplicate_key_takes_first_chapter():
    """Two outline nodes with the same (title, number) both nest the FIRST
    chapter carrying that key; a later duplicate chapter is never placed."""
    from libpdf_ray.kernels.document import _map_elements_outline

    def chapter(title, number, y1):
        return {"etype": "chapter", "title": title, "number": number,
                "page": 1, "y0": y1 - 10, "y1": y1}

    def node(title, number, content=()):
        return {"title": title, "number": number, "content": list(content),
                "position": {"page": 1, "y1": 800.0}}

    intro, sub, other = (chapter("Intro", "1", 790), chapter("Sub", "1.1", 700),
                         chapter("Other", "1.2", 600))
    intro_dup = chapter("Intro", "1", 500)
    para = {"etype": "paragraph", "page": 1, "y0": 440, "y1": 450}
    outline = [node("Intro", "1", [node("Sub", "1.1")]),
               node("Intro", "1", [node("Other", "1.2")])]

    out = _map_elements_outline([intro, sub, other, intro_dup, para], outline, 0.0)
    assert len(out) == 2 and out[0] is intro and out[1] is intro
    assert len(intro["content"]) == 2
    assert intro["content"][0] is sub and intro["content"][1] is other
    # the duplicate chapter kept its own filled content but is not nested
    assert intro_dup["content"] == [para]
    assert all(el is not intro_dup for el in out)
