"""Arrow schemas for the engine's tables.

The canonical corpus shape follows ``BASELINE.json`` ``input_hint``::

    documents (doc_id: string,
               spans: list<struct<kind, text, media_ref: string, offset: int32>>)

The raw-document *sidecar* table is the pipeline input: the synthetic
interleaved document source that mimics what the reference reads out of a PDF
(SURVEY.md §1.3, FIXTURES.md §2).  One row per document, so a document never
spans two blocks and all reference semantics stay intra-row.

Schema v2 (round 2) — the sidecar is RAWER than round 1, so the engine, not
the generator, performs the hard reference operators:

- textboxes carry per-word boxes+styles (``words``) or per-char boxes
  (``chars``), NOT assembled lines: y-center line grouping, word-margin word
  assembly and style lifting (libpdf/utils.py:467-631,
  models/horizontal_box.py:6-211) are engine kernels now.
- tables arrive as raw line ``segments``; the lines-strategy grid detection
  (snap/join clustering, cell construction incl. merged cells,
  libpdf/tables.py:49-145 settings at tables.py:62-79) runs in the engine,
  and cell text is cropped from the page's words (tables.py:237-263).
- the outline arrives as a First/Next linked node list and named
  destinations as a Names/Kids tree (libpdf/catalog.py:25-133,230-373);
  the engine walks both.
- ``meta`` carries the full FileMeta surface incl. subject/keywords/
  modified_date/trapped (libpdf/models/file_meta.py:15-64).

Schema v6 (round 3) — annotations arrive RAW: one struct per page annot
object (any subtype, action/dest encodings, unresolved page-object dest
refs).  The engine performs the reference's full annotation resolution
(libpdf/catalog.py:403-583) including the Link/GoTo filters and the
explicit-dest page-object→page-number lookup via ``pages[].obj_id``; chars
streams may carry pdfminer pseudo-``anno`` whitespace glyphs with no
geometry, which the engine deletes (libpdf/extract.py:446-486).

Schema v7 (round 3) — generator-as-oracle columns for the style views
(``expected_text_styles`` / ``expected_rect_styles``), and the corpus plants
a fixed cross-document boilerplate paragraph in every even-indexed document
so corpus-level boilerplate detection has a non-trivial oracle.

``expected_spans`` / ``expected_cells`` (and the other ``expected_*``
columns) are generator-as-oracle columns used ONLY by tests and DuckDB
oracle queries — the pipeline's column pruning never reads them.
"""

from __future__ import annotations

import pyarrow as pa

#: bump when the sidecar layout changes — cache markers and corpus dirs
#: embed this so stale fixture caches are never reused across rounds
SCHEMA_VERSION = 7

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

SPANS_TYPE = pa.list_(SPAN_STRUCT)

#: the span rows every extraction path emits (``extract_spans``,
#: ``extract_spans_fused``, ``extract_spans_split``) and every span file of
#: a resumable run holds (``run_resumable``, for every input format);
#: ``error`` is empty unless the document raised
SPANS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", SPANS_TYPE),
        ("n_spans", pa.int32()),
        ("est_pages", pa.int32()),
        ("error", pa.string()),
    ]
)

#: one positioned glyph run: a word (text = the word) or a char (text = one
#: glyph).  ncolor/fontname are per-run — mixed styles inside one line are
#: representable (reference tests/test_word_colors.py:7-143)
WORD_STRUCT = pa.struct(
    [
        ("text", pa.string()),
        ("x0", pa.float64()),
        ("y0", pa.float64()),
        ("x1", pa.float64()),
        ("y1", pa.float64()),
        ("ncolor", pa.list_(pa.float64())),
        ("fontname", pa.string()),
    ]
)

EXPECTED_LINK_STRUCT = pa.struct(
    [
        ("source_uid", pa.string()),
        ("source_kind", pa.string()),
        ("row", pa.int32()),
        ("col", pa.int32()),
        ("idx_start", pa.int32()),
        ("idx_stop", pa.int32()),
        ("anchor", pa.string()),
        ("target", pa.string()),
    ]
)

EXPECTED_CELL_STRUCT = pa.struct(
    [
        ("page", pa.int32()),
        ("table_idx", pa.int32()),
        ("row", pa.int32()),
        ("col", pa.int32()),
        ("text", pa.string()),
    ]
)

#: generator-as-oracle rows for the ``elements`` view (ApiObjects analog):
#: uid paths + per-element identity, derived by the generator from its own
#: placement knowledge (outline paths, placement order, link targets)
EXPECTED_ELEMENT_STRUCT = pa.struct(
    [
        ("uid", pa.string()),
        ("etype", pa.string()),
        ("page", pa.int32()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("n_links", pa.int32()),
    ]
)

#: generator-as-oracle rows for the ``text_styles`` view: one row per word
#: with line/box lifted attributes, derived from the generator's OWN style
#: knowledge (the styles it printed each word with, plus the uniform-or-None
#: lift rule) — never from the engine's assembly
EXPECTED_TEXT_STYLE_STRUCT = pa.struct(
    [
        ("page", pa.int32()),
        ("box_idx", pa.int32()),
        ("line_idx", pa.int32()),
        ("word_idx", pa.int32()),
        ("word_text", pa.string()),
        ("word_ncolor_r", pa.float64()),
        ("word_ncolor_g", pa.float64()),
        ("word_ncolor_b", pa.float64()),
        ("word_fontname", pa.string()),
        ("line_ncolor_r", pa.float64()),
        ("line_ncolor_g", pa.float64()),
        ("line_ncolor_b", pa.float64()),
        ("line_fontname", pa.string()),
        ("box_ncolor_r", pa.float64()),
        ("box_ncolor_g", pa.float64()),
        ("box_ncolor_b", pa.float64()),
        ("box_fontname", pa.string()),
    ]
)

#: generator-as-oracle rows for the ``rect_styles`` view: raw rect geometry
#: + fill color + the text the engine must crop out of the rect region
EXPECTED_RECT_STYLE_STRUCT = pa.struct(
    [
        ("page", pa.int32()),
        ("x0", pa.float64()),
        ("y0", pa.float64()),
        ("x1", pa.float64()),
        ("y1", pa.float64()),
        ("ncolor_r", pa.float64()),
        ("ncolor_g", pa.float64()),
        ("ncolor_b", pa.float64()),
        ("text", pa.string()),
    ]
)

RAW_DOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("family", pa.string()),
        ("est_pages", pa.int32()),
        (
            "meta",
            pa.struct(
                [
                    ("author", pa.string()),
                    ("title", pa.string()),
                    ("subject", pa.string()),
                    ("creator", pa.string()),
                    ("producer", pa.string()),
                    ("keywords", pa.string()),
                    ("creation_date", pa.timestamp("s")),
                    ("modified_date", pa.timestamp("s")),
                    ("trapped", pa.bool_()),
                ]
            ),
        ),
        (
            "pages",
            pa.list_(
                pa.struct(
                    [
                        ("number", pa.int32()),
                        # raw PDF page OBJECT id — explicit annot dests
                        # reference pages by object id, not page number
                        # (libpdf/catalog.py:384-389 pageid scan); the
                        # engine builds the obj_id→number map itself
                        ("obj_id", pa.int32()),
                        ("width", pa.float64()),
                        ("height", pa.float64()),
                    ]
                )
            ),
        ),
        (
            "textboxes",
            pa.list_(
                pa.struct(
                    [
                        ("page", pa.int32()),
                        ("x0", pa.float64()),
                        ("y0", pa.float64()),
                        ("x1", pa.float64()),
                        ("y1", pa.float64()),
                        # exactly one of words/chars is set; word/char order
                        # is NOT meaningful — the engine re-derives reading
                        # order from geometry (generator shuffles them)
                        ("words", pa.list_(WORD_STRUCT)),
                        ("chars", pa.list_(WORD_STRUCT)),
                        # True → the runs are an UNGROUPED page region:
                        # the engine must also cluster the assembled lines
                        # into textboxes (pdfminer group_textlines,
                        # line_margin semantics)
                        ("ungrouped", pa.bool_()),
                    ]
                )
            ),
        ),
        # raw PDF outline: First/Next linked nodes (catalog.py:230-373).
        # dest_kind ∈ {explicit, named, action_explicit, action_named,
        # external}; ``external`` = non-GoTo action (node skipped, children
        # nest under the previous emitted sibling — reference behavior)
        (
            "outline_nodes",
            pa.list_(
                pa.struct(
                    [
                        ("node_id", pa.int32()),
                        ("first", pa.int32()),  # -1 = no child
                        ("next", pa.int32()),  # -1 = no sibling
                        ("title", pa.string()),
                        ("dest_kind", pa.string()),
                        ("dest_page", pa.int32()),
                        ("dest_x", pa.float64()),
                        ("dest_y", pa.float64()),
                        ("dest_name", pa.string()),
                    ]
                )
            ),
        ),
        ("outline_root", pa.int32()),  # node_id of first top-level entry; -1 = none
        # raw Names/Dests tree (catalog.py:25-133): interior nodes carry
        # Kids, leaves carry Names
        (
            "names_nodes",
            pa.list_(
                pa.struct(
                    [
                        ("node_id", pa.int32()),
                        ("kids", pa.list_(pa.int32())),
                        (
                            "names",
                            pa.list_(
                                pa.struct(
                                    [
                                        ("name", pa.string()),
                                        ("page", pa.int32()),
                                        ("x", pa.float64()),
                                        ("y", pa.float64()),
                                    ]
                                )
                            ),
                        ),
                    ]
                )
            ),
        ),
        (
            "rects",
            pa.list_(
                pa.struct(
                    [
                        ("page", pa.int32()),
                        ("x0", pa.float64()),
                        ("y0", pa.float64()),
                        ("x1", pa.float64()),
                        ("y1", pa.float64()),
                        ("non_stroking_color", pa.list_(pa.float64())),
                    ]
                )
            ),
        ),
        # raw rect/line segments for the lines-strategy table detector
        # (tables.py:49-145); orientation is inferred from geometry
        (
            "segments",
            pa.list_(
                pa.struct(
                    [
                        ("page", pa.int32()),
                        ("x0", pa.float64()),
                        ("y0", pa.float64()),
                        ("x1", pa.float64()),
                        ("y1", pa.float64()),
                    ]
                )
            ),
        ),
        (
            "figures",
            pa.list_(
                pa.struct(
                    [
                        ("page", pa.int32()),
                        ("x0", pa.float64()),
                        ("y0", pa.float64()),
                        ("x1", pa.float64()),
                        ("y1", pa.float64()),
                    ]
                )
            ),
        ),
        # RAW page annotation objects (schema v6) — the pre-resolution
        # encoding of what pdfminer hands the reference per page
        # (libpdf/catalog.py:403-583 update_ann_info /
        # annotation_dict_extraction).  The engine performs the whole
        # resolution itself: Link-subtype filter, GoTo-action filter
        # (non-GoTo = external target, skipped), explicit-dest page-object
        # lookup, Fit → page-top fallback, named-dest pass-through.
        #
        # encoding ∈ {action, dest}: the two mutually-exclusive PDF ways to
        #   carry a destination — an /A action dict vs a direct /Dest
        #   (catalog.py:424-425 "Key A and Dest can not coexist").
        # action_type: the /S name of the action ("GoTo", "URI", …); only
        #   meaningful when encoding == action.
        # dest_kind ∈ {xyz, fit, named}: explicit [page /XYZ x y zoom],
        #   explicit [page /Fit] (x := 0, y := dest page MediaBox top,
        #   catalog.py:393-398), or a name looked up in the Names tree.
        # dest_page_obj: raw page OBJECT id for explicit dests (-1 for
        #   named) — resolved against pages[].obj_id.
        (
            "raw_annots",
            pa.list_(
                pa.struct(
                    [
                        ("page", pa.int32()),
                        ("x0", pa.float64()),
                        ("y0", pa.float64()),
                        ("x1", pa.float64()),
                        ("y1", pa.float64()),
                        ("subtype", pa.string()),
                        ("encoding", pa.string()),
                        ("action_type", pa.string()),
                        ("dest_kind", pa.string()),
                        ("dest_page_obj", pa.int32()),
                        ("dest_x", pa.float64()),
                        ("dest_y", pa.float64()),
                        ("dest_name", pa.string()),
                    ]
                )
            ),
        ),
        ("expected_spans", SPANS_TYPE),
        ("expected_cells", pa.list_(EXPECTED_CELL_STRUCT)),
        ("expected_links", pa.list_(EXPECTED_LINK_STRUCT)),
        ("expected_elements", pa.list_(EXPECTED_ELEMENT_STRUCT)),
        ("expected_text_styles", pa.list_(EXPECTED_TEXT_STYLE_STRUCT)),
        ("expected_rect_styles", pa.list_(EXPECTED_RECT_STYLE_STRUCT)),
    ]
)
