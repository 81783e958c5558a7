"""Per-document extraction orchestrator: sidecar row → ordered span sequence.

This is the functional equivalent of the whole reference dataflow
``/root/reference/libpdf/extract.py:60-222`` (extract) +
``libpdf/process.py:189-394`` (merge, outline mapping) +
``libpdf/process.py:397-536`` (link target resolution), executed for ONE
document.  At dataset scale this function runs inside
``Dataset.map_batches`` (see ``libpdf_ray.stages.parse``); nothing in here
touches Ray, so the whole extraction semantics stay unit-testable.

The dataflow is factored into two phases so huge documents can be
page-split across workers (``pipelines.split``):

- :func:`prepare_pages` — everything page-local: textbox assembly and
  filtering, figure/rect/table region extraction, fuzzy chapter matching
  against the (deterministically numbered) outline, paragraph rendering
  with link char spans.  Embarrassingly parallel across page ranges.
- :func:`finish_document` — the light document-level tail: smart
  header/footer crop, global indices, reading-order merge, outline
  nesting, uid paths, link target resolution, span emission.

``extract_document_full`` = prepare(all pages) + finish on ONE catalog
walk (prepare adopts chapter numbers into the numbered outline tree that
finish nests on) — the reference's single-document semantics exactly
(the monolithic path applies the smart crop to figure/rect/table lists
inside prepare, preserving the reference's stage order; the split path
defers those crops to finish, which is observably identical unless
repeating page furniture is itself a figure/rect/table that overlaps
other regions).

Span conventions (the engine's span-sequence-equality contract; the fixture
generator derives expected spans from the same conventions):

- document order: reading-order merge sort by ``(page, page_height - y0)``
  (process.py:202-207), then outline nesting (process.py:223-294) walked
  pre-order; offsets are 0-based over the final sequence.
- kind=chapter  → text ``"{number} {title}"`` (number from the title regex or
  ``virt.*`` levels, catalog.py:177-227); ghost chapters included.
- kind=paragraph→ text = textbox text ('\\n'-joined lines, trailing newline
  stripped, textbox.py:128-133).
- kind=table   → text = rows joined with '\\n', cells joined with '\\t'
  (row-major, merged cells keep their empty slot).
- kind=figure  → text = '\\n'-joined texts of textboxes completely inside the
  figure bbox; media_ref = ``media/{doc_id}/page_{page}_figure.{k}.png`` with
  k the 1-based per-page index after filtering (extract.py:647).
- kind=rect    → text = '\\n'-joined texts of textboxes completely inside the
  rect bbox + 5pt offset (extract.py:662-731).
- kind=link    → emitted immediately after the span of the paragraph that
  carries the annotation, ordered by idx_start; text =
  ``"{anchor}->{target}"`` where target is the resolved hierarchical uid
  (element.py:62-81) or ``page.<n>/<x>:<y>`` fallback.  Cell links are
  resolved but not span-emitted; figure links stay unresolved
  (process.py:200-205).
"""

from __future__ import annotations

from ..config import PipelineConfig
from .catalog import resolve_catalog, resolve_raw_annotations
from .chapters import (
    assign_chapter_numbers,
    chapter_examiner,
    flatten_outline,
    ghost_chapter_bbox,
)
from .headerfooter import find_header_footer_eids
from .links import extract_links_for_textbox, find_target_uid, resolve_named_dest
from .regions import (
    boxes_completely_inside,
    detect_table_grids,
    filter_figures,
    table_from_grid,
    table_inside_any_figure,
    word_crop_text,
)
from .textmodel import (
    assemble_textbox_lines,
    assemble_word_lines,
    box_lines,
    group_lines_into_boxes_la,
    group_lines_into_boxes,
    is_whitespace_only,
    lay_out_word_boxes,
    textbox_text,
    textbox_word_dicts,
    word_box_table,
)


def _page_map(doc: dict) -> dict:
    return {int(p["number"]): p for p in (doc.get("pages") or [])}


def selected_pages(doc: dict, cfg: PipelineConfig) -> dict:
    """Page map after page-range selection (libpdf/core.py:536-553 +
    extract.py:98-120: unselected pages drop out of every stage)."""
    pages = _page_map(doc)
    if cfg.page_range:
        from .meta import parse_page_range

        sel = parse_page_range(cfg.page_range)
        pages = {n: p for n, p in pages.items() if n in sel}
    return pages


def _smart_crop(elements: list, n_pages: int, page_height: float, cfg) -> list:
    """Apply smart header/footer removal to one element-type list (the
    reference filters each type list separately, extract.py:150-188)."""
    if not elements:
        return elements
    hf = [
        {"eid": i, "page": el["page"], "y0": el["y0"], "y1": el["y1"]}
        for i, el in enumerate(elements)
    ]
    removed = find_header_footer_eids(hf, n_pages, page_height, cfg)
    return [el for i, el in enumerate(elements) if i not in removed]


def numbered_catalog(doc: dict, cfg: PipelineConfig) -> tuple:
    """ONE catalog walk → ``(outline tree, named destinations)``: the tree
    with deterministic chapter numbers (``[]`` under ``no_chapters``),
    walked from the RAW First/Next node encoding + Names tree
    (kernels.catalog) — a pure function of the catalog columns, so every
    page split derives the identical tree."""
    tree, named_dests = resolve_catalog(doc)
    if cfg.no_chapters:
        return [], named_dests
    assign_chapter_numbers(tree)
    return tree, named_dests


def numbered_outline(doc: dict, cfg: PipelineConfig) -> list:
    """The numbered outline tree of :func:`numbered_catalog`."""
    return [] if cfg.no_chapters else numbered_catalog(doc, cfg)[0]


def textbox_lines(tb: dict, cfg: PipelineConfig) -> list:
    """One raw textbox → its assembled line dicts: line grouping +
    word-margin word assembly + style lifting (utils.py:467-631), through
    :func:`assemble_textbox_lines`.  An ungrouped soup gets pdfminer's
    ``char_margin`` column rule; grouped boxes never do (their extent IS
    the line extent)."""
    char_margin = cfg.char_margin if tb.get("ungrouped") else 0.0
    return assemble_textbox_lines(
        tb, cfg.line_y_tolerance, cfg.word_margin, char_margin
    )


def prepare_pages(
    doc: dict,
    pages: dict,
    cfg: PipelineConfig,
    page_subset=None,
    defer_smart_crop: bool = False,
    outline=None,
) -> dict:
    """Phase 1: all page-local extraction for ``page_subset`` (default: all
    selected pages).  Returns plain lists/dicts, serialization-safe.

    ``outline`` is the document's numbered outline tree when the caller
    has walked the catalog already (:func:`numbered_catalog`); chapter
    numbers this phase adopts from the page are written into it in place.

    The laid-out textboxes stay on ``doc`` as ``doc["_textboxes"] = (cfg,
    {index in doc["textboxes"]: box})`` for the ``text_styles`` view
    (``stages/views.py``); a word box's lines are built only when read
    (:func:`textmodel.box_lines`)."""
    page_numbers = sorted(pages if page_subset is None else page_subset)
    subset = set(page_numbers)
    n_pages = len(pages)
    page_height = float(pages[sorted(pages)[0]]["height"])
    doc_id = doc["doc_id"]

    # -- textboxes: ENGINE layout assembly (words/chars → lines → text),
    # bucketed per page in layout order --
    crop_top, crop_bottom, crop_left, crop_right = (
        tuple(float(v) for v in cfg.page_crop) if cfg.page_crop else (0, 0, 0, 0)
    )
    textboxes_by_page: dict = {}
    kept_boxes: dict = {}
    word_boxes: list = []
    for i, tb in enumerate(doc.get("textboxes") or []):
        t = dict(tb)
        t["page"] = int(t["page"])
        if t["page"] not in subset:
            continue
        for k in ("x0", "y0", "x1", "y1"):
            t[k] = float(t[k])
        if any((crop_top, crop_bottom, crop_left, crop_right)):
            # static page crop (textbox.py:966-974 semantics: boxes not
            # completely inside the cropped page area are discarded)
            page = pages.get(t["page"])
            if page is None:
                continue
            if not (
                t["x0"] >= crop_left
                and t["x1"] <= float(page["width"]) - crop_right
                and t["y0"] >= crop_bottom
                and t["y1"] <= float(page["height"]) - crop_top
            ):
                continue
        # the raw-layout step (see textbox_lines): glyph soups box by box,
        # every word box of the document in ONE word-kernel call below
        if t.get("chartab") is not None or t.get("chars"):
            t["lines"] = textbox_lines(t, cfg)
            t["text"] = textbox_text(t)
        else:
            word_boxes.append(t)
        kept_boxes[i] = t
    doc["_textboxes"] = (cfg, kept_boxes)

    if word_boxes:
        # texts now; line dicts only for the boxes something reads
        lay_out_word_boxes(word_boxes, cfg.line_y_tolerance)

    for t in kept_boxes.values():
        if t.get("ungrouped"):
            # the rawest form: an ungrouped page region — run pdfminer's
            # missing step and cluster the lines into textboxes
            # (group_textlines semantics, textbox.py:934-977; the
            # column-aware LA variant keeps one open box per column)
            for box in group_lines_into_boxes_la(box_lines(t), cfg.line_margin):
                sub = {"page": t["page"], **box}
                sub["text"] = textbox_text(sub)
                textboxes_by_page.setdefault(t["page"], []).append(sub)
            continue
        textboxes_by_page.setdefault(t["page"], []).append(t)

    annos_by_page: dict = {}
    if not cfg.no_annotations:
        # raw annot objects → resolved link annos (Link/GoTo filters,
        # explicit-dest page-object lookup; catalog.py:403-583)
        for anno in resolve_raw_annotations(
            doc.get("raw_annots") or [], doc.get("pages") or []
        ):
            if int(anno["page"]) in subset:
                annos_by_page.setdefault(int(anno["page"]), []).append(anno)

    outline_tree = numbered_outline(doc, cfg) if outline is None else outline

    # -- figures (extract.py:593-659) --
    figures: list = []
    if not cfg.no_figures:
        figs_by_page: dict = {}
        for fig in doc.get("figures") or []:
            figs_by_page.setdefault(int(fig["page"]), []).append(fig)
        for page_no in page_numbers:
            kept = filter_figures(
                figs_by_page.get(page_no, []), cfg.figure_min_width, cfg.figure_min_height
            )
            for k, fig in enumerate(kept):
                bbox = (fig["x0"], fig["y0"], fig["x1"], fig["y1"])
                inside = boxes_completely_inside(
                    textboxes_by_page.get(page_no, []), bbox
                )
                # links over figure-contained text (extract.py:638-641);
                # never uid-resolved (the explorer runs only on
                # paragraphs/tables) — mirrored in finish_document
                fig_links: list = []
                if not cfg.no_annotations and annos_by_page.get(page_no):
                    for tb in inside:
                        fig_links.extend(
                            extract_links_for_textbox(
                                tb,
                                annos_by_page[page_no],
                                cfg.anno_x_tolerance,
                                cfg.anno_y_tolerance,
                                lines=box_lines(tb),
                            )
                        )
                figures.append(
                    {
                        "etype": "figure",
                        "page": page_no,
                        "x0": bbox[0],
                        "y0": bbox[1],
                        "x1": bbox[2],
                        "y1": bbox[3],
                        "text": "\n".join(tb["text"] for tb in inside),
                        "media_ref": f"media/{doc_id}/page_{page_no}_figure.{k + 1}.png",
                        "links": fig_links,
                    }
                )
        if cfg.smart_page_crop and not defer_smart_crop:
            figures = _smart_crop(figures, n_pages, page_height, cfg)

    # -- rects (extract.py:662-731) --
    rects: list = []
    if not cfg.no_rects:
        for rect in doc.get("rects") or []:
            page_no = int(rect["page"])
            if page_no not in subset:
                continue
            bbox = (
                float(rect["x0"]),
                float(rect["y0"]),
                float(rect["x1"]),
                float(rect["y1"]),
            )
            inside = boxes_completely_inside(
                textboxes_by_page.get(page_no, []), bbox, margin=cfg.rect_text_offset
            )
            text = "\n".join(tb["text"] for tb in inside)
            if not inside:
                # no whole textbox inside: word-granularity crop (inline
                # highlight rects live INSIDE a paragraph line — the
                # reference's char-level lt_textbox_crop finds their
                # words; tests/test_rects.py code-inline parity)
                text = word_crop_text(
                    textboxes_by_page.get(page_no, []), bbox,
                    margin=cfg.rect_text_offset,
                    y_tolerance=cfg.line_y_tolerance,
                )
            ncolor = rect.get("non_stroking_color")
            rects.append(
                {
                    "etype": "rect",
                    "page": page_no,
                    "x0": bbox[0],
                    "y0": bbox[1],
                    "x1": bbox[2],
                    "y1": bbox[3],
                    "text": text,
                    "ncolor": tuple(float(c) for c in ncolor) if ncolor else None,
                    "links": [],
                }
            )
        if cfg.smart_page_crop and not defer_smart_crop:
            rects = _smart_crop(rects, n_pages, page_height, cfg)

    # -- tables: lines-strategy grid DETECTION from raw segments + cell
    # text crop from page words (tables.py:49-204 + figure anti-join
    # 207-234; cell crop tables.py:237-263) --
    tables: list = []
    if not cfg.no_tables:
        fig_bboxes_by_page: dict = {}
        for fig in figures:
            fig_bboxes_by_page.setdefault(fig["page"], []).append(
                (fig["x0"], fig["y0"], fig["x1"], fig["y1"])
            )
        segs_by_page: dict = {}
        for seg in doc.get("segments") or []:
            page_no = int(seg["page"])
            if page_no in subset:
                segs_by_page.setdefault(page_no, []).append(seg)
        for page_no in page_numbers:
            page_segs = segs_by_page.get(page_no)
            if not page_segs:
                continue
            # the page's word boxes (layout-assembled) for cell text
            # crops; word dicts materialize lazily here — only pages that
            # actually carry table segments pay for them
            page_words = [
                w
                for tb in textboxes_by_page.get(page_no, [])
                for w in textbox_word_dicts(tb)
            ]
            for grid in detect_table_grids(
                page_segs,
                cfg.snap_tolerance,
                cfg.join_tolerance,
                cfg.edge_min_length,
            ):
                grid["page"] = page_no
                table = table_from_grid(grid, page_words, cfg)
                if table_inside_any_figure(
                    table["bbox"],
                    fig_bboxes_by_page.get(page_no, []),
                    cfg.table_figure_tolerance,
                ):
                    continue
                x0, y0, x1, y1 = table["bbox"]
                # cell-level link extraction (tables.py:178-186) against the
                # cell's cropped-word textbox (the reference runs
                # extract_linked_chars on the cell's re-assembled lt_textbox)
                if not cfg.no_annotations and annos_by_page.get(page_no):
                    page_annos = annos_by_page[page_no]
                    for cell in table["cells"]:
                        if cell["text"] == "" or cell.get("tb_bbox") is None:
                            cell["links"] = []
                            continue
                        bx0, by0, bx1, by1 = cell["tb_bbox"]
                        cell_tb = {
                            "x0": bx0, "y0": by0, "x1": bx1, "y1": by1,
                            "text": cell["text"],
                        }
                        cell["links"] = extract_links_for_textbox(
                            cell_tb, page_annos,
                            cfg.anno_x_tolerance, cfg.anno_y_tolerance,
                            lines=cell.get("tb_lines"),
                        )
                else:
                    for cell in table["cells"]:
                        cell["links"] = []
                tables.append(
                    {
                        "etype": "table",
                        "page": page_no,
                        "x0": x0,
                        "y0": y0,
                        "x1": x1,
                        "y1": y1,
                        "text": table["text"],
                        "cells": table["cells"],
                        "links": [],
                    }
                )
        if cfg.smart_page_crop and not defer_smart_crop:
            tables = _smart_crop(tables, n_pages, page_height, cfg)

    # -- textbox filtering (textbox.py:96-136, 863-902) --
    region_bboxes_by_page: dict = {}
    for el in tables + figures:
        region_bboxes_by_page.setdefault(el["page"], []).append(
            (el["x0"], el["y0"], el["x1"], el["y1"])
        )
    candidates_by_page: dict = {}
    for page_no in page_numbers:
        page_candidates = []
        regions = region_bboxes_by_page.get(page_no, [])
        for tb in textboxes_by_page.get(page_no, []):
            inside_region = any(
                tb["x0"] >= rx0 - cfg.table_margin
                and tb["x1"] <= rx1 + cfg.table_margin
                and tb["y0"] >= ry0 - cfg.table_margin
                and tb["y1"] <= ry1 + cfg.table_margin
                for rx0, ry0, rx1, ry1 in regions
            )
            if inside_region or is_whitespace_only(tb["text"]):
                continue
            page_candidates.append(tb)
        candidates_by_page[page_no] = page_candidates

    # -- chapters (textbox.py:139-296) --
    chapters: list = []
    adopted_numbers: dict = {}
    if outline_tree:
        flat = flatten_outline(outline_tree)
        chapters_by_page: dict = {}
        for ch in flat:
            page_no = ch["position"]["page"]
            if page_no in subset:
                chapters_by_page.setdefault(page_no, []).append(ch)
        for page_no, page_chapters in chapters_by_page.items():
            page = pages[page_no]
            cands = candidates_by_page.get(page_no, [])
            for ch in page_chapters:
                winner_idx = chapter_examiner(
                    ch,
                    cands,
                    float(page["width"]),
                    float(page["height"]),
                    cfg.min_outline_title_similarity,
                    cfg.chapter_rectangle_extend,
                )
                if winner_idx:
                    winners = [cands[i] for i in winner_idx]
                    x0 = min(w["x0"] for w in winners)
                    y0 = min(w["y0"] for w in winners)
                    x1 = max(w["x1"] for w in winners)
                    y1 = max(w["y1"] for w in winners)
                    if len(winners) == 2 and "virt." in ch["number"]:
                        # number textbox left of the title donates the
                        # number (textbox.py:204-213)
                        ch["number"] = min(winners, key=lambda w: w["x0"])[
                            "text"
                        ].strip()
                        adopted_numbers[ch["path"]] = ch["number"]
                    for w in winners:
                        cands.remove(w)
                else:
                    x0, y0, x1, y1 = ghost_chapter_bbox(
                        ch, float(page["width"]), cfg.chapter_rectangle_extend
                    )
                chapters.append(
                    {
                        "etype": "chapter",
                        "page": page_no,
                        "x0": x0,
                        "y0": y0,
                        "x1": x1,
                        "y1": y1,
                        "number": ch["number"],
                        "title": ch["title"],
                        "text": f"{ch['number']} {ch['title']}",
                        "links": [],
                    }
                )

    # -- paragraphs (textbox.py:531-600), idx assigned in finish --
    paragraphs: list = []
    if not cfg.no_paragraphs:
        for page_no in page_numbers:
            for tb in candidates_by_page.get(page_no, []):
                # only a page with annotations reads its boxes' lines
                links = (
                    extract_links_for_textbox(
                        tb,
                        annos_by_page[page_no],
                        cfg.anno_x_tolerance,
                        cfg.anno_y_tolerance,
                        lines=box_lines(tb),
                    )
                    if annos_by_page.get(page_no)
                    else []
                )
                paragraphs.append(
                    {
                        "etype": "paragraph",
                        "page": page_no,
                        "x0": tb["x0"],
                        "y0": tb["y0"],
                        "x1": tb["x1"],
                        "y1": tb["y1"],
                        "text": tb["text"],
                        "links": links,
                    }
                )

    return {
        "figures": figures,
        "rects": rects,
        "tables": tables,
        "chapters": chapters,
        "paragraphs": paragraphs,
        "adopted_numbers": adopted_numbers,
    }


def finish_document(
    doc: dict,
    pages: dict,
    prepared_list: list,
    cfg: PipelineConfig,
    crop_deferred: bool = False,
    catalog=None,
) -> tuple:
    """Phase 2: merge prepared page-range parts (in page order) and run the
    document-level tail.  Returns (spans, flat_elements).

    ``catalog`` is :func:`numbered_catalog`'s ``(outline tree, named
    destinations)`` when the parts were prepared on that very tree, which
    then carries their adopted numbers already; without it the catalog is
    walked again and the adoptions applied (the page-range split path)."""
    n_pages = len(pages)
    page_height = float(pages[sorted(pages)[0]]["height"])

    figures = [el for p in prepared_list for el in p["figures"]]
    rects = [el for p in prepared_list for el in p["rects"]]
    tables = [el for p in prepared_list for el in p["tables"]]
    chapters = [el for p in prepared_list for el in p["chapters"]]
    paragraphs = [el for p in prepared_list for el in p["paragraphs"]]
    adopted: dict = {}
    for p in prepared_list:
        adopted.update(p["adopted_numbers"])

    if cfg.smart_page_crop and crop_deferred:
        figures = _smart_crop(figures, n_pages, page_height, cfg)
        rects = _smart_crop(rects, n_pages, page_height, cfg)
        tables = _smart_crop(tables, n_pages, page_height, cfg)

    # paragraph doc-wide running idx, then smart crop (extract.py:186-188)
    for i, el in enumerate(paragraphs):
        el["idx"] = i + 1
    if cfg.smart_page_crop:
        paragraphs = _smart_crop(paragraphs, n_pages, page_height, cfg)

    # original extraction indices for above-outline uids
    for i, el in enumerate(tables):
        el["idx"] = i + 1
    fig_counter_by_page: dict = {}
    for el in figures:
        k = fig_counter_by_page.get(el["page"], 0) + 1
        fig_counter_by_page[el["page"]] = k
        el["idx"] = k
    for i, el in enumerate(rects):
        el["idx"] = i + 1

    if catalog is not None:
        outline_tree, named_dests = catalog
    else:
        # outline tree (deterministic rebuild) + named destinations: ONE
        # catalog walk serves both (numbers re-derived, then phase-1
        # adoptions)
        outline_tree, named_dests = numbered_catalog(doc, cfg)
        if adopted:
            for node in flatten_outline(outline_tree):
                if node["path"] in adopted:
                    node["number"] = adopted[node["path"]]

    # -- merge + reading order (process.py:189-209) --
    merged = figures + tables + paragraphs + chapters + rects
    merged.sort(
        key=lambda el: (el["page"], float(pages[el["page"]]["height"]) - el["y0"])
    )

    # -- outline nesting (process.py:223-294) --
    ordered = _map_elements_outline(merged, outline_tree, cfg.headline_tolerance)

    # -- uid assignment + link target resolution + span emission --
    _assign_uids(ordered)
    flat_elements = _flatten_elements(ordered)

    # target resolution runs on paragraphs and cells, as the reference's
    # libpdf_target_explorer does (process.py:200-205); figure links stay
    # unresolved
    def _resolve(link):
        dest = resolve_named_dest(link["dest"], named_dests)
        link["target"] = find_target_uid(
            dest, flat_elements, cfg.target_coor_tolerance
        )
        return link

    spans = []
    for el in flat_elements:
        spans.append(
            {
                "kind": el["etype"],
                "text": el["text"],
                "media_ref": el.get("media_ref", ""),
                "offset": len(spans),
            }
        )
        if el["etype"] == "paragraph":
            for link in el.get("links", []):
                _resolve(link)
                spans.append(
                    {
                        "kind": "link",
                        "text": f"{link['anchor']}->{link['target']}",
                        "media_ref": "",
                        "offset": len(spans),
                    }
                )
        elif el["etype"] == "table":
            for cell in el.get("cells", []):
                for link in cell.get("links", []):
                    _resolve(link)
    return spans, flat_elements


def extract_document(doc: dict, cfg: PipelineConfig = PipelineConfig()) -> list:
    """Extract the ordered span list for one sidecar document row."""
    return extract_document_full(doc, cfg)[0]


def extract_document_full(doc: dict, cfg: PipelineConfig = PipelineConfig()) -> tuple:
    """Like :func:`extract_document` but also returns the flat element list
    (doc-ordered dicts with etype/page/bbox/uid/links) — the engine's
    analog of the reference's ``ApiObjects`` escape hatch
    (libpdf/apiobjects.py:56-68)."""
    pages = selected_pages(doc, cfg)
    if not pages:
        return [], []
    # one catalog walk: prepare adopts page numbers into the tree, finish
    # nests on it and resolves named destinations
    catalog = numbered_catalog(doc, cfg)
    prepared = prepare_pages(doc, pages, cfg, outline=catalog[0])
    return finish_document(doc, pages, [prepared], cfg, crop_deferred=False,
                           catalog=catalog)


def _map_elements_outline(merged: list, outline_tree: list, headline_tolerance: float):
    """process.py:223-294: split at the first outline chapter, fill elements
    into the nearest preceding chapter, nest chapters per the outline tree.

    Returns a list of top-level nodes; chapter nodes carry ``content``."""
    if not outline_tree:
        return list(merged)
    first = outline_tree[0]["position"]
    above = [
        el
        for el in merged
        if el["page"] < first["page"]
        or (
            el["page"] == first["page"]
            and el["y1"] > first["y1"] + headline_tolerance
        )
    ]
    inline = [
        el
        for el in merged
        if el["page"] > first["page"]
        or (
            el["page"] == first["page"]
            and el["y1"] < first["y1"] + headline_tolerance
        )
    ]
    # inline must start with a chapter; leading non-chapters move above
    for i, el in enumerate(inline):
        if el["etype"] == "chapter":
            above.extend(inline[:i])
            del inline[:i]
            break

    # fill elements into the last-seen chapter (fill_elements_content)
    current_content = None
    id_counters: dict = {}
    for el in inline:
        if el["etype"] == "chapter":
            el["content"] = []
            current_content = el["content"]
            id_counters = {"table": 1, "figure": 1, "paragraph": 1, "rect": 1}
        elif current_content is not None:
            el["idx"] = id_counters[el["etype"]]
            id_counters[el["etype"]] += 1
            current_content.append(el)

    # nest chapters following the outline tree (mapping_chapters); an
    # outline node takes the FIRST chapter with its (title, number)
    chapter_by_key: dict = {}
    for el in inline:
        if el["etype"] == "chapter":
            chapter_by_key.setdefault((el["title"], el["number"]), el)

    def nest(outline_content: list, target: list):
        for node in outline_content:
            chapter = chapter_by_key.get((node["title"], node["number"]))
            if chapter is None:
                continue
            target.append(chapter)
            if node["content"]:
                nest(node["content"], chapter["content"])

    nested: list = []
    nest(outline_tree, nested)
    return above + nested


def _assign_uids(ordered: list, prefix: str = "") -> None:
    for el in ordered:
        if el["etype"] == "chapter":
            cid = f"chapter.{el['number']}"
            el["uid"] = f"{prefix}{cid}"
            _assign_uids(el.get("content", []), prefix=f"{el['uid']}/")
        else:
            el["uid"] = f"{prefix}{el['etype']}.{el.get('idx', 1)}"


def _flatten_elements(ordered: list) -> list:
    out = []
    for el in ordered:
        out.append(el)
        if el["etype"] == "chapter":
            out.extend(_flatten_elements(el.get("content", [])))
    return out
