"""Figure / table / rect region kernels.

Faithful functional re-derivations of:

- ``check_and_filter_figures``   /root/reference/libpdf/extract.py:757-867
- figure per-page assembly       /root/reference/libpdf/extract.py:593-659
- table-in-figure suppression    /root/reference/libpdf/tables.py:207-234
- rect text capture              /root/reference/libpdf/extract.py:662-731

All inputs are plain dicts from the Arrow sidecar row; outputs are element
dicts consumed by ``kernels.document``.  The figure filter preserves the
reference's exact pair-loop mutation order (combinations snapshot + guarded
removal + original width/height used for the size comparison even after
coordinate clamping), because that order decides which of two overlapping
figures survives.
"""

from __future__ import annotations

import itertools


def filter_figures(page_figures: list, min_width: float, min_height: float) -> list:
    """check_and_filter_figures (extract.py:757-867) on one page's figures.

    ``page_figures``: dicts with x0,y0,x1,y1.  Returns the surviving figures
    (dicts with clamped coords) in original order.
    """
    survivors = []
    for fig in page_figures:
        w = float(fig["x1"]) - float(fig["x0"])
        h = float(fig["y1"]) - float(fig["y0"])
        if h > min_height and w > min_width:
            # width/height are frozen pre-clamp, as pdfplumber's figure dicts
            # carry them (the reference compares these, not recomputed dims)
            survivors.append(
                {
                    "x0": float(fig["x0"]),
                    "y0": float(fig["y0"]),
                    "x1": float(fig["x1"]),
                    "y1": float(fig["y1"]),
                    "width": w,
                    "height": h,
                }
            )

    for fig in survivors:
        for k in ("x0", "y0", "x1", "y1"):
            if fig[k] < 0:
                fig[k] = 0.0

    # complete containment: keep the outer figure (ordered pairs, snapshot)
    for fig0, fig1 in itertools.combinations(list(survivors), 2):
        if (
            fig0["x0"] <= fig1["x0"]
            and fig0["y0"] <= fig1["y0"]
            and fig0["x1"] >= fig1["x1"]
            and fig0["y1"] >= fig1["y1"]
        ):
            if fig1 in survivors:
                survivors.remove(fig1)

    # partial overlap: keep the larger figure
    for fig0, fig1 in itertools.combinations(list(survivors), 2):
        disjoint = (
            fig0["x0"] > fig1["x1"]
            or fig0["x1"] < fig1["x0"]
            or fig0["y0"] > fig1["y1"]
            or fig0["y1"] < fig1["y0"]
        )
        contained = (
            fig0["x0"] <= fig1["x0"]
            and fig0["y0"] <= fig1["y0"]
            and fig0["x1"] >= fig1["x1"]
            and fig0["y1"] >= fig1["y1"]
        )
        if not disjoint and not contained:
            if fig0["width"] * fig0["height"] <= fig1["width"] * fig1["height"]:
                if fig0 in survivors:
                    survivors.remove(fig0)
            elif fig1 in survivors:
                survivors.remove(fig1)
    return survivors


def boxes_completely_inside(textboxes: list, bbox: tuple, margin: float = 0.0) -> list:
    """Textboxes completely inside ``bbox`` ± margin, in input (layout) order
    (lt_page_crop with contain_completely=True, libpdf/utils.py:376-431)."""
    x0, y0, x1, y1 = bbox
    return [
        tb
        for tb in textboxes
        if tb["x0"] >= x0 - margin
        and tb["y0"] >= y0 - margin
        and tb["x1"] <= x1 + margin
        and tb["y1"] <= y1 + margin
    ]


def _crop_words(words: list, boxes: list, margin: float) -> tuple:
    """Word dicts + crop boxes ``(x0, y0, x1, y1)`` → ``(table, rows,
    counts)`` for :func:`textmodel.assemble_word_lines`: per box, the
    words lying completely inside it ± ``margin``; a word may lie in
    several boxes."""
    import numpy as np

    from .textmodel import glyph_table_from_dicts

    tab = glyph_table_from_dicts(words)
    b = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    inside = (
        (tab["x0"] >= b[:, 0:1] - margin) & (tab["y0"] >= b[:, 1:2] - margin)
        & (tab["x1"] <= b[:, 2:3] + margin) & (tab["y1"] <= b[:, 3:4] + margin)
    )
    return tab, np.nonzero(inside)[1], inside.sum(axis=1)


def word_crop_text(textboxes: list, bbox: tuple, margin: float = 0.0,
                   y_tolerance: float = 0.5) -> str:
    """Text of the WORDS completely inside ``bbox`` ± margin, re-clustered
    into lines — the fine-grained half of the reference's
    ``lt_textbox_crop`` (libpdf/utils.py: chars in bbox → LA reassembly).
    Used when a rect contains no whole textbox (inline-code highlight
    rects sit INSIDE a paragraph line; only word granularity finds their
    text — reference behavior pinned by tests/test_rects.py
    code-inline assertions)."""
    from .textmodel import assemble_word_lines, textbox_word_dicts

    x0, y0, x1, y1 = bbox
    words = [
        w
        for tb in textboxes
        if not (tb["x1"] < x0 - margin or tb["x0"] > x1 + margin
                or tb["y1"] < y0 - margin or tb["y0"] > y1 + margin)
        for w in textbox_word_dicts(tb)
    ]
    lines = assemble_word_lines(*_crop_words(words, [bbox], margin), y_tolerance)[0]
    return "\n".join(ln["text"] for ln in lines)


def table_inside_any_figure(
    table_bbox: tuple, figure_bboxes: list, tolerance: float = 5.0
) -> bool:
    """Anti-join of tables against figures (libpdf/tables.py:207-234): a
    table completely inside a figure bbox ± tolerance is suppressed."""
    tx0, ty0, tx1, ty1 = table_bbox
    for fx0, fy0, fx1, fy1 in figure_bboxes:
        if (
            tx0 >= fx0 - tolerance
            and ty0 >= fy0 - tolerance
            and tx1 <= fx1 + tolerance
            and ty1 <= fy1 + tolerance
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# lines-strategy table detection (round 2: the grid is DETECTED from raw
# rect/line segments, not precomputed — the actual operator of
# libpdf/tables.py:49-145 with the reference's settings dict values
# tables.py:62-79: snap_tolerance=3, join_tolerance=3, edge_min_length=3)
# ---------------------------------------------------------------------------


def _cluster_positions(values: list, tol: float) -> list:
    """Sorted 1-D values → cluster means (pdfplumber 'snap' semantics:
    positions within ``tol`` of the running cluster are merged)."""
    out = []
    cur: list = []
    for v in sorted(values):
        if cur and v - cur[-1] > tol:
            out.append(sum(cur) / len(cur))
            cur = []
        cur.append(v)
    if cur:
        out.append(sum(cur) / len(cur))
    return out


def _nearest_index(edges: list, value: float, tol: float):
    best, best_d = None, tol
    for i, e in enumerate(edges):
        d = abs(e - value)
        if d <= best_d:
            best, best_d = i, d
    return best


def _snap_join_edges(
    edges: list, snap_tolerance: float, join_tolerance: float, horizontal: bool
) -> list:
    """Snap parallel edges into position clusters, then join collinear
    runs whose end-to-start gap is ≤ ``join_tolerance`` (pdfplumber
    ``snap_edges``/``join_edge_group`` semantics, the lines-strategy
    preprocessing libpdf configures at tables.py:62-79).  Edges further
    apart than the join tolerance (deliberately missing boundaries —
    merged cells) stay separate."""
    if not edges:
        return []
    lo_k, hi_k, pos0, pos1 = (
        ("x0", "x1", "y0", "y1") if horizontal else ("y0", "y1", "x0", "x1")
    )
    order = sorted(edges, key=lambda s: (s[pos0] + s[pos1]) / 2.0)
    out = []
    cluster: list = []
    cluster_pos = None
    for s in order:
        p = (s[pos0] + s[pos1]) / 2.0
        if cluster and p - cluster_pos > snap_tolerance:
            out.extend(_join_cluster(cluster, lo_k, hi_k, pos0, pos1, join_tolerance))
            cluster = []
        cluster.append(s)
        cluster_pos = p
    if cluster:
        out.extend(_join_cluster(cluster, lo_k, hi_k, pos0, pos1, join_tolerance))
    return out


def _join_cluster(cluster, lo_k, hi_k, pos0, pos1, join_tolerance) -> list:
    pos = sum((s[pos0] + s[pos1]) / 2.0 for s in cluster) / len(cluster)
    cluster.sort(key=lambda s: s[lo_k])
    merged = []
    cur_lo, cur_hi = cluster[0][lo_k], cluster[0][hi_k]
    for s in cluster[1:]:
        if s[lo_k] - cur_hi <= join_tolerance:
            cur_hi = max(cur_hi, s[hi_k])
        else:
            merged.append((cur_lo, cur_hi))
            cur_lo, cur_hi = s[lo_k], s[hi_k]
    merged.append((cur_lo, cur_hi))
    return [
        {lo_k: lo, hi_k: hi, pos0: pos, pos1: pos} for lo, hi in merged
    ]


def detect_table_grids(
    page_segments: list,
    snap_tolerance: float = 3.0,
    join_tolerance: float = 3.0,
    edge_min_length: float = 3.0,
) -> list:
    """Raw line segments of ONE page → detected grids with cell layout.

    Pipeline (the lines-strategy core of pdfplumber's ``find_tables`` that
    libpdf configures at tables.py:62-79):

    1. classify segments horizontal/vertical, drop < ``edge_min_length``;
    2. connected components over the intersect-within-tolerance relation
       (disjoint grids — e.g. a nested table whose edges touch nothing of
       the outer grid — become separate tables);
    3. per component: snap h-midlines into ``row_edges`` (top→bottom) and
       v-midlines into ``col_edges`` (left→right);
    4. per-boundary coverage → cell construction with rectangular merges:
       a missing interior edge fuses the adjacent grid slots into one cell
       (pdfplumber's None placeholder; libpdf skips them, tables.py:159-171).

    Returns grids sorted in reading order: ``{"page", "row_edges",
    "col_edges", "cells": [{"row", "col", "x0", "y0", "x1", "y1"}],
    "n_rows", "n_cols", "anchors": set of (r, c)}``.
    """
    raw_h, raw_v = [], []
    for s in page_segments:
        x0, x1 = sorted((float(s["x0"]), float(s["x1"])))
        y0, y1 = sorted((float(s["y0"]), float(s["y1"])))
        (raw_h if (x1 - x0) >= (y1 - y0) else raw_v).append(
            {"x0": x0, "y0": y0, "x1": x1, "y1": y1}
        )
    # pdfplumber's snap_edges + join_edge_group (TableFinder.get_edges):
    # many writers draw one table rule as a STACK of per-row mini-segments
    # (observed in the reference corpus: tests/pdf/lorem-ipsum.pdf draws
    # each vertical rule as 12 pt pieces) — snap collinear edges into one
    # position cluster, then fuse runs whose gaps are ≤ join_tolerance
    # into single long edges.  Merge BEFORE the min-length filter, as
    # pdfplumber does (fragments can be individually shorter than
    # edge_min_length).
    h_segs = [
        s
        for s in _snap_join_edges(raw_h, snap_tolerance, join_tolerance, True)
        if s["x1"] - s["x0"] >= edge_min_length
    ]
    v_segs = [
        s
        for s in _snap_join_edges(raw_v, snap_tolerance, join_tolerance, False)
        if s["y1"] - s["y0"] >= edge_min_length
    ]
    for s in h_segs:
        s["horizontal"] = True
    for s in v_segs:
        s["horizontal"] = False
    if len(h_segs) < 2 or len(v_segs) < 2:
        return []
    segs = h_segs + v_segs

    # union-find over all segments, joined when an h and a v intersect
    parent = list(range(len(segs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    tol = snap_tolerance + join_tolerance
    for i, a in enumerate(segs):
        if not a["horizontal"]:
            continue
        ay = (a["y0"] + a["y1"]) / 2.0
        for j, b in enumerate(segs):
            if b["horizontal"]:
                continue
            bx = (b["x0"] + b["x1"]) / 2.0
            if (
                a["x0"] - tol <= bx <= a["x1"] + tol
                and b["y0"] - tol <= ay <= b["y1"] + tol
            ):
                union(i, j)

    comps: dict = {}
    for i in range(len(segs)):
        comps.setdefault(find(i), []).append(segs[i])

    grids = []
    for members in comps.values():
        hh = [s for s in members if s["horizontal"]]
        vv = [s for s in members if not s["horizontal"]]
        if len(hh) < 2 or len(vv) < 2:
            continue
        row_edges = sorted(
            _cluster_positions([(s["y0"] + s["y1"]) / 2.0 for s in hh], snap_tolerance),
            reverse=True,
        )
        col_edges = sorted(
            _cluster_positions([(s["x0"] + s["x1"]) / 2.0 for s in vv], snap_tolerance)
        )
        n_rows, n_cols = len(row_edges) - 1, len(col_edges) - 1
        if n_rows < 1 or n_cols < 1:
            continue
        # boundary coverage matrices
        # h_present[r][c]: horizontal boundary at row edge r covers col band c
        h_present = [[False] * n_cols for _ in range(n_rows + 1)]
        for s in hh:
            r = _nearest_index(row_edges, (s["y0"] + s["y1"]) / 2.0, snap_tolerance)
            if r is None:
                continue
            for c in range(n_cols):
                if (
                    col_edges[c] >= s["x0"] - tol
                    and col_edges[c + 1] <= s["x1"] + tol
                ):
                    h_present[r][c] = True
        # v_present[c][r]: vertical boundary at col edge c covers row band r
        v_present = [[False] * n_rows for _ in range(n_cols + 1)]
        for s in vv:
            c = _nearest_index(col_edges, (s["x0"] + s["x1"]) / 2.0, snap_tolerance)
            if c is None:
                continue
            for r in range(n_rows):
                # row band r spans y ∈ [row_edges[r+1], row_edges[r]]
                if (
                    row_edges[r] <= s["y1"] + tol
                    and row_edges[r + 1] >= s["y0"] - tol
                ):
                    v_present[c][r] = True

        cells = []
        anchors = set()
        taken = set()
        for r in range(n_rows):
            for c in range(n_cols):
                if (r, c) in taken:
                    continue
                c2 = c + 1
                while c2 < n_cols and not v_present[c2][r]:
                    c2 += 1
                r2 = r + 1
                while r2 < n_rows and not any(
                    h_present[r2][cc] for cc in range(c, c2)
                ):
                    r2 += 1
                for rr in range(r, r2):
                    for cc in range(c, c2):
                        taken.add((rr, cc))
                anchors.add((r + 1, c + 1))
                cells.append(
                    {
                        "row": r + 1,
                        "col": c + 1,
                        "x0": col_edges[c],
                        "y0": row_edges[r2],
                        "x1": col_edges[c2],
                        "y1": row_edges[r],
                    }
                )
        grids.append(
            {
                "page": None,  # caller stamps the page
                "row_edges": row_edges,
                "col_edges": col_edges,
                "cells": cells,
                "n_rows": n_rows,
                "n_cols": n_cols,
                "anchors": anchors,
            }
        )
    grids.sort(key=lambda g: (-g["row_edges"][0], g["col_edges"][0]))
    return grids


def table_from_grid(grid: dict, page_words: list, cfg) -> dict:
    """Detected grid + the page's word boxes → table element core.

    Cell text is CROPPED from the page (tables.py:237-263 semantics: chars
    completely inside the cell bbox ± 5 pt offset, re-assembled with the
    engine's line grouping).  Span text = rows joined with '\\n', cell slots
    with '\\t'; merged/swallowed slots keep their empty slot (SURVEY span
    conventions)."""
    from .textmodel import assemble_word_lines

    cells = grid["cells"]
    crop = _crop_words(
        page_words, [(c["x0"], c["y0"], c["x1"], c["y1"]) for c in cells],
        cfg.rect_text_offset,  # the reference's cell crop offset (=5)
    )
    texts: dict = {}
    cells_out = []
    for cell, lines in zip(cells, assemble_word_lines(*crop, cfg.line_y_tolerance)):
        text = "\n".join(ln["text"] for ln in lines)
        texts[(cell["row"], cell["col"])] = text
        # bbox of the cropped words — the cell's "lt_textbox" for link
        # anchoring (extract_linked_chars runs on the re-assembled textbox,
        # not on the cell rectangle)
        tb_bbox = (
            (
                min(ln["x0"] for ln in lines),
                min(ln["y0"] for ln in lines),
                max(ln["x1"] for ln in lines),
                max(ln["y1"] for ln in lines),
            )
            if lines
            else None
        )
        cells_out.append(
            {**cell, "text": text, "tb_bbox": tb_bbox, "tb_lines": lines}
        )
    rows_texts = [
        [texts.get((r + 1, c + 1), "") for c in range(grid["n_cols"])]
        for r in range(grid["n_rows"])
    ]
    return {
        "bbox": (
            min(grid["col_edges"]),
            min(grid["row_edges"]),
            max(grid["col_edges"]),
            max(grid["row_edges"]),
        ),
        "page": int(grid["page"]),
        "cells": cells_out,
        "n_rows": grid["n_rows"],
        "n_cols": grid["n_cols"],
        "text": "\n".join("\t".join(row) for row in rows_texts),
    }
