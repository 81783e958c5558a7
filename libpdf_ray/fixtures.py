"""Deterministic synthetic corpus generator (generator-as-oracle, seed=42).

The reference's tests run 14 checked-in PDFs with inline golden assertions
(``/root/reference/tests/conftest.py:16-37``); the reference itself is not
executable here (missing patched-pdfminer wheel).  So the engine's fixtures
are synthetic *interleaved documents* built from fixed structural skeletons
with seeded random texts/geometry: the builder records BOTH the raw layout
sidecar (pipeline input) and the expected span sequence (derived from the
construction intent, NOT by running the pipeline) — span-sequence equality
per doc_id is then a real end-to-end check of the extraction semantics.

Schema v2 — the sidecar is deliberately RAW so the engine performs the hard
reference operators itself:

- textboxes carry SHUFFLED per-word boxes+styles (or per-char boxes for the
  ``rawchars`` family); the engine re-derives line grouping, word assembly,
  reading order and style lifting (libpdf/utils.py:467-631).
- tables arrive as raw line segments with ±1 pt jitter (< snap_tolerance);
  the engine detects grids, constructs cells (incl. merged ones) and crops
  cell text from the page's words (libpdf/tables.py:49-263).
- the outline is a First/Next linked node list; named destinations are a
  Names/Kids tree (libpdf/catalog.py:25-133,230-373).

Layout model: US-Letter pages (612×792 pt), body flow cursor from y=620 down
to y=165 (outside the 20% smart-crop bands, parameters.py:144-152), fixed
char grid CHAR_W=6 / LINE_H=12 (see kernels/links.py).  All base coordinates
are integer-valued floats so formatting round-trips are exact.
"""

from __future__ import annotations

import datetime
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .schema import RAW_DOC_SCHEMA, SCHEMA_VERSION

PAGE_W, PAGE_H = 612.0, 792.0
TOP_Y, MIN_Y = 620.0, 165.0
MARGIN_X = 72.0
CHAR_W, LINE_H = 6.0, 12.0

# body vocabulary (lorem-ish) — deliberately disjoint from title words so
# fuzzy chapter matching never crosses 0.6 similarity by accident
WORDS = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt labore et dolore magna aliqua enim minim veniam quis "
    "nostrud exercitation ullamco laboris nisi aliquip ex ea commodo consequat "
    "duis aute irure in reprehenderit voluptate velit esse cillum fugiat nulla "
    "pariatur excepteur sint occaecat cupidatat non proident sunt culpa qui "
    "officia deserunt mollit anim id est laborum"
).split()

TITLE_WORDS = (
    "Alpha Beta Gamma Delta Epsilon Zeta Theta Lambda Sigma Omega Kappa Tau "
    "Upsilon Omicron Rho Phi Psi"
).split()

DEFAULT_FAMILIES = (
    "plain",
    "outlined",
    "chapternum",
    "splitchapter",
    "fuzzychapter",
    "emptyoutline",
    "figures",
    "tables",
    "rects",
    "headerfooter",
    "linked",
    "colors",
    "skew",
    "rawchars",
    "actionoutline",
    "rawpage",
)


def _words(rng, n: int, vocab=WORDS) -> str:
    return " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), n))


def _body_line(rng) -> str:
    # ≥ 20 chars keeps difflib similarity against short headings well < 0.6
    line = _words(rng, 4 + int(rng.integers(0, 3)))
    while len(line) < 20:
        line += " " + WORDS[int(rng.integers(0, len(WORDS)))]
    return line


def _title(rng, n: int = 2) -> str:
    return _words(rng, n, TITLE_WORDS)


def _titles(rng, count: int, n: int = 2) -> list:
    """Distinct titles (duplicate headings would make fuzzy-match ties
    fixture-dependent instead of semantics-dependent)."""
    seen: list = []
    while len(seen) < count:
        t = _title(rng, n)
        if t not in seen:
            seen.append(t)
    return seen


def _line_words(line: str, x0: float, y1_line: float, styles=None) -> list:
    """One line of grid text → word boxes.  ``styles``: optional list of
    (ncolor, fontname) per word; defaults to None/None."""
    out = []
    off = 0
    for k, w in enumerate(line.split(" ")):
        if w != "":
            ncolor, fontname = (styles[k] if styles else (None, None))
            out.append(
                {
                    "text": w,
                    "x0": x0 + off * CHAR_W,
                    "y0": y1_line - LINE_H,
                    "x1": x0 + (off + len(w)) * CHAR_W,
                    "y1": y1_line,
                    "ncolor": ncolor,
                    "fontname": fontname,
                }
            )
        off += len(w) + 1
    return out


def _line_chars(line: str, x0: float, y1_line: float, ncolor=None, fontname=None) -> list:
    """One line of grid text → per-char boxes (spaces omitted — the engine
    re-derives word breaks from the gaps, pdfminer word_margin semantics)."""
    out = []
    for j, ch in enumerate(line):
        if ch == " ":
            continue
        out.append(
            {
                "text": ch,
                "x0": x0 + j * CHAR_W,
                "y0": y1_line - LINE_H,
                "x1": x0 + (j + 1) * CHAR_W,
                "y1": y1_line,
                "ncolor": ncolor,
                "fontname": fontname,
            }
        )
    return out


def _norm_rgb(color):
    """(r, g, b) floats or (None, None, None) — the flat encoding the
    style views use (stages/styles.py:_rgb over textmodel._norm_color)."""
    if color is None:
        return (None, None, None)
    c = tuple(float(v) for v in color)
    return (c + (None, None, None))[:3]


def _lift(values):
    """Uniform-or-None attribute lift (horizontal_box.py:85-98 semantics,
    mirrored independently of the engine's textmodel._uniform)."""
    vals = list(values)
    if not vals:
        return None
    first = vals[0]
    for v in vals[1:]:
        if v != first:
            return None
    return first


def _style_rows(lines_words: list, page_no: int, box_idx: int) -> list:
    """Expected ``text_styles`` rows for one textbox.

    ``lines_words``: per line (top→bottom), list of (word_text, ncolor,
    fontname) in left→right order — the generator's own placement
    knowledge.  Applies the word→line→box uniform-or-None lift."""
    line_lifts = []
    for ws in lines_words:
        line_lifts.append(
            (
                _lift(tuple(_norm_rgb(nc)) for _, nc, _f in ws),
                _lift(fn or None for _, _nc, fn in ws),
            )
        )
    box_nc = _lift(nc for nc, _ in line_lifts)
    box_fn = _lift(fn for _, fn in line_lifts)
    bor, bog, bob = box_nc if box_nc is not None else (None, None, None)
    rows = []
    for line_idx, ws in enumerate(lines_words):
        lnc, lfn = line_lifts[line_idx]
        lr, lg, lb = lnc if lnc is not None else (None, None, None)
        for word_idx, (text, nc, fn) in enumerate(ws):
            wr, wg, wb = _norm_rgb(nc)
            rows.append(
                {
                    "page": page_no,
                    "box_idx": box_idx,
                    "line_idx": line_idx,
                    "word_idx": word_idx,
                    "word_text": text,
                    "word_ncolor_r": wr,
                    "word_ncolor_g": wg,
                    "word_ncolor_b": wb,
                    "word_fontname": fn or None,
                    "line_ncolor_r": lr,
                    "line_ncolor_g": lg,
                    "line_ncolor_b": lb,
                    "line_fontname": lfn,
                    "box_ncolor_r": bor,
                    "box_ncolor_g": bog,
                    "box_ncolor_b": bob,
                    "box_fontname": box_fn,
                }
            )
    return rows


def _page_obj_id(page_no: int) -> int:
    """Deterministic page OBJECT id — deliberately non-identity and
    decreasing so an engine that confuses object ids with page numbers
    (or assumes monotone ids) fails the links oracle."""
    return 9973 - 31 * page_no


class FlowBuilder:
    """Places content top-down in a page flow, recording raw layout and
    expected spans in one pass (placement order == reading order by
    construction: vertical slots never overlap, so the engine's
    (page, height−y0) merge sort reproduces it)."""

    def __init__(self, doc_id: str, rng):
        self.doc_id = doc_id
        self.rng = rng
        self.page_no = 1
        self.cursor = TOP_Y
        self.pages = [{"number": 1, "obj_id": _page_obj_id(1), "width": PAGE_W, "height": PAGE_H}]
        self.textboxes: list = []
        self.outline_entries: list = []  # {path,title,page,x0,y1,dest_kind}
        self.rects: list = []
        self.segments: list = []
        self.figures: list = []
        self.annotations: list = []
        # extra RAW annot structs appended verbatim to raw_annots: noise the
        # engine must skip (non-Link subtypes, non-GoTo actions)
        self.raw_noise_annots: list = []
        self.named_dests: list = []  # {name,page,x,y}
        self.expected: list = []
        self.expected_cells: list = []
        self.expected_links: list = []
        self.expected_styles: list = []
        self._fig_counter: dict = {}
        self._table_counter = 0
        # pre-crop placement counters for above-outline uid derivation:
        # the engine assigns original extraction indices BEFORE smart crop
        # (kernels/document.py:506-519), so furniture consumes indices
        self._par_place = 0
        self._table_place = 0

    # --- flow management ---
    def new_page(self):
        self.page_no += 1
        self.pages.append({"number": self.page_no, "obj_id": _page_obj_id(self.page_no),
                           "width": PAGE_W, "height": PAGE_H})
        self.cursor = TOP_Y

    def _gap(self) -> float:
        return float(10 + int(self.rng.integers(0, 16)))

    def reserve(self, height: float) -> tuple:
        """Consume a vertical slot; returns (page_no, y1, y0)."""
        if self.cursor - height < MIN_Y:
            self.new_page()
        y1 = self.cursor
        y0 = y1 - height
        self.cursor = y0 - self._gap()
        return self.page_no, y1, y0

    # --- primitives ---
    def span(self, kind: str, text: str, media_ref: str = "", page=None,
             path=None, place=None):
        """Record an expected span.  ``page``/``path``/``place`` are
        element-oracle metadata (kept on hidden keys, stripped from the
        expected_spans column): the page the element sits on, the outline
        path for chapters, and — for above-outline uids — the element's
        pre-crop placement index (defaults to the builder's placement
        counters)."""
        rec = {"kind": kind, "text": text, "media_ref": media_ref,
               "_page": page if page is not None else self.page_no}
        if kind == "chapter":
            rec["_path"] = path
        elif kind == "paragraph":
            rec["_place"] = place if place is not None else self._par_place
        elif kind == "table":
            self._table_place += 1
            rec["_place"] = place if place is not None else self._table_place
        elif kind == "rect":
            rec["_place"] = place if place is not None else len(self.rects)
        elif kind == "figure":
            m = re.search(r"figure\.(\d+)\.png$", media_ref)
            rec["_place"] = int(m.group(1)) if m else 1
        self.expected.append(rec)

    def raw_textbox(
        self,
        page_no,
        x0,
        y1,
        lines,
        ncolor=None,
        fontname=None,
        as_chars: bool = False,
        word_styles=None,
        counts_as_paragraph: bool = True,
    ) -> dict:
        """Place a textbox whose raw payload is SHUFFLED word (or char)
        boxes — the engine must re-derive lines and order from geometry.

        ``word_styles``: optional per-line list of per-word (ncolor,
        fontname) tuples (overrides the box-level style).

        ``counts_as_paragraph``: False for boxes that never reach the
        engine's paragraph-candidate list (heading/number boxes consumed
        by the chapter examiner, captions inside figures, table cell
        texts) — they must not advance the pre-crop paragraph placement
        counter the above-outline uid oracle relies on."""
        width = max(len(ln) for ln in lines) * CHAR_W
        height = len(lines) * LINE_H
        runs: list = []
        for i, ln in enumerate(lines):
            y1_line = float(y1) - i * LINE_H
            if as_chars:
                runs.extend(_line_chars(ln, float(x0), y1_line, ncolor, fontname))
            else:
                styles = None
                if word_styles is not None:
                    styles = word_styles[i]
                elif ncolor is not None or fontname is not None:
                    styles = [(ncolor, fontname)] * len(ln.split(" "))
                runs.extend(_line_words(ln, float(x0), y1_line, styles))
        if as_chars:
            # pdfminer layout analysis injects pseudo ``anno`` whitespace
            # glyphs with NO geometry into char streams (the pdfplumber
            # quirk the reference scrubs in delete_page_ann,
            # extract.py:446-486); NaN boxes encode "no coordinates" —
            # the engine must delete them before assembly
            nan = float("nan")
            for _ in range(1 + int(self.rng.integers(0, 3))):
                runs.append(
                    {
                        "text": " " if int(self.rng.integers(0, 2)) else "\n",
                        "x0": nan, "y0": nan, "x1": nan, "y1": nan,
                        "ncolor": None, "fontname": None,
                    }
                )
        self.rng.shuffle(runs)
        tb = {
            "page": page_no,
            "x0": float(x0),
            "y0": float(y1 - height),
            "x1": float(x0 + width),
            "y1": float(y1),
            "words": None if as_chars else runs,
            "chars": runs if as_chars else None,
        }
        self.textboxes.append(tb)
        # expected text_styles rows from the SAME placement knowledge the
        # runs were printed with (word order left→right, lines top→down —
        # the order the engine's geometric sort re-derives)
        lines_words = []
        for i, ln in enumerate(lines):
            if as_chars:
                ws = [
                    (w, ncolor, fontname)
                    for w in ln.split(" ")
                    if w != ""
                ]
            else:
                styles = None
                if word_styles is not None:
                    styles = word_styles[i]
                elif ncolor is not None or fontname is not None:
                    styles = [(ncolor, fontname)] * len(ln.split(" "))
                ws = []
                for k, w in enumerate(ln.split(" ")):
                    if w != "":
                        wn, wf = (styles[k] if styles else (None, None))
                        ws.append((w, wn, wf))
            lines_words.append(ws)
        self.expected_styles.extend(
            _style_rows(lines_words, page_no, len(self.textboxes) - 1)
        )
        if counts_as_paragraph:
            self._par_place += 1
        return tb

    def add_par(
        self, lines=None, emit=True, ncolor=None, fontname=None,
        x_jitter=True, as_chars=False,
    ):
        """Place a paragraph textbox in the flow."""
        if lines is None:
            lines = [_body_line(self.rng) for _ in range(1 + int(self.rng.integers(0, 3)))]
        x0 = MARGIN_X + (float(int(self.rng.integers(0, 4)) * 5) if x_jitter else 0.0)
        page_no, y1, _y0 = self.reserve(len(lines) * LINE_H)
        tb = self.raw_textbox(page_no, x0, y1, lines, ncolor, fontname, as_chars)
        if emit:
            self.span("paragraph", "\n".join(lines), page=page_no)
        return tb

    def add_outline_entry(
        self, path, title, page_no, x0, y1, dest_kind: str = "explicit"
    ):
        """``dest_kind``: explicit | named | action_explicit | action_named |
        external (non-GoTo — the node is skipped by the walk)."""
        entry = {
            "path": path,
            "title": title,
            "page": page_no,
            "x0": float(x0),
            "y1": float(y1),
            "dest_kind": dest_kind,
        }
        if dest_kind in ("named", "action_named"):
            name = f"dest_{path}"
            entry["dest_name"] = name
            self.named_dests.append(
                {"name": name, "page": page_no, "x": float(x0), "y": float(y1)}
            )
        self.outline_entries.append(entry)

    def add_heading(
        self, path: str, display: str, span_text: str | None = None,
        dest_kind: str = "explicit",
    ):
        """Numbered heading: outline title == rendered textbox text, so the
        fuzzy match wins on content similarity == 1."""
        page_no, y1, _ = self.reserve(LINE_H)
        self.raw_textbox(page_no, MARGIN_X, y1, [display],
                         counts_as_paragraph=False)
        self.add_outline_entry(path, display, page_no, MARGIN_X, y1, dest_kind)
        self.span("chapter", span_text if span_text is not None else display,
                  page=page_no, path=path)
        return page_no, y1

    def next_figure_ref(self, page_no: int) -> str:
        k = self._fig_counter.get(page_no, 0) + 1
        self._fig_counter[page_no] = k
        return f"media/{self.doc_id}/page_{page_no}_figure.{k}.png"

    # --- tables (raw segments + cell textboxes) ---
    def _jit(self) -> float:
        return float(self.rng.uniform(-1.0, 1.0))

    def add_grid_segments(
        self, page_no, row_edges, col_edges, missing_v=frozenset(),
        missing_h=frozenset(), jitter=True,
    ):
        """Emit the grid's raw line segments (±1 pt jitter < snap_tolerance).

        ``missing_v``: set of (row_band, col_index) vertical boundaries to
        OMIT (horizontal cell merges); ``missing_h``: (row_index, col_band)
        horizontal boundaries to omit (vertical merges)."""
        n_bands = len(row_edges) - 1
        n_cols = len(col_edges) - 1
        j = self._jit if jitter else (lambda: 0.0)
        # vertical segments: per col edge, contiguous runs of covered bands
        for ci, x in enumerate(col_edges):
            run: list = []
            for band in range(n_bands):
                if (band, ci) in missing_v:
                    if run:
                        self._v_seg(page_no, x + j(), row_edges, run)
                        run = []
                else:
                    run.append(band)
            if run:
                self._v_seg(page_no, x + j(), row_edges, run)
        # horizontal segments: per row edge, contiguous runs of covered cols
        for ri, y in enumerate(row_edges):
            run = []
            for band in range(n_cols):
                if (ri, band) in missing_h:
                    if run:
                        self._h_seg(page_no, y + j(), col_edges, run)
                        run = []
                else:
                    run.append(band)
            if run:
                self._h_seg(page_no, y + j(), col_edges, run)

    def _v_seg(self, page_no, x, row_edges, bands):
        y_top = row_edges[bands[0]]
        y_bot = row_edges[bands[-1] + 1]
        self.segments.append(
            {"page": page_no, "x0": x, "y0": y_bot + self._jit(), "x1": x,
             "y1": y_top + self._jit()}
        )

    def _h_seg(self, page_no, y, col_edges, bands):
        x_left = col_edges[bands[0]]
        x_right = col_edges[bands[-1] + 1]
        self.segments.append(
            {"page": page_no, "x0": x_left + self._jit(), "y0": y,
             "x1": x_right + self._jit(), "y1": y}
        )

    def add_table(
        self, row_edges, col_edges, cell_texts: dict, page_no=None,
        merged_v=frozenset(), merged_h=frozenset(), emit=True,
        count_cells=True,
    ) -> int:
        """Full table: raw segments + one textbox per non-empty cell text +
        expected span/cells bookkeeping.

        ``cell_texts``: {(row, col) 1-based → text} for ANCHOR cells.
        ``merged_v``/``merged_h``: omitted interior boundaries (see
        add_grid_segments).  Returns the page.  Caller must have reserved
        the vertical space."""
        page_no = self.page_no if page_no is None else page_no
        self.add_grid_segments(page_no, row_edges, col_edges, merged_v, merged_h)
        n_rows, n_cols = len(row_edges) - 1, len(col_edges) - 1
        # place cell text as word boxes at the cell's top-left (+3 pad)
        placed: dict = {}
        for (r, c), text in cell_texts.items():
            if text == "":
                continue
            x0 = col_edges[c - 1] + 3.0
            y1 = row_edges[r - 1] - 3.0
            tb = self.raw_textbox(page_no, x0, y1, [text],
                                  counts_as_paragraph=False)
            placed[(r, c)] = tb
        if emit:
            # swallowed positions: those merged into an anchor
            swallowed = set()
            for (band, ci) in merged_v:
                # boundary ci missing in band → positions (band+1, ci) and
                # (band+1, ci+1) merge; the non-anchor is (band+1, ci+1)
                swallowed.add((band + 1, ci + 1))
            for (ri, band) in merged_h:
                swallowed.add((ri + 1, band + 1))
            rows_txt = []
            for r in range(1, n_rows + 1):
                row = []
                for c in range(1, n_cols + 1):
                    if (r, c) in swallowed:
                        row.append("")
                    else:
                        row.append(cell_texts.get((r, c), ""))
                rows_txt.append(row)
            self.span("table", "\n".join("\t".join(row) for row in rows_txt),
                      page=page_no)
        if count_cells:
            self._table_counter += 1
            for r in range(1, n_rows + 1):
                for c in range(1, n_cols + 1):
                    key = (r, c)
                    is_swallowed = False
                    for (band, ci) in merged_v:
                        if key == (band + 1, ci + 1):
                            is_swallowed = True
                    for (ri, band) in merged_h:
                        if key == (ri + 1, band + 1):
                            is_swallowed = True
                    if is_swallowed:
                        continue
                    self.expected_cells.append(
                        {
                            "page": page_no,
                            "table_idx": self._table_counter,
                            "row": r,
                            "col": c,
                            "text": cell_texts.get(key, ""),
                        }
                    )
        return page_no

    def expect_link(self, source_uid, source_kind, idx_start, idx_stop,
                    anchor, target, row=0, col=0):
        self.expected_links.append(
            {
                "source_uid": source_uid,
                "source_kind": source_kind,
                "row": row,
                "col": col,
                "idx_start": idx_start,
                "idx_stop": idx_stop,
                "anchor": anchor,
                "target": target,
            }
        )

    # --- assembly ---
    def _outline_nodes(self) -> tuple:
        """Flat path-ordered entries → First/Next linked node encoding."""
        if not self.outline_entries:
            return [], -1
        children: dict = {None: []}
        for i, e in enumerate(self.outline_entries):
            path = e["path"]
            parent = path.rsplit(".", 1)[0] if "." in path else None
            children.setdefault(parent, []).append(i)
            children.setdefault(path, [])
        nodes = []
        for i, e in enumerate(self.outline_entries):
            kids = children.get(e["path"], [])
            parent = e["path"].rsplit(".", 1)[0] if "." in e["path"] else None
            sibs = children[parent]
            pos = sibs.index(i)
            nxt = sibs[pos + 1] if pos + 1 < len(sibs) else -1
            kind = e["dest_kind"]
            nodes.append(
                {
                    "node_id": i,
                    "first": kids[0] if kids else -1,
                    "next": nxt,
                    "title": e["title"],
                    "dest_kind": kind,
                    "dest_page": 0
                    if kind in ("named", "action_named", "external")
                    else int(e["page"]),
                    "dest_x": 0.0
                    if kind in ("named", "action_named", "external")
                    else float(e["x0"]),
                    "dest_y": 0.0
                    if kind in ("named", "action_named", "external")
                    else float(e["y1"]),
                    "dest_name": e.get("dest_name", ""),
                }
            )
        root = children[None][0] if children[None] else -1
        return nodes, root

    def _names_nodes(self) -> list:
        """Named destinations → 2-level Names/Kids tree (exercises the
        recursive Kids flatten, catalog.py:116-133)."""
        if not self.named_dests:
            return []
        dests = sorted(self.named_dests, key=lambda d: d["name"])
        half = (len(dests) + 1) // 2
        return [
            {"node_id": 0, "kids": [1, 2], "names": []},
            {"node_id": 1, "kids": [], "names": dests[:half]},
            {"node_id": 2, "kids": [], "names": dests[half:]},
        ]

    def build_row(self, family: str) -> dict:
        rng = self.rng
        day = int(rng.integers(0, 3650))
        created = datetime.datetime(2015, 1, 1) + datetime.timedelta(days=day)
        meta = {
            "author": f"author-{int(rng.integers(0, 100)):02d}",
            "title": _title(rng, 3),
            "subject": _title(rng, 2),
            "creator": "graft-fixture-writer",
            "producer": "libpdf-ray-synth",
            "keywords": ",".join(_title(rng, 3).split()),
            "creation_date": created,
            "modified_date": created
            + datetime.timedelta(days=int(rng.integers(0, 365))),
            "trapped": bool(int(rng.integers(0, 2))),
        }
        outline_nodes, outline_root = self._outline_nodes()
        return {
            "doc_id": self.doc_id,
            "family": family,
            "est_pages": len(self.pages),
            "meta": meta,
            "pages": self.pages,
            "textboxes": self.textboxes,
            "outline_nodes": outline_nodes,
            "outline_root": outline_root,
            "names_nodes": self._names_nodes(),
            "rects": self.rects,
            "segments": self.segments,
            "figures": self.figures,
            "raw_annots": self._raw_annots(),
            "expected_spans": [
                {
                    "kind": sp["kind"],
                    "text": sp["text"],
                    "media_ref": sp["media_ref"],
                    "offset": i,
                }
                for i, sp in enumerate(self.expected)
            ],
            "expected_cells": self.expected_cells,
            "expected_links": self.expected_links,
            "expected_elements": self._derive_expected_elements(),
            "expected_text_styles": self.expected_styles,
            "expected_rect_styles": self._derive_expected_rect_styles(),
        }

    def _derive_expected_rect_styles(self) -> list:
        """Rect-view oracle rows: raw rect geometry + fill color zipped with
        the rect span texts (rects and their spans are recorded in the same
        order by every family builder)."""
        texts = [sp["text"] for sp in self.expected if sp["kind"] == "rect"]
        out = []
        for rect, text in zip(self.rects, texts):
            r, g, b = _norm_rgb(rect.get("non_stroking_color"))
            out.append(
                {
                    "page": int(rect["page"]),
                    "x0": float(rect["x0"]),
                    "y0": float(rect["y0"]),
                    "x1": float(rect["x1"]),
                    "y1": float(rect["y1"]),
                    "ncolor_r": r,
                    "ncolor_g": g,
                    "ncolor_b": b,
                    "text": text,
                }
            )
        return out

    def _raw_annots(self) -> list:
        """Serialize the builder's resolved link intents as RAW annot
        objects (schema v6): the engine must re-derive what the builder
        knows.  Destination carriers alternate between the /A GoTo action
        and the direct /Dest encodings (both resolve identically,
        libpdf/catalog.py:442-520); explicit dests reference the target
        page by OBJECT id; ``dest_fit`` intents encode as [page /Fit]
        (engine must fall back to x=0 / y=MediaBox-top).  Noise structs
        (non-Link subtypes, non-GoTo actions) are appended verbatim."""
        out = []
        for i, anno in enumerate(self.annotations):
            enc = "action" if i % 2 == 0 else "dest"
            rec = {
                "page": int(anno["page"]),
                "x0": float(anno["x0"]),
                "y0": float(anno["y0"]),
                "x1": float(anno["x1"]),
                "y1": float(anno["y1"]),
                "subtype": "Link",
                "encoding": enc,
                "action_type": "GoTo" if enc == "action" else "",
                "dest_kind": "named",
                "dest_page_obj": -1,
                "dest_x": 0.0,
                "dest_y": 0.0,
                "dest_name": anno.get("dest_name") or "",
            }
            if not rec["dest_name"]:
                rec["dest_kind"] = "fit" if anno.get("dest_fit") else "xyz"
                rec["dest_page_obj"] = _page_obj_id(int(anno["dest_page"]))
                if rec["dest_kind"] == "xyz":
                    rec["dest_x"] = float(anno["dest_x"])
                    rec["dest_y"] = float(anno["dest_y"])
            out.append(rec)
        out.extend(self.raw_noise_annots)
        return out

    def _derive_expected_elements(self) -> list:
        """Element-identity oracle rows (uid, etype, page, text, media_ref,
        n_links), derived from the builder's OWN records — never from the
        engine: span order == flat element order by construction; chapter
        uid paths come from the outline paths the family declared; inline
        elements use per-chapter counters in document order; above-outline
        elements use the pre-crop placement counters
        (kernels/document.py:506-519, 636-646, 671-678 describe the engine
        semantics this mirrors)."""
        n_links: dict = {}
        for link in self.expected_links:
            # only paragraph and figure elements carry link lists; cell
            # links live on the cells view, not the element
            if link["source_kind"] in ("paragraph", "figure"):
                n_links[link["source_uid"]] = n_links.get(link["source_uid"], 0) + 1
        out: list = []
        stack: list = []  # chapter uid components of the open chain
        counters: dict | None = None  # per-chapter idx counters, None = above
        for e in self.expected:
            kind = e["kind"]
            if kind == "link":
                continue
            if kind == "chapter":
                depth = len(str(e["_path"]).split("."))
                number = e["text"].split(" ", 1)[0]
                stack = stack[: depth - 1] + [f"chapter.{number}"]
                uid = "/".join(stack)
                counters = {"table": 1, "figure": 1, "paragraph": 1, "rect": 1}
            elif counters is not None:
                idx = counters[kind]
                counters[kind] += 1
                uid = "/".join(stack) + f"/{kind}.{idx}"
            else:  # above the first chapter (or chapterless doc)
                uid = f"{kind}.{e['_place']}"
            out.append(
                {
                    "uid": uid,
                    "etype": kind,
                    "page": int(e["_page"]),
                    "text": e["text"],
                    "media_ref": e["media_ref"],
                    "n_links": int(n_links.get(uid, 0)),
                }
            )
        return out


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _fam_plain(b: FlowBuilder, rng):
    for _ in range(4 + int(rng.integers(0, 5))):
        b.add_par()


def _fam_outlined(b: FlowBuilder, rng):
    titles = _titles(rng, 6)
    b.add_par()  # pre-outline paragraph → stays above the outline
    b.add_heading("1", f"1 {titles[0]}")
    b.add_par()
    # named destination for 1.1 (exercises the Names-tree path of the walk)
    b.add_heading("1.1", f"1.1 {titles[1]}", dest_kind="named")
    b.add_par()
    b.add_par()
    b.new_page()
    b.add_heading("1.2", f"1.2 {titles[2]}")
    b.add_par()
    b.add_heading("2", f"2 {titles[3]}", dest_kind="action_explicit")
    b.add_par()
    # virtual chapter: outline title carries no number → virt.<level>; it is
    # the 3rd top-level outline entry, so the number is virt.3
    page_no, y1, _ = b.reserve(LINE_H)
    b.raw_textbox(page_no, MARGIN_X, y1, [titles[4]], counts_as_paragraph=False)
    b.add_outline_entry("3", titles[4], page_no, MARGIN_X, y1)
    b.span("chapter", f"virt.3 {titles[4]}", page=page_no, path="3")
    b.add_par()


def _fam_chapternum(b: FlowBuilder, rng):
    # exercises the chapter-number regex (catalog.py:208-209) incl. roman
    # numerals, trailing dots, single letters, and the virt fallback
    numbers = ["3.5.4", "9.", "iv", "A", "2.a.IV"]
    for i, num in enumerate(numbers):
        t = _title(rng)
        b.add_heading(str(i + 1), f"{num} {t}")
        b.add_par()
    t = _title(rng)
    page_no, y1, _ = b.reserve(LINE_H)
    b.raw_textbox(page_no, MARGIN_X, y1, [t], counts_as_paragraph=False)
    b.add_outline_entry("6", t, page_no, MARGIN_X, y1)
    b.span("chapter", f"virt.6 {t}", page=page_no, path="6")
    b.add_par()


def _fam_splitchapter(b: FlowBuilder, rng):
    # heading split into separate number and title textboxes by layout
    # analysis (similarity_referee two-winner branch, textbox.py:489-504)
    t1, t2 = _titles(rng, 2)
    page_no, y1, _ = b.reserve(LINE_H)
    b.raw_textbox(page_no, MARGIN_X, y1, ["2.3"], counts_as_paragraph=False)
    b.raw_textbox(page_no, MARGIN_X + 40, y1, [t1], counts_as_paragraph=False)
    b.add_outline_entry("1", f"2.3 {t1}", page_no, MARGIN_X, y1)
    b.span("chapter", f"2.3 {t1}", page=page_no, path="1")
    b.add_par()
    # virtual chapter adopting a standalone number textbox on its left
    # (textbox.py:440-462 + number adoption at textbox.py:204-213)
    page_no, y1, _ = b.reserve(LINE_H)
    b.raw_textbox(page_no, MARGIN_X, y1, ["B.1"], counts_as_paragraph=False)
    b.raw_textbox(page_no, MARGIN_X + 40, y1, [t2], counts_as_paragraph=False)
    b.add_outline_entry("2", t2, page_no, MARGIN_X, y1)
    b.span("chapter", f"B.1 {t2}", page=page_no, path="2")
    b.add_par()


def _fam_fuzzychapter(b: FlowBuilder, rng):
    """Headings rendered with in-word typos: the outline title and the box
    text DIFFER, so the exact-match short-circuit can never fire and the
    full difflib referee (quick-ratio pruning, argmax groups, tie-breaks,
    ghost fallback — textbox.py:386-528) runs end-to-end."""
    t1, t2, t3 = _titles(rng, 3)

    def typo(t: str) -> str:
        words = t.split(" ")
        words[0] = words[0][:-1] if len(words[0]) > 3 else words[0] + "x"
        return " ".join(words)

    # one chapter per page: the examiner window is page-local, and the
    # 2-word title vocabulary is small enough that two typo'd titles in one
    # window can make the wrong box the title-argmax (a faithful reference
    # outcome — but not the branch this family pins)
    # numbered heading with typo'd box → referee branch 3 (content ≥ title
    # > min_similarity, single winner on fuzzy similarity alone)
    page_no, y1, _ = b.reserve(LINE_H)
    b.raw_textbox(page_no, MARGIN_X, y1, [f"4.2 {typo(t1)}"],
                  counts_as_paragraph=False)
    b.add_outline_entry("1", f"4.2 {t1}", page_no, MARGIN_X, y1)
    b.span("chapter", f"4.2 {t1}", page=page_no, path="1")
    b.add_par()
    b.new_page()
    # virtual chapter whose title box carries the typo → virt branch via
    # fuzzy title similarity (> 0.6, < 1.0)
    page_no, y1, _ = b.reserve(LINE_H)
    b.raw_textbox(page_no, MARGIN_X, y1, [typo(t2)],
                  counts_as_paragraph=False)
    b.add_outline_entry("2", t2, page_no, MARGIN_X, y1)
    b.span("chapter", f"virt.2 {t2}", page=page_no, path="2")
    b.add_par()
    b.new_page()
    # outline entry never rendered on the page → ghost chapter (examiner
    # returns no winner; ghost bbox from the outline jump point)
    page_no, y1, _ = b.reserve(LINE_H)
    b.add_outline_entry("3", f"9 {t3}", page_no, MARGIN_X, y1)
    b.span("chapter", f"9 {t3}", page=page_no, path="3")
    b.add_par()


def _fam_emptyoutline(b: FlowBuilder, rng):
    # issue-67-example.pdf analog: outline exists but is empty → no chapters
    for _ in range(3 + int(rng.integers(0, 3))):
        b.add_par()


def _fam_figures(b: FlowBuilder, rng):
    b.add_par()
    # normal figure
    page_no, y1, y0 = b.reserve(80)
    b.figures.append({"page": page_no, "x0": 72.0, "y0": y0, "x1": 372.0, "y1": y1})
    b.span("figure", "", b.next_figure_ref(page_no))
    # tiny figure (10×10 < FIGURE_MIN_*) → dropped
    page_no, y1, y0 = b.reserve(12)
    b.figures.append({"page": page_no, "x0": 72.0, "y0": y1 - 10, "x1": 82.0, "y1": y1})
    b.add_par()
    # containment pair: outer kept, inner dropped
    page_no, y1, y0 = b.reserve(100)
    b.figures.append({"page": page_no, "x0": 72.0, "y0": y0, "x1": 472.0, "y1": y1})
    b.figures.append(
        {"page": page_no, "x0": 100.0, "y0": y0 + 20, "x1": 200.0, "y1": y0 + 60}
    )
    b.span("figure", "", b.next_figure_ref(page_no))
    # overlap pair: smaller dropped
    page_no, y1, y0 = b.reserve(90)
    b.figures.append({"page": page_no, "x0": 72.0, "y0": y0, "x1": 300.0, "y1": y1})
    b.figures.append(
        {"page": page_no, "x0": 250.0, "y0": y0 + 10, "x1": 380.0, "y1": y1 - 10}
    )
    b.span("figure", "", b.next_figure_ref(page_no))
    # figure with a caption textbox inside → captured as figure text and
    # removed from paragraph candidates
    caption = _body_line(rng)
    page_no, y1, y0 = b.reserve(60)
    b.figures.append({"page": page_no, "x0": 72.0, "y0": y0, "x1": 450.0, "y1": y1})
    b.raw_textbox(page_no, 100.0, y0 + 22, [caption], counts_as_paragraph=False)
    b.span("figure", caption, b.next_figure_ref(page_no))
    # pr-138-example analog: negative x0 clamped to 0
    b.new_page()
    page_no, y1, y0 = b.reserve(80)
    b.figures.append({"page": page_no, "x0": -20.0, "y0": y0, "x1": 150.0, "y1": y1})
    b.span("figure", "", b.next_figure_ref(page_no))
    b.add_par()


def _fam_tables(b: FlowBuilder, rng):
    b.add_par()
    # 3×3 grid, full edges, every cell textual
    texts = {(r, c): _words(rng, 1) for r in range(1, 4) for c in range(1, 4)}
    page_no, y1, y0 = b.reserve(90)
    b.add_table(
        [y1, y1 - 30, y1 - 60, y1 - 90],
        [72.0, 172.0, 272.0, 372.0],
        texts,
    )
    b.add_par()
    # 2×2 grid with a MERGED top row: the interior vertical boundary is
    # missing in row band 0 → cell (1,1) spans both columns
    wide = _words(rng, 2)
    texts2 = {(1, 1): wide, (2, 1): _words(rng, 1), (2, 2): _words(rng, 1)}
    page_no, y1, y0 = b.reserve(60)
    b.add_table(
        [y1, y1 - 30, y1 - 60],
        [72.0, 200.0, 328.0],
        texts2,
        merged_v={(0, 1)},
    )
    b.add_par()
    # NESTED table: inner 2×2 grid fully inside cell (1,2) of an outer 1×2
    # grid; the inner edges touch nothing of the outer grid → two separate
    # detected tables (pdfplumber connected-cell-group semantics).  The
    # outer cell's crop swallows the inner cells' words (the reference's
    # char crop does the same), so the outer cell text is the y-ordered
    # join of its own word + the inner texts.
    own = _words(rng, 1)
    inner = {(r, c): _words(rng, 1) for r in range(1, 3) for c in range(1, 3)}
    page_no, y1, y0 = b.reserve(100)
    outer_rows = [y1, y1 - 100]
    outer_cols = [72.0, 222.0, 472.0]
    b.add_grid_segments(page_no, outer_rows, outer_cols)
    own_tb = b.raw_textbox(page_no, 72.0 + 3.0, y1 - 3.0, [own],
                           counts_as_paragraph=False)
    inner_rows = [y1 - 20, y1 - 50, y1 - 80]
    inner_cols = [242.0, 332.0, 422.0]
    b.add_grid_segments(page_no, inner_rows, inner_cols)
    inner_tbs = {}
    for (r, c), t in inner.items():
        inner_tbs[(r, c)] = b.raw_textbox(
            page_no, inner_cols[c - 1] + 3.0, inner_rows[r - 1] - 3.0, [t],
            counts_as_paragraph=False,
        )
    # reading order sorts by (page, height − y0): inner y0 (y1−80) is above
    # outer y0 (y1−100), so the INNER table comes first in document order —
    # spans and table_idx ordinals follow that order.  EXTRACTION order
    # (the above-outline uid) follows segment placement: the OUTER grid's
    # segments were added first, so the outer table is detected first →
    # outer = table.<n+1>, inner = table.<n+2> despite inner leading the
    # span sequence.
    outer_place, inner_place = b._table_place + 1, b._table_place + 2
    b.span(
        "table",
        "\n".join("\t".join([inner[(r, 1)], inner[(r, 2)]]) for r in (1, 2)),
        page=page_no, place=inner_place,
    )
    b._table_counter += 1
    for (r, c), t in sorted(inner.items()):
        b.expected_cells.append(
            {"page": page_no, "table_idx": b._table_counter, "row": r, "col": c,
             "text": t}
        )
    # outer table: cell (1,1) = own text; cell (1,2) crop swallows the inner
    # words, re-assembled by line (y-ordered)
    outer_cell2 = "\n".join(
        " ".join([inner[(r, 1)], inner[(r, 2)]]) for r in (1, 2)
    )
    b.span("table", "\t".join([own, outer_cell2]), page=page_no,
           place=outer_place)
    b._table_counter += 1
    b.expected_cells.extend(
        [
            {"page": page_no, "table_idx": b._table_counter, "row": 1, "col": 1,
             "text": own},
            {"page": page_no, "table_idx": b._table_counter, "row": 1, "col": 2,
             "text": outer_cell2},
        ]
    )
    b.add_par()
    # table completely inside a figure → suppressed (tables.py:207-234);
    # grid segments only, no cell text
    page_no, y1, y0 = b.reserve(100)
    b.figures.append({"page": page_no, "x0": 72.0, "y0": y0, "x1": 472.0, "y1": y1})
    b.add_grid_segments(
        page_no, [y1 - 10, y1 - 40, y1 - 70], [100.0, 220.0, 340.0]
    )
    b.span("figure", "", b.next_figure_ref(page_no))
    b.add_par()


def _fam_rects(b: FlowBuilder, rng):
    b.add_par()
    # rect with text inside: the textbox stays a paragraph too (the
    # reference removes textboxes only for tables/figures, textbox.py:869)
    code = [_body_line(rng), _body_line(rng)]
    page_no, y1, y0 = b.reserve(float(len(code)) * LINE_H + 16)
    tb = b.raw_textbox(page_no, 80.0, y1 - 8, code)
    b.rects.append(
        {
            "page": page_no,
            "x0": 72.0,
            "y0": y0,
            "x1": tb["x1"] + 8.0,
            "y1": y1,
            "non_stroking_color": [0.9, 0.9, 0.5],
        }
    )
    b.span("paragraph", "\n".join(code))
    b.span("rect", "\n".join(code))
    b.add_par()
    # empty rect (admonition bar with no text)
    page_no, y1, y0 = b.reserve(30)
    b.rects.append(
        {
            "page": page_no,
            "x0": 72.0,
            "y0": y0,
            "x1": 300.0,
            "y1": y1,
            "non_stroking_color": [1.0, 0.5, 0.5],
        }
    )
    b.span("rect", "")
    b.add_par()


def _fam_headerfooter(b: FlowBuilder, rng):
    # repeating page furniture on 5 pages; expected spans assume the
    # flagship smart_page_crop=True config (extract.py:225-351)
    header = f"Confidential {_title(rng, 1)}"
    n_pages = 5
    for p in range(1, n_pages + 1):
        if p > 1:
            b.new_page()
        b.raw_textbox(p, MARGIN_X, 770.0, [header])
        for _ in range(3):
            b.add_par()
        b.raw_textbox(p, MARGIN_X, 52.0, [f"Page {p}"])


def _fam_linked(b: FlowBuilder, rng):
    t1, t2 = _titles(rng, 2)
    b.add_heading("1", f"1 {t1}")
    # paragraph A: explicit-destination link over its second word
    line_a = _body_line(rng)
    tb_a = b.add_par([line_a])
    words_a = line_a.split(" ")
    s = len(words_a[0]) + 1
    e = s + len(words_a[1])
    # paragraph B: named-destination link over its first word
    line_b = _body_line(rng)
    tb_b = b.add_par([line_b])
    e_b = len(line_b.split(" ")[0])
    # paragraph C: link into empty space → raw page-coordinate fallback
    line_c = _body_line(rng)
    tb_c = b.add_par([line_c])
    # paragraph D: [page /Fit] destination → engine falls back to
    # x=0 / y=MediaBox-top of the target page (catalog.py:393-398);
    # nothing sits at the page's top-left, so the raw-coordinate target
    line_d = _body_line(rng)
    tb_d = b.add_par([line_d])
    b.new_page()
    _, h2_y1 = b.add_heading("2", f"2 {t2}")
    h2_page = b.page_no
    b.add_par()

    def anno(tb, cs, ce, **dest):
        b.annotations.append(
            {
                "page": tb["page"],
                "x0": tb["x0"] + cs * CHAR_W + 1,
                "y0": tb["y1"] - LINE_H,
                "x1": tb["x0"] + ce * CHAR_W - 1,
                "y1": tb["y1"],
                "dest_page": dest.get("page", 0),
                "dest_x": dest.get("x", 0.0),
                "dest_y": dest.get("y", 0.0),
                "dest_name": dest.get("name", ""),
                "dest_fit": dest.get("fit", False),
            }
        )

    anno(tb_a, s, e, page=h2_page, x=MARGIN_X, y=h2_y1)
    anno(tb_b, 0, e_b, name="sec2")
    anno(tb_c, 0, 5, page=h2_page, x=560.0, y=400.0)
    anno(tb_d, 0, 5, page=h2_page, fit=True)
    # raw-annot noise the engine must SKIP: a URI action (link target not
    # in this document, catalog.py:485-490) and a non-Link subtype
    # (catalog.py:572) — both over real text, so a missing filter would
    # emit extra link spans and fail the family
    b.raw_noise_annots.append(
        {
            "page": tb_a["page"], "x0": tb_a["x0"] + 1,
            "y0": tb_a["y1"] - LINE_H, "x1": tb_a["x0"] + 4 * CHAR_W,
            "y1": tb_a["y1"], "subtype": "Link", "encoding": "action",
            "action_type": "URI", "dest_kind": "", "dest_page_obj": -1,
            "dest_x": 0.0, "dest_y": 0.0,
            "dest_name": "https://example.invalid/external",
        }
    )
    b.raw_noise_annots.append(
        {
            "page": tb_b["page"], "x0": tb_b["x0"] + 1,
            "y0": tb_b["y1"] - LINE_H, "x1": tb_b["x0"] + 4 * CHAR_W,
            "y1": tb_b["y1"], "subtype": "Square", "encoding": "dest",
            "action_type": "", "dest_kind": "xyz",
            "dest_page_obj": _page_obj_id(1), "dest_x": 100.0,
            "dest_y": 100.0, "dest_name": "",
        }
    )
    b.named_dests.append(
        {"name": "sec2", "page": h2_page, "x": MARGIN_X, "y": h2_y1}
    )
    # expected spans: link spans follow their paragraph (engine convention);
    # builder recorded [ch1, A, B, C, ch2, par] → insert links by index
    def link_span(anchor, target):
        return {"kind": "link", "text": f"{anchor}->{target}", "media_ref": ""}

    b.expected = [
        b.expected[0],  # ch1
        b.expected[1],  # A
        link_span(line_a[s:e], "chapter.2"),
        b.expected[2],  # B
        link_span(line_b[0:e_b], "chapter.2"),
        b.expected[3],  # C
        link_span(line_c[0:5], f"page.{h2_page}/560.0:400.0"),
        b.expected[4],  # D
        link_span(line_d[0:5], f"page.{h2_page}/0.0:{PAGE_H}"),
        b.expected[5],  # ch2
        b.expected[6],  # trailing paragraph
    ]
    # links view oracle: paragraphs A–D are chapter.1's 1st-4th paragraphs
    b.expect_link("chapter.1/paragraph.1", "paragraph", s, e,
                  line_a[s:e], "chapter.2")
    b.expect_link("chapter.1/paragraph.2", "paragraph", 0, e_b,
                  line_b[0:e_b], "chapter.2")
    b.expect_link("chapter.1/paragraph.3", "paragraph", 0, 5,
                  line_c[0:5], f"page.{h2_page}/560.0:400.0")
    b.expect_link("chapter.1/paragraph.4", "paragraph", 0, 5,
                  line_d[0:5], f"page.{h2_page}/0.0:{PAGE_H}")


def _fam_twocolumn(b: FlowBuilder, rng):
    """two_colums_sampe.pdf analog: the reference has NO column detection —
    reading order is strictly (page, height − y0) (process.py:202-207), so
    side-by-side columns interleave by y.  The expected spans encode that
    quirk deliberately."""
    left_x, right_x = MARGIN_X, 330.0
    placed = []  # (y0, lines, placement idx — the engine's pre-crop
    # candidate order is PLACEMENT order, while spans follow y-sorted
    # reading order, so above-outline uids must carry the placement idx
    cursor_l, cursor_r = TOP_Y, TOP_Y - float(int(rng.integers(5, 20)))
    for _ in range(3):
        lines = [_body_line(b.rng)]
        b.raw_textbox(1, left_x, cursor_l, lines)
        placed.append((cursor_l - LINE_H, lines, b._par_place))
        cursor_l -= LINE_H + b._gap()
        lines = [_body_line(b.rng)]
        b.raw_textbox(1, right_x, cursor_r, lines)
        placed.append((cursor_r - LINE_H, lines, b._par_place))
        cursor_r -= LINE_H + b._gap()
    for _y0, lines, place in sorted(placed, key=lambda p: -p[0]):
        b.span("paragraph", "\n".join(lines), page=1, place=place)


def _fam_tablelinks(b: FlowBuilder, rng):
    """Links inside table cells and figure captions (tables.py:178-186,
    extract.py:638-641): cell links resolve to chapter uids, figure links
    stay unresolved.  Span sequence is unchanged by cell/figure links
    (only paragraph links emit spans); the `links` view carries them."""
    t1 = _title(rng)
    b.add_heading("1", f"1 {t1}")
    b.add_par()
    # 2×2 grid; cell (1,2) carries a link over its first word, to chapter 1
    ch1_y1 = b.outline_entries[0]["y1"]
    texts = {
        (1, 1): _words(rng, 1),
        (1, 2): _words(rng, 2),
        (2, 1): _words(rng, 1),
    }
    page_no, y1, y0 = b.reserve(60)
    b.add_table([y1, y1 - 30, y1 - 60], [72.0, 200.0, 328.0], texts)
    # annotation over the first word of cell (1,2): the cell textbox was
    # placed at the cell's top-left + 3pt pad
    first_word = texts[(1, 2)].split(" ")[0]
    cx0, cy1 = 200.0 + 3.0, y1 - 3.0
    b.annotations.append(
        {
            "page": page_no,
            "x0": cx0 + 1,
            "y0": cy1 - LINE_H,
            "x1": cx0 + len(first_word) * CHAR_W - 1,
            "y1": cy1,
            "dest_page": 1,
            "dest_x": MARGIN_X,
            "dest_y": ch1_y1,
            "dest_name": "",
        }
    )
    # figure with caption carrying an (unresolved) link over chars 0..4
    caption = _body_line(rng)
    page_no, y1, y0 = b.reserve(60)
    b.figures.append({"page": page_no, "x0": 72.0, "y0": y0, "x1": 450.0, "y1": y1})
    tb = b.raw_textbox(page_no, 100.0, y0 + 22, [caption],
                       counts_as_paragraph=False)
    b.annotations.append(
        {
            "page": page_no,
            "x0": tb["x0"] + 1,
            "y0": tb["y1"] - LINE_H,
            "x1": tb["x0"] + 4 * CHAR_W - 1,
            "y1": tb["y1"],
            "dest_page": 1,
            "dest_x": MARGIN_X,
            "dest_y": ch1_y1,
            "dest_name": "",
        }
    )
    b.span("figure", caption, b.next_figure_ref(page_no))
    b.add_par()
    # links view oracle: the table/figure sit inside chapter 1 (content
    # order: paragraph, table, figure, trailing paragraph)
    b.expect_link("chapter.1/table.1", "cell", 0, len(first_word),
                  first_word, "chapter.1", row=1, col=2)
    b.expect_link("chapter.1/figure.1", "figure", 0, 4, caption[0:4], "")


def _fam_colors(b: FlowBuilder, rng):
    # ncolor / fontname lifting (horizontal_box.py:85-92,137-144,190-196);
    # spans are unaffected — tests assert the hbox model directly
    b.add_par(ncolor=[1.0, 0.0, 0.0], fontname="Courier")
    # two lines with DIFFERENT per-line styles → box-level lift = None
    lines = [_body_line(rng), _body_line(rng)]
    page_no, y1, _ = b.reserve(len(lines) * LINE_H)
    b.raw_textbox(
        page_no, MARGIN_X, y1, lines,
        word_styles=[
            [([0.0, 0.0, 1.0], "Helvetica")] * len(lines[0].split(" ")),
            [([0.0, 1.0, 0.0], "Helvetica")] * len(lines[1].split(" ")),
        ],
    )
    b.span("paragraph", "\n".join(lines))
    # MIXED word styles inside ONE line (reference
    # tests/test_word_colors.py:7-143): first word red, rest black → the
    # line-level ncolor must NOT lift
    mixed = _body_line(rng)
    n_words = len(mixed.split(" "))
    page_no, y1, _ = b.reserve(LINE_H)
    b.raw_textbox(
        page_no, MARGIN_X, y1, [mixed],
        word_styles=[
            [([1.0, 0.0, 0.0], "Courier")]
            + [([0.0, 0.0, 0.0], "Courier")] * (n_words - 1)
        ],
    )
    b.span("paragraph", mixed)
    b.add_par()


def _fam_rawchars(b: FlowBuilder, rng):
    """Char-level sidecar: the engine performs the FULL assembly chain —
    char → word (gap > word_margin·width) → line (y-center grouping) →
    textbox text (utils.py:467-631)."""
    for _ in range(2):
        b.add_par(as_chars=True)
    # multi-line char box
    lines = [_body_line(rng) for _ in range(3)]
    page_no, y1, _ = b.reserve(3 * LINE_H)
    b.raw_textbox(page_no, MARGIN_X, y1, lines, as_chars=True)
    b.span("paragraph", "\n".join(lines))
    # chars with mixed styles per word: word styles survive assembly
    mixed = _body_line(rng)
    page_no, y1, _ = b.reserve(LINE_H)
    words = mixed.split(" ")
    runs = []
    off = 0
    for k, w in enumerate(words):
        color = [1.0, 0.0, 0.0] if k == 0 else [0.0, 0.0, 0.0]
        for j, ch in enumerate(w):
            runs.append(
                {
                    "text": ch,
                    "x0": MARGIN_X + (off + j) * CHAR_W,
                    "y0": y1 - LINE_H,
                    "x1": MARGIN_X + (off + j + 1) * CHAR_W,
                    "y1": y1,
                    "ncolor": color,
                    "fontname": "Courier",
                }
            )
        off += len(w) + 1
    rng.shuffle(runs)
    b.textboxes.append(
        {
            "page": page_no,
            "x0": MARGIN_X,
            "y0": float(y1 - LINE_H),
            "x1": MARGIN_X + len(mixed) * CHAR_W,
            "y1": float(y1),
            "words": None,
            "chars": runs,
        }
    )
    # manual textbox append bypasses raw_textbox — advance the paragraph
    # placement counter and record the style oracle rows by hand
    b.expected_styles.extend(
        _style_rows(
            [
                [
                    (w, [1.0, 0.0, 0.0] if k == 0 else [0.0, 0.0, 0.0],
                     "Courier")
                    for k, w in enumerate(words)
                ]
            ],
            page_no,
            len(b.textboxes) - 1,
        )
    )
    b._par_place += 1
    b.span("paragraph", mixed, page=page_no)
    b.add_par(as_chars=True)


def _fam_actionoutline(b: FlowBuilder, rng):
    """Non-GoTo outline actions (catalog.py:292-298): the node is skipped,
    its children resolve into the PREVIOUS emitted sibling's content
    (resolve_outline appends into outline_list[-1]['content'])."""
    t1, t2, t3 = _titles(rng, 3)
    b.add_heading("1", f"1 {t1}")
    b.add_par()
    # external node (no rendered textbox, no dest) with one child
    b.add_outline_entry("2", f"Ext {t2}", b.page_no, MARGIN_X, b.cursor,
                        dest_kind="external")
    # the child lands under chapter 1 in the walked tree → path 1.1; its
    # title number "1.1" matches, so numbering comes from the title
    b.add_heading("2.1", f"1.1 {t3}")
    b.add_par()


def _fam_rawpage(b: FlowBuilder, rng):
    """The RAWEST layout form: one UNGROUPED word soup for the whole page —
    the engine must perform pdfminer's group_textlines step (line_margin
    clustering of lines into textboxes, libpdf/textbox.py:934-977 +
    parameters.py:220-228) before any element extraction, then match the
    heading and render paragraphs as usual."""
    t1 = _title(rng)
    page_no, y1h, _ = b.reserve(LINE_H)
    display = f"1 {t1}"
    soup = list(_line_words(display, MARGIN_X, y1h))
    soup_lines = [display]
    b.add_outline_entry("1", display, page_no, MARGIN_X, y1h)
    b.span("chapter", display, page=page_no, path="1")
    for _ in range(3):
        lines = [_body_line(rng) for _ in range(1 + int(rng.integers(0, 3)))]
        page_no2, y1p, _ = b.reserve(len(lines) * LINE_H)
        assert page_no2 == page_no, "rawpage fixture must fit one page"
        for i, ln in enumerate(lines):
            soup.extend(_line_words(ln, MARGIN_X, y1p - i * LINE_H))
        soup_lines.extend(lines)
        b.span("paragraph", "\n".join(lines))
    rng.shuffle(soup)
    b.textboxes.append(
        {
            "page": page_no,
            "x0": min(w["x0"] for w in soup),
            "y0": min(w["y0"] for w in soup),
            "x1": max(w["x1"] for w in soup),
            "y1": max(w["y1"] for w in soup),
            "words": soup,
            "chars": None,
            "ungrouped": True,
        }
    )
    # style-oracle rows for the soup box: the style view assembles lines
    # box-wide (no group_textlines split), so the page's lines appear
    # top→down under ONE box_idx; every word is unstyled (None/None)
    b.expected_styles.extend(
        _style_rows(
            [
                [(w, None, None) for w in ln.split(" ") if w != ""]
                for ln in soup_lines
            ],
            page_no,
            len(b.textboxes) - 1,
        )
    )


def _fam_skew(b: FlowBuilder, rng, n_pages: int = 40):
    # the skew tail of the north rule: a long outlined manual (chapters on
    # every page — the realistic shape; fuzzy chapter matching is the
    # dominant per-page extraction cost) next to 1-page flyers
    for p in range(1, n_pages + 1):
        if p > 1:
            b.new_page()
        for k in (1, 2):
            num = f"{p}.{k}"
            b.add_heading(f"{2 * (p - 1) + k}", f"{num} {_title(rng)}")
            for _ in range(3):
                b.add_par()


FAMILY_BUILDERS = {
    "plain": _fam_plain,
    "outlined": _fam_outlined,
    "chapternum": _fam_chapternum,
    "splitchapter": _fam_splitchapter,
    "fuzzychapter": _fam_fuzzychapter,
    "emptyoutline": _fam_emptyoutline,
    "figures": _fam_figures,
    "tables": _fam_tables,
    "rects": _fam_rects,
    "headerfooter": _fam_headerfooter,
    "linked": _fam_linked,
    "colors": _fam_colors,
    "skew": _fam_skew,
    "twocolumn": _fam_twocolumn,
    "tablelinks": _fam_tablelinks,
    "rawchars": _fam_rawchars,
    "actionoutline": _fam_actionoutline,
    "rawpage": _fam_rawpage,
}


# fixed cross-document boilerplate (license-blurb analog): planted verbatim
# in every even-indexed document so corpus-level boilerplate detection has
# ceil(n/2) >= max(min_docs, trunc(0.5 n)) hits — a non-trivial oracle for
# ops/boilerplate.py.  Vocabulary is disjoint from WORDS and TITLE_WORDS so
# chapter fuzzy matching can never cross on it.
BOILERPLATE_LINES = [
    "content provided verbatim without warranty of merchantability",
    "redistribution restricted to accredited research consortium members",
]


def build_document(doc_index: int, family: str, seed: int = 42, skew_pages: int = 40) -> dict:
    rng = np.random.default_rng([seed, doc_index])
    doc_id = f"doc-{doc_index:06d}"
    b = FlowBuilder(doc_id, rng)
    if family == "skew":
        _fam_skew(b, rng, n_pages=skew_pages)
    else:
        FAMILY_BUILDERS[family](b, rng)
    if doc_index % 2 == 0:
        # families that manage their own y cursors (twocolumn) leave
        # b.cursor above already-placed boxes; drop below page content so
        # the blurb is LAST in (page, height−y0) reading order
        ys = [tb["y0"] for tb in b.textboxes if tb["page"] == b.page_no]
        if ys:
            b.cursor = min(b.cursor, min(ys) - 10.0)
        b.add_par(lines=list(BOILERPLATE_LINES))
    return b.build_row(family)


def make_corpus_rows(
    n_docs: int,
    seed: int = 42,
    families=DEFAULT_FAMILIES,
    skew_pages: int = 40,
) -> list:
    return [
        build_document(i, families[i % len(families)], seed, skew_pages)
        for i in range(n_docs)
    ]


def corpus_table(n_docs: int, seed: int = 42, families=DEFAULT_FAMILIES, skew_pages: int = 40) -> pa.Table:
    rows = make_corpus_rows(n_docs, seed, families, skew_pages)
    return pa.Table.from_pylist(rows, schema=RAW_DOC_SCHEMA)


def write_corpus(
    out_dir: str,
    n_docs: int,
    seed: int = 42,
    shards: int = 8,
    families=DEFAULT_FAMILIES,
    skew_pages: int = 40,
    row_group_size: int = 24,
) -> str:
    """Write the corpus as ``shards`` parquet files (the resume/partition
    unit of the pipeline).  Idempotent for a given (n_docs, seed, shards,
    SCHEMA_VERSION).

    Row groups are sized to the parse batch (24 docs): fragment-level
    reads, predicate pushdown and read/parse fusion then all operate at
    task granularity — a 1-row-group shard forces whole-file blocks and
    measured ~20% slower end-to-end extraction."""
    os.makedirs(out_dir, exist_ok=True)
    import hashlib

    fam_tag = hashlib.md5(",".join(families).encode()).hexdigest()[:8]
    marker = os.path.join(
        out_dir,
        f"_done_v{SCHEMA_VERSION}_n{n_docs}_s{seed}_p{shards}_k{skew_pages}"
        f"_f{fam_tag}_g{row_group_size}",
    )
    if os.path.exists(marker):
        return out_dir
    per = (n_docs + shards - 1) // shards
    for shard in range(shards):
        lo, hi = shard * per, min((shard + 1) * per, n_docs)
        if lo >= hi:
            break
        rows = [
            build_document(i, families[i % len(families)], seed, skew_pages)
            for i in range(lo, hi)
        ]
        table = pa.Table.from_pylist(rows, schema=RAW_DOC_SCHEMA)
        pq.write_table(
            table,
            os.path.join(out_dir, f"part-{shard:04d}.parquet"),
            row_group_size=row_group_size,
        )
    with open(marker, "w") as fh:
        fh.write("ok")
    return out_dir
