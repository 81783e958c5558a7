"""The 4-level text model: HorizontalBox → HorizontalLine → Word → Char.

Round 2: the layout assembly is a REAL engine kernel — the decoders supply
per-word boxes or glyph tables (column arrays, the PDF decoder's in
content-stream order) and the engine performs:

- **line grouping by vertical center** with the reference's y tolerance
  (``assemble_to_lt_textlines``, /root/reference/libpdf/utils.py:606-631:
  a char joins the current line when |y-center − last y-center| <
  ``y_tolerance``; the reference passes ``LA_PARAMS['line_overlap']`` = 0.5
  *points* here — a quirk preserved deliberately);
- **word assembly by gap** (pdfminer ``LTTextLineHorizontal`` semantics the
  reference relies on via ``word_margin``: a space is inserted when the gap
  to the previous glyph exceeds ``word_margin ×`` the glyph's width);
- **text joins** (they define span-text equality, SURVEY §2.8): chars join
  with ``''`` → word (horizontal_box.py:199-202), words with ``' '`` → line
  (147-150), lines with ``'\\n'`` → box (95-98);
- **attribute lifting**: ``ncolor`` / ``fontname`` lift to the parent level
  only when uniform across all children (horizontal_box.py:85-92,137-144,
  190-196) — mixed word styles inside one line are now representable and
  exercised (reference tests/test_word_colors.py:7-143).

Texts come first, lines on demand.  A document's word boxes are laid out
together (:func:`lay_out_word_boxes`, one :class:`WordLayout`): line
grouping and the span text of every box straight from the word table,
one ``' '.join`` per line and one ``'\n'.join`` per box.  Line dicts —
bboxes, lifted styles and the ``_wt``/``_idx`` word addresses — are built
by the one line builder, :func:`_build_lines`, for all of the document's
word boxes at once, on the first read of any box's lines through
:func:`box_lines`.  The readers are links on annotated pages, table-cell
and rect word crops, ungrouped regions (grouped into boxes by their
lines) and the ``text_styles`` view; a spans-only parse of most
documents builds none.  Glyph soups (:func:`assemble_glyph_lines`) and
crops (:func:`assemble_word_lines`) build their lines at once, through
the same builder.
"""

from __future__ import annotations


def _uniform(values):
    """Return the single distinct value, or None when mixed / empty."""
    it = iter(values)
    try:
        first = next(it)
    except StopIteration:
        return None
    for v in it:
        if v != first:
            return None
    return first


def _norm_color(ncolor):
    if ncolor is None:
        return None
    t = tuple(float(c) for c in ncolor)
    return t if t else None


def _object_array(values):
    import numpy as np

    if isinstance(values, np.ndarray):
        return values
    return np.fromiter(values, dtype=object, count=len(values))


def glyph_table_from_dicts(chars: list) -> dict:
    """Per-glyph or per-word dicts (fixture rows, the decoder's
    ``to_pylist`` fallback, unit tests) → the table the decoders hand the
    layout kernels: ``text``, ``x0..y1`` float arrays, normalized
    ``ncolor`` / ``fontname`` object arrays and the ``_has_color`` /
    ``_has_font`` masks.  A missing coordinate becomes NaN, which is how a
    pseudo-anno glyph says "no geometry"."""
    import numpy as np

    nan = float("nan")
    tab = {"text": _object_array([c.get("text") for c in chars])}
    for k in ("x0", "y0", "x1", "y1"):
        tab[k] = np.array(
            [nan if c.get(k) is None else c[k] for c in chars], dtype=np.float64
        )
    tab["ncolor"] = _object_array([_norm_color(c.get("ncolor")) for c in chars])
    tab["fontname"] = _object_array([c.get("fontname") or None for c in chars])
    tab["_has_color"] = np.array([c is not None for c in tab["ncolor"]], dtype=bool)
    tab["_has_font"] = np.array([f is not None for f in tab["fontname"]], dtype=bool)
    return tab


def _style_codes(tab: dict, key: str, rows) -> tuple:
    """(style id, normalized value) of each of ``rows`` for the ``ncolor``
    or ``fontname`` column; id 0 is "no style" (None).  Two rows share an
    id iff ``_uniform`` would call their values equal, so a run is uniform
    iff its min id equals its max id.  The PDF decoder interns ids per
    document (``_color_id`` / ``_font_id``); other tables intern the
    styled ones of ``rows`` here, and never touch the rest."""
    import numpy as np

    vals = tab[key][rows]
    ids = tab.get("_color_id" if key == "ncolor" else "_font_id")
    if ids is not None:
        return ids[rows], vals
    has = tab.get("_has_color" if key == "ncolor" else "_has_font")
    norm = _norm_color if key == "ncolor" else (lambda f: f or None)
    ids = np.zeros(len(vals), dtype=np.int64)
    out = np.full(len(vals), None, dtype=object)
    seen: dict = {}
    styled = range(len(vals)) if has is None else np.flatnonzero(has[rows]).tolist()
    for i in styled:
        v = norm(vals[i])
        if v is not None:
            ids[i] = seen.setdefault(v, len(seen) + 1)
            out[i] = v
    return ids, out


def _segment_style(ids, vals, starts) -> tuple:
    """Per-segment (id, value): the first row's when every row of the
    segment shares one id, else (0, None) — mixed lifts to None."""
    import numpy as np

    lo = np.minimum.reduceat(ids, starts)
    seg = np.where(lo == np.maximum.reduceat(ids, starts), lo, 0)
    return seg, np.where(seg > 0, vals[starts], None)


def assemble_glyph_lines(
    tab: dict,
    y_tolerance: float = 0.5,
    word_margin: float = 0.1,
    char_margin: float = 0.0,
    stream_ordered: bool = False,
) -> list:
    """Glyph table → assembled line dicts, top-to-bottom: the layout
    analysis of a char soup as one pass of array ops.

    Line building has two modes, both pdfminer's neighbour tests on
    shifted arrays:

    - ``stream_ordered`` with ``char_margin`` > 0 (a real-PDF page soup):
      a glyph extends the current line iff it overlaps the PREVIOUS
      STREAM glyph vertically by more than 0.5 × the smaller height and
      sits within ``char_margin`` × the wider glyph horizontally.  Stream
      locality keeps columns apart even across a gutter narrower than
      ``char_margin`` × width; finished lines are ordered by
      (−(min y0 + max y1)/2, first x0).
    - otherwise (shuffled sidecar soups) glyphs are sorted by (−y-center,
      x0) and a glyph joins the previous one's line when the centers are
      within ``y_tolerance`` OR the boxes overlap by more than 0.5 × the
      smaller height (mixed-metric runs on one baseline); an ungrouped
      region (``char_margin`` > 0) then splits each x-sorted line at gaps
      ≥ ``char_margin`` × the wider neighbour (side-by-side columns).

    Words follow pdfminer's ``word_margin`` rule: a word breaks at a
    whitespace glyph (which joins no word) or where the gap to the previous
    glyph of the line exceeds ``word_margin`` × the glyph's width.  Word
    and line styles lift only when uniform.  Pseudo-anno glyphs (whitespace
    with a NaN box, libpdf/extract.py:446-486) are dropped first, and lines
    of only whitespace never appear.  Lines come back in the lazy
    ``_wt``/``_idx`` form over one word table (see :func:`line_word_dicts`).
    """
    import numpy as np

    text = _object_array(tab["text"])
    cids, cvals = _style_codes(tab, "ncolor", slice(None))
    fids, fvals = _style_codes(tab, "fontname", slice(None))
    x0, y0, x1, y1 = (tab[k] for k in ("x0", "y0", "x1", "y1"))
    drop = [
        i for i in np.flatnonzero(np.isnan(x0)).tolist() if text[i] in (" ", "\n")
    ]
    if drop:
        keep = np.ones(len(text), dtype=bool)
        keep[drop] = False
        text, x0, y0, x1, y1, cids, cvals, fids, fvals = (
            a[keep] for a in (text, x0, y0, x1, y1, cids, cvals, fids, fvals)
        )
    n = len(text)
    if n == 0:
        return []

    if stream_ordered and char_margin > 0.0:
        a, b = slice(None, -1), slice(1, None)
        overlap = np.minimum(y1[a], y1[b]) - np.maximum(y0[a], y0[b])
        min_h = np.minimum(y1[a] - y0[a], y1[b] - y0[b])
        hdist = np.where(
            x0[b] >= x1[a], x0[b] - x1[a],
            np.where(x0[a] >= x1[b], x0[a] - x1[b], 0.0),
        )
        width = np.maximum(x1[a] - x0[a], x1[b] - x0[b])
        brk = np.ones(n, dtype=bool)
        brk[1:] = ~((overlap > 0.5 * min_h) & (hdist < char_margin * width))
        line = np.cumsum(brk) - 1
        starts = np.flatnonzero(brk)
        # order finished lines by (−(min y0 + max y1)/2, first x0)
        ykey = -(np.minimum.reduceat(y0, starts)
                 + np.maximum.reduceat(y1, starts)) / 2.0
        first_x0 = np.minimum.reduceat(x0, starts)
        rank = np.empty(len(starts), dtype=np.int64)
        rank[np.lexsort((first_x0, ykey))] = np.arange(len(starts))
        line = rank[line]
        order = np.lexsort((x0, line))
        line = line[order]
    else:
        yc = (y0 + y1) / 2.0
        order = np.lexsort((x0, -yc))
        yo, y0o, y1o = yc[order], y0[order], y1[order]
        half_h = 0.5 * np.minimum(y1o[1:] - y0o[1:], y1o[:-1] - y0o[:-1])
        same = (np.abs(np.diff(yo)) < y_tolerance) | (
            (np.minimum(y1o[1:], y1o[:-1]) - np.maximum(y0o[1:], y0o[:-1]) > half_h)
            & (half_h > 0)
        )
        line = np.concatenate(([0], np.cumsum(~same)))
        resort = np.lexsort((x0[order], line))
        order, line = order[resort], line[resort]
    # glyph rows in final order: by line, x-sorted within each line
    x0, y0, x1, y1 = x0[order], y0[order], x1[order], y1[order]
    newline = np.ones(n, dtype=bool)
    newline[1:] = line[1:] != line[:-1]
    if char_margin > 0.0 and not stream_ordered:
        gap = x0[1:] - x1[:-1]
        width = np.maximum(x1[1:] - x0[1:], x1[:-1] - x0[:-1])
        newline[1:] |= (gap >= char_margin * width) & (gap > 0)

    text = text[order]
    ws = np.fromiter((not s or s.isspace() for s in text), dtype=bool, count=n)
    new_word = newline.copy()
    new_word[1:] |= ws[:-1] | (x0[1:] - x1[:-1] > word_margin * (x1[1:] - x0[1:]))
    kept = np.flatnonzero(~ws)
    if len(kept) == 0:
        return []
    wstart = np.flatnonzero(new_word[kept])
    nw = len(wstart)
    wx0 = np.minimum.reduceat(x0[kept], wstart)
    wy0 = np.minimum.reduceat(y0[kept], wstart)
    wx1 = np.maximum.reduceat(x1[kept], wstart)
    wy1 = np.maximum.reduceat(y1[kept], wstart)
    gk = order[kept]  # table rows of the word glyphs, in final order
    wc, wcolor = _segment_style(cids[gk], cvals[gk], wstart)
    wf, wfont = _segment_style(fids[gk], fvals[gk], wstart)
    chars = text[kept].tolist()
    bounds = np.append(wstart, len(kept)).tolist()
    wtext = ["".join(chars[bounds[k]:bounds[k + 1]]) for k in range(nw)]

    wline = (np.cumsum(newline) - 1)[kept[wstart]]
    lstart = np.flatnonzero(np.concatenate(([True], wline[1:] != wline[:-1])))
    wt = {
        "text": _object_array(wtext),
        "x0": wx0, "y0": wy0, "x1": wx1, "y1": wy1,
        "ncolor": wcolor, "fontname": wfont, "_color_id": wc, "_font_id": wf,
    }
    return _build_lines(wt, np.arange(nw, dtype=np.int64), lstart)


def _build_lines(wt: dict, rows, starts, text=None) -> list:
    """The line builder both layout kernels end in: word-table ``rows``
    in final order (line after line, x-sorted within each line) and the
    position where each line starts → line dicts.  Bboxes fold with
    ``reduceat``; ``ncolor`` / ``fontname`` lift only when uniform,
    through :func:`_style_codes` over ``rows`` alone (a batch table's
    other rows are never read).  Lines stay lazy: ``_wt``/``_idx``
    address the word table (see :func:`line_word_dicts`).  ``text``, the
    line texts, is taken as given when the caller has them already."""
    import numpy as np

    x0, y0 = (np.minimum.reduceat(wt[k][rows], starts).tolist() for k in ("x0", "y0"))
    x1, y1 = (np.maximum.reduceat(wt[k][rows], starts).tolist() for k in ("x1", "y1"))
    color = _segment_style(*_style_codes(wt, "ncolor", rows), starts)[1].tolist()
    font = _segment_style(*_style_codes(wt, "fontname", rows), starts)[1].tolist()
    bounds = np.append(starts, len(rows)).tolist()
    if text is None:
        text = _line_texts(wt, rows, bounds)
    return [
        {
            "text": text[i],
            "ncolor": color[i],
            "fontname": font[i],
            "x0": x0[i],
            "y0": y0[i],
            "x1": x1[i],
            "y1": y1[i],
            "_wt": wt,
            "_idx": rows[a:b],
        }
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


def _line_texts(wt: dict, rows, bounds: list) -> list:
    """Line texts: the words of each line (``rows[bounds[i]:bounds[i+1]]``)
    joined with ``' '``."""
    words = wt["text"][rows].tolist()
    return [" ".join(words[a:b]) for a, b in zip(bounds, bounds[1:])]


class WordLayout:
    """The word layout of several boxes over one word table, all boxes in
    one pass of array ops: each box's text at once, its line dicts only
    when something reads them.

    ``rows`` lists, box after box, the table rows in each box and
    ``counts`` how many each box has; a row may sit in several boxes (a
    word inside two table cells' crops).  Within a box, words sort by
    (−y-center, x0), stably, and a word joins the previous one's line
    when the centers are less than ``y_tolerance`` apart — the reference's
    running-center rule (utils.py:614-629), which it calls with
    line_overlap=0.5 *points*, a quirk pinned by tests (centers 0.6 pt
    apart split).  Each line then sorts by x0, stably.  A word with a
    missing (NaN) coordinate is malformed input and raises ``ValueError``.

    Texts come straight from the word table (:meth:`text`).  The first
    :meth:`box_lines` call builds the line dicts of EVERY box through
    :func:`_build_lines` and keeps them; most boxes of a spans-only parse
    are never asked, so most layouts never build any."""

    def __init__(self, tab: dict, rows, counts, y_tolerance: float = 0.5):
        import numpy as np

        counts = np.asarray(counts, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        self.tab, self._lines = tab, None
        self.first = [0] * (len(counts) + 1)
        self.texts: list = []
        if len(rows) == 0:
            return
        x0, y0, x1, y1 = (tab[k][rows] for k in ("x0", "y0", "x1", "y1"))
        if np.isnan([x0, y0, x1, y1]).any():
            raise ValueError("word box with a missing coordinate")
        box = np.repeat(np.arange(len(counts)), counts)
        yc = (y0 + y1) / 2.0
        order = np.lexsort((x0, -yc, box))
        newline = np.ones(len(rows), dtype=bool)
        newline[1:] = (np.diff(box[order]) != 0) | (np.abs(np.diff(yc[order])) >= y_tolerance)
        order = order[np.lexsort((x0[order], np.cumsum(newline)))]
        self.rows, self.starts = rows[order], np.flatnonzero(newline)
        # lines are box after box: box b owns lines first[b]:first[b + 1]
        self.first = np.searchsorted(
            box[order[self.starts]], np.arange(len(counts) + 1)).tolist()
        self.texts = _line_texts(tab, self.rows, np.append(self.starts, len(rows)).tolist())

    def text(self, b: int) -> str:
        """Span text of box ``b``, equal to :func:`textbox_text` of its
        lines: line texts joined with ``'\\n'``, trailing newline stripped."""
        return "\n".join(self.texts[self.first[b]:self.first[b + 1]]).rstrip("\n")

    def box_lines(self, b: int) -> list:
        """Line dicts of box ``b``, top-to-bottom (built for every box on
        the first call)."""
        if self._lines is None:
            self._lines = (_build_lines(self.tab, self.rows, self.starts, self.texts)
                           if self.texts else [])
        return self._lines[self.first[b]:self.first[b + 1]]


def assemble_word_lines(tab: dict, rows, counts, y_tolerance: float = 0.5) -> list:
    """Word table → assembled line dicts for each of several boxes (see
    :class:`WordLayout` for ``rows``/``counts`` and the line rules);
    returns one top-to-bottom line list per box."""
    layout = WordLayout(tab, rows, counts, y_tolerance)
    return [layout.box_lines(b) for b in range(len(layout.first) - 1)]


def lay_out_word_boxes(boxes: list, y_tolerance: float = 0.5) -> None:
    """Lay out word boxes in one :class:`WordLayout`: each box gets its
    ``text`` now and its lines on first read through :func:`box_lines`."""
    layout = WordLayout(*word_box_table(boxes), y_tolerance)
    for b, tb in enumerate(boxes):
        tb["text"] = layout.text(b)
        tb["_layout"] = (layout, b)


def box_lines(tb: dict) -> list:
    """The assembled line dicts of a textbox: its ``lines``, or, for a box
    laid out by :func:`lay_out_word_boxes`, the lines of its word layout,
    built on this first read.  Every reader of a box's lines goes through
    here."""
    lines = tb.get("lines")
    if lines is None:
        layout, b = tb["_layout"]
        lines = tb["lines"] = layout.box_lines(b)
    return lines


def word_box_table(boxes: list) -> tuple:
    """Word boxes → ``(table, rows, counts)`` for :class:`WordLayout`:
    ONE word table and each box's rows in it.  Decoded boxes carry
    ``wordtab`` views ``(table, lo, hi)`` over their batch's flat table;
    dict ``words`` (direct rows, the decoder's ``to_pylist`` fallback)
    become one table through :func:`glyph_table_from_dicts`.  Boxes over
    several tables (never produced by one decoder) get them concatenated."""
    import numpy as np

    loose = [w for tb in boxes if tb.get("wordtab") is None for w in tb.get("words") or []]
    dict_tab = glyph_table_from_dicts(loose) if loose else None
    views, lo = [], 0
    for tb in boxes:
        view = tb.get("wordtab")
        if view is None:
            n = len(tb.get("words") or [])
            view, lo = (dict_tab, lo, lo + n), lo + n
        views.append(view)
    tables = list({id(t): t for t, a, b in views if b > a}.values())
    base = np.cumsum([0] + [len(t["text"]) for t in tables]).tolist()
    offset = {id(t): o for t, o in zip(tables, base)}
    if len(tables) > 1:
        tables = [{k: np.concatenate([t[k] for t in tables])
                   for k in tables[0] if all(k in t for t in tables)}]
    counts = np.array([b - a for _, a, b in views], dtype=np.int64)
    first = np.array([offset.get(id(t), 0) + a for t, a, _ in views], dtype=np.int64)
    rows = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)
    return (tables[0] if tables else None), rows, counts


def assemble_textbox_lines(
    textbox: dict,
    y_tolerance: float = 0.5,
    word_margin: float = 0.1,
    char_margin: float = 0.0,
) -> list:
    """Raw textbox → assembled line dicts, top-to-bottom (the engine's
    layout analysis step).  Glyphs — a ``chartab`` view or ``chars``
    dicts — take :func:`assemble_glyph_lines`; words — a ``wordtab`` view
    or ``words`` dicts — take :func:`assemble_word_lines`.  Read word dicts
    through :func:`line_word_dicts`."""
    chars = textbox.get("chartab")
    if chars is None and textbox.get("chars"):
        chars = glyph_table_from_dicts(textbox["chars"])
    if chars is not None:
        return assemble_glyph_lines(
            tab_slice(chars), y_tolerance, word_margin, char_margin,
            bool(textbox.get("stream_ordered")),
        )
    return assemble_word_lines(*word_box_table([textbox]), y_tolerance)[0]


def tab_slice(tab):
    """Materialize a word-table view.

    The decoder hands textboxes LIGHT views ``(shared_table, lo, hi)`` into
    the batch-level flat word table (building one slice dict per textbox
    was 15% of parse-task time — measured round 4); this materializes the
    dict-of-slices form for the code paths that want per-box arrays
    (glyph assembly, styles view, legacy dict tabs pass through)."""
    if tab is None or isinstance(tab, dict):
        return tab
    shared, lo, hi = tab
    # the decoder's per-row "_has_color"/"_has_font" masks slice like any
    # other aligned column and keep the style-skip fast path alive
    return {k: v[lo:hi] for k, v in shared.items()}


def line_word_dicts(line: dict) -> list:
    """Word dicts of an assembled line, materializing lazily for
    array-backed lines (the ``_wt``/``_idx`` form)."""
    if "words" in line:
        return line["words"]
    wt, idx = line["_wt"], line["_idx"]
    words = [
        {
            "text": wt["text"][i],
            "x0": float(wt["x0"][i]),
            "y0": float(wt["y0"][i]),
            "x1": float(wt["x1"][i]),
            "y1": float(wt["y1"][i]),
            "ncolor": _norm_color(wt["ncolor"][i]),
            "fontname": wt["fontname"][i] or None,
        }
        for i in idx
    ]
    line["words"] = words
    return words


def textbox_word_dicts(textbox: dict) -> list:
    """All word dicts of an assembled textbox (crop inputs for table
    cells), lazy for array-backed lines."""
    return [w for ln in box_lines(textbox) for w in line_word_dicts(ln)]


def group_lines_into_boxes(lines: list, line_margin: float = 0.4) -> list:
    """Cluster assembled lines into textboxes — pdfminer's
    ``group_textlines`` semantics over an UNGROUPED page region: a line
    joins the current box when the vertical gap to the previous line is
    smaller than ``line_margin ×`` the line height (LA_PARAMS
    line_margin=0.4, /root/reference/libpdf/parameters.py:220-228; the
    layout-analysis step the reference delegates to pdfminer,
    libpdf/textbox.py:934-977).

    ``lines`` must carry bboxes (assembled from word/char geometry) and be
    in top-to-bottom order.  Returns textbox dicts
    ``{"x0","y0","x1","y1","lines"}``."""
    boxes = []
    cur: list = []
    prev = None
    for ln in lines:
        if prev is not None:
            gap = prev["y0"] - ln["y1"]
            height = max(ln["y1"] - ln["y0"], prev["y1"] - prev["y0"])
            if gap >= line_margin * height:
                boxes.append(cur)
                cur = []
        cur.append(ln)
        prev = ln
    if cur:
        boxes.append(cur)
    return [
        {
            "x0": min(ln["x0"] for ln in box),
            "y0": min(ln["y0"] for ln in box),
            "x1": max(ln["x1"] for ln in box),
            "y1": max(ln["y1"] for ln in box),
            "lines": box,
        }
        for box in boxes
    ]


def group_lines_into_boxes_la(lines: list, line_margin: float = 0.4,
                              align_tolerance: float = 2.0) -> list:
    """Layout-analysis textbox grouping for an UNGROUPED page region with
    possible COLUMNS: pdfminer ``find_neighbors`` semantics — a line
    joins a box only when the vertical gap fits AND the line is
    left-aligned, right-aligned, or x-overlapping with it.  Unlike the
    sequential :func:`group_lines_into_boxes`, several boxes stay OPEN at
    once, so two columns' alternating lines each find their own column's
    box instead of breaking the other's.

    ``lines`` top-to-bottom (ties left-to-right); returns textbox dicts
    in first-line order."""
    boxes: list = []  # each: {"x0","y0","x1","y1","lines",...}
    for ln in lines:
        if "y1" not in ln:
            continue
        height = ln["y1"] - ln["y0"]
        best = None
        best_overlap = -1.0
        for box in boxes:
            last = box["lines"][-1]
            gap = last["y0"] - ln["y1"]
            ref_h = max(height, last["y1"] - last["y0"])
            if gap >= line_margin * ref_h or gap < -0.6 * ref_h:
                continue
            x_overlap = min(box["x1"], ln["x1"]) - max(box["x0"], ln["x0"])
            aligned = (
                abs(ln["x0"] - box["x0"]) <= align_tolerance
                or abs(ln["x1"] - box["x1"]) <= align_tolerance
            )
            if x_overlap > 0 or aligned:
                if x_overlap > best_overlap:
                    best = box
                    best_overlap = x_overlap
        if best is None:
            boxes.append(
                {
                    "x0": ln["x0"], "y0": ln["y0"],
                    "x1": ln["x1"], "y1": ln["y1"],
                    "lines": [ln],
                }
            )
        else:
            best["lines"].append(ln)
            best["x0"] = min(best["x0"], ln["x0"])
            best["y0"] = min(best["y0"], ln["y0"])
            best["x1"] = max(best["x1"], ln["x1"])
            best["y1"] = max(best["y1"], ln["y1"])
    return boxes


def hbox_from_lines(lines: list) -> dict:
    """Assembled line dicts → the full HorizontalBox model with box-level
    attribute lifting (horizontal_box.py:85-98)."""
    return {
        "text": "\n".join(ln["text"] for ln in lines),
        "ncolor": _uniform(ln["ncolor"] for ln in lines),
        "fontname": _uniform(ln["fontname"] for ln in lines),
        "lines": lines,
    }


def textbox_text(textbox: dict) -> str:
    """Span text of a textbox whose ``lines`` are already assembled:
    '\\n'-joined line texts with the trailing newline stripped
    (``libpdf/textbox.py:128-133`` removes the final LTAnno newline before
    paragraph rendering)."""
    return "\n".join(ln["text"] for ln in box_lines(textbox)).rstrip("\n")


def is_whitespace_only(text: str) -> bool:
    """Noise-box test of ``libpdf/textbox.py:129`` (``^\\s*$``)."""
    return text.strip() == ""
