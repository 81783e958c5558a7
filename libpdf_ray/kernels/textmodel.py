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


def _cluster_into_lines(items: list, y_tolerance: float) -> list:
    """Group word runs into lines by vertical center.

    ``items`` arrive in arbitrary order (the sidecar shuffles them); they are
    first brought into layout order (top→bottom, left→right), then folded
    with the reference's running-last-center rule (utils.py:614-629): the
    reference passes line_overlap=0.5 POINTS as textbox_crop's y_tolerance,
    a quirk pinned by tests (centers 0.6 pt apart must split).
    Each returned line is sorted by x0."""
    if not items:
        return []
    ordered = sorted(
        items, key=lambda it: (-(it["y0"] + it["y1"]) / 2.0, it["x0"])
    )
    lines = [[ordered[0]]]
    last_yc = (ordered[0]["y0"] + ordered[0]["y1"]) / 2.0
    for it in ordered[1:]:
        yc = (it["y0"] + it["y1"]) / 2.0
        if abs(yc - last_yc) < y_tolerance:
            lines[-1].append(it)
        else:
            lines.append([it])
        last_yc = yc
    for line in lines:
        line.sort(key=lambda it: it["x0"])
    return lines


def _line_from_words(words: list) -> dict:
    """x-sorted word dicts → line dict with lifted attributes (+ bbox when
    the words carry geometry — needed by textbox grouping)."""
    line = {
        "text": " ".join(w["text"] for w in words),
        "ncolor": _uniform(w["ncolor"] for w in words),
        "fontname": _uniform(w["fontname"] for w in words),
        "words": words,
    }
    if words and "x0" in words[0]:
        line["x0"] = min(w["x0"] for w in words)
        line["y0"] = min(w["y0"] for w in words)
        line["x1"] = max(w["x1"] for w in words)
        line["y1"] = max(w["y1"] for w in words)
    return line


def _object_array(values):
    import numpy as np

    if isinstance(values, np.ndarray):
        return values
    return np.fromiter(values, dtype=object, count=len(values))


def glyph_table_from_dicts(chars: list) -> dict:
    """Per-glyph dicts (fixture rows, unit tests) → the glyph table the
    decoders hand the layout kernel: ``text``, ``x0..y1`` float arrays,
    normalized ``ncolor`` / ``fontname`` object arrays and the
    ``_has_color`` / ``_has_font`` masks.  A missing coordinate becomes
    NaN, which is how a pseudo-anno glyph says "no geometry"."""
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


def _style_codes(tab: dict, key: str) -> tuple:
    """(per-glyph style id, per-glyph normalized value) for the ``ncolor``
    or ``fontname`` column; id 0 is "no style" (None).  Two glyphs share an
    id iff ``_uniform`` would call their values equal, so a run is uniform
    iff its min id equals its max id.  The PDF decoder interns ids per
    document (``_color_id`` / ``_font_id``); other tables intern their
    styled rows here."""
    import numpy as np

    vals = tab[key]
    ids = tab.get("_color_id" if key == "ncolor" else "_font_id")
    if ids is not None:
        return ids, vals
    has = tab.get("_has_color" if key == "ncolor" else "_has_font")
    norm = _norm_color if key == "ncolor" else (lambda f: f or None)
    ids = np.zeros(len(vals), dtype=np.int64)
    out = np.full(len(vals), None, dtype=object)
    seen: dict = {}
    rows = range(len(vals)) if has is None else np.flatnonzero(has).tolist()
    for i in rows:
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
    cids, cvals = _style_codes(tab, "ncolor")
    fids, fvals = _style_codes(tab, "fontname")
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
    lbounds = np.append(lstart, nw).tolist()
    lx0 = np.minimum.reduceat(wx0, lstart).tolist()
    ly0 = np.minimum.reduceat(wy0, lstart).tolist()
    lx1 = np.maximum.reduceat(wx1, lstart).tolist()
    ly1 = np.maximum.reduceat(wy1, lstart).tolist()
    lcolor = _segment_style(wc, wcolor, lstart)[1].tolist()
    lfont = _segment_style(wf, wfont, lstart)[1].tolist()
    wt = {
        "text": _object_array(wtext),
        "x0": wx0, "y0": wy0, "x1": wx1, "y1": wy1,
        "ncolor": wcolor, "fontname": wfont,
    }
    idx = np.arange(nw, dtype=np.int64)
    lines = []
    for li in range(len(lstart)):
        a, b = lbounds[li], lbounds[li + 1]
        lines.append(
            {
                "text": " ".join(wtext[a:b]),
                "ncolor": lcolor[li],
                "fontname": lfont[li],
                "x0": lx0[li],
                "y0": ly0[li],
                "x1": lx1[li],
                "y1": ly1[li],
                "_wt": wt,
                "_idx": idx[a:b],
            }
        )
    return lines


def assemble_textbox_lines(
    textbox: dict,
    y_tolerance: float = 0.5,
    word_margin: float = 0.1,
    char_margin: float = 0.0,
) -> list:
    """Raw sidecar textbox → assembled line dicts (the engine's layout
    analysis step).

    Accepts, in priority order: ``chars`` (rawest — char→word→line, through
    :func:`glyph_table_from_dicts` and :func:`assemble_glyph_lines`), then
    ``words`` (word→line), then pre-assembled ``lines`` (legacy corpora /
    unit tests).  Returns ``[{"text", "ncolor", "fontname", ...}, …]``
    top-to-bottom; read word dicts through :func:`line_word_dicts`."""
    chars = textbox.get("chars")
    if chars:
        return assemble_glyph_lines(
            glyph_table_from_dicts(chars), y_tolerance, word_margin,
            char_margin, bool(textbox.get("stream_ordered")),
        )
    words = textbox.get("words")
    if words:
        norm = [
            {
                "text": w["text"],
                "x0": float(w["x0"]),
                "y0": float(w["y0"]),
                "x1": float(w["x1"]),
                "y1": float(w["y1"]),
                "ncolor": _norm_color(w.get("ncolor")),
                "fontname": w.get("fontname") or None,
            }
            for w in words
        ]
        return [_line_from_words(g) for g in _cluster_into_lines(norm, y_tolerance)]
    return [
        _legacy_line(line) for line in (textbox.get("lines") or [])
    ]


def _legacy_line(line: dict) -> dict:
    """Round-1 per-line struct → line dict (words inherit the line style)."""
    ncolor = _norm_color(line.get("ncolor"))
    fontname = line.get("fontname") or None
    words = [
        {"text": w, "ncolor": ncolor, "fontname": fontname}
        for w in line["text"].split(" ")
        if w != ""
    ]
    return {
        "text": " ".join(w["text"] for w in words),
        "ncolor": _uniform(w["ncolor"] for w in words),
        "fontname": _uniform(w["fontname"] for w in words),
        "words": words,
    }


def assemble_word_boxes_batched(tabs: list, y_tolerance: float = 0.5) -> list:
    """Batched word→line assembly for MANY word-backed textboxes of one
    document — the same lines :func:`assemble_textbox_lines` builds from
    each box's word dicts, but the geometric sorts run as ONE numpy pass over
    the document's concatenated word table instead of ~15 small-array
    kernel calls per box (per-box dispatch overhead was ~40% of parse-task
    time on 100-page manuals).

    ``tabs``: per-box word tables (``None``/empty allowed).  Returns one
    assembled line list per input tab.

    Ordering semantics, kept bit-identical to the dict route: the
    grouping sort is ``lexsort((x0, −y_center, box))`` (stable), lines
    break on box change or ``|Δ y-center| ≥ y_tolerance``, and within each
    line rows re-sort stably by x0 — expressed here as a second global
    ``lexsort((x0, line_id))``.
    """
    import numpy as np

    nb = len(tabs)
    counts = np.fromiter(
        (len(t["text"]) if t else 0 for t in tabs), dtype=np.int64, count=nb
    )
    out: list = [[] for _ in range(nb)]
    total = int(counts.sum())
    if total == 0:
        return out

    live = [t for t in tabs if t and len(t["text"])]
    x0 = np.concatenate([t["x0"] for t in live])
    y0 = np.concatenate([t["y0"] for t in live])
    x1 = np.concatenate([t["x1"] for t in live])
    y1 = np.concatenate([t["y1"] for t in live])
    if all(isinstance(t["text"], np.ndarray) for t in live):
        # parse-stage decode hands object ndarrays: C-speed concatenation
        texts = np.concatenate([t["text"] for t in live])
        ncolors = np.concatenate([t["ncolor"] for t in live])
        fonts = np.concatenate([t["fontname"] for t in live])
    else:
        texts, ncolors, fonts = [], [], []
        for t in live:
            texts.extend(t["text"])
            ncolors.extend(t["ncolor"])
            fonts.extend(t["fontname"])
    box_id = np.repeat(np.arange(nb, dtype=np.int64), counts)

    yc = (y0 + y1) / 2.0
    ord1 = np.lexsort((x0, -yc, box_id))
    b1 = box_id[ord1]
    yc1 = yc[ord1]
    newline = np.empty(total, dtype=bool)
    newline[0] = True
    newline[1:] = (b1[1:] != b1[:-1]) | (
        np.abs(np.diff(yc1)) >= y_tolerance
    )
    line_id = np.cumsum(newline) - 1
    ord2 = np.lexsort((x0[ord1], line_id))
    fin = ord1[ord2]  # final row order: by line, then x0, stable

    line_starts = np.nonzero(newline)[0]  # line_id[ord2] stays sorted
    gx0 = x0[fin]
    lx0 = np.minimum.reduceat(gx0, line_starts)
    ly0 = np.minimum.reduceat(y0[fin], line_starts)
    lx1 = np.maximum.reduceat(x1[fin], line_starts)
    ly1 = np.maximum.reduceat(y1[fin], line_starts)
    lbox = box_id[fin[line_starts]]
    line_ends = np.r_[line_starts[1:], total]

    wt_all = {
        "text": texts, "ncolor": ncolors, "fontname": fonts,
        "x0": x0, "y0": y0, "x1": x1, "y1": y1,
    }
    # unstyled documents (no word carries a color/font anywhere) skip the
    # per-line uniform-or-None lift — it is None by construction
    any_color = any(c is not None for c in ncolors)
    any_font = any(f for f in fonts)
    for li in range(len(line_starts)):
        idx = fin[line_starts[li]:line_ends[li]]
        out[int(lbox[li])].append(
            {
                "text": " ".join(texts[i] for i in idx),
                "ncolor": _uniform(_norm_color(ncolors[i]) for i in idx)
                if any_color
                else None,
                "fontname": _uniform(fonts[i] or None for i in idx)
                if any_font
                else None,
                "x0": float(lx0[li]),
                "y0": float(ly0[li]),
                "x1": float(lx1[li]),
                "y1": float(ly1[li]),
                "_wt": wt_all,
                "_idx": idx,
            }
        )
    return out


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


def assemble_word_boxes_shared(
    shared: dict, bounds: list, y_tolerance: float = 0.5
) -> list:
    """Shared-table twin of :func:`assemble_word_boxes_batched`: the boxes
    are (lo, hi) ranges into ONE flat word table, so there is no per-box
    slicing and no re-concatenation — the gather indices are built with one
    segmented arange, and the variable-width columns (text/ncolor/fontname)
    are never copied at all (lines index the shared arrays directly).

    Output-identical to slicing each box and running the batched twin
    (pinned by ``tests/test_kernels.py``); measured round 4: the
    slice→concat round-trip was ~25% of single-core parse time."""
    import numpy as np

    nb = len(bounds)
    counts = np.fromiter((hi - lo for lo, hi in bounds), dtype=np.int64, count=nb)
    out: list = [[] for _ in range(nb)]
    total = int(counts.sum())
    if total == 0:
        return out

    starts = np.fromiter((lo for lo, _ in bounds), dtype=np.int64, count=nb)
    offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # segmented arange: global row index of every (box, k) pair
    idxg = np.arange(total, dtype=np.int64) - np.repeat(offs, counts) + np.repeat(
        starts, counts
    )
    box_id = np.repeat(np.arange(nb, dtype=np.int64), counts)

    x0 = shared["x0"][idxg]
    y0 = shared["y0"][idxg]
    x1 = shared["x1"][idxg]
    y1 = shared["y1"][idxg]
    texts = shared["text"]
    ncolors = shared["ncolor"]
    fonts = shared["fontname"]

    yc = (y0 + y1) / 2.0
    ord1 = np.lexsort((x0, -yc, box_id))
    b1 = box_id[ord1]
    yc1 = yc[ord1]
    newline = np.empty(total, dtype=bool)
    newline[0] = True
    newline[1:] = (b1[1:] != b1[:-1]) | (np.abs(np.diff(yc1)) >= y_tolerance)
    line_id = np.cumsum(newline) - 1
    ord2 = np.lexsort((x0[ord1], line_id))
    fin = ord1[ord2]  # final LOCAL row order: by line, then x0, stable

    line_starts = np.nonzero(newline)[0]  # line_id[ord2] stays sorted
    lx0 = np.minimum.reduceat(x0[fin], line_starts)
    ly0 = np.minimum.reduceat(y0[fin], line_starts)
    lx1 = np.maximum.reduceat(x1[fin], line_starts)
    ly1 = np.maximum.reduceat(y1[fin], line_starts)
    lbox = box_id[fin[line_starts]]
    line_ends = np.r_[line_starts[1:], total]
    fin_g = idxg[fin]  # GLOBAL indices — lines address the shared table

    # per-LINE style presence via one reduceat over the decoder's per-row
    # flags: only lines that actually carry a styled row pay the
    # uniform-or-None fold (a no-style line lifts to None by construction)
    if "_has_color" in shared:
        line_has_color = np.bitwise_or.reduceat(
            shared["_has_color"][fin_g], line_starts
        )
        line_has_font = np.bitwise_or.reduceat(
            shared["_has_font"][fin_g], line_starts
        )
    else:
        ones = np.ones(len(line_starts), dtype=bool)
        line_has_color = line_has_font = ones
    for li in range(len(line_starts)):
        idx = fin_g[line_starts[li]:line_ends[li]]
        out[int(lbox[li])].append(
            {
                "text": " ".join(texts[idx].tolist()),
                "ncolor": _uniform(_norm_color(ncolors[i]) for i in idx)
                if line_has_color[li]
                else None,
                "fontname": _uniform(fonts[i] or None for i in idx)
                if line_has_font[li]
                else None,
                "x0": float(lx0[li]),
                "y0": float(ly0[li]),
                "x1": float(lx1[li]),
                "y1": float(ly1[li]),
                "_wt": shared,
                "_idx": idx,
            }
        )
    return out


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
    return [w for ln in textbox["lines"] for w in line_word_dicts(ln)]


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


def assemble_hbox(lines: list) -> dict:
    """Legacy adapter: per-line raw structs → HorizontalBox model (kept for
    round-1 corpora and unit tests; new code path is
    :func:`assemble_textbox_lines` + :func:`hbox_from_lines`)."""
    return hbox_from_lines([_legacy_line(line) for line in lines])


def textbox_text(textbox: dict) -> str:
    """Span text of a textbox whose ``lines`` are already assembled:
    '\\n'-joined line texts with the trailing newline stripped
    (``libpdf/textbox.py:128-133`` removes the final LTAnno newline before
    paragraph rendering)."""
    return "\n".join(ln["text"] for ln in textbox["lines"]).rstrip("\n")


def is_whitespace_only(text: str) -> bool:
    """Noise-box test of ``libpdf/textbox.py:129`` (``^\\s*$``)."""
    return text.strip() == ""
