"""Synthetic PDF writer: the engine's internal document dict → real PDF
bytes.

Purpose: close the loop on the real-PDF path.  The fixture generator is
the engine's oracle (generator-as-oracle, FIXTURES.md); this writer
renders a fixture document into an actual PDF file — text as positioned
``Tj`` runs, table grids as stroked paths, rects as filled ``re``,
figures as Image XObjects, link annotations, a First/Next outline tree,
a Names tree and an Info dict — so the pure-stdlib byte decoder
(``stages/pdf_decoder.py``) can be driven end-to-end against the SAME
``expected_spans`` oracle:

    fixture dict → write_pdf() → bytes → PdfByteDecoder → engine → spans
                                                        == expected_spans

It also makes the real-PDF path benchmarkable at corpus scale (any
number of synthetic PDFs with known content).

Geometry contract: every word is emitted so the DECODED glyph boxes
reproduce the fixture's word boxes exactly —

- the font carries a constant /Widths table (600/1000 per code) and an
  explicit FontDescriptor (Ascent 800 / Descent -200), so decoded
  metrics are deterministic;
- per word, the text matrix scales x so the total advance equals the
  fixture box width, and the size/baseline are chosen so
  ``baseline + descent×size = y0`` and ``baseline + ascent×size = y1``.

This writer is NOT derived from any reference code (the reference only
reads PDFs); it exists purely as a test/bench harness.
"""

from __future__ import annotations

import zlib

ASCENT = 0.8
DESCENT = -0.2
GLYPH_W = 0.6  # constant width table: 600/1000 per code


def _esc(s: str) -> bytes:
    """Latin-1-encodable text → PDF literal string bytes (lossy for
    non-latin glyphs, which the roundtrip corpus avoids)."""
    out = bytearray(b"(")
    for ch in s:
        b = ord(ch)
        if b > 255:
            b = 0x3F  # '?'
        if b in (0x28, 0x29, 0x5C):
            out.append(0x5C)
        out.append(b)
    out.append(0x29)
    return bytes(out)


def _num(v: float) -> str:
    s = f"{v:.4f}".rstrip("0").rstrip(".")
    return s if s else "0"


class _Writer:
    def __init__(self):
        self.objs: list = [None]  # 1-based object numbers

    def add(self, body) -> int:
        self.objs.append(body)
        return len(self.objs) - 1

    def reserve(self) -> int:
        return self.add(None)

    def set(self, num: int, body) -> None:
        self.objs[num] = body

    def render(self) -> bytes:
        out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
        offsets = [0] * len(self.objs)
        for num in range(1, len(self.objs)):
            offsets[num] = len(out)
            body = self.objs[num]
            out += f"{num} 0 obj\n".encode()
            out += body if isinstance(body, bytes) else str(body).encode()
            out += b"\nendobj\n"
        xref_off = len(out)
        out += f"xref\n0 {len(self.objs)}\n".encode()
        out += b"0000000000 65535 f \n"
        for num in range(1, len(self.objs)):
            out += f"{offsets[num]:010d} 00000 n \n".encode()
        out += (
            f"trailer\n<< /Size {len(self.objs)} /Root 1 0 R /Info 2 0 R >>\n"
            f"startxref\n{xref_off}\n%%EOF\n"
        ).encode()
        return bytes(out)


def _stream_obj(dict_extra: str, data: bytes, compress: bool = True) -> bytes:
    if compress:
        data = zlib.compress(data)
        filt = " /Filter /FlateDecode"
    else:
        filt = ""
    head = f"<< {dict_extra} /Length {len(data)}{filt} >>\nstream\n".encode()
    return head + data + b"\nendstream"


def _word_ops(text: str, x0: float, y0: float, x1: float, y1: float,
              ncolor, font_res: str) -> str:
    """One word → positioned show op whose decoded glyph boxes tile the
    fixture box exactly (see module docstring)."""
    n = max(len(text), 1)
    size = (y1 - y0) / (ASCENT - DESCENT)
    if size <= 0:
        size = 1.0
    baseline = y0 - DESCENT * size
    adv = n * GLYPH_W * size  # unscaled advance at this size
    sx = (x1 - x0) / adv if adv > 0 else 1.0
    r, g, b = (0, 0, 0)
    if ncolor:
        vals = list(ncolor) + [0.0] * 3
        r, g, b = vals[0], vals[1], vals[2]
    return (
        f"BT /{font_res} {_num(size)} Tf {_num(r)} {_num(g)} {_num(b)} rg "
        f"{_num(sx)} 0 0 1 {_num(x0)} {_num(baseline)} Tm "
        f"{_esc(text).decode('latin-1')} Tj ET\n"
    )


def _iter_words(tb: dict):
    """Textbox dict → word dicts (handles ``words`` lists, ``chars``
    lists folded to per-char words, and array-backed ``wordtab``)."""
    words = tb.get("words")
    if words:
        yield from words
        return
    chars = tb.get("chars")
    if chars:
        yield from chars
        return
    from .textmodel import tab_slice

    t = tab_slice(tb.get("wordtab") or tb.get("chartab"))
    if t is None:
        return
    for i in range(len(t["text"])):
        yield {
            "text": t["text"][i],
            "x0": float(t["x0"][i]), "y0": float(t["y0"][i]),
            "x1": float(t["x1"][i]), "y1": float(t["y1"][i]),
            "ncolor": t["ncolor"][i],
        }


def _inv_rot(width: float, height: float, rotate: int):
    """Inverse of the decoder's rotated-page base CTM: maps VISIBLE-page
    coords (the fixture's space, W×H upright) back to the rotated page's
    user space, plus the MediaBox to declare.  Used to author pages with
    /Rotate whose decoded geometry is bit-equal to the upright fixture —
    the round-trip proof of the decoder's rotation handling."""
    if rotate == 90:
        # decoder ctm: (x,y)_user → (y, -x + W)… inverse: (u,v)_visible →
        # user (x,y) with x = height_user - v? derive from
        # pdftext.page_base_ctm(mediabox=[0,0,H,W], 90): ctm=(0,1,-1,0,W,0)
        # device = (W - y, x)  ⇒ user = (v, W - u)
        return (lambda u, v: (v, width - u)), [0, 0, height, width]
    if rotate == 180:
        return (lambda u, v: (width - u, height - v)), [0, 0, width, height]
    if rotate == 270:
        # ctm=(0,-1,1,0,0,H): device = (y, H - x) ⇒ user = (H - v, u)
        return (lambda u, v: (height - v, u)), [0, 0, height, width]
    return (lambda u, v: (u, v)), [0, 0, width, height]


def write_pdf(doc: dict, rotate: int = 0) -> bytes:
    """Internal document dict → PDF bytes (classic xref, PDF 1.4).

    ``rotate`` ∈ {0, 90, 180, 270} authors every page with /Rotate and
    pre-transformed content, so the decoded (visible-space) geometry is
    identical to the upright document."""
    w = _Writer()
    catalog_num = w.reserve()   # 1
    info_num = w.reserve()      # 2
    pages_root = w.reserve()    # 3

    pages = sorted(doc.get("pages") or [], key=lambda p: int(p["number"]))
    if not pages:
        pages = [{"number": 1, "width": 612.0, "height": 792.0}]

    font_num = w.add(
        "<< /Type /Font /Subtype /Type1 /BaseFont /SynthMono "
        "/FirstChar 0 /LastChar 255 /Widths [" + " ".join(["600"] * 256) + "] "
        f"/FontDescriptor {w.add('<< /Type /FontDescriptor /FontName /SynthMono /Flags 33 /Ascent 800 /Descent -200 /ItalicAngle 0 /CapHeight 700 /StemV 80 /FontBBox [0 -200 600 800] >>')} 0 R >>"
    )
    # 1×1 gray JPEG-free image for figures (raw 8-bit gray)
    img_num = w.add(
        _stream_obj(
            "/Type /XObject /Subtype /Image /Width 1 /Height 1 "
            "/ColorSpace /DeviceGray /BitsPerComponent 8",
            b"\x80",
            compress=False,
        )
    )

    by_page_tb: dict = {}
    for tb in doc.get("textboxes") or []:
        by_page_tb.setdefault(int(tb["page"]), []).append(tb)
    by_page_seg: dict = {}
    for s in doc.get("segments") or []:
        by_page_seg.setdefault(int(s["page"]), []).append(s)
    by_page_rect: dict = {}
    for r in doc.get("rects") or []:
        by_page_rect.setdefault(int(r["page"]), []).append(r)
    by_page_fig: dict = {}
    for f in doc.get("figures") or []:
        by_page_fig.setdefault(int(f["page"]), []).append(f)
    by_page_annot: dict = {}
    for a in doc.get("raw_annots") or []:
        by_page_annot.setdefault(int(a["page"]), []).append(a)

    page_obj_nums: dict = {}
    for pg in pages:
        page_obj_nums[int(pg["number"])] = w.reserve()
    # obj-id remap: fixture dest_page_obj values → written page objects
    fixture_obj_map = {}
    for pg in pages:
        oid = pg.get("obj_id")
        if oid is not None:
            fixture_obj_map[int(oid)] = page_obj_nums[int(pg["number"])]

    page_dims = {
        int(p["number"]): (float(p["width"]), float(p["height"]))
        for p in pages
    }

    def _inv_for(page_no: int):
        wv, hv = page_dims.get(int(page_no), (612.0, 792.0))
        return _inv_rot(wv, hv, rotate)[0]

    def dest_array(page_no: int, kind: str, x: float, y: float) -> str:
        pref = page_obj_nums.get(int(page_no))
        if pref is None:
            pref = next(iter(page_obj_nums.values()))
        if kind == "fit":
            return f"[{pref} 0 R /Fit]"
        ux, uy = _inv_for(page_no)(x, y)
        return f"[{pref} 0 R /XYZ {_num(ux)} {_num(uy)} 0]"

    for pg in pages:
        pno = int(pg["number"])
        width, height = float(pg["width"]), float(pg["height"])
        inv, mediabox = _inv_rot(width, height, rotate)
        ops = []
        if rotate:
            # ONE inverse-rotation cm wraps ALL page content (paths,
            # images, text): emitted coordinates stay the fixture's
            # visible-space values, and the decoder's /Rotate base CTM
            # maps them back — round-trip equality proves that math
            if rotate == 90:
                ops.append(f"q 0 -1 1 0 0 {_num(width)} cm\n")
            elif rotate == 180:
                ops.append(f"q -1 0 0 -1 {_num(width)} {_num(height)} cm\n")
            else:  # 270
                ops.append(f"q 0 1 -1 0 {_num(height)} 0 cm\n")
        for seg in by_page_seg.get(pno, []):
            ops.append(
                f"0 G 0.75 w {_num(float(seg['x0']))} {_num(float(seg['y0']))} m "
                f"{_num(float(seg['x1']))} {_num(float(seg['y1']))} l S\n"
            )
        for rect in by_page_rect.get(pno, []):
            nc = rect.get("non_stroking_color") or [0.5, 0.5, 0.5]
            vals = list(nc) + [0.0] * 3
            rx0, ry0 = float(rect["x0"]), float(rect["y0"])
            rw = float(rect["x1"]) - rx0
            rh = float(rect["y1"]) - ry0
            ops.append(
                f"{_num(vals[0])} {_num(vals[1])} {_num(vals[2])} rg "
                f"{_num(rx0)} {_num(ry0)} {_num(rw)} {_num(rh)} re f\n"
            )
        for fig in by_page_fig.get(pno, []):
            fx0, fy0 = float(fig["x0"]), float(fig["y0"])
            fw = float(fig["x1"]) - fx0
            fh = float(fig["y1"]) - fy0
            ops.append(
                f"q {_num(fw)} 0 0 {_num(fh)} {_num(fx0)} {_num(fy0)} cm "
                f"/Im1 Do Q\n"
            )
        for tb in by_page_tb.get(pno, []):
            # the sidecar SHUFFLES word order; a real writer emits glyphs
            # in reading order (stream-order line building downstream
            # depends on it, exactly as with real-world producers)
            words = [
                word for word in _iter_words(tb)
                if (word.get("text") or "").strip() != ""
                and word.get("x0") is not None
                and word["x0"] == word["x0"]  # NaN pseudo-annos out
            ]
            words.sort(
                key=lambda wd: (
                    -(float(wd["y0"]) + float(wd["y1"])) / 2.0,
                    float(wd["x0"]),
                )
            )
            for word in words:
                ops.append(
                    _word_ops(
                        str(word["text"]), float(word["x0"]),
                        float(word["y0"]), float(word["x1"]),
                        float(word["y1"]), word.get("ncolor"), "F1",
                    )
                )
        if rotate:
            ops.append("Q\n")  # close the inverse-rotation frame
        content_num = w.add(_stream_obj("", "".join(ops).encode("latin-1")))

        annot_refs = []
        for ann in by_page_annot.get(pno, []):
            if (ann.get("subtype") or "") != "Link":
                # noise annots pass through with their subtype
                subtype = ann.get("subtype") or "Square"
                na, nb = _inv_for(pno)(float(ann["x0"]), float(ann["y0"]))
                nc_, nd = _inv_for(pno)(float(ann["x1"]), float(ann["y1"]))
                annot_refs.append(
                    w.add(
                        f"<< /Type /Annot /Subtype /{subtype} /Rect "
                        f"[{_num(min(na, nc_))} {_num(min(nb, nd))} "
                        f"{_num(max(na, nc_))} {_num(max(nb, nd))}] >>"
                    )
                )
                continue
            ia, ib = _inv_for(pno)(float(ann["x0"]), float(ann["y0"]))
            ic, idd = _inv_for(pno)(float(ann["x1"]), float(ann["y1"]))
            rect_s = (
                f"[{_num(min(ia, ic))} {_num(min(ib, idd))} "
                f"{_num(max(ia, ic))} {_num(max(ib, idd))}]"
            )
            kind = ann.get("dest_kind") or ""
            enc = ann.get("encoding") or "dest"
            if enc == "action" and (ann.get("action_type") or "GoTo") != "GoTo":
                carrier = f"/A << /S /{ann.get('action_type')} /URI (https://example.org) >>"
            else:
                if kind == "named":
                    d = _esc(ann.get("dest_name") or "").decode("latin-1")
                else:
                    tgt_obj = fixture_obj_map.get(int(ann.get("dest_page_obj") or -1))
                    tgt_page = None
                    for num_, obj_ in page_obj_nums.items():
                        if obj_ == tgt_obj:
                            tgt_page = num_
                    if tgt_page is None:
                        tgt_page = pno
                    d = dest_array(
                        tgt_page, "fit" if kind == "fit" else "xyz",
                        float(ann.get("dest_x") or 0.0),
                        float(ann.get("dest_y") or 0.0),
                    )
                carrier = (
                    f"/A << /S /GoTo /D {d} >>" if enc == "action" else f"/Dest {d}"
                )
            annot_refs.append(
                w.add(
                    f"<< /Type /Annot /Subtype /Link /Rect {rect_s} {carrier} >>"
                )
            )
        annots_s = (
            " /Annots [" + " ".join(f"{n} 0 R" for n in annot_refs) + "]"
            if annot_refs
            else ""
        )
        rot_s = f" /Rotate {rotate}" if rotate else ""
        w.set(
            page_obj_nums[pno],
            f"<< /Type /Page /Parent {pages_root} 0 R "
            f"/MediaBox [0 0 {_num(mediabox[2])} {_num(mediabox[3])}]"
            f"{rot_s} "
            f"/Resources << /Font << /F1 {font_num} 0 R >> "
            f"/XObject << /Im1 {img_num} 0 R >> >> "
            f"/Contents {content_num} 0 R{annots_s} >>",
        )

    w.set(
        pages_root,
        "<< /Type /Pages /Kids ["
        + " ".join(f"{page_obj_nums[int(p['number'])]} 0 R" for p in pages)
        + f"] /Count {len(pages)} >>",
    )

    # outline: engine node encoding → First/Next PDF objects
    nodes = list(doc.get("outline_nodes") or [])
    outline_num = None
    if nodes:
        outline_num = w.reserve()
        node_objs = {int(n["node_id"]): w.reserve() for n in nodes}
        by_id = {int(n["node_id"]): n for n in nodes}
        parent_of: dict = {}
        for n in nodes:
            first = int(n.get("first", -1) or -1)
            if first >= 0:
                parent_of[first] = int(n["node_id"])
                nxt = by_id.get(first)
                while nxt is not None:
                    nn = int(nxt.get("next", -1) or -1)
                    if nn < 0:
                        break
                    parent_of[nn] = int(n["node_id"])
                    nxt = by_id.get(nn)
        root_id = int(doc.get("outline_root", -1) or -1)
        # top-level chain parents → outline root object
        for n in nodes:
            nid = int(n["node_id"])
            if nid not in parent_of:
                parent_of[nid] = None
        prev_map: dict = {}
        for n in nodes:
            nn = int(n.get("next", -1) or -1)
            if nn >= 0:
                prev_map[nn] = int(n["node_id"])
        for n in nodes:
            nid = int(n["node_id"])
            parts = [f"/Title {_esc(n.get('title') or '').decode('latin-1')}"]
            kind = n.get("dest_kind") or "explicit"
            if kind in ("explicit", "action_explicit"):
                d = dest_array(int(n.get("dest_page") or 1), "xyz",
                               float(n.get("dest_x") or 0.0),
                               float(n.get("dest_y") or 0.0))
                parts.append(
                    f"/A << /S /GoTo /D {d} >>"
                    if kind.startswith("action") else f"/Dest {d}"
                )
            elif kind in ("named", "action_named"):
                d = _esc(n.get("dest_name") or "").decode("latin-1")
                parts.append(
                    f"/A << /S /GoTo /D {d} >>"
                    if kind.startswith("action") else f"/Dest {d}"
                )
            else:  # external → non-GoTo action
                parts.append("/A << /S /URI /URI (https://example.org) >>")
            first = int(n.get("first", -1) or -1)
            if first >= 0:
                parts.append(f"/First {node_objs[first]} 0 R")
                last = first
                while by_id.get(last) is not None:
                    nn = int(by_id[last].get("next", -1) or -1)
                    if nn < 0:
                        break
                    last = nn
                parts.append(f"/Last {node_objs[last]} 0 R")
            nn = int(n.get("next", -1) or -1)
            if nn >= 0:
                parts.append(f"/Next {node_objs[nn]} 0 R")
            pv = prev_map.get(nid)
            if pv is not None:
                parts.append(f"/Prev {node_objs[pv]} 0 R")
            par = parent_of.get(nid)
            parts.append(
                f"/Parent {outline_num if par is None else node_objs[par]} 0 R"
            )
            w.set(node_objs[nid], "<< " + " ".join(parts) + " >>")
        top = [nid for nid in node_objs if parent_of.get(nid) is None]
        chain_start = root_id if root_id in node_objs else (top[0] if top else -1)
        last_top = chain_start
        while by_id.get(last_top) is not None:
            nn = int(by_id[last_top].get("next", -1) or -1)
            if nn < 0:
                break
            last_top = nn
        w.set(
            outline_num,
            f"<< /Type /Outlines /First {node_objs.get(chain_start, 0)} 0 R "
            f"/Last {node_objs.get(last_top, 0)} 0 R /Count {len(nodes)} >>",
        )

    # names tree: flatten the engine encoding into one Names leaf
    names_entries = []
    for node in doc.get("names_nodes") or []:
        for e in node.get("names") or []:
            names_entries.append(e)
    names_num = None
    if names_entries:
        names_entries.sort(key=lambda e: e["name"])
        pairs = " ".join(
            f"{_esc(e['name']).decode('latin-1')} "
            + dest_array(int(e["page"]), "xyz", float(e["x"]), float(e["y"]))
            for e in names_entries
        )
        lo = _esc(names_entries[0]["name"]).decode("latin-1")
        hi = _esc(names_entries[-1]["name"]).decode("latin-1")
        leaf = w.add(f"<< /Limits [{lo} {hi}] /Names [{pairs}] >>")
        names_num = w.add(f"<< /Dests << /Kids [{leaf} 0 R] >> >>")

    meta = doc.get("meta") or {}

    def _d(dt):
        try:
            return dt.strftime("D:%Y%m%d%H%M%S")
        except Exception:
            return None

    info_parts = []
    for src, key in (
        ("author", "Author"), ("title", "Title"), ("subject", "Subject"),
        ("creator", "Creator"), ("producer", "Producer"),
        ("keywords", "Keywords"),
    ):
        v = meta.get(src)
        if v:
            info_parts.append(f"/{key} {_esc(str(v)).decode('latin-1')}")
    cd = _d(meta.get("creation_date"))
    if cd:
        info_parts.append(f"/CreationDate {_esc(cd).decode('latin-1')}")
    md = _d(meta.get("modified_date"))
    if md:
        info_parts.append(f"/ModDate {_esc(md).decode('latin-1')}")
    if meta.get("trapped") is not None:
        info_parts.append(f"/Trapped /{'True' if meta['trapped'] else 'False'}")
    w.set(info_num, "<< " + " ".join(info_parts) + " >>")

    cat = ["/Type /Catalog", f"/Pages {pages_root} 0 R"]
    if outline_num is not None:
        cat.append(f"/Outlines {outline_num} 0 R")
    if names_num is not None:
        cat.append(f"/Names {names_num} 0 R")
    w.set(catalog_num, "<< " + " ".join(cat) + " >>")
    return w.render()
