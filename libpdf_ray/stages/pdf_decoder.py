"""PdfByteDecoder — real PDF bytes → the engine's internal document dict.

The second :class:`~libpdf_ray.stages.decoder.DocumentDecoder`
implementation (the first is the synthetic :class:`SidecarDecoder`).  It
binds the pure-stdlib PDF reader (``kernels/pdfobj.py`` +
``kernels/pdftext.py``) at the documented parse-boundary seam, so the
WHOLE existing pipeline — layout assembly, chapter numbering, table cell
reconstruction, link resolution, header/footer removal, span emission —
runs unchanged on real PDF files.

What the decoder emits (the ``stages/decoder.py`` contract):

- ``pages``: page number / object id / visible width + height;
- ``textboxes``: ONE ungrouped, stream-ordered glyph soup per page, as a
  ``chartab`` view into the document's glyph table — deliberately the
  rawest form, so the engine performs pdfminer's entire layout analysis
  itself (char→word→line→textbox grouping, ``kernels/textmodel.py``),
  exactly as it does for the sidecar corpus;
- ``segments`` / ``rects`` / ``figures`` from the content-stream
  interpreter (table detection, rect view, figure regions);
- ``raw_annots`` in the schema-v6 raw-annot encoding
  (``kernels/catalog.py:resolve_raw_annotations`` input shape);
- ``outline_nodes`` / ``outline_root`` in the First/Next node encoding
  (``kernels/catalog.py:walk_outline`` input shape) and ``names_nodes``
  from the catalog Names/Dests trees;
- ``meta`` with raw ``D:`` date strings (``stages/meta.py`` parses them
  through the reference's lenient grammar).

Reference semantics parity: the per-page objects mirror what pdfplumber
hands the reference (``/root/reference/libpdf/extract.py:96-222``);
explicit destinations reference target pages by OBJECT id exactly as in
``libpdf/catalog.py:384-398``, and destination coordinates are mapped
through the target page's rotation so downstream tolerance joins
(catalog.py:565-583) compare like with like.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.pdfobj import (
    Name,
    NULL,
    PdfError,
    PdfFile,
    Ref,
    Stream,
    text_string,
)
from ..kernels.pdftext import PageInterpreter, apply_mat, page_base_ctm

__all__ = ["PdfByteDecoder", "decode_pdf_document", "pdf_page_count",
           "read_pdf_files"]


def _dest_array(pdf: PdfFile, dest):
    """Resolve a destination carrier (array | name | byte-string | dict
    with /D) → ("array", list) | ("named", str) | (None, None)."""
    dest = pdf.resolve(dest)
    if isinstance(dest, dict):
        dest = pdf.resolve(dest.get("D"))
    if isinstance(dest, list):
        return "array", dest
    if isinstance(dest, Name):
        return "named", str(dest)
    if isinstance(dest, (bytes, bytearray)):
        return "named", text_string(bytes(dest))
    return None, None


class _DestMapper:
    """Maps explicit destination arrays into the engine's coordinates:
    page object id, page NUMBER, and (x, y) through the target page's
    base CTM (identity for unrotated zero-origin pages)."""

    def __init__(self, pdf: PdfFile, pages_raw: list):
        self.pdf = pdf
        self.by_obj = {}
        for pg in pages_raw:
            ctm, w, h = page_base_ctm(pg["mediabox"], pg["rotate"])
            self.by_obj[pg["obj_id"]] = (pg["number"], ctm, w, h)

    def target(self, arr: list):
        """[pageref /XYZ x y zoom] → (obj_id, page_no, kind, x, y) where
        kind is "xyz" or "fit"; None for a dangling page ref."""
        if not arr:
            return None
        ref = arr[0]
        obj_id = ref.num if isinstance(ref, Ref) else -1
        hit = self.by_obj.get(obj_id)
        if hit is None:
            return None
        page_no, ctm, _w, h = hit
        fit = str(self.pdf.resolve(arr[1])) if len(arr) > 1 else "Fit"
        if fit == "XYZ" and len(arr) >= 4:
            x = self.pdf.resolve(arr[2])
            y = self.pdf.resolve(arr[3])
            x = float(x) if isinstance(x, (int, float)) else 0.0
            y = float(y) if isinstance(y, (int, float)) else h
            dx, dy = apply_mat(ctm, x, y)
            return obj_id, page_no, "xyz", dx, dy
        if fit in ("FitH", "FitBH") and len(arr) >= 3:
            y = self.pdf.resolve(arr[2])
            if isinstance(y, (int, float)):
                _dx, dy = apply_mat(ctm, 0.0, float(y))
                return obj_id, page_no, "xyz", 0.0, dy
        return obj_id, page_no, "fit", 0.0, h


def _collect_annots(pdf: PdfFile, pages_raw: list, mapper: _DestMapper) -> list:
    """Page /Annots arrays → schema-v6 raw-annot dicts.  All subtypes and
    action types pass through RAW — the engine's
    ``resolve_raw_annotations`` applies the Link/GoTo filters itself
    (that filtering is under test; pre-filtering here would mask it)."""
    out: list = []
    r = pdf.resolve
    for pg in pages_raw:
        annots = r(pg["dict"].get("Annots"))
        if not isinstance(annots, list):
            continue
        ctm, _w, _h = page_base_ctm(pg["mediabox"], pg["rotate"])
        for ref in annots:
            try:
                ann = r(ref)
            except PdfError:
                continue
            if not isinstance(ann, dict):
                continue
            rect = r(ann.get("Rect")) or [0, 0, 0, 0]
            try:
                coords = [float(r(v)) for v in rect[:4]]
            except (TypeError, ValueError):
                coords = [0.0, 0.0, 0.0, 0.0]
            (ax0, ay0) = apply_mat(ctm, coords[0], coords[1])
            (ax1, ay1) = apply_mat(ctm, coords[2], coords[3])
            rec = {
                "page": int(pg["number"]),
                "x0": min(ax0, ax1),
                "y0": min(ay0, ay1),
                "x1": max(ax0, ax1),
                "y1": max(ay0, ay1),
                "subtype": str(r(ann.get("Subtype")) or ""),
                "encoding": "",
                "action_type": "",
                "dest_kind": "",
                "dest_page_obj": -1,
                "dest_x": 0.0,
                "dest_y": 0.0,
                "dest_name": "",
            }
            action = r(ann.get("A"))
            dest = ann.get("Dest")
            carrier = None
            if isinstance(action, dict):
                rec["encoding"] = "action"
                rec["action_type"] = str(r(action.get("S")) or "")
                if rec["action_type"] == "GoTo":
                    carrier = action.get("D")
            elif dest is not None:
                rec["encoding"] = "dest"
                carrier = dest
            if carrier is not None:
                kind, val = _dest_array(pdf, carrier)
                if kind == "named":
                    rec["dest_kind"] = "named"
                    rec["dest_name"] = val
                elif kind == "array":
                    tgt = mapper.target(val)
                    if tgt is not None:
                        obj_id, _page_no, dk, dx, dy = tgt
                        rec["dest_kind"] = dk
                        rec["dest_page_obj"] = obj_id
                        rec["dest_x"] = dx
                        rec["dest_y"] = dy
            out.append(rec)
    return out


def _collect_outline(pdf: PdfFile, mapper: _DestMapper) -> tuple:
    """Catalog /Outlines First/Next tree → (outline_nodes, outline_root)
    in the engine's node encoding.  Node ids are traversal-order; the
    linked structure (first / next) is preserved verbatim so the engine's
    walk re-derives nesting exactly as the reference's resolve_outline
    does from the live PDF objects (libpdf/catalog.py:230-373)."""
    r = pdf.resolve
    try:
        outlines = r(pdf.catalog.get("Outlines"))
    except PdfError:
        return [], -1
    if not isinstance(outlines, dict):
        return [], -1
    nodes: list = []
    index_of: dict = {}  # id(obj dict) → node index

    def intern(node_dict) -> int:
        key = id(node_dict)
        if key in index_of:
            return index_of[key]
        idx = len(nodes)
        index_of[key] = idx
        nodes.append(None)  # reserve slot; filled below
        title = text_string(r(node_dict.get("Title")))
        rec = {
            "node_id": idx,
            "first": -1,
            "next": -1,
            "title": title,
            "dest_kind": "external",
            "dest_page": 0,
            "dest_x": 0.0,
            "dest_y": 0.0,
            "dest_name": "",
        }
        carrier = None
        named_prefix = ""
        action = r(node_dict.get("A"))
        if node_dict.get("Dest") is not None:
            carrier = node_dict.get("Dest")
        elif isinstance(action, dict):
            if str(r(action.get("S")) or "") == "GoTo":
                carrier = action.get("D")
                named_prefix = "action_"
            # any other action type stays "external" (skipped downstream)
        kind, val = _dest_array(pdf, carrier) if carrier is not None else (None, None)
        if kind == "named":
            rec["dest_kind"] = named_prefix + "named"
            rec["dest_name"] = val
        elif kind == "array":
            tgt = mapper.target(val)
            if tgt is not None:
                _obj, page_no, _dk, dx, dy = tgt
                rec["dest_kind"] = named_prefix + "explicit"
                rec["dest_page"] = int(page_no)
                rec["dest_x"] = dx
                rec["dest_y"] = dy
        nodes[idx] = rec
        return idx

    def walk(node_ref, depth: int, seen: set) -> int:
        """Returns the node index of ``node_ref`` (interning the whole
        sibling chain + children), or -1."""
        node = r(node_ref)
        if not isinstance(node, dict) or depth > 64:
            return -1
        key = id(node)
        if key in seen:
            return index_of.get(key, -1)
        seen.add(key)
        idx = intern(node)
        first = node.get("First")
        if first is not None:
            nodes[idx]["first"] = walk(first, depth + 1, seen)
        nxt = node.get("Next")
        if nxt is not None:
            nodes[idx]["next"] = walk(nxt, depth, seen)
        return idx

    root = -1
    first = outlines.get("First")
    if first is not None:
        root = walk(first, 0, set())
    return [n for n in nodes if n is not None], root


def _collect_names(pdf: PdfFile, mapper: _DestMapper) -> list:
    """Catalog name trees → the engine's names_nodes encoding.

    Two sources, exactly as in the reference (libpdf/catalog.py:25-133):
    the PDF-1.2+ ``/Names /Dests`` Kids tree (structure preserved
    node-for-node) and the old-style catalog ``/Dests`` dictionary
    (emitted as a single leaf node)."""
    r = pdf.resolve
    try:
        cat = pdf.catalog
    except PdfError:
        return []
    nodes: list = []

    def name_entries(pairs) -> list:
        entries = []
        for i in range(0, len(pairs) - 1, 2):
            nm = r(pairs[i])
            kind, val = _dest_array(pdf, pairs[i + 1])
            if kind != "array":
                continue
            tgt = mapper.target(val)
            if tgt is None:
                continue
            _obj, page_no, _dk, dx, dy = tgt
            entries.append(
                {
                    "name": text_string(nm),
                    "page": int(page_no),
                    "x": dx,
                    "y": dy,
                }
            )
        return entries

    def walk(tree_ref, depth: int) -> int:
        tree = r(tree_ref)
        if not isinstance(tree, dict) or depth > 32:
            return -1
        idx = len(nodes)
        rec = {"node_id": idx, "kids": [], "names": []}
        nodes.append(rec)
        kids = r(tree.get("Kids"))
        if isinstance(kids, list):
            for kid in kids:
                k = walk(kid, depth + 1)
                if k >= 0:
                    rec["kids"].append(k)
        names = r(tree.get("Names"))
        if isinstance(names, list):
            rec["names"] = name_entries(names)
        return idx

    names_dict = r(cat.get("Names"))
    if isinstance(names_dict, dict) and names_dict.get("Dests") is not None:
        walk(names_dict.get("Dests"), 0)
    dests = r(cat.get("Dests"))
    if isinstance(dests, dict):
        # old-style name dictionary: one synthetic leaf
        idx = len(nodes)
        entries = []
        for nm, dv in dests.items():
            kind, val = _dest_array(pdf, dv)
            if kind != "array":
                continue
            tgt = mapper.target(val)
            if tgt is None:
                continue
            _obj, page_no, _dk, dx, dy = tgt
            entries.append(
                {"name": str(nm), "page": int(page_no), "x": dx, "y": dy}
            )
        if entries:
            nodes.append({"node_id": idx, "kids": [], "names": entries})
            if idx > 0:
                # keep a single root: adopt the leaf under node 0
                nodes[0]["kids"].append(idx)
    return nodes


_INFO_KEYS = (
    ("Author", "author"),
    ("Title", "title"),
    ("Subject", "subject"),
    ("Creator", "creator"),
    ("Producer", "producer"),
    ("Keywords", "keywords"),
)


def _collect_meta(pdf: PdfFile) -> dict:
    r = pdf.resolve
    try:
        info = pdf.info
    except PdfError:
        info = {}
    meta: dict = {}
    for src, dst in _INFO_KEYS:
        v = r(info.get(src))
        if isinstance(v, (bytes, bytearray, str, Name)):
            meta[dst] = text_string(v)
    cd = r(info.get("CreationDate"))
    if isinstance(cd, (bytes, bytearray)):
        meta["creation_date_raw"] = text_string(cd)
    md = r(info.get("ModDate"))
    if isinstance(md, (bytes, bytearray)):
        meta["modified_date_raw"] = text_string(md)
    trapped = r(info.get("Trapped"))
    if isinstance(trapped, Name):
        meta["trapped"] = str(trapped) == "True"
    return meta


def pdf_page_count(data: bytes) -> int:
    """Cheap page-count probe: xref + page-tree walk only, NO content
    interpretation — the skew-scheduling estimate for real PDF corpora
    (the north rule's repartition-by-estimated-page-count signal)."""
    return len(PdfFile(data).pages())


def _glyph_table(interp: PageInterpreter) -> tuple:
    """The interpreter's glyph columns → (one glyph table for the whole
    document, ``[(page, lo, hi)]`` row ranges, one per page with glyphs).
    Pages run in page-number order, so each page's glyphs are one
    contiguous range, in content-stream order.

    The table has the sidecar decoder's ``chartab`` columns (``text``,
    ``x0..y1``, ``ncolor``, ``fontname``, ``_has_color``, ``_has_font``)
    plus the document-interned ``_color_id`` / ``_font_id`` the layout
    kernel folds word styles with."""
    n = len(interp.glyph_text)
    if n == 0:
        return {}, []
    runs = np.array(interp.glyph_runs, dtype=np.int64).reshape(-1, 4)
    page, cid, fid = (np.repeat(runs[:, k], runs[:, 3]) for k in range(3))
    text = np.empty(n, dtype=object)
    text[:] = interp.glyph_text
    boxes = np.array(interp.glyph_boxes, dtype=np.float64).reshape(n, 4).T.copy()
    tab = {
        "text": text,
        "x0": boxes[0], "y0": boxes[1], "x1": boxes[2], "y1": boxes[3],
        "ncolor": np.fromiter(interp.colors, dtype=object)[cid],
        "fontname": np.fromiter(interp.fonts, dtype=object)[fid],
        "_has_color": cid > 0,
        "_has_font": fid > 0,
        "_color_id": cid,
        "_font_id": fid,
    }
    cuts = [0, *(np.flatnonzero(np.diff(page)) + 1).tolist(), n]
    return tab, [(int(page[a]), a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def decode_pdf_document(doc_id: str, data: bytes,
                        page_subset=None) -> dict:
    """One PDF file → the engine's internal document dict.

    ``page_subset`` (set of 1-based page numbers) interprets ONLY those
    pages' content streams — the intra-document parallelism unit for
    5000-page manuals (the ``pages`` list and catalog stay complete, so
    every range task derives the identical outline/names context).

    Raises :class:`PdfError` on unrecoverable files (encrypted, no
    catalog); the parse stage's poison-row discipline turns that into an
    error row, never a dead task."""
    pdf = PdfFile(data)
    pages_raw = pdf.pages()
    if not pages_raw:
        raise PdfError("no pages")
    mapper = _DestMapper(pdf, pages_raw)

    interp = PageInterpreter(pdf)
    pages: list = []
    page_dims: dict = {}
    for pg in pages_raw:
        _ctm, w, h = page_base_ctm(pg["mediabox"], pg["rotate"])
        pages.append(
            {
                "number": int(pg["number"]),
                "obj_id": int(pg["obj_id"]),
                "width": float(w),
                "height": float(h),
            }
        )
        page_dims[int(pg["number"])] = (float(w), float(h))
        if page_subset is not None and int(pg["number"]) not in page_subset:
            continue
        try:
            interp.run_page(pg)
        except PdfError:
            continue  # poison page: keep the rest of the document

    textboxes = []
    tab, cuts = _glyph_table(interp)
    for page_no, lo, hi in cuts:
        w, h = page_dims.get(page_no, (612.0, 792.0))
        textboxes.append(
            {
                "page": page_no,
                "x0": 0.0,
                "y0": 0.0,
                "x1": w,
                "y1": h,
                "ungrouped": True,
                # glyphs are in content-stream order (meaningful, unlike
                # the shuffled sidecar): enables pdfminer's stream-order
                # line building, which keeps columns apart
                "stream_ordered": True,
                "chartab": (tab, lo, hi),
            }
        )

    outline_nodes, outline_root = _collect_outline(pdf, mapper)
    return {
        "doc_id": doc_id,
        "est_pages": len(pages),
        "pages": pages,
        "textboxes": textboxes,
        "segments": interp.segments,
        "rects": interp.rects,
        # pdfplumber-stack parity: figure extraction runs over
        # ``page_crop.figures`` (``libpdf/extract.py:612-616``), and
        # ``within_bbox`` keeps only objects COMPLETELY inside the page
        # box — a figure hanging off the page edge never reaches the
        # reference's filter.  Rects/lines use the uncropped page
        # (``extract.py:686``), so only figures are gated here.
        "figures": [
            {k: f[k] for k in ("page", "x0", "y0", "x1", "y1")}
            for f in interp.figures
            if (
                f["x0"] >= -1e-6
                and f["y0"] >= -1e-6
                and f["x1"] <= page_dims.get(f["page"], (612.0, 792.0))[0] + 1e-6
                and f["y1"] <= page_dims.get(f["page"], (612.0, 792.0))[1] + 1e-6
            )
        ],
        "raw_annots": _collect_annots(pdf, pages_raw, mapper),
        "outline_nodes": outline_nodes,
        "outline_root": outline_root,
        "names_nodes": _collect_names(pdf, mapper),
        "meta": _collect_meta(pdf),
    }


class PdfByteDecoder:
    """:class:`DocumentDecoder` over real PDF bytes.

    Input batches carry ``doc_id`` (string) + ``pdf_bytes`` (binary) —
    the shape :func:`read_pdf_files` produces.  Stateless and cheap to
    construct; per-document font/object caches live inside the one-shot
    :class:`PdfFile`/:class:`PageInterpreter` pair, scoped to the task.
    A document that fails to parse decodes to a dict with an ``_error``
    marker consumed by the parse stage's poison-row discipline."""

    def decode(self, batch: pa.Table) -> list:
        doc_ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("pdf_bytes").to_pylist()
        rows = []
        for doc_id, data in zip(doc_ids, payloads):
            try:
                rows.append(decode_pdf_document(doc_id, data or b""))
            except Exception as exc:  # noqa: BLE001 — poison-row discipline
                rows.append(
                    {
                        "doc_id": doc_id,
                        "pages": [],
                        "textboxes": [],
                        "est_pages": 0,
                        "_decode_error": f"{type(exc).__name__}: {exc}",
                    }
                )
        return rows


def read_pdf_files(paths):
    """PDF file paths (a directory, a file, or a list of either) →
    ``ray.data.Dataset`` of ``{doc_id, path, pdf_bytes}`` rows.

    The driver lists the files; each parse task opens its own
    (:func:`ops.util.read_files`), so the read fuses into the caller's
    ``map_batches`` and file bytes never cross the object store."""
    from ..ops.util import read_files

    return read_files(paths, (".pdf",), "pdf_bytes")
