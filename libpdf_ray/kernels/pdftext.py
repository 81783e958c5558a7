"""Content-stream interpreter: PDF page → char / segment / rect / figure
records in device space.

The glyph-placement half of the real-PDF decoder (the byte/object half is
``kernels/pdfobj.py``).  The reference delegates this layer to pdfminer's
``PDFPageInterpreter`` (``/root/reference/libpdf/extract.py:96``); here it
is re-derived from ISO 32000-1 §9 (text), §8.5 (paths) and §8.8
(coordinate systems):

- full text state (``Tf Tc Tw Tz TL Ts Tr``), text positioning
  (``Td TD Tm T* ' "``), and show operators (``Tj TJ``) with per-glyph
  advance from the font's width table;
- simple fonts (Type1 / TrueType / Type3): ``/Widths`` + ``/FirstChar``,
  ``/Encoding`` base + ``/Differences`` (AGL glyph-name subset),
  ToUnicode CMaps (bfchar / bfrange, both array and increment forms);
- composite Type0/CID fonts: Identity-H/V and embedded CMap streams,
  ``/W`` + ``/DW`` widths;
- graphics state stack (``q Q cm``) with full CTM composition, page
  ``/Rotate`` folded into the base CTM so emitted coordinates are always
  bottom-left-origin user space of the VISIBLE page (the engine's
  convention, same as the sidecar corpus);
- path construction (``m l c v y re h``) + painting: stroked segments
  feed the table detector, ``re``-painted paths become rect records with
  the non-stroking color, thin filled bars degrade to their centerline
  segment (vector table borders are drawn that way by several writers);
- XObjects: Form recursion (``/Matrix`` composed, own resources), Image
  ``Do`` + inline ``BI..ID..EI`` → figure regions via the unit square.

Output records are plain dicts in the shapes the engine's layout kernels
already consume (``kernels/textmodel.py`` chars, ``kernels/regions.py``
segments/rects, ``kernels/document.py`` figures).
"""

from __future__ import annotations

import re

from .pdfobj import Keyword, Name, PdfError, PdfFile, Stream, NULL, content_tokens

# -- glyph-name → unicode (AGL subset: Latin-1 + common publishing glyphs;
# enough for /Differences tables of western non-embedded fonts) ------------

_AGL = {
    "space": 0x20, "exclam": 0x21, "quotedbl": 0x22, "numbersign": 0x23,
    "dollar": 0x24, "percent": 0x25, "ampersand": 0x26, "quotesingle": 0x27,
    "parenleft": 0x28, "parenright": 0x29, "asterisk": 0x2A, "plus": 0x2B,
    "comma": 0x2C, "hyphen": 0x2D, "period": 0x2E, "slash": 0x2F,
    "zero": 0x30, "one": 0x31, "two": 0x32, "three": 0x33, "four": 0x34,
    "five": 0x35, "six": 0x36, "seven": 0x37, "eight": 0x38, "nine": 0x39,
    "colon": 0x3A, "semicolon": 0x3B, "less": 0x3C, "equal": 0x3D,
    "greater": 0x3E, "question": 0x3F, "at": 0x40, "bracketleft": 0x5B,
    "backslash": 0x5C, "bracketright": 0x5D, "asciicircum": 0x5E,
    "underscore": 0x5F, "grave": 0x60, "braceleft": 0x7B, "bar": 0x7C,
    "braceright": 0x7D, "asciitilde": 0x7E, "exclamdown": 0xA1,
    "cent": 0xA2, "sterling": 0xA3, "currency": 0xA4, "yen": 0xA5,
    "brokenbar": 0xA6, "section": 0xA7, "dieresis": 0xA8, "copyright": 0xA9,
    "ordfeminine": 0xAA, "guillemotleft": 0xAB, "logicalnot": 0xAC,
    "registered": 0xAE, "macron": 0xAF, "degree": 0xB0, "plusminus": 0xB1,
    "acute": 0xB4, "mu": 0xB5, "paragraph": 0xB6, "periodcentered": 0xB7,
    "cedilla": 0xB8, "ordmasculine": 0xBA, "guillemotright": 0xBB,
    "onequarter": 0xBC, "onehalf": 0xBD, "threequarters": 0xBE,
    "questiondown": 0xBF, "multiply": 0xD7, "divide": 0xF7,
    "quoteleft": 0x2018, "quoteright": 0x2019, "quotedblleft": 0x201C,
    "quotedblright": 0x201D, "bullet": 0x2022, "endash": 0x2013,
    "emdash": 0x2014, "ellipsis": 0x2026, "dagger": 0x2020,
    "daggerdbl": 0x2021, "perthousand": 0x2030, "guilsinglleft": 0x2039,
    "guilsinglright": 0x203A, "fraction": 0x2044, "Euro": 0x20AC,
    "trademark": 0x2122, "minus": 0x2212, "fi": 0xFB01, "fl": 0xFB02,
    "germandbls": 0xDF, "quotesinglbase": 0x201A, "quotedblbase": 0x201E,
    "florin": 0x192, "circumflex": 0x2C6, "caron": 0x2C7, "tilde": 0x2DC,
    "breve": 0x2D8, "dotaccent": 0x2D9, "ring": 0x2DA, "ogonek": 0x2DB,
    "hungarumlaut": 0x2DD, "OE": 0x152, "oe": 0x153, "Scaron": 0x160,
    "scaron": 0x161, "Ydieresis": 0x178, "Zcaron": 0x17D, "zcaron": 0x17E,
    "dotlessi": 0x131, "Lslash": 0x141, "lslash": 0x142,
}
for _n, _cp in (  # A-Z a-z single-letter names map to themselves
    [(chr(c), c) for c in range(0x41, 0x5B)]
    + [(chr(c), c) for c in range(0x61, 0x7B)]
):
    _AGL[_n] = _cp
# accented-letter names (Aacute etc.) — compositional decode below
_ACCENTS = {
    "acute": 0x0301, "grave": 0x0300, "circumflex": 0x0302, "tilde": 0x0303,
    "dieresis": 0x0308, "ring": 0x030A, "cedilla": 0x0327, "macron": 0x0304,
    "breve": 0x0306, "caron": 0x030C, "slash": 0x0338,
}

_UNI_RE = re.compile(r"^uni([0-9A-Fa-f]{4})")
_UXX_RE = re.compile(r"^u([0-9A-Fa-f]{4,6})$")


def glyphname_to_text(name: str) -> str:
    if name in _AGL:
        return chr(_AGL[name])
    m = _UNI_RE.match(name)
    if m:
        return chr(int(m.group(1), 16))
    m = _UXX_RE.match(name)
    if m:
        return chr(int(m.group(1), 16))
    base = name.split(".")[0]  # a.sc, g.alt → a, g
    if base != name and base:
        return glyphname_to_text(base)
    for acc, comb in _ACCENTS.items():
        if name.endswith(acc) and name[: -len(acc)] in _AGL:
            import unicodedata

            return unicodedata.normalize(
                "NFC", chr(_AGL[name[: -len(acc)]]) + chr(comb)
            )
    return ""


# WinAnsi differs from latin-1 only in 0x80-0x9F
_WINANSI_HIGH = {
    0x80: 0x20AC, 0x82: 0x201A, 0x83: 0x0192, 0x84: 0x201E, 0x85: 0x2026,
    0x86: 0x2020, 0x87: 0x2021, 0x88: 0x02C6, 0x89: 0x2030, 0x8A: 0x0160,
    0x8B: 0x2039, 0x8C: 0x0152, 0x8E: 0x017D, 0x91: 0x2018, 0x92: 0x2019,
    0x93: 0x201C, 0x94: 0x201D, 0x95: 0x2022, 0x96: 0x2013, 0x97: 0x2014,
    0x98: 0x02DC, 0x99: 0x2122, 0x9A: 0x0161, 0x9B: 0x203A, 0x9C: 0x0153,
    0x9E: 0x017E, 0x9F: 0x0178,
}


def _base_encoding_map(name: str) -> dict:
    """byte → unicode for the named base encoding (identity latin-1 plus
    the WinAnsi high-region overrides; MacRoman's printable ASCII region
    is identical, which is all the western test corpus exercises)."""
    table = {i: chr(i) for i in range(32, 256)}
    if name == "WinAnsiEncoding":
        for k, v in _WINANSI_HIGH.items():
            table[k] = chr(v)
    return table


# -- ToUnicode / embedded CMaps ---------------------------------------


def parse_cmap(data: bytes) -> tuple:
    """CMap stream → (code→text map, codespace byte-lengths set).

    Handles ``bfchar``/``bfrange`` (scalar-increment and array forms) and
    ``cidchar``/``cidrange`` (CID value as the mapping target, rendered as
    the unicode codepoint — correct for the Identity and Latin CID
    ranges the test corpus uses)."""
    to_text: dict = {}
    lengths: set = set()
    stack: list = []
    for tok in content_tokens(data):
        if isinstance(tok, Keyword):
            op = tok
            if op == b"endcodespacerange":
                for i in range(0, len(stack) - 1, 2):
                    if isinstance(stack[i], bytes):
                        lengths.add(len(stack[i]))
                stack = []
            elif op == b"endbfchar" or op == b"endcidchar":
                for i in range(0, len(stack) - 1, 2):
                    src, dst = stack[i], stack[i + 1]
                    if not isinstance(src, bytes):
                        continue
                    lengths.add(len(src))
                    code = int.from_bytes(src, "big")
                    to_text[code] = _cmap_dst_text(dst)
                stack = []
            elif op == b"endbfrange" or op == b"endcidrange":
                for i in range(0, len(stack) - 2, 3):
                    lo, hi, dst = stack[i], stack[i + 1], stack[i + 2]
                    if not (isinstance(lo, bytes) and isinstance(hi, bytes)):
                        continue
                    lengths.add(len(lo))
                    lo_i = int.from_bytes(lo, "big")
                    hi_i = int.from_bytes(hi, "big")
                    if hi_i - lo_i > 65535:
                        hi_i = lo_i + 65535
                    if isinstance(dst, list):
                        for k, d in enumerate(dst):
                            if lo_i + k > hi_i:
                                break
                            to_text[lo_i + k] = _cmap_dst_text(d)
                    else:
                        base_txt = _cmap_dst_text(dst)
                        if isinstance(dst, bytes) and base_txt:
                            base = int.from_bytes(dst, "big")
                            width = len(dst)
                            for k in range(hi_i - lo_i + 1):
                                to_text[lo_i + k] = _cmap_dst_text(
                                    (base + k).to_bytes(max(width, 2), "big")
                                )
                        elif isinstance(dst, int):
                            for k in range(hi_i - lo_i + 1):
                                to_text[lo_i + k] = chr(dst + k)
                stack = []
            elif op in (b"begincodespacerange", b"beginbfchar",
                        b"beginbfrange", b"begincidchar", b"begincidrange"):
                stack = []
            else:
                stack = []
        else:
            stack.append(tok)
            if len(stack) > 400:  # bfchar blocks chunk at 100 pairs
                stack = stack[-400:]
    return to_text, lengths


def _cmap_dst_text(dst) -> str:
    if isinstance(dst, bytes):
        if len(dst) % 2 == 0:
            try:
                return dst.decode("utf-16-be", "replace")
            except Exception:  # pragma: no cover
                return ""
        return dst.decode("latin-1")
    if isinstance(dst, int):
        return chr(dst) if 0 <= dst < 0x110000 else ""
    if isinstance(dst, Name):
        return glyphname_to_text(str(dst))
    return ""


# -- fonts ------------------------------------------------------------


class Font:
    """Uniform glyph accessor: code iteration, width (text space ×1000),
    text, vertical metrics."""

    __slots__ = ("name", "widths", "default_width", "to_text", "ascent",
                 "descent", "code_bytes", "font_matrix", "space_code",
                 "_glyph_cache")

    def __init__(self) -> None:
        self._glyph_cache: dict = {}  # code → (w0, text), hot-path memo
        self.name = ""
        self.widths: dict = {}
        self.default_width = 500.0
        self.to_text: dict = {}
        self.ascent = 0.8
        self.descent = -0.2
        self.code_bytes = 1
        self.font_matrix = None  # Type3 only
        self.space_code = 32

    def iter_codes(self, raw: bytes):
        step = self.code_bytes
        if step == 1:
            for b in raw:
                yield b
        else:
            for i in range(0, len(raw) - step + 1, step):
                yield int.from_bytes(raw[i:i + step], "big")

    def width(self, code: int) -> float:
        return self.widths.get(code, self.default_width)

    def text(self, code: int) -> str:
        t = self.to_text.get(code)
        if t is not None:
            return t
        if self.code_bytes == 1 and 32 <= code < 256:
            return chr(code)
        return ""


_STD_WIDTH_HINTS = (
    # (substring of BaseFont, default width) — for non-embedded standard
    # fonts with no /Widths; constant-advance is enough for the engine's
    # layout clustering (positions come from our own advances)
    ("Courier", 600.0),
    ("Helvetica", 540.0),
    ("Arial", 540.0),
    ("Times", 500.0),
    ("Symbol", 580.0),
)


def load_font(pdf: PdfFile, fd: dict) -> Font:
    """Font dict → :class:`Font` (simple Type1/TrueType/Type3 and
    composite Type0/CID)."""
    r = pdf.resolve
    font = Font()
    subtype = str(r(fd.get("Subtype")) or "")
    font.name = str(r(fd.get("BaseFont")) or r(fd.get("Name")) or "F")
    if "+" in font.name:  # strip subset tag ABCDEF+
        head, _, tail = font.name.partition("+")
        if len(head) == 6 and head.isalpha() and head.isupper():
            font.name = tail

    tu = r(fd.get("ToUnicode"))
    if isinstance(tu, Stream):
        try:
            font.to_text, _ = parse_cmap(tu.decoded(r))
        except PdfError:
            pass

    if subtype == "Type0":
        desc = r(fd.get("DescendantFonts"))
        desc = r(desc[0]) if isinstance(desc, list) and desc else {}
        enc = r(fd.get("Encoding"))
        font.code_bytes = 2
        if isinstance(enc, Stream):
            try:
                cid_map, lengths = parse_cmap(enc.decoded(r))
                if lengths == {1}:
                    font.code_bytes = 1
                if not font.to_text and cid_map:
                    font.to_text = cid_map
            except PdfError:
                pass
        font.default_width = float(r(desc.get("DW")) or 1000.0)
        w = r(desc.get("W")) or []
        i = 0
        while i < len(w):
            c = int(r(w[i]))
            nxt = r(w[i + 1]) if i + 1 < len(w) else None
            if isinstance(nxt, list):
                for k, wd in enumerate(nxt):
                    font.widths[c + k] = float(r(wd))
                i += 2
            elif nxt is not None and i + 2 < len(w):
                c2 = int(nxt)
                wd = float(r(w[i + 2]))
                if c2 - c <= 65535:
                    for cc in range(c, c2 + 1):
                        font.widths[cc] = wd
                i += 3
            else:
                break
        _load_descriptor(pdf, r(desc.get("FontDescriptor")), font)
        font.space_code = -1  # CID space rarely means word gap; Tw off
        return font

    # simple font
    first = int(r(fd.get("FirstChar")) or 0)
    widths = r(fd.get("Widths"))
    if isinstance(widths, list):
        for k, wd in enumerate(widths):
            wd = r(wd)
            if wd is not NULL and wd is not None:
                font.widths[first + k] = float(wd)
    else:
        for sub, wd in _STD_WIDTH_HINTS:
            if sub in font.name:
                font.default_width = wd
                break
    enc = r(fd.get("Encoding"))
    enc_map: dict = {}
    if isinstance(enc, Name):
        enc_map = _base_encoding_map(str(enc))
    elif isinstance(enc, dict):
        enc_map = _base_encoding_map(str(r(enc.get("BaseEncoding")) or ""))
        code = 0
        for item in r(enc.get("Differences")) or []:
            item = r(item)
            if isinstance(item, (int, float)):
                code = int(item)
            elif isinstance(item, Name):
                t = glyphname_to_text(str(item))
                if t:
                    enc_map[code] = t
                code += 1
    if enc_map and not font.to_text:
        font.to_text = enc_map
    elif enc_map:
        for c, t in enc_map.items():
            font.to_text.setdefault(c, t)
    if subtype == "Type3":
        fm = r(fd.get("FontMatrix")) or [0.001, 0, 0, 0.001, 0, 0]
        font.font_matrix = [float(r(v)) for v in fm]
    _load_descriptor(pdf, r(fd.get("FontDescriptor")), font)
    return font


def _load_descriptor(pdf: PdfFile, desc, font: Font) -> None:
    if not isinstance(desc, dict):
        return
    r = pdf.resolve
    try:
        asc = r(desc.get("Ascent"))
        dsc = r(desc.get("Descent"))
        if isinstance(asc, (int, float)) and asc:
            font.ascent = float(asc) / 1000.0
        if isinstance(dsc, (int, float)) and dsc:
            font.descent = -abs(float(dsc)) / 1000.0
        mw = r(desc.get("MissingWidth"))
        if isinstance(mw, (int, float)) and mw:
            font.default_width = float(mw)
    except PdfError:
        pass
    if font.ascent <= 0:
        font.ascent = 0.8
    if font.descent >= 0:
        font.descent = -0.2


# -- matrices ---------------------------------------------------------


def mat_mult(m1, m2):
    """(a b c d e f) row-vector convention: point × m1 × m2."""
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
        e1 * a2 + f1 * c2 + e2,
        e1 * b2 + f1 * d2 + f2,
    )


def apply_mat(m, x, y):
    a, b, c, d, e, f = m
    return (a * x + c * y + e, b * x + d * y + f)


MAT_ID = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def page_base_ctm(mediabox, rotate: int):
    """Base CTM mapping PDF user space onto the engine's page box:
    origin bottom-left of the VISIBLE (rotated) page, y up.  Returns
    (ctm, page_width, page_height)."""
    x0, y0, x1, y1 = mediabox
    w, h = x1 - x0, y1 - y0
    if rotate == 90:
        # user (x,y) → device (y - y0, x - x0) mirrored: width/height swap
        return mat_mult((0.0, 1.0, -1.0, 0.0, y1, -x0), MAT_ID), h, w
    if rotate == 180:
        return (-1.0, 0.0, 0.0, -1.0, x1, y1), w, h
    if rotate == 270:
        return (0.0, -1.0, 1.0, 0.0, -y0, x1), h, w
    return (1.0, 0.0, 0.0, 1.0, -x0, -y0), w, h


# -- interpreter ------------------------------------------------------


class _GState:
    __slots__ = ("ctm", "ncolor", "scolor", "font", "fsize",
                 "tc", "tw", "th", "tl", "ts", "tr")

    def __init__(self, ctm):
        self.ctm = ctm
        self.ncolor = (0.0, 0.0, 0.0)
        self.scolor = (0.0, 0.0, 0.0)
        self.font: Font | None = None
        self.fsize = 0.0
        self.tc = 0.0
        self.tw = 0.0
        self.th = 1.0
        self.tl = 0.0
        self.ts = 0.0
        self.tr = 0

    def copy(self) -> "_GState":
        g = _GState(self.ctm)
        for s in self.__slots__:
            setattr(g, s, getattr(self, s))
        return g


class PageInterpreter:
    """Execute one page's content → chars / segments / rects / figures.

    Stateless across pages except the per-document font cache (fonts are
    shared between pages via indirect refs; parsing ToUnicode once per
    document mirrors pdfminer's cached ``PDFFont`` instances, which the
    reference holds warm per process — here the cache lives for one
    document inside one Ray task)."""

    MAX_FORM_DEPTH = 8

    def __init__(self, pdf: PdfFile):
        self.pdf = pdf
        self._font_cache: dict = {}
        self.chars: list = []
        self.segments: list = []
        self.rects: list = []
        self.figures: list = []
        self._page_no = 0

    # font instances keyed by the font DICT identity (refs resolve to the
    # same cached dict object via PdfFile._cache)
    def _font_for(self, fd) -> Font:
        key = id(fd)
        font = self._font_cache.get(key)
        if font is None:
            font = load_font(self.pdf, fd)
            self._font_cache[key] = font
        return font

    def run_page(self, page: dict) -> None:
        self._page_no = int(page["number"])
        ctm, _, _ = page_base_ctm(page["mediabox"], page["rotate"])
        content = self.pdf.content_bytes(page)
        self._execute(content, page["resources"], _GState(ctm), 0)

    # -- core loop ---------------------------------------------------

    def _execute(self, content: bytes, resources: dict, gs: _GState,
                 depth: int) -> None:
        r = self.pdf.resolve
        resources = resources or {}
        fonts = r(resources.get("Font")) or {}
        xobjects = r(resources.get("XObject")) or {}
        stack: list = []
        gstack: list = []
        tm = tlm = MAT_ID
        for tok in content_tokens(content):
            if tok.__class__ is not Keyword:
                stack.append(tok)
                if len(stack) > 64:
                    del stack[:-32]
                continue
            op = tok  # Keyword IS bytes — compare directly, no copy
            # dispatch ordered by measured operator frequency on text-heavy
            # corpora (Tj/Tm/Tf/BT/ET + fill-color runs dominate; census in
            # round-5 notes) — the chain is the interpreter's hot spine.
            try:
                if op == b"Tj":
                    tm = self._show(stack[-1], gs, tm)
                elif op == b"Tm":
                    tlm = tuple(map(float, stack[-6:]))
                    tm = tlm
                elif op == b"Td":
                    tx, ty = float(stack[-2]), float(stack[-1])
                    tlm = (tlm[0], tlm[1], tlm[2], tlm[3],
                           tx * tlm[0] + ty * tlm[2] + tlm[4],
                           tx * tlm[1] + ty * tlm[3] + tlm[5])
                    tm = tlm
                elif op == b"Tf":
                    if len(stack) >= 2 and isinstance(stack[-2], Name):
                        fd = r(fonts.get(str(stack[-2])))
                        gs.font = self._font_for(fd) if isinstance(fd, dict) else None
                        gs.fsize = float(stack[-1])
                elif op == b"BT":
                    tm = tlm = MAT_ID
                elif op == b"ET":
                    pass
                elif op == b"rg" or op == b"RG":
                    col = tuple(map(float, stack[-3:]))
                    if op == b"rg":
                        gs.ncolor = col
                    else:
                        gs.scolor = col
                elif op == b"TJ":
                    tm = self._show_tj(stack[-1], gs, tm)
                elif op == b"TD":
                    gs.tl = -float(stack[-1])
                    tx, ty = float(stack[-2]), float(stack[-1])
                    tlm = (tlm[0], tlm[1], tlm[2], tlm[3],
                           tx * tlm[0] + ty * tlm[2] + tlm[4],
                           tx * tlm[1] + ty * tlm[3] + tlm[5])
                    tm = tlm
                elif op == b"T*":
                    ty = -gs.tl
                    tlm = (tlm[0], tlm[1], tlm[2], tlm[3],
                           ty * tlm[2] + tlm[4], ty * tlm[3] + tlm[5])
                    tm = tlm
                elif op == b"TL":
                    gs.tl = float(stack[-1])
                elif op == b"Tc":
                    gs.tc = float(stack[-1])
                elif op == b"Tw":
                    gs.tw = float(stack[-1])
                elif op == b"Tz":
                    gs.th = float(stack[-1]) / 100.0
                elif op == b"Ts":
                    gs.ts = float(stack[-1])
                elif op == b"Tr":
                    gs.tr = int(stack[-1])
                elif op == b"'":
                    tlm = mat_mult((1, 0, 0, 1, 0, -gs.tl), tlm)
                    tm = self._show(stack[-1], gs, tlm)
                elif op == b'"':
                    gs.tw = float(stack[-3])
                    gs.tc = float(stack[-2])
                    tlm = mat_mult((1, 0, 0, 1, 0, -gs.tl), tlm)
                    tm = self._show(stack[-1], gs, tlm)
                elif op == b"q":
                    gstack.append(gs.copy())
                elif op == b"Q":
                    if gstack:
                        gs = gstack.pop()
                elif op == b"cm":
                    gs.ctm = mat_mult(
                        tuple(map(float, stack[-6:])), gs.ctm
                    )
                elif op in (b"m", b"l", b"c", b"v", b"y", b"re", b"h"):
                    self._path_op(op, stack)
                elif op in (b"S", b"s", b"f", b"F", b"f*", b"B", b"B*",
                            b"b", b"b*", b"n"):
                    self._paint(op, gs)
                elif op == b"W" or op == b"W*":
                    pass  # clipping: geometry kept, no clip evaluation
                elif op == b"g" or op == b"G":
                    v = float(stack[-1])
                    col = (v, v, v)
                    if op == b"g":
                        gs.ncolor = col
                    else:
                        gs.scolor = col
                elif op == b"k" or op == b"K":
                    col = tuple(map(float, stack[-4:]))
                    if op == b"k":
                        gs.ncolor = col
                    else:
                        gs.scolor = col
                elif op in (b"sc", b"scn", b"SC", b"SCN"):
                    comps = tuple(
                        float(v) for v in stack if isinstance(v, (int, float))
                    )
                    if comps:
                        if op in (b"sc", b"scn"):
                            gs.ncolor = comps
                        else:
                            gs.scolor = comps
                elif op == b"Do":
                    self._do_xobject(stack[-1] if stack else None,
                                     xobjects, gs, depth)
                elif op == b"BI":  # inline image, one token BI…EI
                    self._emit_figure(gs, None)
                elif op == b"gs" or op in (b"BMC", b"BDC", b"EMC", b"MP",
                                           b"DP", b"cs", b"CS", b"ri",
                                           b"i", b"j", b"J", b"M", b"d",
                                           b"w", b"sh", b"d0", b"d1"):
                    pass
            except (PdfError, ValueError, TypeError, IndexError):
                pass  # malformed operator: skip, keep interpreting
            stack = []

    # -- text --------------------------------------------------------

    def _show_tj(self, arr, gs: _GState, tm):
        if not isinstance(arr, list):
            return tm
        k = -gs.fsize * gs.th / 1000.0
        for item in arr:
            if isinstance(item, (int, float)):
                # translation-only premultiply: keeps tm's linear part
                tx = float(item) * k
                tm = (tm[0], tm[1], tm[2], tm[3],
                      tx * tm[0] + tm[4], tx * tm[1] + tm[5])
            elif isinstance(item, (bytes, bytearray)):
                tm = self._show(bytes(item), gs, tm)
        return tm

    def _show(self, raw, gs: _GState, tm):
        if not isinstance(raw, (bytes, bytearray)) or gs.font is None:
            return tm
        font = gs.font
        fsize, th, tc, tw, rise = gs.fsize, gs.th, gs.tc, gs.tw, gs.ts
        invisible = gs.tr == 3
        ncolor = gs.ncolor
        page = self._page_no
        asc, dsc = font.ascent, font.descent
        chars = self.chars
        # one full matrix composition per SHOW STRING; per glyph only the
        # translation advances (device delta = adv × the text-space x axis
        # of tm×ctm) — was 6 mat_mults per glyph, profiled hot
        ma, mb, mc, md, me, mf = mat_mult(tm, gs.ctm)
        sa = fsize * th
        ta, tb = sa * ma, sa * mb          # glyph x axis (device)
        ca, cb = fsize * mc, fsize * md    # glyph y axis (device)
        ox = rise * mc + me                # running glyph origin (device)
        oy = rise * md + mf
        total_adv = 0.0
        glyph_cache = font._glyph_cache
        space_code = font.space_code
        fontname = font.name
        for code in font.iter_codes(bytes(raw)):
            cached = glyph_cache.get(code)
            if cached is None:
                if font.font_matrix is not None:
                    w0 = font.width(code) * font.font_matrix[0]
                else:
                    w0 = font.width(code) / 1000.0
                cached = (w0, font.text(code))
                glyph_cache[code] = cached
            w0, text = cached
            adv = (w0 * fsize + tc) * th
            if code == space_code:
                adv += tw * th
            if text and not invisible:
                # corners (0,dsc) and (w0|0.4, asc) in glyph space → AABB
                gx = w0 if w0 > 0 else 0.4
                ax = dsc * ca + ox
                ay = dsc * cb + oy
                bx = gx * ta + asc * ca + ox
                by = gx * tb + asc * cb + oy
                x0d, x1d = (ax, bx) if ax <= bx else (bx, ax)
                y0d, y1d = (ay, by) if ay <= by else (by, ay)
                for ch in text:
                    chars.append(
                        {
                            "text": ch,
                            "x0": x0d, "y0": y0d, "x1": x1d, "y1": y1d,
                            "ncolor": ncolor,
                            "fontname": fontname,
                            "size": fsize,
                            "page": page,
                        }
                    )
                    x0d = x1d  # multi-char expansion (ligatures) share the box
            ox += adv * ma
            oy += adv * mb
            total_adv += adv
        return (tm[0], tm[1], tm[2], tm[3],
                total_adv * tm[0] + tm[4], total_adv * tm[1] + tm[5])

    # -- paths -------------------------------------------------------

    def _path_op(self, op: bytes, stack: list) -> None:
        path = getattr(self, "_path", None)
        if path is None:
            path = self._path = []
        if op == b"m":
            path.append(["m", float(stack[-2]), float(stack[-1])])
        elif op == b"l":
            path.append(["l", float(stack[-2]), float(stack[-1])])
        elif op in (b"c", b"v", b"y"):
            path.append(["l", float(stack[-2]), float(stack[-1])])
        elif op == b"re":
            x, y, w, h = (float(v) for v in stack[-4:])
            path.append(["re", x, y, w, h])
        elif op == b"h":
            path.append(["h"])

    def _paint(self, op: bytes, gs: _GState) -> None:
        path = getattr(self, "_path", None)
        self._path = []
        if not path or op == b"n":
            return
        stroke = op in (b"S", b"s", b"B", b"B*", b"b", b"b*")
        fill = op in (b"f", b"F", b"f*", b"B", b"B*", b"b", b"b*")
        page = self._page_no
        # pdfminer classification parity: a path with MULTIPLE subpaths is
        # a CURVE, never a rect — even-odd ring fills (``re re f*``, the
        # way browsers/WeasyPrint draw border boxes) must not produce rect
        # records (the reference's pdfplumber rect list excludes them:
        # tests/test_rects.py counts pin this).  Fill-only multi-subpath
        # paths therefore emit nothing; stroked ones still contribute
        # their line segments to table detection.
        n_subpaths = sum(1 for it in path if it[0] in ("m", "re"))
        emit_rects = n_subpaths <= 1
        if not stroke and not emit_rects:
            return
        pts: list = []
        start = None

        def close_poly():
            if start is not None and len(pts) > 2:
                self._emit_line(pts[-1], start, page)

        for item in path:
            if item[0] == "re":
                x, y, w, h = item[1:]
                corners = [
                    apply_mat(gs.ctm, x, y),
                    apply_mat(gs.ctm, x + w, y),
                    apply_mat(gs.ctm, x + w, y + h),
                    apply_mat(gs.ctm, x, y + h),
                ]
                xs = [p[0] for p in corners]
                ys = [p[1] for p in corners]
                self._emit_rect(
                    min(xs), min(ys), max(xs), max(ys), page,
                    gs.ncolor if fill else None, stroke, fill,
                    record=emit_rects,
                )
            elif item[0] == "m":
                pts = [apply_mat(gs.ctm, item[1], item[2])]
                start = pts[0]
            elif item[0] == "l":
                p = apply_mat(gs.ctm, item[1], item[2])
                if pts and stroke:
                    self._emit_line(pts[-1], p, page)
                pts.append(p)
            elif item[0] == "h":
                if stroke:
                    close_poly()
        if op in (b"s", b"b", b"b*") and path[-1][0] == "l":
            close_poly()  # close-and-paint ends with an implicit h (§8.5.3.2)
        if (fill and not stroke and emit_rects and start is not None
                and len(pts) >= 4):
            # single filled 4-corner polygon (m l l l h) — pdfminer's
            # other rect shape; bbox degenerate polys are dropped
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            w, h = max(xs) - min(xs), max(ys) - min(ys)
            if (w > 0 or h > 0) and len(pts) <= 5:
                self._emit_rect(min(xs), min(ys), max(xs), max(ys), page,
                                gs.ncolor, False, True)

    _THIN = 1.5  # pt: a filled bar thinner than this is a drawn line

    def _emit_line(self, p0, p1, page: int) -> None:
        self.segments.append(
            {
                "page": page,
                "x0": min(p0[0], p1[0]), "y0": min(p0[1], p1[1]),
                "x1": max(p0[0], p1[0]), "y1": max(p0[1], p1[1]),
            }
        )

    def _emit_rect(self, x0, y0, x1, y1, page, ncolor, stroke, fill,
                   record: bool = True) -> None:
        w, h = x1 - x0, y1 - y0
        if record and fill and (w < self._THIN or h < self._THIN) and max(w, h) > 4.0:
            # vector table border drawn as a thin filled bar → centerline
            if w < h:
                cx = (x0 + x1) / 2.0
                self.segments.append(
                    {"page": page, "x0": cx, "y0": y0, "x1": cx, "y1": y1}
                )
            else:
                cy = (y0 + y1) / 2.0
                self.segments.append(
                    {"page": page, "x0": x0, "y0": cy, "x1": x1, "y1": cy}
                )
            return
        if stroke:
            for seg in (
                (x0, y0, x1, y0), (x0, y1, x1, y1),
                (x0, y0, x0, y1), (x1, y0, x1, y1),
            ):
                self.segments.append(
                    {"page": page, "x0": seg[0], "y0": seg[1],
                     "x1": seg[2], "y1": seg[3]}
                )
        if not record:  # multi-subpath member: edges only, no rect record
            return
        rec = {"page": page, "x0": x0, "y0": y0, "x1": x1, "y1": y1}
        if ncolor is not None:
            rec["non_stroking_color"] = list(ncolor)
        self.rects.append(rec)

    # -- xobjects ----------------------------------------------------

    def _do_xobject(self, name, xobjects: dict, gs: _GState, depth: int) -> None:
        if not isinstance(name, Name):
            return
        xo = self.pdf.resolve(xobjects.get(str(name)))
        if not isinstance(xo, Stream):
            return
        subtype = str(self.pdf.resolve(xo.dict.get("Subtype")) or "")
        if subtype == "Image":
            self._emit_figure(gs, xo)
        elif subtype == "Form" and depth < self.MAX_FORM_DEPTH:
            inner = gs.copy()
            matrix = self.pdf.resolve(xo.dict.get("Matrix"))
            if isinstance(matrix, list) and len(matrix) == 6:
                inner.ctm = mat_mult(
                    tuple(float(self.pdf.resolve(v)) for v in matrix), gs.ctm
                )
            res = self.pdf.resolve(xo.dict.get("Resources")) or {}
            try:
                self._execute(xo.decoded(self.pdf.resolve), res, inner,
                              depth + 1)
            except PdfError:
                pass

    def _emit_figure(self, gs: _GState, xo: Stream | None) -> None:
        corners = [
            apply_mat(gs.ctm, 0, 0), apply_mat(gs.ctm, 1, 0),
            apply_mat(gs.ctm, 1, 1), apply_mat(gs.ctm, 0, 1),
        ]
        xs = [p[0] for p in corners]
        ys = [p[1] for p in corners]
        rec = {
            "page": self._page_no,
            "x0": min(xs), "y0": min(ys), "x1": max(xs), "y1": max(ys),
        }
        if xo is not None:
            r = self.pdf.resolve
            rec["img_width"] = int(r(xo.dict.get("Width")) or 0)
            rec["img_height"] = int(r(xo.dict.get("Height")) or 0)
            rec["codec"] = xo.image_codec or "raw"
        self.figures.append(rec)
