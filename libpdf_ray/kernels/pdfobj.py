"""Pure-stdlib PDF object model: token grammar, filters, xref, page tree.

This is the byte-level half of the engine's real-PDF decoder
(``stages/pdf_decoder.py``).  The reference binds this layer to
pdfminer/pdfplumber (``/root/reference/libpdf/extract.py:96``); neither
wheel exists in this environment, so the decoder is re-derived from the
PDF 1.7 spec (ISO 32000-1) over stdlib ``zlib``/``struct`` only:

- one regex token grammar in two modes: object mode
  (:func:`parse_object`: numbers, names with ``#xx``, literal and hex
  strings, arrays, dicts, streams, indirect refs, booleans, null) and
  content mode (:func:`content_tokens`: a whole content stream or CMap,
  operands and operators, in one ``finditer`` pass);
- stream filters: FlateDecode (+ PNG/TIFF predictors), LZWDecode,
  ASCIIHexDecode, ASCII85Decode, RunLengthDecode — image-only codecs
  (DCT/JPX/CCITT/JBIG2) pass through undecoded, flagged;
- cross-reference loading: classic ``xref`` tables AND PDF-1.5 xref
  streams (``/W``/``/Index``), ``/Prev`` + ``/XRefStm`` chains, and
  compressed objects inside ``/Type /ObjStm`` object streams;
- a brute-force ``N G obj`` rescan fallback for files with broken xref
  offsets (real-corpus resilience — a poison doc must yield an error row,
  not a dead Ray task, so parse errors raise :class:`PdfError` which the
  parse stage's catch-all converts to an error span row);
- page-tree walk with attribute inheritance (Resources / MediaBox /
  Rotate / CropBox).

Everything here is per-document and allocation-light: one ``bytes`` in,
plain Python objects out.  The Ray side never sees these objects — the
decoder (``stages/pdf_decoder.py``) turns them into the engine's internal
document dict (``stages/decoder.py`` contract) inside ``map_batches``.
"""

from __future__ import annotations

import re
import zlib


class PdfError(Exception):
    """Unrecoverable parse failure for one document (poison-row signal)."""


class Name(str):
    """A PDF name object (``/Foo``) — distinct from byte strings."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"/{str.__str__(self)}"


class Ref(tuple):
    """Indirect reference ``num gen R``."""

    __slots__ = ()

    def __new__(cls, num: int, gen: int = 0):
        return tuple.__new__(cls, (int(num), int(gen)))

    @property
    def num(self) -> int:
        return self[0]

    @property
    def gen(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self[0]} {self[1]} R"


class Keyword(bytes):
    """A bare keyword / content-stream operator — distinct from string
    objects (both are ``bytes`` underneath; ``Tj`` operands must never be
    mistaken for the ``Tj`` operator)."""

    __slots__ = ()


NULL = object()  # PDF null singleton (distinct from "key absent")

# -- token grammar ---------------------------------------------------
#
# One master pattern per mode.  Every match is "skip whitespace and
# comments, then exactly one token", the skip is possessive (whitespace is
# never a token), and the last alternative matches end of data.  So the
# pattern matches at every position, ``finditer`` yields back-to-back
# tokens and never resumes a search inside a comment, and a whole content
# stream lexes in one C-level pass; Python only dispatches on the group.

_WS = b"\x00\t\n\x0c\r "
_REGULAR = rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]"
_SKIP = rb"(?:[\x00\t\n\x0c\r ]++|%[^\r\n]*+)*+"
_COMMON_TOKENS = (
    rb"(?P<real>[+-]?(?:\d++\.\d*+|\.\d++))",
    rb"(?P<int>[+-]?\d++)",
    rb"(?P<kw>" + _REGULAR + rb"+)",
    rb"(?P<name>/" + _REGULAR + rb"*)",
    rb"\((?P<str>[^()\\]*+)\)",  # literal string without escapes/nesting
    rb"(?P<lp>\()",  # any other literal string: _scan_literal
    rb"(?P<ao>\[)",
    rb"(?P<ac>\])",
    rb"(?P<do><<)",
    rb"(?P<dc>>>)",
    rb"(?P<hex><[^>]*+>?)",
    rb"(?P<other>.)",  # ) { } >
    rb"(?P<end>\Z)",
)
# object mode: an indirect reference ``N G R``, and an all-integer array
# such as a font's /Widths, decoded with one split() instead of one match
# per element
_OBJECT_TOKENS = (
    rb"(?P<ref>([+-]?\d++)" + _SKIP + rb"([+-]?\d++)" + _SKIP
    + rb"R(?!" + _REGULAR + rb"))",
    rb"(?P<ints>\[(?:[\x00\t\n\x0c\r ]*+[+-]?\d++(?=[\x00\t\n\x0c\r \]]))*+"
    rb"[\x00\t\n\x0c\r ]*+\])",
)
# content mode: an inline image ``BI … ID … EI`` is one token
_CONTENT_TOKENS = (rb"(?P<bi>BI(?!" + _REGULAR + rb"))",)
_NAME_HEX_RE = re.compile(rb"#([0-9A-Fa-f]{2})")
# every byte that is NOT a hex digit — one translate() strips garbage from
# hex strings
_NON_HEX_BYTES = bytes(
    b for b in range(256)
    if not ((0x30 <= b <= 0x39) or (0x41 <= b <= 0x46) or (0x61 <= b <= 0x66))
)


class _Interned(dict):
    """Token intern table: ``table[raw]`` builds and keeps the token on a
    miss.  Operators and resource names repeat thousands of times per
    page, so per-token allocation is pure overhead."""

    __slots__ = ("make", "limit", "seed")

    def __init__(self, make, limit: int, seed: dict):
        super().__init__(seed)
        self.make, self.limit, self.seed = make, limit, seed

    def __missing__(self, raw: bytes):
        if len(self) > self.limit:  # pathological-input guard
            self.clear()
            self.update(self.seed)
        tok = self[raw] = self.make(raw)
        return tok


def _name(raw: bytes) -> Name:
    body = raw[1:]
    if b"#" in body:
        body = _NAME_HEX_RE.sub(lambda mm: bytes([int(mm.group(1), 16)]), body)
    return Name(body.decode("latin-1"))


def _hex(raw: bytes) -> bytes:
    digits = raw[1:-1] if raw.endswith(b">") else raw[1:]
    digits = digits.translate(None, _NON_HEX_BYTES)
    if len(digits) % 2:
        digits += b"0"
    return bytes.fromhex(digits.decode("ascii"))


_KEYWORDS = _Interned(Keyword, 4096, {b"true": True, b"false": False, b"null": NULL})
_NAMES = _Interned(_name, 65536, {})
# groups that are one self-contained token → the C-level call that builds it
_SCALARS = {
    "real": float, "int": int, "kw": _KEYWORDS.__getitem__,
    "name": _NAMES.__getitem__, "str": bytes, "hex": _hex,
    "ints": lambda raw: [int(t) for t in raw[1:-1].split()],
}


def _grammar(extra: tuple) -> tuple:
    """(pattern, group index → kind, group index → scalar builder)."""
    rx = re.compile(_SKIP + rb"(?:" + rb"|".join(extra + _COMMON_TOKENS) + rb")", re.S)
    kinds = [None] * (rx.groups + 1)
    for name, i in rx.groupindex.items():
        kinds[i] = name
    return rx, tuple(kinds), tuple(_SCALARS.get(k) for k in kinds)


_OBJECT_GRAMMAR = _grammar(_OBJECT_TOKENS)
_CONTENT_GRAMMAR = _grammar(_CONTENT_TOKENS)
_SKIP_RE = re.compile(_SKIP)
_WS_OR_DELIM = _WS + b"()<>[]{}/%"
_STREAM_RE = re.compile(_SKIP + rb"stream(?:\r\n|[\r\n])?")
_NUM_RE = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)")
_OBJ_HEAD_RE = re.compile(rb"(\d{1,10})\s+(\d{1,5})\s+obj\b")
_XREF_SUBSECTION_RE = re.compile(rb"([+-]?\d++)" + _SKIP + rb"([+-]?\d++)")
_XREF_ENTRY_RE = re.compile(rb"\s*(\d{10})\s+(\d{5})\s+([nf])")
_INLINE_EI_RE = re.compile(rb"\sEI(?=[\s/\[<(%]|$)")
_LITERAL_RE = re.compile(rb"\\(?:([0-7]{1,3})|\r\n?|\n|(.))|([()])", re.S)
_ESCAPES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f"}
_BI = Keyword(b"BI")


def _scan_literal(data: bytes, pos: int) -> tuple:
    """Literal string from just after its ``(``: balanced parentheses and
    backslash escapes (ISO 32000-1 §7.3.4.2) → (bytes, end)."""
    out = bytearray()
    depth = 1
    for m in _LITERAL_RE.finditer(data, pos):
        out += data[pos:m.start()]
        pos = m.end()
        octal, char, paren = m.groups()
        if paren is not None:
            depth += 1 if paren == b"(" else -1
            if depth == 0:
                return bytes(out), pos
            out += paren
        elif octal is not None:
            out.append(int(octal, 8) & 0xFF)
        elif char is not None:
            out += _ESCAPES.get(char, char)
        # else: backslash-EOL line continuation adds nothing
    raise PdfError("unterminated literal string")


def _inline_image(data: bytes, pos: int) -> tuple:
    """Inline image from just after ``BI`` → (``BI`` keyword, end after
    ``EI``); the interpreter keeps only the figure region, not the samples."""
    idx = data.find(b"ID", pos)
    if idx < 0:
        raise PdfError("inline image without ID")
    ei = _INLINE_EI_RE.search(data, idx + 2)
    return _BI, (ei.end() if ei else len(data))


def _to_dict(items: list, strict: bool) -> dict:
    d: dict = {}
    key = None
    for tok in items:
        if key is not None:
            d[key] = tok
            key = None
        elif isinstance(tok, Name):
            key = str(tok)
        elif strict:
            raise PdfError(f"dict key is not a name: {tok!r}")
        # content mode: drop a malformed key and resync on the next token
    if key is not None and strict:
        raise PdfError(f"dict key /{key} has no value")
    return d


def _lex(data: bytes, pos: int, grammar: tuple, strict: bool,
         one: bool) -> tuple:
    """The token loop of both modes → (top-level tokens, end).

    Arrays and dicts are built in place, so they are single tokens of the
    level they close in.  ``one`` stops after the first top-level token.
    ``strict`` (object mode) raises :class:`PdfError` on a stray ``]``,
    ``>>`` or delimiter and at end of data inside a container; otherwise
    (content mode) stray closers are dropped, other delimiters become
    keywords, and lexing stops where the stream goes bad, so the
    interpreter runs every operator before that point."""
    rx, kinds, scalars = grammar
    top = out = []
    outer: list = []  # enclosing (tokens, closer) pairs, innermost last
    closer = None  # "ac" inside an array, "dc" inside a dict
    while True:
        for m in rx.finditer(data, pos):
            i = m.lastindex
            build = scalars[i]
            if build is not None:
                out.append(build(m[i]))
                if one and not outer:
                    return top, m.end()
                continue
            k = kinds[i]
            if k == "ao" or k == "do":
                outer.append((out, closer))
                out = []
                closer = "ac" if k == "ao" else "dc"
                continue
            if k == "ac" or k == "dc":
                if k != closer:
                    if strict:
                        raise PdfError(f"stray {m[i]!r}")
                    continue
                tok = out if k == "ac" else _to_dict(out, strict)
                out, closer = outer.pop()
            elif k == "ref":
                tok = Ref(int(m[i + 1]), int(m[i + 2]))
            elif k == "lp" or k == "bi":
                scan = _scan_literal if k == "lp" else _inline_image
                try:
                    tok, pos = scan(data, m.end())
                except PdfError:
                    if strict:
                        raise
                    return top, len(data)
                out.append(tok)
                if one and not outer:
                    return top, pos
                break  # restart the pass after the string / image
            elif k == "end":
                if outer and strict:
                    raise PdfError("unterminated array or dict")
                return top, len(data)
            elif strict:
                raise PdfError(f"unparsable byte {m[i]!r} at {m.start(i)}")
            else:
                tok = Keyword(m[i])
            out.append(tok)
            if one and not outer:
                return top, m.end()


def parse_object(data: bytes, pos: int = 0, resolve=None) -> tuple:
    """Parse one object at ``pos`` → (object, end).

    A dict followed by ``stream`` becomes a :class:`Stream`; ``resolve``
    (when given) is used only to chase an indirect ``/Length``.  Raises
    :class:`PdfError` on malformed input and at end of data."""
    toks, end = _lex(data, pos, _OBJECT_GRAMMAR, True, True)
    if not toks:
        raise PdfError("unexpected end of data")
    obj = toks[0]
    if isinstance(obj, dict):
        m = _STREAM_RE.match(data, end)
        if m:
            return _stream(data, m.end(), obj, resolve)
    return obj, end


def _stream(data: bytes, p: int, d: dict, resolve) -> tuple:
    """Stream body from just after ``stream``: ``/Length`` when it lands on
    ``endstream``, else a scan for ``endstream`` → (Stream, end)."""
    n = len(data)
    length = d.get("Length")
    if isinstance(length, Ref) and resolve is not None:
        length = resolve(length)
    body = None
    if isinstance(length, int) and 0 <= length <= n - p:
        q = p + length
        if data[q:q + 20].lstrip(b"\r\n \t").startswith(b"endstream"):
            body = data[p:q]
    if body is None:  # broken /Length
        q = data.find(b"endstream", p)
        if q < 0:
            raise PdfError("unterminated stream")
        body = data[p:q].rstrip(b"\r\n")
    end = data.find(b"endstream", q)
    return Stream(d, bytes(body)), (end + 9 if end >= 0 else n)


def content_tokens(data: bytes) -> list:
    """Tokenize a whole content stream (or CMap) in one pass: operands and
    :class:`Keyword` operators in stream order, arrays and dicts nested in
    place, each inline image one ``BI`` keyword.  Stops quietly where the
    stream becomes unreadable."""
    return _lex(data, 0, _CONTENT_GRAMMAR, False, False)[0]


class ContentLexer:
    """One content-mode token at a time over the same grammar as
    :func:`content_tokens` (which the interpreter uses): ``parse()``
    returns the token at ``pos`` and advances ``pos`` past it, raising
    :class:`PdfError` at end of data."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def parse(self):
        rx, _, scalars = _CONTENT_GRAMMAR
        m = rx.match(self.data, self.pos)
        build = scalars[m.lastindex]
        if build is not None:  # one self-contained token: no token loop
            self.pos = m.end()
            return build(m[m.lastindex])
        toks, self.pos = _lex(self.data, self.pos, _CONTENT_GRAMMAR,
                              False, True)
        if not toks:
            raise PdfError("unexpected end of data")
        return toks[0]


# -- filters ---------------------------------------------------------


def _flate(data: bytes) -> bytes:
    try:
        return zlib.decompress(data)
    except zlib.error:
        pass
    # raw deflate / truncated stream tolerance
    for wbits in (-15, 47):
        try:
            d = zlib.decompressobj(wbits)
            out = d.decompress(data)
            return out + d.flush()
        except zlib.error:
            continue
    # salvage whatever prefix decodes
    d = zlib.decompressobj()
    out = bytearray()
    try:
        for i in range(0, len(data), 512):
            out += d.decompress(data[i:i + 512])
    except zlib.error:
        if out:
            return bytes(out)
        raise PdfError("FlateDecode failed")
    return bytes(out)


def _lzw(data: bytes) -> bytes:
    """LZWDecode (TIFF-style, early-change=1 default)."""
    out = bytearray()
    table = [bytes([i]) for i in range(256)] + [b"", b""]
    bits, acc, width = 0, 0, 9
    prev: bytes | None = None
    for byte in data:
        acc = (acc << 8) | byte
        bits += 8
        while bits >= width:
            bits -= width
            code = (acc >> bits) & ((1 << width) - 1)
            if code == 256:
                table = table[:258]
                width = 9
                prev = None
                continue
            if code == 257:
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            else:
                entry = prev + prev[:1]
                table.append(entry)
            out += entry
            prev = entry
            if len(table) + 1 >= (1 << width) and width < 12:
                width += 1
    return bytes(out)


def _ascii_hex(data: bytes) -> bytes:
    digits = data.split(b">")[0].translate(None, _WS)
    if len(digits) % 2:
        digits += b"0"
    return bytes.fromhex(digits.decode("ascii"))


def _ascii85(data: bytes) -> bytes:
    body = data.split(b"~>")[0]
    if body.startswith(b"<~"):
        body = body[2:]
    out = bytearray()
    group: list = []
    for b in body.translate(None, _WS):
        if b == 0x7A and not group:  # 'z' → four zero bytes
            out += b"\x00\x00\x00\x00"
            continue
        group.append(b - 33)
        if len(group) == 5:
            val = 0
            for g in group:
                val = val * 85 + g
            out += val.to_bytes(4, "big")
            group = []
    if group:
        pad = 5 - len(group)
        val = 0
        for g in group + [84] * pad:
            val = val * 85 + g
        out += val.to_bytes(4, "big")[:4 - pad]
    return bytes(out)


def _runlength(data: bytes) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        length = data[i]
        if length == 128:
            break
        if length < 128:
            out += data[i + 1:i + 2 + length]
            i += 2 + length
        else:
            out += data[i + 1:i + 2] * (257 - length)
            i += 2
    return bytes(out)


def apply_predictor(data: bytes, params: dict) -> bytes:
    """PNG (10-15) and TIFF (2) predictors — used by xref streams and
    Flate-compressed image/sample data."""
    predictor = int(params.get("Predictor") or 1)
    if predictor <= 1:
        return data
    colors = int(params.get("Colors") or 1)
    bpc = int(params.get("BitsPerComponent") or 8)
    columns = int(params.get("Columns") or 1)
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (colors * bpc * columns + 7) // 8
    if predictor == 2:  # TIFF horizontal differencing (8-bit only here)
        out = bytearray(data)
        for r in range(0, len(out), rowlen):
            for i in range(bpp, rowlen):
                if r + i < len(out):
                    out[r + i] = (out[r + i] + out[r + i - bpp]) & 0xFF
        return bytes(out)
    # PNG predictors: each row prefixed with a filter-type byte
    out = bytearray()
    prev = bytearray(rowlen)
    i, n = 0, len(data)
    while i + 1 <= n:
        ft = data[i]
        row = bytearray(data[i + 1:i + 1 + rowlen])
        row += bytes(rowlen - len(row))
        i += 1 + rowlen
        if ft == 1:  # Sub
            for j in range(bpp, rowlen):
                row[j] = (row[j] + row[j - bpp]) & 0xFF
        elif ft == 2:  # Up
            for j in range(rowlen):
                row[j] = (row[j] + prev[j]) & 0xFF
        elif ft == 3:  # Average
            for j in range(rowlen):
                left = row[j - bpp] if j >= bpp else 0
                row[j] = (row[j] + ((left + prev[j]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for j in range(rowlen):
                a = row[j - bpp] if j >= bpp else 0
                b = prev[j]
                c = prev[j - bpp] if j >= bpp else 0
                pa = abs(b - c)
                pb = abs(a - c)
                pc = abs(a + b - 2 * c)
                pr = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[j] = (row[j] + pr) & 0xFF
        out += row
        prev = row
    return bytes(out)


_IMAGE_FILTERS = {"DCTDecode", "DCT", "JPXDecode", "CCITTFaxDecode",
                  "CCF", "JBIG2Decode"}
_FILTERS = {
    "FlateDecode": _flate, "Fl": _flate,
    "LZWDecode": _lzw, "LZW": _lzw,
    "ASCIIHexDecode": _ascii_hex, "AHx": _ascii_hex,
    "ASCII85Decode": _ascii85, "A85": _ascii85,
    "RunLengthDecode": _runlength, "RL": _runlength,
}


class Stream:
    """A PDF stream: dict + raw body; :meth:`decoded` applies filters."""

    __slots__ = ("dict", "raw", "_decoded")

    def __init__(self, d: dict, raw: bytes):
        self.dict = d
        self.raw = raw
        self._decoded: bytes | None = None

    @property
    def image_codec(self) -> str | None:
        filters = self.dict.get("Filter")
        for f in filters if isinstance(filters, list) else [filters]:
            if isinstance(f, Name) and str(f) in _IMAGE_FILTERS:
                return str(f)
        return None

    def decoded(self, resolve=lambda o: o) -> bytes:
        if self._decoded is not None:
            return self._decoded
        data = self.raw
        filters = resolve(self.dict.get("Filter"))
        params = resolve(self.dict.get("DecodeParms") or self.dict.get("DP"))
        if filters is None or filters is NULL:
            filters = []
        elif not isinstance(filters, list):
            filters = [filters]
        if not isinstance(params, list):
            params = [params] * len(filters)
        for f, pr in zip(filters, params):
            f = resolve(f)
            name = str(f) if isinstance(f, Name) else ""
            if name in _IMAGE_FILTERS:
                break  # keep compressed pixels — caller sees image_codec
            fn = _FILTERS.get(name)
            if fn is None:
                raise PdfError(f"unsupported filter {name!r}")
            data = fn(data)
            pr = resolve(pr)
            if isinstance(pr, dict) and pr.get("Predictor"):
                data = apply_predictor(
                    data, {k: resolve(v) for k, v in pr.items()}
                )
        self._decoded = data
        return data


# -- document --------------------------------------------------------


class PdfFile:
    """One parsed PDF: xref-driven lazy object store + page-tree walk."""

    def __init__(self, data: bytes):
        self.data = data
        # obj num → ("o", byte_offset) | ("c", container_stm_num, index)
        self.xref: dict = {}
        self.trailer: dict = {}
        self._cache: dict = {}
        self._objstm_cache: dict = {}
        self._handler = None
        self._encrypt_num = -1
        self._load_xref()
        if "Root" not in self.trailer:
            self._rescan()
            root = self._find_root_by_scan()
            if root is None:
                raise PdfError("no /Root catalog found")
            self.trailer["Root"] = root
        enc_ref = self.trailer.get("Encrypt")
        if enc_ref is not None:
            self._encrypt_num = enc_ref.num if isinstance(enc_ref, Ref) else -1
            enc = self.resolve(enc_ref)
            if isinstance(enc, dict):
                from .pdfcrypt import SecurityHandler

                ids = self.trailer.get("ID")
                doc_id = (
                    ids[0] if isinstance(ids, list) and ids
                    and isinstance(ids[0], (bytes, bytearray)) else b""
                )
                # raises PdfError for handlers/passwords we can't open —
                # the decoder's poison-row discipline takes it from there
                self._handler = SecurityHandler(enc, bytes(doc_id), self.resolve)

    # -- xref loading ------------------------------------------------

    def _load_xref(self) -> None:
        data = self.data
        idx = data.rfind(b"startxref")
        offsets: list = []
        if idx >= 0:
            m = _NUM_RE.search(data, idx + 9)
            if m:
                offsets.append(int(m.group()))
        seen: set = set()
        while offsets:
            off = offsets.pop(0)
            if off in seen or not (0 <= off < len(data)):
                continue
            seen.add(off)
            try:
                prevs = self._load_xref_section(off)
            except PdfError:
                self._rescan()
                return
            offsets.extend(p for p in prevs if p not in seen)
        if not self.xref:
            self._rescan()

    def _load_xref_section(self, off: int) -> list:
        data = self.data
        pos = _SKIP_RE.match(data, off).end()
        prevs: list = []
        if data[pos:pos + 4] == b"xref":
            pos += 4
            while True:
                pos = _SKIP_RE.match(data, pos).end()
                if data[pos:pos + 7] == b"trailer":
                    trailer, _ = parse_object(data, pos + 7)
                    if not isinstance(trailer, dict):
                        raise PdfError("bad trailer")
                    for k, v in trailer.items():
                        self.trailer.setdefault(k, v)
                    if "XRefStm" in trailer:
                        prevs.append(int(trailer["XRefStm"]))
                    if "Prev" in trailer:
                        prevs.append(int(trailer["Prev"]))
                    return prevs
                m = _XREF_SUBSECTION_RE.match(data, pos)
                if not m:
                    raise PdfError("bad xref subsection")
                start, count = int(m.group(1)), int(m.group(2))
                pos = m.end()
                for i in range(count):
                    em = _XREF_ENTRY_RE.match(data, pos)
                    if not em:
                        raise PdfError("bad xref entry")
                    if em.group(3) == b"n":
                        self.xref.setdefault(
                            start + i, ("o", int(em.group(1)))
                        )
                    pos = em.end()
            # unreachable (loop exits via the trailer return)
        # xref stream: "N G obj <<...>> stream"
        m = _OBJ_HEAD_RE.match(data, off)
        if not m:
            raise PdfError(f"no xref at offset {off}")
        obj, _ = parse_object(data, m.end(), self.resolve)
        if not isinstance(obj, Stream):
            raise PdfError("xref object is not a stream")
        self._load_xref_stream(obj)
        for k, v in obj.dict.items():
            if k not in ("Length", "Filter", "DecodeParms", "W", "Index",
                        "Type", "Prev"):
                self.trailer.setdefault(k, v)
        if "Prev" in obj.dict:
            prevs.append(int(obj.dict["Prev"]))
        return prevs

    def _load_xref_stream(self, stm: Stream) -> None:
        body = stm.decoded(self.resolve)
        w = [int(self.resolve(x)) for x in self.resolve(stm.dict["W"])]
        size = int(self.resolve(stm.dict.get("Size") or 0))
        index = self.resolve(stm.dict.get("Index")) or [0, size]
        index = [int(self.resolve(x)) for x in index]
        rowlen = sum(w)
        pos = 0
        for k in range(0, len(index), 2):
            start, count = index[k], index[k + 1]
            for i in range(count):
                row = body[pos:pos + rowlen]
                pos += rowlen
                if len(row) < rowlen:
                    return
                fields = []
                o = 0
                for width in w:
                    fields.append(
                        int.from_bytes(row[o:o + width], "big") if width else None
                    )
                    o += width
                ftype = fields[0] if w[0] else 1
                num = start + i
                if num in self.xref:
                    continue
                if ftype == 1:
                    self.xref[num] = ("o", fields[1])
                elif ftype == 2:
                    self.xref[num] = ("c", fields[1], fields[2] or 0)

    def _rescan(self) -> None:
        """Brute-force recovery: scan for every ``N G obj`` header."""
        for m in _OBJ_HEAD_RE.finditer(self.data):
            # require line-start-ish context to avoid matching inside streams
            s = m.start()
            if s > 0 and self.data[s - 1] not in _WS_OR_DELIM:
                continue
            self.xref[int(m.group(1))] = ("o", s)
        t = self.data.rfind(b"trailer")
        if t >= 0:
            try:
                trailer, _ = parse_object(self.data, t + 7, self.resolve)
                if isinstance(trailer, dict):
                    for k, v in trailer.items():
                        self.trailer.setdefault(k, v)
            except PdfError:
                pass

    def _find_root_by_scan(self):
        for num in sorted(self.xref):
            try:
                obj = self.get(num)
            except PdfError:
                continue
            d = obj.dict if isinstance(obj, Stream) else obj
            if isinstance(d, dict) and str(d.get("Type") or "") == "Catalog":
                return Ref(num, 0)
        return None

    # -- object access -----------------------------------------------

    def resolve(self, obj):
        seen = 0
        while isinstance(obj, Ref):
            obj = self.get(obj.num)
            seen += 1
            if seen > 32:
                raise PdfError("reference cycle")
        return obj

    def get(self, num: int):
        if num in self._cache:
            return self._cache[num]
        entry = self.xref.get(num)
        if entry is None:
            self._cache[num] = NULL
            return NULL
        if entry[0] == "o":
            obj, gen = self._parse_at(num, entry[1])
            if self._handler is not None and num != self._encrypt_num:
                from .pdfcrypt import decrypt_object

                obj = decrypt_object(obj, self._handler, num, gen)
        else:
            # objects inside an object stream are covered by the
            # container stream's decryption — never re-decrypted
            obj = self._from_objstm(entry[1], entry[2], num)
        self._cache[num] = obj
        return obj

    def _parse_at(self, num: int, off: int):
        data = self.data
        m = _OBJ_HEAD_RE.match(data, off)
        if not m or int(m.group(1)) != num:
            # offset off-by-some: search nearby, then whole-file rescan
            lo = max(0, off - 64)
            m = None
            for cand in _OBJ_HEAD_RE.finditer(data, lo, min(len(data), off + 512)):
                if int(cand.group(1)) == num:
                    m = cand
                    break
            if m is None:
                raise PdfError(f"object {num} not at xref offset")
        return parse_object(data, m.end(), self.resolve)[0], int(m.group(2))

    def _from_objstm(self, container: int, idx: int, want: int):
        parsed = self._objstm_cache.get(container)
        if parsed is None:
            stm = self.get(container)
            if not isinstance(stm, Stream):
                raise PdfError(f"object stream {container} missing")
            body = stm.decoded(self.resolve)
            n = int(self.resolve(stm.dict.get("N") or 0))
            first = int(self.resolve(stm.dict.get("First") or 0))
            pos = 0
            pairs = []
            for _ in range(n):
                onum, pos = parse_object(body, pos)
                ooff, pos = parse_object(body, pos)
                pairs.append((int(onum), int(ooff)))
            parsed = {}
            for onum, ooff in pairs:
                try:
                    parsed[onum] = parse_object(body, first + ooff)[0]
                except PdfError:
                    parsed[onum] = NULL
            self._objstm_cache[container] = parsed
        if want in parsed:
            return parsed[want]
        # index-based fallback
        keys = list(parsed)
        if 0 <= idx < len(keys):
            return parsed[keys[idx]]
        return NULL

    # -- high level --------------------------------------------------

    @property
    def catalog(self) -> dict:
        root = self.resolve(self.trailer.get("Root"))
        if not isinstance(root, dict):
            raise PdfError("catalog missing")
        return root

    @property
    def info(self) -> dict:
        info = self.resolve(self.trailer.get("Info"))
        return info if isinstance(info, dict) else {}

    def pages(self) -> list:
        """Page-tree walk with Resources/MediaBox/CropBox/Rotate
        inheritance.  Returns ``[{number, obj_id, dict, resources,
        mediabox, rotate}]`` in document order."""
        rootref = self.catalog.get("Pages")
        out: list = []
        inherit_keys = ("Resources", "MediaBox", "CropBox", "Rotate")

        def record(obj_id: int, node: dict, attrs: dict) -> None:
            mediabox = self.resolve(attrs.get("MediaBox")) or [0, 0, 612, 792]
            out.append(
                {
                    "number": len(out) + 1,
                    "obj_id": obj_id,
                    "dict": node,
                    "resources": self.resolve(attrs.get("Resources")) or {},
                    "mediabox": [float(self.resolve(v)) for v in mediabox],
                    "rotate": int(self.resolve(attrs.get("Rotate")) or 0) % 360,
                }
            )

        def walk(ref, inherited: dict, seen: frozenset) -> None:
            node = self.resolve(ref)
            if not isinstance(node, dict):
                return
            # cycle guard: indirect nodes by ref, direct dicts by identity
            key = ref if isinstance(ref, Ref) else id(node)
            if key in seen:
                return
            inh = dict(inherited)
            for k in inherit_keys:
                if k in node:
                    inh[k] = node[k]
            ntype = str(node.get("Type") or "")
            if ntype == "Pages" or (ntype != "Page" and "Kids" in node):
                for kid in self.resolve(node.get("Kids")) or []:
                    walk(kid, inh, seen | {key})
            else:
                record(ref.num if isinstance(ref, Ref) else -1, node, inh)

        walk(rootref, {}, frozenset())
        if not out:
            # malformed page tree: collect /Type /Page objects directly
            for num in sorted(self.xref):
                try:
                    node = self.get(num)
                except PdfError:
                    continue
                if isinstance(node, dict) and str(node.get("Type") or "") == "Page":
                    record(num, node, node)
        return out

    def content_bytes(self, page: dict) -> bytes:
        """Concatenated, decoded content streams of one page."""
        contents = self.resolve(page["dict"].get("Contents"))
        if contents is None or contents is NULL:
            return b""
        if isinstance(contents, Stream):
            return contents.decoded(self.resolve)
        parts = []
        for ref in contents if isinstance(contents, list) else [contents]:
            stm = self.resolve(ref)
            if isinstance(stm, Stream):
                parts.append(stm.decoded(self.resolve))
        return b"\n".join(parts)


def text_string(raw) -> str:
    """PDF text-string bytes → str (UTF-16BE BOM / UTF-8 BOM / PDFDocEncoding
    ≈ latin-1), mirroring the reference's decode_title semantics
    (libpdf/utils.py)."""
    if isinstance(raw, Name):
        return str(raw)
    if isinstance(raw, str):
        return raw
    if not isinstance(raw, (bytes, bytearray)):
        return ""
    b = bytes(raw)
    if b.startswith(b"\xfe\xff"):
        return b[2:].decode("utf-16-be", "replace")
    if b.startswith(b"\xff\xfe"):
        return b[2:].decode("utf-16-le", "replace")
    if b.startswith(b"\xef\xbb\xbf"):
        return b[3:].decode("utf-8", "replace")
    return b.decode("latin-1", "replace")
