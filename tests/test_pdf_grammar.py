"""The PDF token grammar in both of its modes, and decoder regressions
pinned on hand-built and repacked PDFs.

Object mode is :func:`parse_object` (xref trailers, indirect objects,
object streams); content mode is :func:`content_tokens` (page content and
CMaps) with :class:`ContentLexer` as its one-token-at-a-time view.
"""

from __future__ import annotations

import re
import zlib

import pytest

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import build_document
from libpdf_ray.kernels.document import extract_document
from libpdf_ray.kernels.pdfobj import (
    _OBJECT_GRAMMAR,
    ContentLexer,
    Keyword,
    Name,
    NULL,
    PdfError,
    PdfFile,
    Ref,
    Stream,
    content_tokens,
    parse_object,
)
from libpdf_ray.kernels.pdftext import PageInterpreter
from libpdf_ray.kernels.pdfwrite import write_pdf
from libpdf_ray.stages.pdf_decoder import decode_pdf_document


def obj(data: bytes):
    return parse_object(data)[0]


# -- object mode -----------------------------------------------------


@pytest.mark.parametrize("data", [
    b"12 0 R", b"12 %gen follows\n0 R", b"12\n\n0\r\nR", b"12 0 %c\nR",
])
def test_ref_split_by_comment_or_newlines(data):
    assert obj(data) == Ref(12, 0)


def test_ref_needs_a_standalone_r():
    assert parse_object(b"12 0 Rx") == (12, 2)
    assert obj(b"[1 0 Rx]") == [1, 0, Keyword(b"Rx")]
    assert obj(b"[1 2.0 R]") == [1, 2.0, Keyword(b"R")]


def test_names_with_hex_escapes():
    assert obj(b"/A#42C") == Name("ABC")
    assert obj(b"/Lime#20Green") == Name("Lime Green")
    assert obj(b"/") == Name("")
    assert obj(b"/A#4") == Name("A#4")  # not an escape


def test_literal_strings_nested_and_escaped():
    assert obj(b"(a (b (c)) d)") == b"a (b (c)) d"
    assert obj(b"(\\(\\)\\\\\\r\\b\\f\\q)") == b"()\\\r\b\fq"
    assert obj(b"(\\0053\\7)") == b"\x053\x07"  # octal: at most three digits
    assert obj(b"(line \\\r\ncontinued)") == b"line continued"
    assert obj(b"()") == b""
    # the end position lands after the closing parenthesis
    assert parse_object(b"(a\\)b) tail") == (b"a)b", 6)


def test_hex_strings_odd_length_and_whitespace():
    assert obj(b"<48 65\n6c6C 6f>") == b"Hello"
    assert obj(b"<4 8 6>") == b"\x48\x60"  # odd: pad with 0
    assert obj(b"<>") == b""


@pytest.mark.parametrize("data, want, fast", [
    (b"[600 600 600]", [600, 600, 600], True),
    (b"[ 1\n-2 +3 ]", [1, -2, 3], True),
    (b"[]", [], True),
    (b"[1 -2]", [1, -2], True),
    (b"[1 2 R]", [Ref(1, 2)], False),
    (b"[1-2]", [1, -2], False),
    (b"[1.5 2]", [1.5, 2], False),
    (b"[1 %c\n2]", [1, 2], False),
])
def test_int_array_fast_path(data, want, fast):
    assert obj(data) == want
    m = _OBJECT_GRAMMAR[0].match(data)
    assert (m.lastgroup == "ints") is fast


def test_primitives_and_end_positions():
    assert parse_object(b"  % comment\n 42 ") == (42, 15)
    assert parse_object(b"-.5") == (-0.5, 3)
    assert parse_object(b"5.") == (5.0, 2)
    assert obj(b"true") is True and obj(b"false") is False
    assert obj(b"null") is NULL
    assert obj(b"endobj") == Keyword(b"endobj")
    assert obj(b"<< /A [1 (x) <</B /C>>] /D 3 0 R >>") == {
        "A": [1, b"x", {"B": Name("C")}], "D": Ref(3, 0)}


@pytest.mark.parametrize("data", [
    b"", b"   % only a comment", b"]", b")", b"{", b">>", b"[1 2", b"<< /A 1",
    b"(abc", b"<< 1 2 >>", b"<< /A >>", b"[1 >> 2]",
])
def test_malformed_objects_raise(data):
    with pytest.raises(PdfError):
        parse_object(data)


def test_stream_with_direct_length():
    s, end = parse_object(b"<< /Length 5 >>\nstream\nhello\nendstream\nendobj")
    assert isinstance(s, Stream) and s.raw == b"hello"
    assert end == 38


def test_stream_with_indirect_length():
    data = b"<< /Length 7 0 R >>\r\nstream\r\nhello\r\nendstream"
    s, _ = parse_object(data, 0, resolve=lambda ref: {7: 5}[ref.num])
    assert s.raw == b"hello"


@pytest.mark.parametrize("length", [b"99", b"3", b"-1", b"9 0 R"])
def test_stream_with_wrong_length_scans_for_endstream(length):
    data = b"<< /Length " + length + b" >>\nstream\nhello\nendstream"
    s, end = parse_object(data, 0, resolve=lambda ref: 1000)
    assert s.raw == b"hello"
    assert end == len(data)


def test_unterminated_stream_raises():
    with pytest.raises(PdfError):
        parse_object(b"<< /Length 99 >>\nstream\nhello")


# -- content mode ----------------------------------------------------


def test_whitespace_is_never_a_token():
    """Trailing whitespace (and a trailing comment) at end of stream used
    to come back as an operator ``Keyword(b"\\n")``."""
    for data in (b"q Q\n", b"q Q \r\n\t ", b"q Q % end\n", b"q Q %end"):
        assert content_tokens(data) == [b"q", b"Q"]
        lex, seen = ContentLexer(data), []
        while lex.pos < len(data):
            try:
                seen.append(lex.parse())
            except PdfError:
                break
        assert seen == [b"q", b"Q"]


def test_content_tokens_nest_and_classify():
    toks = content_tokens(
        b"/P <</MCID 0>> BDC BT /F1 12 Tf [(a) -250 (b\\)c) [1]] TJ ET EMC")
    assert toks == [Name("P"), {"MCID": 0}, b"BDC", b"BT", Name("F1"), 12,
                    b"Tf", [b"a", -250, b"b)c", [1]], b"TJ", b"ET", b"EMC"]
    assert all(isinstance(t, Keyword) for t in (toks[2], toks[3], toks[6]))
    assert not isinstance(toks[7][0], Keyword)  # an operand, not an operator


def test_content_restarts_after_escaped_string_and_inline_image():
    toks = content_tokens(
        b"(a(b)c) Tj q BI /W 2 /H 1 /BPC 8 ID \x00) EI\xff\n EI Q (\\101) Tj")
    assert toks == [b"a(b)c", b"Tj", b"q", b"BI", b"Q", b"A", b"Tj"]
    # an image without ID ends the stream, without a BI token
    assert content_tokens(b"q BI /W 1") == [b"q"]


def test_content_mode_is_lenient():
    # stray closers are dropped, other delimiters become operators
    assert content_tokens(b"1 ] 2 >> } g") == [1, 2, b"}", b"g"]
    # an unterminated array or string ends the stream where it starts
    assert content_tokens(b"1 g [(a) 2") == [1, b"g"]
    assert content_tokens(b"1 g (abc") == [1, b"g"]


# -- hand-built PDFs ---------------------------------------------------


def _pdf(*bodies: bytes) -> bytes:
    """Classic-xref PDF with objects 1..n; object 1 is the catalog."""
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for num, body in enumerate(bodies, 1):
        offsets.append(len(out))
        out += b"%d 0 obj\n%s\nendobj\n" % (num, body)
    xref = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(bodies) + 1)
    out += b"".join(b"%010d 00000 n \n" % off for off in offsets)
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(bodies) + 1, xref)
    return bytes(out)


def _content(ops: bytes) -> bytes:
    return b"<< /Length %d >>\nstream\n%s\nendstream" % (len(ops), ops)


def _page_segments(ops: bytes) -> list:
    data = _pdf(
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 200 200] /Contents 4 0 R >>",
        _content(ops),
    )
    pdf = PdfFile(data)
    interp = PageInterpreter(pdf)
    interp.run_page(pdf.pages()[0])
    return sorted((s["x0"], s["y0"], s["x1"], s["y1"]) for s in interp.segments)


OPEN_TRIANGLE = [(10.0, 10.0, 110.0, 10.0), (110.0, 10.0, 110.0, 60.0)]
CLOSING_EDGE = (10.0, 10.0, 110.0, 60.0)


@pytest.mark.parametrize("op", [b"s", b"b", b"b*"])
def test_close_and_paint_operators_close_the_subpath(op):
    segs = _page_segments(b"10 10 m 110 10 l 110 60 l " + op)
    assert segs == sorted(OPEN_TRIANGLE + [CLOSING_EDGE])


def test_stroke_without_close_stays_open_and_h_is_not_doubled():
    assert _page_segments(b"10 10 m 110 10 l 110 60 l S") == OPEN_TRIANGLE
    closed = _page_segments(b"10 10 m 110 10 l 110 60 l h s")
    assert closed == sorted(OPEN_TRIANGLE + [CLOSING_EDGE])


def test_direct_dict_page_tree_decodes():
    """Nested direct-dict /Kids used to share one cycle-guard sentinel."""
    leaf = (b"<< /Type /Page /MediaBox [0 0 300 300] /Contents %d 0 R "
            b"/Resources << /Font << /F1 4 0 R >> >> >>")
    data = _pdf(
        b"<< /Type /Catalog /Pages << /Type /Pages /Count 2 /Kids [ "
        b"<< /Type /Pages /Count 2 /Kids [ " + (leaf % 2) + b" " + (leaf % 3)
        + b" ] >> ] >> >>",
        _content(b"BT /F1 12 Tf 20 250 Td (Hello world) Tj ET"),
        _content(b"BT /F1 12 Tf 20 250 Td (Second page) Tj ET"),
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>",
    )
    pages = PdfFile(data).pages()
    assert [p["number"] for p in pages] == [1, 2]
    assert [p["obj_id"] for p in pages] == [-1, -1]
    doc = decode_pdf_document("direct", data)
    assert len(doc["pages"]) == 2
    text = "".join(c["text"] for tb in doc["textboxes"] for c in tb["chars"])
    assert "Hello" in text and "Second" in text


# -- xref stream + object stream ---------------------------------------


def _repack_with_objstm(data: bytes) -> bytes:
    """Rewrite a classic-xref PDF as PDF 1.5: every non-stream object goes
    into one compressed /ObjStm, the xref becomes a Flate xref stream with
    a PNG Up predictor, and the object stream's /Length is indirect."""
    src = PdfFile(data)
    starts = sorted((off, num) for num, (_, off) in src.xref.items())
    ends = [off for off, _ in starts[1:]] + [data.rindex(b"xref")]
    bodies = {}
    for (off, num), end in zip(starts, ends):
        head = re.compile(rb"\d+ \d+ obj\s*").match(data, off)
        bodies[num] = data[head.end():end].rstrip()[:-len(b"endobj")].rstrip()
    plain = [n for n in sorted(bodies) if not isinstance(src.get(n), Stream)]
    streams = [n for n in sorted(bodies) if n not in plain]
    size = max(bodies) + 4
    objstm, length_num, xref_num = size - 3, size - 2, size - 1

    header, packed = [], bytearray()
    for num in plain:
        header.append(b"%d %d" % (num, len(packed)))
        packed += bodies[num] + b"\n"
    head = b" ".join(header) + b"\n"
    packed = zlib.compress(head + bytes(packed))

    out = bytearray(b"%PDF-1.5\n")
    entries = {0: (0, 0, 0)}
    for i, num in enumerate(plain):
        entries[num] = (2, objstm, i)

    def emit(num, body):
        entries[num] = (1, len(out), 0)
        out.extend(b"%d 0 obj\n%s\nendobj\n" % (num, body))

    for num in streams:
        emit(num, bodies[num])
    emit(objstm, b"<< /Type /ObjStm /N %d /First %d /Filter /FlateDecode "
                 b"/Length %d 0 R >>\nstream\n%s\nendstream"
         % (len(plain), len(head), length_num, packed))
    emit(length_num, b"%d" % len(packed))
    entries[xref_num] = (1, len(out), 0)
    rows, prev = bytearray(), bytes(7)
    for num in range(size):
        t, a, b = entries.get(num, (0, 0, 0))
        row = bytes([t]) + a.to_bytes(4, "big") + b.to_bytes(2, "big")
        rows += b"\x02" + bytes((x - y) & 0xFF for x, y in zip(row, prev))
        prev = row
    xref_body = zlib.compress(bytes(rows))
    out += (b"%d 0 obj\n<< /Type /XRef /Size %d /W [1 4 2] /Root 1 0 R "
            b"/Info 2 0 R /Filter /FlateDecode /DecodeParms << /Predictor 12 "
            b"/Columns 7 >> /Length %d >>\nstream\n%s\nendstream\nendobj\n"
            % (xref_num, size, len(xref_body), xref_body))
    out += b"startxref\n%d\n%%%%EOF\n" % entries[xref_num][1]
    return bytes(out)


@pytest.mark.parametrize("family, seed", [("tables", 5), ("linked", 9), ("outlined", 3)])
def test_xref_stream_and_objstm_generated(family, seed):
    doc = build_document(seed, family, skew_pages=3)
    classic = write_pdf(doc)
    repacked = _repack_with_objstm(classic)
    pdf = PdfFile(repacked)
    kinds = {e[0] for e in pdf.xref.values()}
    assert kinds == {"o", "c"}
    assert sum(e[0] == "c" for e in pdf.xref.values()) > 5
    assert len(pdf.pages()) == len(PdfFile(classic).pages())
    widths = pdf.resolve(pdf.resolve(pdf.pages()[0]["resources"]["Font"])["F1"])
    assert pdf.resolve(widths)["Widths"][:3] == [600, 600, 600]
    spans = extract_document(decode_pdf_document(doc["doc_id"], repacked),
                             SMART_CROP_CONFIG)
    want = extract_document(decode_pdf_document(doc["doc_id"], classic),
                            SMART_CROP_CONFIG)
    assert spans == want and spans
