"""Operator records of the content grammar (``pdfobj.content_ops``) change
no interpreter output.

The interpreter lexes each page with :func:`content_ops`, which matches the
writer's one-show text object ``BT /F n Tf r g b rg a b c d e f Tm (s) Tj
ET`` whole as one :class:`Op` record; every other byte still lexes token
by token, as :func:`content_tokens` does.

- Golden digests: one digest per document of everything the interpreter
  emits (the float64 glyph boxes bit for bit, glyph text, runs, colors,
  fonts, segments, rects, figures), pinned from the interpreter as it was
  before records existed.  The documents are every ``DEFAULT_FAMILIES``
  fixture written by ``pdfwrite.write_pdf`` at rotations 0/90/180/270, and
  hand-built streams for the record and its near misses, on an upright
  and a ``/Rotate 90`` page.
- Differential: random interleavings of hot runs and general operators,
  interpreted once as written and once with a comment before every
  operator, which no record accepts, so the second stream takes the token
  path throughout.  Outputs must be equal.

Operators covered: the text record; ``BT ET Tf Tj TJ ' " Td TD T* Tm
TL Tc Tw Tz Ts Tr rg RG g G k K sc scn cs q Q cm m l c v y re h S s f f* B
n W Do BDC EMC BI`` (inline image), and the general ``Tf`` path with a
name where a number belongs, an empty name, a font ref that raises on
resolve, a ref to a missing object and a name absent from the resources.
"""

from __future__ import annotations

import hashlib
import random
from array import array

import pytest

from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.kernels.pdfobj import Keyword, Op, PdfFile, content_ops, content_tokens
from libpdf_ray.kernels.pdftext import PageInterpreter
from libpdf_ray.kernels.pdfwrite import write_pdf

# -- documents -----------------------------------------------------------

_WIDTHS = b"[" + b" ".join(b"%d" % (400 + 7 * (k % 40)) for k in range(224)) + b"]"
_OBJECTS = {
    # 5: F1, simple font with widths and a descriptor (like pdfwrite's)
    5: b"<< /Type /Font /Subtype /Type1 /BaseFont /Synth /FirstChar 32 "
       b"/LastChar 255 /Widths " + _WIDTHS + b" /FontDescriptor 6 0 R >>",
    6: b"<< /Type /FontDescriptor /FontName /Synth /Ascent 750 /Descent -250 >>",
    # 7: F2, standard font without widths (default-width hint)
    7: b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>",
    # 10: F3, widths that float() reads as NaN and infinity
    10: b"<< /Type /Font /Subtype /Type1 /BaseFont /Odd /FirstChar 97 "
        b"/Widths [nan inf 500] >>",
    # 11: Form XObject with its own font resources
    11: b"<< /Type /XObject /Subtype /Form /BBox [0 0 200 200] "
        b"/Matrix [1 0 0 1 10 20] /Resources << /Font << /F1 5 0 R >> >> "
        b"/Length %d >>\nstream\n%s\nendstream",
    12: b"<< /Type /XObject /Subtype /Image /Width 2 /Height 3 "
        b"/ColorSpace /DeviceGray /BitsPerComponent 8 /Length 6 >>\n"
        b"stream\n\x10\x20\x30\x40\x50\x60\nendstream",
}
_FORM = (b"BT /F1 9 Tf 0 0 1 rg 1 0 0 1 5 5 Tm (inside form) Tj ET "
         b"BT /F1 7 Tf 5 20 Td (second) Tj ET 0 0 m 50 0 l S")
# F8: a ref whose xref entry points at no object (resolving raises);
# F9: a ref to an object the xref does not list (resolves to null)
_RESOURCES = (b"<< /Font << /F1 5 0 R /F2 7 0 R /F3 10 0 R /F8 8 0 R "
              b"/F9 9 0 R >> /XObject << /Fm1 11 0 R /Im1 12 0 R >> >>")


def make_pdf(content: bytes, rotate: int = 0) -> bytes:
    """One page with ``content`` and the fonts / XObjects above."""
    objs = dict(_OBJECTS)
    objs[11] = objs[11] % (len(_FORM), _FORM)
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    objs[2] = b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"
    objs[3] = (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Rotate %d "
               b"/Resources %s /Contents 4 0 R >>" % (rotate, _RESOURCES))
    objs[4] = b"<< /Length %d >>\nstream\n%s\nendstream" % (len(content), content)
    out = bytearray(b"%PDF-1.4\n")
    offsets = {8: 9}  # inside the header line
    for num in sorted(objs):
        offsets[num] = len(out)
        out += b"%d 0 obj\n%s\nendobj\n" % (num, objs[num])
    xref = len(out)
    out += b"xref\n0 13\n0000000000 65535 f \n"
    for num in range(1, 13):
        out += (b"%010d 00000 n \n" % offsets[num] if num in offsets
                else b"0000000000 65535 f \n")
    out += b"trailer\n<< /Size 13 /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % xref
    return bytes(out)


def _run(y: int, text: bytes = b"Hello world", font: bytes = b"/F1",
         size: bytes = b"12", rgb: bytes = b"0 0 0") -> bytes:
    """The writer's one-show text object: a ``text`` record."""
    return (b"BT %s %s Tf %s rg 1.25 0 0 1 72 %d Tm (%s) Tj ET\n"
            % (font, size, rgb, y, text))


_BIG = b"1" + b"0" * 320  # an integer past float range
STREAMS = {
    "text_runs": b"".join(_run(700 - 14 * k, b"run %d" % k) for k in range(8)),
    "show_td": b"BT /F1 10 Tf 14 TL 72 700 Td (abc) Tj 0 -12 Td (def) Tj T* (ghi) Tj "
               b"2 -3 TD (jkl) Tj ET",
    "font_alone": b"BT 1 0 0 1 50 600 Tm /F1 10 Tf (a) Tj /F2 14 Tf (b b) Tj "
                  b"/F1 8.5 Tf (c) Tj /F#31 9 Tf (d) Tj ET",
    "extra_operands": b"1 2 3 /X " + _run(700) + b"5 6 (s) Tj 7 /F1 9 Tf (t) Tj "
                      + b" ".join(b"%d" % k for k in range(100)) + b" " + _run(650),
    "comments_crlf": b"BT %c\r\n/F1 12 Tf\r\n0 0 0 rg % x\n1 0 0 1 72 700 Tm\r\n(Hi) Tj\r\nET\r\n"
                     b"BT\r\n/F1 12 Tf\r\n0 0 0 rg\r\n1 0 0 1 72 680 Tm\r\n(Hi)\r\nTj\r\nET\r\n"
                     b"BT\t/F1\x0012 Tf 0 0 0 rg 1 0 0 1 72 660 Tm (nul) Tj ET",
    "no_space": b"BT/F1 12 Tf 0 0 0 rg 1 0 0 1 72 700 Tm(Hi)Tj ET "
                b"BT /F1 12Tf 0 0 0 rg 1 0 0 1 72 680 Tm(Hi)Tj ET "
                b"BT /F1 12 Tf 0 0 0 rg 1 0 0 1 72 660 Tm (a)Tj(b)Tj ET (c)TjET",
    "escaped_nested": b"BT /F1 12 Tf 0 0 0 rg 1 0 0 1 72 700 Tm (a\\(b\\) c) Tj ET "
                      b"BT /F1 12 Tf 0 0 0 rg 1 0 0 1 72 680 Tm (a (nested) b) Tj ET "
                      b"BT 72 660 Td (x\\\\y\\101) Tj ET",
    "name_for_number": b"BT /F1 /F2 Tf 0 0 0 rg 1 0 0 1 72 700 Tm (a) Tj ET "
                       b"BT /F1 12 Tf /X 0 0 rg 1 0 0 1 72 680 Tm (b) Tj ET "
                       b"BT /F1 12 Tf 0 0 0 rg 1 0 0 /Y 72 660 Tm (c) Tj ET "
                       b"BT /F2 /14 Tf 72 640 Td (d) Tj 12 /F1 Tf (e) Tj ET",
    "bad_font_refs": _run(700, b"a") + _run(680, b"b", b"/F8", b"20", b"1 0 0")
                     + _run(660, b"c", b"/F9", b"20", b"0 1 0")
                     + b"BT 72 640 Td /F8 5 Tf (d) Tj ET" + _run(620, b"e")
                     + _run(600, b"f", b"/Fmissing") + _run(580, b"g", b"/F8"),
    "unterminated_string": _run(700) + _run(680) + b"(abc",
    # line moves after ET, without a BT to reset the line matrix
    "after_et": _run(700) + b"0 -14 Td (after) Tj 12 TL T* (star) Tj (q) ' "
                + _run(650) + b"5 5 TD (again) Tj",
    "unterminated_array": _run(700) + b"[ (a) 1 " + _run(680),
    "inline_image": _run(700) + b"q 50 0 0 50 100 100 cm BI /W 1 /H 1 /BPC 8 /CS /G "
                    b"ID \x80 EI Q " + _run(600),
    "numbers": b"BT /F1 12 Tf 0 0 0 rg 1 0 0 1 -0 700 Tm (neg zero) Tj ET "
               b"BT /F1 12 Tf 0 0 0 rg 1 -0.0 0 1 72 680 Tm (real zero) Tj ET "
               b"BT /F1 +12. Tf .5 +.25 -00 rg 1 0 0 1 072 660 Tm (signs) Tj ET "
               b"BT /F1 12 Tf 0 0 0 rg 1 0 0 1 72.5.5 640 Tm (split) Tj ET "
               b"BT /F1 12 Tf 0 0 0 rg 1 0 0 1 72 1-620 Tm (adjacent) Tj ET",
    "big_int": _run(700) + b"BT /F1 12 Tf 0 0 0 rg 1 0 0 1 " + _BIG + b" 680 Tm (x) Tj ET",
    "non_finite": b"BT /F1 12 Tf " + _BIG + b".0 Tc 0 0 0 rg 1 0 0 1 72 700 Tm (inf tc) Tj ET "
                  b"0 Tc BT /F1 12 Tf 0 0 0 rg 1 0 0 1 " + _BIG + b".5 680 Tm (inf x) Tj ET "
                  + _run(660, b"abcab", b"/F3") + _run(640, b"ccc", b"/F3"),
    "in_containers": b"BT /F1 12 Tf 72 700 Td [(a) Tj] TJ [(b) -200 (c)] TJ "
                     b"[BT /F1 12 Tf 0 0 0 rg 1 0 0 1 72 680 Tm (x) Tj ET] TJ ET "
                     b"/P << /F1 12 Tf >> BDC EMC",
    "forms_images": b"/Fm1 Do q 0.5 0 0 0.5 100 100 cm /Fm1 Do /Im1 Do Q " + _run(300)
                    + b"q 2 0 0 2 0 0 cm /Fm1 Do Q",
    "hex_quote": b"BT /F1 12 Tf 72 700 Td <48656c6c6f> Tj 14 TL (n) ' 1 2 (q) \" ET",
    "text_state": b"2 Tc 3 Tw 80 Tz 1.5 Ts " + _run(700, b"a b c") + b"3 Tr " + _run(680)
                  + b"0 Tr 0 Tc 0 Tw 100 Tz 0 Ts 0.2 g 0.1 0.2 0.3 0.4 k 0.5 G 1 0 0 RG "
                  + _run(660) + b"0.3 0.6 0.9 sc /Pattern cs 1 scn " + _run(640),
    "matrices": b"q 0 1 -1 0 300 100 cm " + _run(100) + b"Q "
                b"BT /F1 12 Tf 0 0 0 rg -1 0 0 1 300 600 Tm (mirrored) Tj ET "
                b"BT /F1 12 Tf 0 0 0 rg 1 0.2 0.3 1 72 560 Tm (skewed) Tj ET "
                b"BT /F1 0 Tf 0 0 0 rg 1 0 0 1 72 540 Tm (zero size) Tj ET "
                b"BT /F1 -12 Tf 0 0 0 rg 1 0 0 1 72 520 Tm (negative size) Tj ET "
                b"BT /F1 12 Tf 0 0 0 rg 1 0 0 -1 72 500 Tm (flipped y) Tj ET "
                b"BT /F1 12 Tf 0 0 0 rg 0 0 0 0 72 480 Tm (singular) Tj ET",
    "stale_operands": b"2 " + _run(700) + b"Tc " + _run(680) + b"3 (x) Tj Tw 4 /F1 9 Tf Tz "
                      + _run(660) + b"0.2 0.4 " + _run(640, b"c") + b"0.6 sc " + _run(620),
    "empty_names": b"BT / 12 Tf 0 0 0 rg 1 0 0 1 72 700 Tm (a) Tj ET /F1 9 Tf / 9 Tf (b) Tj",
    "paths": b"0.75 w 10 10 m 100 10 l 100 60 l S 20 20 m 30 40 50 60 70 80 c "
             b"1 2 3 4 v 5 6 7 8 y h s 0.5 0.5 0.5 rg 10 100 50 20 re f "
             b"10 200 50 20 re 20 210 10 5 re f* 300 300 m 350 300 l 350 301 l 300 301 l "
             b"h f 5 5 20 20 re W n 1 0 0 rg 40 40 100 0.5 re f 0 0 1 RG 60 60 30 30 re B",
}


def family_pdfs() -> dict:
    out = {}
    for k, fam in enumerate(DEFAULT_FAMILIES):
        doc = build_document(700 + k, fam, skew_pages=4)
        for rot in (0, 90, 180, 270):
            out[f"{fam}@{rot}"] = write_pdf(doc, rotate=rot)
    return out


def documents() -> dict:
    docs = family_pdfs()
    for name, content in STREAMS.items():
        for rot in (0, 90):
            docs[f"{name}@{rot}"] = make_pdf(content, rot)
    return docs


def interpret(data: bytes) -> PageInterpreter:
    pdf = PdfFile(data)
    interp = PageInterpreter(pdf)
    for page in pdf.pages():
        interp.run_page(page)
    return interp


def outputs(interp: PageInterpreter) -> tuple:
    return (array("d", interp.glyph_boxes).tobytes(), interp.glyph_text,
            interp.glyph_runs, interp.colors, interp.fonts, interp.segments,
            interp.rects, interp.figures)


def digest(data: bytes) -> str:
    """Digest of everything the interpreter emits for one document, or the
    class of the exception it raised."""
    try:
        out = outputs(interpret(data))
    except Exception as exc:  # noqa: BLE001 - the failure is the output
        return type(exc).__name__
    return hashlib.sha1(out[0] + repr(out[1:]).encode()).hexdigest()[:16]


#: digest per document, recorded before the grammar had operator records
GOLDEN = {
    "actionoutline@0": "7ebad657c336b7e4",
    "actionoutline@180": "7ebad657c336b7e4",
    "actionoutline@270": "7ebad657c336b7e4",
    "actionoutline@90": "7ebad657c336b7e4",
    "after_et@0": "4ed67abc67189154",
    "after_et@90": "3347d4309c2f10b3",
    "bad_font_refs@0": "462bb332ebcb9b69",
    "bad_font_refs@90": "7d05ae03449d7915",
    "big_int@0": "OverflowError",
    "big_int@90": "OverflowError",
    "chapternum@0": "75f97cabdaa007d2",
    "chapternum@180": "75f97cabdaa007d2",
    "chapternum@270": "75f97cabdaa007d2",
    "chapternum@90": "75f97cabdaa007d2",
    "colors@0": "d68292782804bfc7",
    "colors@180": "d68292782804bfc7",
    "colors@270": "d68292782804bfc7",
    "colors@90": "d68292782804bfc7",
    "comments_crlf@0": "43ec6e068fd4b96c",
    "comments_crlf@90": "9d5ce6405a157b9e",
    "empty_names@0": "09c7b4267e542d6a",
    "empty_names@90": "09c7b4267e542d6a",
    "emptyoutline@0": "c60b638414a23c63",
    "emptyoutline@180": "c60b638414a23c63",
    "emptyoutline@270": "c60b638414a23c63",
    "emptyoutline@90": "c60b638414a23c63",
    "escaped_nested@0": "376238519077b158",
    "escaped_nested@90": "041a2177eb2c8871",
    "extra_operands@0": "ca38ff01e2eee451",
    "extra_operands@90": "8a1e1ad5258d3cd2",
    "figures@0": "e68cf61ba114f6cc",
    "figures@180": "e68cf61ba114f6cc",
    "figures@270": "e68cf61ba114f6cc",
    "figures@90": "e68cf61ba114f6cc",
    "font_alone@0": "446bed6761cabaab",
    "font_alone@90": "d6d4ad0098ba126d",
    "forms_images@0": "edc1aac08a85fc9f",
    "forms_images@90": "6972dfd57bbc56fd",
    "fuzzychapter@0": "fb511ab848afc50c",
    "fuzzychapter@180": "fb511ab848afc50c",
    "fuzzychapter@270": "fb511ab848afc50c",
    "fuzzychapter@90": "fb511ab848afc50c",
    "headerfooter@0": "700ee9e7b7f4dca6",
    "headerfooter@180": "700ee9e7b7f4dca6",
    "headerfooter@270": "700ee9e7b7f4dca6",
    "headerfooter@90": "700ee9e7b7f4dca6",
    "hex_quote@0": "2dd428e82b00b8e7",
    "hex_quote@90": "2a15e705a1fda9e6",
    "in_containers@0": "b46818b66742af99",
    "in_containers@90": "eb6d41ef0789d944",
    "inline_image@0": "8a5e5a77115c510b",
    "inline_image@90": "d4e436b1c5a84319",
    "linked@0": "22afcdb5399fe499",
    "linked@180": "22afcdb5399fe499",
    "linked@270": "22afcdb5399fe499",
    "linked@90": "22afcdb5399fe499",
    "matrices@0": "4d6547f022201584",
    "matrices@90": "5621937d3c73eb01",
    "name_for_number@0": "6259a5091c441d92",
    "name_for_number@90": "96b24d240f524d38",
    "no_space@0": "990cc63a3b51522a",
    "no_space@90": "179231609f778a87",
    "non_finite@0": "7ea229f8aafa6289",
    "non_finite@90": "4050f1bc9c01410e",
    "numbers@0": "a80d1072abc96936",
    "numbers@90": "114fe40bb9400a1f",
    "outlined@0": "20bb7c6d940dd871",
    "outlined@180": "20bb7c6d940dd871",
    "outlined@270": "20bb7c6d940dd871",
    "outlined@90": "20bb7c6d940dd871",
    "paths@0": "ea0aa2275be99e50",
    "paths@90": "c634791d6230e99c",
    "plain@0": "87e2517dfa748712",
    "plain@180": "87e2517dfa748712",
    "plain@270": "87e2517dfa748712",
    "plain@90": "87e2517dfa748712",
    "rawchars@0": "eadff24f5e2d0cb0",
    "rawchars@180": "eadff24f5e2d0cb0",
    "rawchars@270": "eadff24f5e2d0cb0",
    "rawchars@90": "eadff24f5e2d0cb0",
    "rawpage@0": "457bc30a1b1857da",
    "rawpage@180": "457bc30a1b1857da",
    "rawpage@270": "457bc30a1b1857da",
    "rawpage@90": "457bc30a1b1857da",
    "rects@0": "d1f09deadf6671d7",
    "rects@180": "d1f09deadf6671d7",
    "rects@270": "d1f09deadf6671d7",
    "rects@90": "d1f09deadf6671d7",
    "show_td@0": "37b2850af56f0810",
    "show_td@90": "eac763f96b240274",
    "skew@0": "4784514cdfeeed1f",
    "skew@180": "4784514cdfeeed1f",
    "skew@270": "4784514cdfeeed1f",
    "skew@90": "4784514cdfeeed1f",
    "splitchapter@0": "79e2c085068c43ee",
    "splitchapter@180": "79e2c085068c43ee",
    "splitchapter@270": "79e2c085068c43ee",
    "splitchapter@90": "79e2c085068c43ee",
    "stale_operands@0": "3bf2d48bfd43450b",
    "stale_operands@90": "26f1e208a038b146",
    "tables@0": "74fa740d860a4783",
    "tables@180": "74fa740d860a4783",
    "tables@270": "74fa740d860a4783",
    "tables@90": "74fa740d860a4783",
    "text_runs@0": "3a0a513f208fe2c8",
    "text_runs@90": "dcf3c6ab2580e1a9",
    "text_state@0": "6eea8a4ddd34e41d",
    "text_state@90": "fbc68fb020729bbc",
    "unterminated_array@0": "0c1ab5a520ac8201",
    "unterminated_array@90": "cdf9cf7dfa6325fc",
    "unterminated_string@0": "99299a99b89fec3e",
    "unterminated_string@90": "4bc0c8e873ca2281",
}


@pytest.fixture(scope="module")
def docs():
    return documents()


def test_golden_digests(docs):
    got = {name: digest(data) for name, data in docs.items()}
    assert got == GOLDEN


# -- records vs tokens --------------------------------------------------


def spell(ops: list) -> list:
    """Records spelled back as the tokens they replace (numbers as floats,
    which compare equal to the token path's ints)."""
    out = []
    for tok in ops:
        if tok.__class__ is not Op:
            out.append(tok)
        else:
            name, size, rgb, tm, s = tok
            out += [Keyword(b"BT"), name, size, Keyword(b"Tf"), *rgb, Keyword(b"rg"),
                    *tm, Keyword(b"Tm"), s, Keyword(b"Tj"), Keyword(b"ET")]
    return out


def _canon(tok):
    """A token with its numbers as float64 bytes, so ``-0`` and ``0``
    differ and an integer past float range shows as such."""
    if isinstance(tok, Keyword):
        return "kw", bytes(tok)
    if isinstance(tok, (int, float)) and not isinstance(tok, bool):
        try:
            return "num", array("d", [float(tok)]).tobytes()
        except OverflowError:
            return "overflow", tok
    if isinstance(tok, list):
        return "list", [_canon(t) for t in tok]
    if isinstance(tok, dict):
        return "dict", {k: _canon(v) for k, v in tok.items()}
    return type(tok).__name__, tok


def spells_tokens(data: bytes) -> list:
    """``content_ops(data)``, after checking that its records spelled
    back are ``content_tokens(data)`` number for number."""
    ops = content_ops(data)
    assert [_canon(t) for t in spell(ops)] == [_canon(t) for t in content_tokens(data)], data
    return ops


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_records_spell_the_token_stream(name):
    spells_tokens(STREAMS[name])


def test_records_only_at_top_level():
    assert content_ops(b"[" + _run(5) + b"] TJ")[0][:4] == [b"BT", "F1", 12, b"Tf"]
    assert content_ops(b"(a) Tj /F1 12 Tf " + _run(5)) == [
        b"a", b"Tj", "F1", 12, b"Tf",
        ("F1", 12.0, (0.0, 0.0, 0.0), (1.25, 0.0, 0.0, 1.0, 72.0, 5.0), b"Hello world")]
    # near misses stay tokens: a comment, an escape, -0, a keyword glued
    # on, a name where a number belongs
    for data in (_run(5).replace(b" Tj", b" %c\nTj"), _run(5).replace(b"(", b"(\\"),
                 _run(5).replace(b" 12 ", b" -0 "), _run(5).replace(b"Tj ET", b"TjET"),
                 _run(5).replace(b"0 0 0 rg", b"0 /X 0 rg")):
        assert not any(t.__class__ is Op for t in content_ops(data)), data


def _near_miss_soup(rng: random.Random) -> bytes:
    """Text objects, ``(s) Tj`` and ``/F n Tf`` runs with each piece and
    separator sometimes swapped for a near miss (NUL, \\v, a comment or
    nothing between pieces).  The miss rate is drawn per soup, so some
    soups keep most text objects whole and others break nearly all."""
    miss = rng.choice([0.02, 0.05, 0.15])
    seps = [b" "] * 6 + [b"\n", b"\r\n", b"\t", b"\x0c"]
    bad_seps = [b"", b"\x00", b"\x0b", b"%c\n"]
    nums = [b"-0", b"-00", b"+0", b".5", b"5.", b"1.2.3", b"1" * 320, b"-0.0", b"1-2", b"/X", b"-"]
    odd = [b"/", b"/F#31", b"/F\x0b1", b"(a\\(b)", b"(a(b)c)", b"(a", b"<41>", b"BTX", b"TjET",
           b"[", b"]", b"<<", b"BI /W 1 ID x EI", b"T"]

    def piece(good: bytes, alts: list) -> bytes:
        return ((good if rng.random() >= miss else rng.choice(alts))
                + rng.choice(seps if rng.random() >= miss else bad_seps))

    out = []
    for _ in range(rng.randint(1, 6)):
        n = [piece(rng.choice([b"0", b"1", b"12", b"72.5", b"-3"]), nums) for _ in range(10)]
        run = rng.choice([
            [piece(b"BT", odd), piece(b"/F1", odd), n[0], piece(b"Tf", odd), *n[1:4],
             piece(b"rg", odd), *n[4:10], piece(b"Tm", odd), piece(b"(hi)", odd),
             piece(b"Tj", odd), piece(b"ET", odd)],
            [piece(b"(hi)", odd), piece(b"Tj", odd)],
            [piece(b"/F1", odd), n[0], piece(b"Tf", odd)],
        ])
        out.append(b"".join(run))
    return rng.choice(seps + bad_seps).join(out)


@pytest.mark.parametrize("block", range(4))
def test_records_equal_tokens_on_near_misses(block):
    """Spelled back, the records of a near-miss soup are the token
    stream, number for number (a wider run: 50,000 soups, 13,301 records,
    0 differences)."""
    records = 0
    for seed in range(500 * block, 500 * (block + 1)):
        ops = spells_tokens(_near_miss_soup(random.Random(seed)))
        records += sum(t.__class__ is Op for t in ops)
    assert records > 80


# -- differential: records vs the token path ------------------------------


def _general(rng: random.Random) -> list:
    """One general operator with its operands, as token strings."""
    x, y = rng.randint(0, 500), rng.randint(0, 700)
    return rng.choice([
        [b"q"], [b"Q"], [b"0.5", b"0", b"0", b"0.5", b"%d" % x, b"%d" % y, b"cm"],
        [b"%d" % x, b"%d" % y, b"m", b"%d" % (x + 30), b"%d.5" % y, b"l", b"S"],
        [b"%d" % x, b"%d" % y, b"20", b"10.5", b"re", b"f"],
        [b"0.%d" % rng.randint(0, 9), b"g"], [b"1", b"0", b"0", b"RG"],
        [b"BT", b"/F1", b"9", b"Tf", b"%d" % x, b"%d" % y, b"Td", b"[(kern)", b"-250",
         b"(ed)]", b"TJ", b"ET"],
        [b"BT", b"/F2", b"10", b"Tf", b"12", b"TL", b"%d" % x, b"%d" % y, b"Td",
         b"(one)", b"Tj", b"T*", b"(two)", b"'", b"ET"],
        [b"%d" % rng.randint(0, 3), b"Tc"], [b"%d" % rng.randint(0, 5), b"Tw"],
        [b"%d" % rng.choice([50, 100, 150]), b"Tz"], [b"%d" % rng.randint(-2, 2), b"Ts"],
        [b"%d" % rng.choice([0, 0, 3]), b"Tr"], [b"/Fm1", b"Do"], [b"/Im1", b"Do"],
        [b"/F%d" % rng.choice([1, 2, 3, 8, 9]), b"%d" % rng.randint(6, 14), b"Tf"],
        [b"7", b"/X"], [b"0.%d" % rng.randint(0, 9), b"sc"],
    ])


def _hot(rng: random.Random) -> list:
    """One hot run (a record in the plain stream), as token strings."""
    font = b"/F%d" % rng.choice([1, 1, 1, 2, 3, 8, 9])
    text = rng.choice([b"Hello", b"a b  c", b"", b"x" * 30])
    return [b"BT", font, b"%d" % rng.randint(5, 20), b"Tf", b"0", b"0.5", b"1", b"rg",
            rng.choice([b"1", b"0.8", b"-1"]), b"0", b"0", b"1", b"%d" % rng.randint(0, 500),
            b"%d" % rng.randint(0, 700), b"Tm", b"(%s)" % text, b"Tj", b"ET"]


def _streams(seed: int) -> tuple:
    """(as written, with a comment before every operator)."""
    rng = random.Random(seed)
    items = [(_hot if rng.random() < 0.5 else _general)(rng) for _ in range(80)]
    plain, commented = [], []
    for item in items:
        for tok in item:
            operator = tok[:1].isalpha() or tok in (b"'", b"T*")
            plain.append(tok)
            commented.append(b"%op\n" + tok if operator else tok)
    sep = rng.choice([b" ", b"\n", b"\r\n", b" \t "])
    return sep.join(plain), sep.join(commented)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("rotate", [0, 90])
def test_records_equal_the_token_path(seed, rotate):
    plain, commented = _streams(seed)
    assert any(t.__class__ is Op for t in spells_tokens(plain))
    assert not any(t.__class__ is Op for t in content_ops(commented))
    assert outputs(interpret(make_pdf(plain, rotate))) == outputs(
        interpret(make_pdf(commented, rotate)))

