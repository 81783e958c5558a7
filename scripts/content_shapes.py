"""CPU of the PDF content interpreter on fixed content-stream shapes.

Each shape is a set of generated PDFs whose pages exercise one part of
``kernels/pdftext.py``:

- ``paths``: one page of 10,000 stroked ``m l S`` segments plus 1,000
  filled ``re f`` rects;
- ``tj_array``: text objects that show ``[...] TJ`` arrays (kerned runs);
- ``td_tstar``: text objects that move with ``Td`` / ``T*`` and show with
  ``Tj``;
- ``escaped``: ``Tj`` strings with backslash escapes and nested parens;
- ``rotated``: ``Tj`` runs under a rotated text matrix;
- ``form``: a page that draws one Form XObject (40 text objects) 200
  times with ``Do``;
- ``pdf_small``: the 192 documents of perfbench's ``pdf_small`` corpus
  (``fixtures.build_document`` + ``pdfwrite.write_pdf``, 6 pages each).

The shapes are written once, by this checkout's generators.  Every run
then measures all shapes in a fresh child process: it parses each file,
decodes its content streams and interprets every page once untimed, then
times ``PageInterpreter.run_page`` over every page (a new interpreter per
document) with ``time.process_time``.  Given several checkouts, the runs
alternate between them, so two commits are compared under the same host
load:

    python3 scripts/content_shapes.py                      # this checkout
    python3 scripts/content_shapes.py /path/to/parent .    # parent vs this
    python3 scripts/content_shapes.py A B --runs 25 --seed 3

It prints, per shape and checkout, the median and minimum CPU seconds over
the runs and the ratio of each median to the first checkout's.  Only
names that exist at every commit since the columnar glyph table are used
(``PdfFile``, ``PdfFile.pages``, ``PdfFile.content_bytes``,
``PageInterpreter.run_page``), so older checkouts run it unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import zlib

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# -- shape generation ----------------------------------------------------

_FONT = (
    b"<< /Type /Font /Subtype /Type1 /BaseFont /SynthMono /FirstChar 0 "
    b"/LastChar 255 /Widths [" + b" ".join([b"600"] * 256) + b"] "
    b"/FontDescriptor 5 0 R >>"
)
_DESCRIPTOR = (
    b"<< /Type /FontDescriptor /FontName /SynthMono /Flags 33 /Ascent 800 "
    b"/Descent -200 /ItalicAngle 0 /FontBBox [0 -200 600 800] >>"
)


def _stream(data: bytes, extra: bytes = b"") -> bytes:
    body = zlib.compress(data)
    return (b"<< " + extra + b" /Length %d /Filter /FlateDecode >>\nstream\n"
            % len(body) + body + b"\nendstream")


def _pdf(pages: list, form: bytes = b"") -> bytes:
    """Minimal PDF: catalog 1, page tree 2, font 4 (+ descriptor 5),
    optional Form XObject 6, then one page + content object per page."""
    objs = {4: _FONT, 5: _DESCRIPTOR}
    xobj = b""
    if form:
        objs[6] = _stream(form, b"/Type /XObject /Subtype /Form "
                                b"/BBox [0 0 612 792] /Resources << /Font << /F1 4 0 R >> >>")
        xobj = b" /XObject << /Fm1 6 0 R >>"
    kids = []
    for k, content in enumerate(pages):
        page, stm = 7 + 2 * k, 8 + 2 * k
        kids.append(b"%d 0 R" % page)
        objs[page] = (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                      b"/Resources << /Font << /F1 4 0 R >>" + xobj + b" >> "
                      b"/Contents %d 0 R >>" % stm)
        objs[stm] = _stream(content)
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    objs[2] = b"<< /Type /Pages /Kids [" + b" ".join(kids) + b"] /Count %d >>" % len(kids)
    out = bytearray(b"%PDF-1.4\n")
    size = max(objs) + 1
    offsets = [0] * size
    for num in sorted(objs):
        offsets[num] = len(out)
        out += b"%d 0 obj\n" % num + objs[num] + b"\nendobj\n"
    xref = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % size
    for num in range(1, size):
        out += (b"%010d 00000 n \n" % offsets[num]) if num in objs else b"0000000000 65535 f \n"
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (size, xref)
    return bytes(out)


def _words(k: int) -> bytes:
    return b"word%d sample text %d" % (k, k * 7)


def _paths() -> list:
    ops = [b"0.75 w 0 G"]
    for k in range(10_000):
        x, y = 20 + k % 500, 20 + (k // 500) * 35
        ops.append(b"%d %d m %d.5 %d l S" % (x, y, x + 40, y + 3))
        if k % 10 == 0:
            ops.append(b"0.5 0.5 0.5 rg %d %d 12.25 8 re f" % (x, y + 10))
    return [[b"\n".join(ops)]]


def _tj_array() -> list:
    ops = []
    for k in range(3_000):
        ops.append(b"BT /F1 9 Tf 1 0 0 1 %d %d Tm [(%s) -120 (kern) 250 (ed run)] TJ ET"
                   % (30 + k % 7, 20 + k % 700, _words(k)))
    return [[b"\n".join(ops[i:i + 600]) for i in range(0, len(ops), 600)]]


def _td_tstar() -> list:
    pages = []
    for p in range(5):
        ops = []
        for block in range(60):
            ops.append(b"BT /F1 10 Tf 12 TL %d %d Td" % (40 + block % 3, 740 - block * 11))
            for k in range(10):
                ops.append(b"(%s) Tj T*" % _words(p * 1000 + block * 10 + k))
                ops.append(b"0 -1.5 Td")
            ops.append(b"ET")
        pages.append(b"\n".join(ops))
    return [pages]


def _escaped() -> list:
    ops = []
    for k in range(3_000):
        ops.append(b"BT /F1 10 Tf 0 0 0 rg 1 0 0 1 50 %d Tm (a\\(%d\\) b \\\\ (c) \\101\\n) Tj ET"
                   % (20 + k % 700, k))
    return [[b"\n".join(ops[i:i + 600]) for i in range(0, len(ops), 600)]]


def _rotated() -> list:
    ops = []
    for k in range(3_000):
        ops.append(b"BT /F1 10 Tf 0 0 0 rg 0.7071 0.7071 -0.7071 0.7071 %d %d Tm (%s) Tj ET"
                   % (100 + k % 300, 20 + k % 700, _words(k)))
    return [[b"\n".join(ops[i:i + 600]) for i in range(0, len(ops), 600)]]


def _form() -> tuple:
    body = b"\n".join(
        b"BT /F1 8 Tf 0 0 0 rg 1 0 0 1 %d %d Tm (%s) Tj ET" % (10 + k, 10 + 9 * k, _words(k))
        for k in range(40))
    page = b"\n".join(b"q 1 0 0 1 %d 0 cm /Fm1 Do Q" % (k % 50) for k in range(200))
    return [[page]], body


def write_shapes(root: str, seed: int) -> list:
    """Write every shape under ``root/<shape>/`` → the shape names."""
    sys.path.insert(0, HERE)
    from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
    from libpdf_ray.kernels.pdfwrite import write_pdf

    shapes = {"paths": (_paths(), b""), "tj_array": (_tj_array(), b""),
              "td_tstar": (_td_tstar(), b""), "escaped": (_escaped(), b""),
              "rotated": (_rotated(), b""), "form": _form()}
    for name, (docs, form) in shapes.items():
        os.makedirs(os.path.join(root, name))
        for k, pages in enumerate(docs):
            with open(os.path.join(root, name, f"{k:03d}.pdf"), "wb") as fh:
                fh.write(_pdf(pages, form))
    os.makedirs(os.path.join(root, "pdf_small"))
    for i in range(192):
        doc = build_document(i, DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)], seed, 6)
        with open(os.path.join(root, "pdf_small", doc["doc_id"] + ".pdf"), "wb") as fh:
            fh.write(write_pdf(doc))
    return list(shapes) + ["pdf_small"]


# -- one measured run (child process) -------------------------------------


def measure(root: str, shapes: list) -> dict:
    import time

    from libpdf_ray.kernels.pdfobj import PdfFile
    from libpdf_ray.kernels.pdftext import PageInterpreter

    out = {}
    for name in shapes:
        docs = []
        for fn in sorted(os.listdir(os.path.join(root, name))):
            with open(os.path.join(root, name, fn), "rb") as fh:
                pdf = PdfFile(fh.read())
            pages = pdf.pages()
            docs.append((pdf, pages))
        for pdf, pages in docs:  # untimed pass: decode streams, warm caches
            interp = PageInterpreter(pdf)
            for page in pages:
                interp.run_page(page)
        t0 = time.process_time()
        for pdf, pages in docs:
            interp = PageInterpreter(pdf)
            for page in pages:
                interp.run_page(page)
        out[name] = time.process_time() - t0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[HERE],
                    help="repository roots to compare (default: this one)")
    ap.add_argument("--runs", type=int, default=15, help="runs per checkout")
    ap.add_argument("--seed", type=int, default=1, help="pdf_small corpus seed")
    ap.add_argument("--measure", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:  # child: this checkout's library is first on sys.path
        print(json.dumps(measure(args.measure, json.loads(os.environ["SHAPES"]))))
        return 0
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    with tempfile.TemporaryDirectory() as root:
        shapes = write_shapes(root, args.seed)
        times = {c: {s: [] for s in shapes} for c in checkouts}
        for run in range(args.runs):
            for c in checkouts if run % 2 == 0 else checkouts[::-1]:
                env = dict(os.environ, PYTHONPATH=c, SHAPES=json.dumps(shapes))
                res = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--measure", root],
                    cwd=c, env=env, check=True, capture_output=True, text=True)
                for s, t in json.loads(res.stdout.splitlines()[-1]).items():
                    times[c][s].append(t)
    print(f"{'shape':<10} {'checkout':<40} {'median_s':>9} {'min_s':>9} {'vs_first':>9}")
    for s in shapes:
        base = statistics.median(times[checkouts[0]][s])
        for c in checkouts:
            med = statistics.median(times[c][s])
            print(f"{s:<10} {c[-40:]:<40} {med:9.4f} {min(times[c][s]):9.4f} "
                  f"{med / base:9.3f}")
    print(json.dumps({c: times[c] for c in checkouts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
