"""Closed-loop byte-path oracle: fixture → REAL PDF bytes → byte decoder
→ full engine == the fixture's own expected spans.

This is the strongest correctness statement the real-PDF path can make:
the generator-as-oracle corpus (16 families: chapters, tables, figures,
links, header/footer, colors, raw soups, skew) renders to actual PDF
files via ``kernels/pdfwrite.py`` and the whole byte pipeline — xref,
content interpretation, layout analysis, catalog resolution — must
re-derive the identical span sequence.

Two families differ BY DESIGN of the byte path (not bugs; each is the
reference's own real-PDF behavior, pinned in tests/test_pdf_bytes.py):

- ``splitchapter``: the standalone chapter-number textbox sits within
  ``char_margin × width`` of the title, so pdfminer-style stream-order
  line building merges them into one line (a real pdfminer run on such
  a PDF would too) — the chapter number resolves as ``virt.*`` instead
  of adopting the number-box text;
- ``figures``: a figure hanging off the page edge never reaches the
  filter (pdfplumber ``within_bbox`` drops it; reference
  tests/test_figures.py pins the drop), while the sidecar contract
  clamps it (pr-138 analog).
"""

from __future__ import annotations

import pytest

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.kernels.document import extract_document
from libpdf_ray.kernels.pdfwrite import write_pdf
from libpdf_ray.stages.pdf_decoder import decode_pdf_document

EXACT_FAMILIES = tuple(
    f for f in DEFAULT_FAMILIES if f not in ("splitchapter", "figures")
)


def _roundtrip(doc: dict) -> list:
    data = write_pdf(doc)
    assert data.startswith(b"%PDF-")
    dec = decode_pdf_document(doc["doc_id"], data)
    return extract_document(dec, SMART_CROP_CONFIG)


def _key(spans: list) -> list:
    return [(s["kind"], s["text"], s["media_ref"]) for s in spans]


@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_family_roundtrips_bit_identical(family):
    for seed in (100, 317):
        doc = build_document(seed, family, skew_pages=6)
        got = _key(_roundtrip(doc))
        want = _key(doc["expected_spans"])
        assert got == want, f"{family} seed={seed}"


def test_figures_family_drops_offpage_figure():
    """The byte path loses exactly the off-page figure (within_bbox
    parity); everything else is identical."""
    doc = build_document(105, "figures", skew_pages=6)
    got = _key(_roundtrip(doc))
    pages = {int(p["number"]): p for p in doc["pages"]}
    offpage_refs = set()
    for i, fig in enumerate(doc["figures"]):
        pg = pages[int(fig["page"])]
        if (fig["x0"] < 0 or fig["y0"] < 0
                or fig["x1"] > float(pg["width"])
                or fig["y1"] > float(pg["height"])):
            offpage_refs.add(int(fig["page"]))
    want = [
        k for k in _key(doc["expected_spans"])
        if not (k[0] == "figure" and any(
            f"page_{p}_" in k[2] for p in offpage_refs
        ))
    ]
    assert got == want


def test_splitchapter_falls_back_to_virt_number():
    doc = build_document(103, "splitchapter", skew_pages=6)
    got = _key(_roundtrip(doc))
    want = _key(doc["expected_spans"])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == w[0]
        if g != w:
            # only chapter-number prefixes may differ (virt.* adoption)
            assert g[0] == "chapter"
            assert g[1].split(" ", 1)[-1] == w[1].split(" ", 1)[-1]


@pytest.mark.parametrize("rotate", [90, 180, 270])
def test_rotated_pages_roundtrip(rotate):
    """Pages authored with /Rotate (content pre-transformed through the
    inverse base CTM, the idiom real producers use for landscape pages)
    must decode to the SAME spans as the upright document — proving the
    decoder's rotation handling (page_base_ctm) end-to-end."""
    for family in ("outlined", "tables", "linked"):
        doc = build_document(150, family, skew_pages=6)
        dec = decode_pdf_document(
            doc["doc_id"], write_pdf(doc, rotate=rotate)
        )
        got = _key(extract_document(dec, SMART_CROP_CONFIG))
        assert got == _key(doc["expected_spans"]), f"{family} rot={rotate}"
        # visible page dims keep the upright shape
        pg = dec["pages"][0]
        src = doc["pages"][0]
        assert abs(pg["width"] - float(src["width"])) < 1e-6
        assert abs(pg["height"] - float(src["height"])) < 1e-6


def test_corrupted_pdfs_become_poison_rows_not_dead_tasks():
    """Byte-level fuzz over a written PDF (truncation, bit flips, xref
    vandalism, random splices): every corrupted document must land as a
    normal row — error string or recovered spans — never an exception
    out of parse_batch (at 10^12 docs a poison byte must not kill a
    task)."""
    import random

    import pyarrow as pa

    from libpdf_ray.stages.parse import parse_batch
    from libpdf_ray.stages.pdf_decoder import PdfByteDecoder

    rng = random.Random(7)
    base = write_pdf(build_document(42, "outlined", skew_pages=4))
    payloads, ids = [], []
    for i in range(40):
        b = bytearray(base)
        mode = i % 4
        if mode == 0:
            b = b[: rng.randrange(10, len(b))]
        elif mode == 1:
            for _ in range(rng.randrange(1, 30)):
                b[rng.randrange(len(b))] = rng.randrange(256)
        elif mode == 2:
            b = bytearray(bytes(b).replace(b"startxref", b"startxrEF"))
        else:
            p = rng.randrange(len(b))
            b[p:p] = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
        payloads.append(bytes(b))
        ids.append(f"fuzz{i}")
    batch = pa.table(
        {"doc_id": pa.array(ids), "pdf_bytes": pa.array(payloads, pa.binary())}
    )
    df = parse_batch(
        batch, SMART_CROP_CONFIG, decoder=PdfByteDecoder()
    ).to_pandas()
    assert len(df) == 40  # every row accounted for
    # xref vandalism must be RECOVERED by the rescan fallback, not errored
    recovered = df[(df["error"] == "") & (df["n_spans"] > 0)]
    assert len(recovered) >= 10


def test_metadata_roundtrips():
    doc = build_document(111, "plain", skew_pages=6)
    dec = decode_pdf_document(doc["doc_id"], write_pdf(doc))
    meta = dec["meta"]
    assert meta["author"] == doc["meta"]["author"]
    assert meta["title"] == doc["meta"]["title"]
    assert meta["producer"] == doc["meta"]["producer"]
    assert meta["trapped"] == doc["meta"]["trapped"]
    from libpdf_ray.kernels.meta import parse_pdf_datetime

    assert (
        parse_pdf_datetime(meta["creation_date_raw"])
        == doc["meta"]["creation_date"].replace(microsecond=0)
    )


def test_pdf_split_path_identical(ray_session, tmp_path):
    """Skew-aware page-range split over real PDF bytes: the 5000-page-
    manual shape at test scale — a heavy written manual splits into page
    ranges, light docs take the ordinary decode, and the merged output is
    row-identical to the monolithic byte path."""
    from libpdf_ray.pipelines.extract import extract_spans
    from libpdf_ray.pipelines.split import extract_spans_split
    from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

    docs = [build_document(500 + i, DEFAULT_FAMILIES[i], skew_pages=4)
            for i in range(4)]
    docs.append(build_document(599, "skew", skew_pages=90))  # the manual
    for d in docs:
        (tmp_path / f"{d['doc_id']}.pdf").write_bytes(write_pdf(d))

    split = {
        r["doc_id"]: dict(r)
        for r in extract_spans_split(
            str(tmp_path), SMART_CROP_CONFIG,
            heavy_pages=40, split_pages=16, num_partitions=2,
        ).take_all()
    }
    mono = {
        r["doc_id"]: dict(r)
        for r in extract_spans(
            read_pdf_files(str(tmp_path)), SMART_CROP_CONFIG,
            decoder=PdfByteDecoder(),
        ).take_all()
    }
    assert split == mono
    assert len(split) == 5
    assert split["doc-000599"]["est_pages"] == 90


def test_ray_pipeline_over_written_pdfs(ray_session, tmp_path):
    """Write a small synthetic PDF corpus to disk and stream it through
    the Ray byte-decode pipeline — the real-PDF deployment shape at
    miniature scale (read_pdf_files → PdfByteDecoder)."""
    import pandas as pd

    from libpdf_ray.pipelines.extract import extract_spans
    from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

    n = 12
    for i in range(n):
        fam = DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)]
        doc = build_document(200 + i, fam, skew_pages=4)
        (tmp_path / f"{doc['doc_id']}.pdf").write_bytes(write_pdf(doc))
    out = extract_spans(
        read_pdf_files(str(tmp_path)), SMART_CROP_CONFIG,
        decoder=PdfByteDecoder(),
    ).to_pandas()
    assert len(out) == n
    assert (out["error"] == "").all()
    assert (out["n_spans"] > 0).all()
