"""Seeded workload corpora, built only from the library's public generators.

Each workload corpus is a directory under the run's work dir:

- ``input/``: the files the program reads (sidecar parquet shards,
  ``.pdf`` or ``.html`` files);
- ``warm/``: a handful of inputs of the same kind, used by the set-up
  warm-up pass;
- ``expected.json``: ``doc_id -> digest`` of the correct output, or
  ``"poison"`` for a planted bad file.

A corpus is cached by ``(workload, seed, size, SCHEMA_VERSION)``; building
it is the load generator, not the program, so it runs before any timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

#: the CLI's default ``--batch-size``
CLI_BATCH_SIZE = 64
#: families whose PDF byte round trip differs from ``expected_spans`` by
#: design (see tests/test_pdf_roundtrip.py); they are checked against the
#: in-process reference instead
PDF_INEXACT_FAMILIES = ("splitchapter", "figures")
#: the in-process references of those families, pinned per seed by
#: pin_references.py at a known-good commit
PINNED_REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "pinned_references.json")
#: corpora kept per workload before the oldest is evicted (enough for a
#: ten-seed series to hit the cache when it is repeated)
CACHE_KEEP = 12


@dataclass(frozen=True)
class Workload:
    name: str
    leg: str  # sidecar | pdf | html
    size: dict


#: why each workload was chosen: BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sidecar_skewed", "sidecar",
                 dict(n_docs=288, shards=8, skew_pages=100, row_group=24)),
        Workload("pdf_small", "pdf", dict(n_docs=192, pages=6, poison=2)),
        Workload("html_pages", "html",
                 dict(n_docs=1500, min_words=40, max_words=400)),
    )
}


def spans_digest(spans) -> str:
    """Digest of an ordered span list: (kind, text, media_ref, offset)."""
    h = hashlib.sha1()
    for s in spans:
        h.update(
            json.dumps(
                [s["kind"], s["text"], s["media_ref"], int(s["offset"])]
            ).encode()
        )
        h.update(b"\x00")
    return h.hexdigest()


def html_digest(title: str, text: str) -> str:
    """Digest of an HTML page's whitespace-normalised title and main text."""
    norm = " ".join(text.split())
    return hashlib.sha1(json.dumps([title, norm]).encode()).hexdigest()


def html_output_digest(spans) -> str:
    """The same digest computed from an output row: the chapter span is the
    title, the paragraph spans joined are the main text."""
    title = "".join(s["text"] for s in spans if s["kind"] == "chapter")
    paras = " ".join(s["text"] for s in spans if s["kind"] == "paragraph")
    return html_digest(title, paras)


def cfg():
    """The configuration of ``python -m libpdf_ray --smart-page-crop``; the
    fixtures' expected spans are written for the smart page crop."""
    from libpdf_ray.config import PipelineConfig

    return PipelineConfig(smart_page_crop=True, parse_batch_size=CLI_BATCH_SIZE)


def corpus_dir(work: str, wl: Workload, seed: int) -> str:
    from libpdf_ray.schema import SCHEMA_VERSION

    size = "-".join(f"{k}{v}" for k, v in sorted(wl.size.items()))
    return os.path.join(
        work, "cache", f"{wl.name}-s{seed}-{size}-v{SCHEMA_VERSION}"
    )


def ensure_corpus(work: str, wl: Workload, seed: int) -> str:
    """Build (or reuse) the corpus for ``(wl, seed)``; returns its dir."""
    path = corpus_dir(work, wl, seed)
    if os.path.exists(os.path.join(path, "expected.json")):
        os.utime(path)
        return path
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "input"))
    os.makedirs(os.path.join(path, "warm"))
    builder = {"sidecar": _sidecar, "pdf": _pdf, "html": _html}[wl.leg]
    expected = builder(path, wl, seed)
    tmp = os.path.join(path, "expected.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(expected, fh)
    os.replace(tmp, os.path.join(path, "expected.json"))
    _evict(os.path.dirname(path), wl.name, keep=path)
    return path


def load_expected(path: str) -> dict:
    with open(os.path.join(path, "expected.json")) as fh:
        return json.load(fh)


def _evict(cache: str, name: str, keep: str) -> None:
    mine = [
        os.path.join(cache, d) for d in os.listdir(cache)
        if d.startswith(name + "-s")
    ]
    mine.sort(key=os.path.getmtime, reverse=True)
    for old in mine[CACHE_KEEP:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


# -- sidecar -----------------------------------------------------------


def _sidecar_families():
    from libpdf_ray.fixtures import DEFAULT_FAMILIES

    # the 16 default families plus two more slots of long outlined manuals
    return tuple(DEFAULT_FAMILIES) + ("skew", "skew")


def _write_sidecar(out_dir, docs, shards, row_group):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from libpdf_ray.schema import RAW_DOC_SCHEMA

    per = (len(docs) + shards - 1) // shards
    for shard in range(shards):
        chunk = docs[shard * per:(shard + 1) * per]
        if not chunk:
            break
        pq.write_table(
            pa.Table.from_pylist(chunk, schema=RAW_DOC_SCHEMA),
            os.path.join(out_dir, f"part-{shard:04d}.parquet"),
            row_group_size=row_group,
        )


def _sidecar(path, wl, seed):
    from libpdf_ray.fixtures import build_document

    fams = _sidecar_families()
    s = wl.size
    docs = [
        build_document(i, fams[i % len(fams)], seed, s["skew_pages"])
        for i in range(s["n_docs"])
    ]
    _write_sidecar(os.path.join(path, "input"), docs, s["shards"], s["row_group"])
    # warm-up: one shard with one doc of each of four families
    warm = [build_document(s["n_docs"] + i, fams[i], seed, 4) for i in range(4)]
    _write_sidecar(os.path.join(path, "warm"), warm, 1, s["row_group"])
    return {d["doc_id"]: spans_digest(d["expected_spans"]) for d in docs}


# -- pdf ---------------------------------------------------------------


def _pdf_specs(wl):
    """(index, family) of the workload's PDF documents."""
    from libpdf_ray.fixtures import DEFAULT_FAMILIES

    return [(i, DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)])
            for i in range(wl.size["n_docs"])]


def pdf_reference(doc, data: bytes) -> str:
    """Digest of the single-threaded in-process reference for one written
    PDF: ``decode_pdf_document`` + ``extract_document``."""
    from libpdf_ray.kernels.document import extract_document
    from libpdf_ray.stages.pdf_decoder import decode_pdf_document

    return spans_digest(
        extract_document(decode_pdf_document(doc["doc_id"], data), cfg()))


def pinned_digest(refs: list) -> str:
    """One digest over a seed's ordered ``[doc_id, reference digest]``
    pairs of the PDF_INEXACT_FAMILIES documents."""
    return hashlib.sha1(json.dumps(refs).encode()).hexdigest()[:16]


class ReferenceMismatch(Exception):
    """The in-process reference differs from the pinned one."""


def check_pinned(wl, seed: int, refs: list) -> None:
    """Compare a seed's in-process references of the PDF_INEXACT_FAMILIES
    documents against PINNED_REFERENCES; raise ReferenceMismatch when they
    differ.  A seed that is not pinned is let through with a note."""
    import sys

    with open(PINNED_REFERENCES) as fh:
        pinned = json.load(fh)
    if pinned["workload"] != wl.name:
        return
    if pinned["size"] != wl.size:
        raise ReferenceMismatch(
            f"{PINNED_REFERENCES} is for {wl.name} size {pinned['size']}, "
            f"not {wl.size}; rebuild it with perfbench/pin_references.py")
    want = pinned["digests"].get(str(seed))
    if want is None:
        print(f"perfbench: seed {seed} has no pinned reference for "
              f"{'/'.join(PDF_INEXACT_FAMILIES)}; those documents are checked "
              "against this checkout's in-process reference only",
              file=sys.stderr)
        return
    got = pinned_digest(refs)
    if got != want:
        raise ReferenceMismatch(
            f"seed {seed}: the in-process output of the "
            f"{'/'.join(PDF_INEXACT_FAMILIES)} documents digests to {got}, "
            f"the pinned reference is {want}")


def _poison_bytes(k: int, seed: int, good: bytes) -> bytes:
    """Planted bad file ``k``: even k = a real PDF cut short, odd k =
    garbage bytes behind a PDF header."""
    rng = np.random.default_rng([seed, 9000 + k])
    if k % 2 == 0:
        return good[: len(good) // 3]
    return b"%PDF-1.4\n" + rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()


def _pdf(path, wl, seed):
    from libpdf_ray.fixtures import build_document
    from libpdf_ray.kernels.pdfwrite import write_pdf

    expected = {}
    refs = []
    first = None
    for i, fam in _pdf_specs(wl):
        doc = build_document(i, fam, seed, wl.size["pages"])
        data = write_pdf(doc)
        first = first or data
        with open(os.path.join(path, "input", doc["doc_id"] + ".pdf"), "wb") as fh:
            fh.write(data)
        if fam in PDF_INEXACT_FAMILIES:
            expected[doc["doc_id"]] = pdf_reference(doc, data)
            refs.append([doc["doc_id"], expected[doc["doc_id"]]])
        else:
            expected[doc["doc_id"]] = spans_digest(doc["expected_spans"])
    check_pinned(wl, seed, refs)
    for k in range(wl.size["poison"]):
        doc_id = f"poison-{k:03d}"
        with open(os.path.join(path, "input", doc_id + ".pdf"), "wb") as fh:
            fh.write(_poison_bytes(k, seed, first))
        expected[doc_id] = "poison"
    for i, fam in enumerate(("plain", "tables", "linked", "colors")):
        doc = build_document(10_000 + i, fam, seed, 2)
        with open(os.path.join(path, "warm", doc["doc_id"] + ".pdf"), "wb") as fh:
            fh.write(write_pdf(doc))
    return expected


# -- html --------------------------------------------------------------


def html_texts(wl, seed) -> list:
    """(doc_id, text) pairs: seeded word sequences over the fixture
    vocabulary; the seed also sets the doc ids and so the page chrome."""
    from libpdf_ray.fixtures import WORDS

    rng = np.random.default_rng([seed, 77])
    s = wl.size
    out = []
    for i in range(s["n_docs"]):
        n = int(rng.integers(s["min_words"], s["max_words"] + 1))
        words = rng.integers(0, len(WORDS), n)
        out.append((f"page-{seed}-{i:05d}", " ".join(WORDS[w] for w in words)))
    return out


def _html(path, wl, seed):
    from libpdf_ray.kernels.htmldom import render_html

    expected = {}
    for doc_id, text in html_texts(wl, seed):
        with open(os.path.join(path, "input", doc_id + ".html"), "w") as fh:
            fh.write(render_html(doc_id, text))
        expected[doc_id] = html_digest(" ".join(text[:40].split()), text)
    for i in range(4):
        doc_id = f"warm-{i}"
        with open(os.path.join(path, "warm", doc_id + ".html"), "w") as fh:
            fh.write(render_html(doc_id, "lorem ipsum dolor sit amet " * 8))
    return expected
