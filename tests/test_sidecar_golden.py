"""Golden output digests of the sidecar parse, the lazy word layout and
the one catalog walk per document.

``GOLDEN`` pins, per case, digests of everything a parse task writes from
one layout per document: the span rows (``parse_batch`` with every view
and YAML asked for), each of the seven view tables and the YAML trees.
The cases are

- ``sidecar-s<seed>``: perfbench-shaped sidecar corpora (the 16 default
  families plus two more slots of 100-page manuals, row groups of 12),
  seeds 1–3, parsed row group by row group with the columns the engine
  reads;
- ``families-<cfg>``: two documents of every ``DEFAULT_FAMILIES`` family
  (annotated pages, table cells, ungrouped regions, char boxes, …) in one
  batch, under the configurations that change which boxes, pages, links
  and chapters a document keeps.

The values were recorded from the parse before word lines became lazy
and the catalog was walked once per document; never re-record them from
the code under test.  To record a new case, run this file as a script
from a checkout without the change: ``python3 tests/test_sidecar_golden.py``
prints every case's digests.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from libpdf_ray.config import PipelineConfig  # noqa: E402
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document, write_corpus  # noqa: E402
from libpdf_ray.pipelines.extract import PARSE_COLUMNS  # noqa: E402
from libpdf_ray.schema import RAW_DOC_SCHEMA  # noqa: E402
from libpdf_ray.stages.decoder import decode_sidecar_rows  # noqa: E402
from libpdf_ray.stages.outputs import Outputs  # noqa: E402
from libpdf_ray.stages.parse import parse_batch  # noqa: E402
from libpdf_ray.stages.views import VIEWS  # noqa: E402

SIDECAR_FAMILIES = tuple(DEFAULT_FAMILIES) + ("skew", "skew")

CONFIGS = {
    "smart": PipelineConfig(smart_page_crop=True),
    "default": PipelineConfig(),
    "page_crop": PipelineConfig(smart_page_crop=True, page_crop=(240.0, 150.0, 0.0, 100.0)),
    "page_range": PipelineConfig(smart_page_crop=True, page_range="2-3,5"),
    "no_chapters": PipelineConfig(smart_page_crop=True, no_chapters=True),
    "no_annotations": PipelineConfig(smart_page_crop=True, no_annotations=True),
}


def _sidecar_batches(work: str, seed: int) -> list:
    corpus = os.path.join(work, f"corpus-{seed}")
    write_corpus(corpus, n_docs=36, seed=seed, shards=2, families=SIDECAR_FAMILIES,
                 skew_pages=100, row_group_size=12)
    batches = []
    for f in sorted(p for p in os.listdir(corpus) if p.endswith(".parquet")):
        pf = pq.ParquetFile(os.path.join(corpus, f))
        batches += [pf.read_row_group(rg, columns=PARSE_COLUMNS + ["meta"])
                    for rg in range(pf.num_row_groups)]
    return batches


def _family_batch() -> pa.Table:
    docs = [build_document(i, DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)], 1, 8)
            for i in range(2 * len(DEFAULT_FAMILIES))]
    return pa.Table.from_pylist(docs, schema=RAW_DOC_SCHEMA)


def output_digests(batches: list, cfg: PipelineConfig, work: str) -> dict:
    """Parse ``batches`` with every view and YAML asked for → one digest
    each for the span rows, every view table and the YAML trees."""
    parts: dict = {"spans": [], "yaml": [], **{f"view/{v}": [] for v in VIEWS}}
    for k, batch in enumerate(batches):
        out = Outputs(views=tuple(VIEWS), views_dir=os.path.join(work, f"views{k}"),
                      yaml_dir=os.path.join(work, f"yaml{k}"))
        parts["spans"].append(repr(parse_batch(batch, cfg, outputs=out, name="b").to_pylist()))
        for view in VIEWS:
            path = os.path.join(out.views_dir, view, "b.parquet")
            parts[f"view/{view}"].append(
                repr(pq.read_table(path).to_pylist()) if os.path.exists(path) else "-")
        for name in sorted(os.listdir(out.yaml_dir)) if os.path.isdir(out.yaml_dir) else []:
            with open(os.path.join(out.yaml_dir, name), "rb") as fh:
                parts["yaml"].append(name + "\n" + fh.read().decode("utf-8"))
    return {key: hashlib.sha1("\x00".join(v).encode("utf-8")).hexdigest()[:16]
            for key, v in parts.items()}


def case_digests(case: str, work: str) -> dict:
    kind, arg = case.split("-", 1)
    if kind == "sidecar":
        return output_digests(_sidecar_batches(work, int(arg[1:])), CONFIGS["smart"], work)
    return output_digests([_family_batch()], CONFIGS[arg], work)


CASES = [f"sidecar-s{s}" for s in (1, 2, 3)] + [f"families-{c}" for c in CONFIGS]

GOLDEN = {
    "families-default": {
        "spans": "2dfbb7f5c1e5c41d",
        "view/cells": "e7836ab05d5903b1",
        "view/elements": "874a26d946ba4615",
        "view/file_meta": "38465062e253901a",
        "view/links": "c3b446d207cdf4be",
        "view/pages": "16a2ec3e11b97812",
        "view/rect_styles": "6c23e77028d1b29b",
        "view/text_styles": "53f823c020200534",
        "yaml": "35e5846fb2cde981",
    },
    "families-no_annotations": {
        "spans": "45bb5a2d077dfcd6",
        "view/cells": "e7836ab05d5903b1",
        "view/elements": "3c8fd33c07b1f17a",
        "view/file_meta": "38465062e253901a",
        "view/links": "3bc15c8aae3e4124",
        "view/pages": "16a2ec3e11b97812",
        "view/rect_styles": "6c23e77028d1b29b",
        "view/text_styles": "53f823c020200534",
        "yaml": "201823e1a4cab31e",
    },
    "families-no_chapters": {
        "spans": "99f7d14998c8527d",
        "view/cells": "e7836ab05d5903b1",
        "view/elements": "3fa8f99ea21e51d1",
        "view/file_meta": "38465062e253901a",
        "view/links": "b47cbe31f52a21d3",
        "view/pages": "16a2ec3e11b97812",
        "view/rect_styles": "6c23e77028d1b29b",
        "view/text_styles": "53f823c020200534",
        "yaml": "e203f173cddcbe7b",
    },
    "families-page_crop": {
        "spans": "0b9349298494c5ad",
        "view/cells": "232486cb76c2c8ff",
        "view/elements": "cd41a5e1fecc4bec",
        "view/file_meta": "38465062e253901a",
        "view/links": "8195116c9cacb8f4",
        "view/pages": "16a2ec3e11b97812",
        "view/rect_styles": "02ba5179b6d18590",
        "view/text_styles": "53f823c020200534",
        "yaml": "9fa329166b682b27",
    },
    "families-page_range": {
        "spans": "db955992405a743c",
        "view/cells": "3bc15c8aae3e4124",
        "view/elements": "46859fe9602a8609",
        "view/file_meta": "38465062e253901a",
        "view/links": "3bc15c8aae3e4124",
        "view/pages": "16a2ec3e11b97812",
        "view/rect_styles": "3bc15c8aae3e4124",
        "view/text_styles": "b59bd066e778cc32",
        "yaml": "6a64148f320dff6d",
    },
    "families-smart": {
        "spans": "15258c9c44af250f",
        "view/cells": "e7836ab05d5903b1",
        "view/elements": "b246aa449b66c162",
        "view/file_meta": "38465062e253901a",
        "view/links": "c3b446d207cdf4be",
        "view/pages": "16a2ec3e11b97812",
        "view/rect_styles": "6c23e77028d1b29b",
        "view/text_styles": "53f823c020200534",
        "yaml": "1b0608933d076814",
    },
    "sidecar-s1": {
        "spans": "bf298709deced5f3",
        "view/cells": "22940e0f2f499a1f",
        "view/elements": "0f023eb5172e9025",
        "view/file_meta": "a88c212f8138b4bc",
        "view/links": "245b5ff716cfe9f0",
        "view/pages": "19b025de08cd1d1f",
        "view/rect_styles": "52560260568a8515",
        "view/text_styles": "32368f1c4db9a035",
        "yaml": "001c3c82b661e602",
    },
    "sidecar-s2": {
        "spans": "98a45b321c595ed2",
        "view/cells": "4938e79193ec95d2",
        "view/elements": "afebb536b02bc29a",
        "view/file_meta": "855055283c403e17",
        "view/links": "d5bb88882921cc00",
        "view/pages": "1d593294a2f72edb",
        "view/rect_styles": "acef7136243bd0e0",
        "view/text_styles": "3d43944758f71349",
        "yaml": "eb578a7da518fd48",
    },
    "sidecar-s3": {
        "spans": "9e4ef3f4f9a764bd",
        "view/cells": "e34432bcd481255d",
        "view/elements": "ee9ef54ef20d7947",
        "view/file_meta": "7186e7aa1c6b86a6",
        "view/links": "2b3ce10891549a93",
        "view/pages": "19b025de08cd1d1f",
        "view/rect_styles": "2fb4cb271650fc99",
        "view/text_styles": "d8ba77a7f2ec713a",
        "yaml": "a32ab31183eca073",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digests(case, tmp_path):
    assert case_digests(case, str(tmp_path)) == GOLDEN[case]


def _decoded(*families) -> list:
    docs = [build_document(i, fam, 1, 8) for i, fam in enumerate(families)]
    return decode_sidecar_rows(pa.Table.from_pylist(docs, schema=RAW_DOC_SCHEMA))


def _comparable(line: dict) -> dict:
    return {k: (id(v) if k == "_wt" else v.tolist() if k == "_idx" else v)
            for k, v in line.items()}


def test_spans_only_parse_builds_no_line_dicts(monkeypatch):
    """Word boxes get their texts from the word table; a spans-only parse
    of documents without annotations, tables or ungrouped regions builds
    no line dict.  Reading the lines afterwards builds the document's
    lines once, equal to the eager assembly."""
    from libpdf_ray.kernels import textmodel
    from libpdf_ray.kernels.document import extract_document

    built = []
    build = textmodel._build_lines
    monkeypatch.setattr(textmodel, "_build_lines",
                        lambda *a, **k: built.append(1) or build(*a, **k))
    cfg = CONFIGS["smart"]
    for doc in _decoded("plain", "outlined", "skew"):
        assert not doc["raw_annots"] and not doc["segments"]
        assert extract_document(doc, cfg) and built == []
        laid_cfg, boxes = doc["_textboxes"]
        assert laid_cfg == cfg and boxes
        lazy = [textmodel.box_lines(boxes[i]) for i in sorted(boxes)]
        assert len(built) == 1
        eager = textmodel.assemble_word_lines(
            *textmodel.word_box_table([doc["textboxes"][i] for i in sorted(boxes)]),
            cfg.line_y_tolerance)
        assert ([[_comparable(ln) for ln in box] for box in lazy]
                == [[_comparable(ln) for ln in box] for box in eager])
        built.clear()


def test_one_catalog_walk_per_document(monkeypatch):
    """The monolithic parse walks a document's catalog once: prepare_pages
    adopts chapter numbers into the tree finish_document nests on."""
    from libpdf_ray.kernels import document

    walks = []
    walk = document.resolve_catalog
    monkeypatch.setattr(document, "resolve_catalog",
                        lambda doc: walks.append(doc["doc_id"]) or walk(doc))
    docs = _decoded(*DEFAULT_FAMILIES)
    for doc in docs:
        document.extract_document(doc, CONFIGS["smart"])
    assert walks == [doc["doc_id"] for doc in docs]


if __name__ == "__main__":
    import json

    with tempfile.TemporaryDirectory() as work:
        print(json.dumps({c: case_digests(c, os.path.join(work, c)) for c in CASES},
                         indent=4, sort_keys=True))
