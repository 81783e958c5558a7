"""YAML hierarchical dump (round-4 verdict item 7): reference parity with
``python -m libpdf -f yaml`` (libpdf/process.py:131-186).

Contract: ``flatten_tree(build_doc_tree(spans, elements)) == spans`` for
every fixture family — the nested tree is a lossless reordering of the
span sequence, with chapter nesting from uid paths and link spans attached
to their carrier element.
"""

import pytest
import yaml

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.kernels.document import extract_document_full
from libpdf_ray.pipelines.yamldump import build_doc_tree, flatten_tree


@pytest.mark.parametrize("family", DEFAULT_FAMILIES)
def test_round_trip_spans_tree_spans(family):
    doc = build_document(5, family)
    spans, elements = extract_document_full(doc, SMART_CROP_CONFIG)
    tree = build_doc_tree(spans, elements)
    assert flatten_tree(tree) == spans


def test_nesting_follows_uid_paths():
    doc = build_document(2, "actionoutline")
    spans, elements = extract_document_full(doc, SMART_CROP_CONFIG)
    tree = build_doc_tree(spans, elements)
    # chapter.1 at top level; chapter.1.1 nested inside it, never at root
    top = tree["root"]["content"]
    top_uids = [n["uid"] for n in top]
    assert any(u == "chapter.1" for u in top_uids)
    assert all("/" not in u for u in top_uids)
    ch1 = next(n for n in top if n["uid"] == "chapter.1")
    nested = [n["uid"] for n in ch1.get("content", [])]
    assert any(u.startswith("chapter.1/") for u in nested)


def test_links_attach_to_carrier_element():
    doc = build_document(5, "linked")
    spans, elements = extract_document_full(doc, SMART_CROP_CONFIG)
    tree = build_doc_tree(spans, elements)
    # every link span lands on the element whose span immediately precedes
    # it, and the total link count is preserved
    n_links_spans = sum(1 for s in spans if s["kind"] == "link")

    def count_links(node):
        n = len(node.get("links", []))
        for c in node.get("content", []):
            n += count_links(c)
        return n

    assert n_links_spans > 0
    assert count_links(tree["root"]) == n_links_spans
    # and the round trip still holds with links interleaved
    assert flatten_tree(tree) == spans


def test_yaml_serializes_and_parses_back():
    doc = build_document(3, "outlined")
    spans, elements = extract_document_full(doc, SMART_CROP_CONFIG)
    tree = build_doc_tree(spans, elements)
    text = yaml.safe_dump(tree, sort_keys=False, allow_unicode=True)
    assert flatten_tree(yaml.safe_load(text)) == spans


def test_misalignment_raises():
    doc = build_document(5, "plain")
    spans, elements = extract_document_full(doc, SMART_CROP_CONFIG)
    with pytest.raises(ValueError):
        build_doc_tree(spans, elements[:-1])  # an element short
    bad = [dict(e, etype="figure") for e in elements]
    with pytest.raises(ValueError):
        build_doc_tree(spans, bad)


def test_distributed_yaml_dump_and_cli(ray_session, tmp_path):
    """The CLI --format yaml run writes one parseable tree per doc from the
    parse pass, and each round-trips to the extraction kernel's spans."""
    import json

    from libpdf_ray.__main__ import main
    from libpdf_ray.fixtures import write_corpus

    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "yaml_out")
    write_corpus(corpus, n_docs=8, seed=42, shards=2, skew_pages=6)

    rc = main([corpus, "-o", out, "--format", "yaml", "--smart-page-crop",
               "--batch-size", "4"])
    assert rc == 0

    import glob
    import os

    files = sorted(glob.glob(os.path.join(out, "*.yaml")))
    assert len(files) == 8
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
        doc_idx = int(os.path.basename(path).split("-")[1].split(".")[0])
        expect = build_document(
            doc_idx, DEFAULT_FAMILIES[doc_idx % len(DEFAULT_FAMILIES)],
            skew_pages=6,
        )["expected_spans"]
        assert flatten_tree(tree) == expect
