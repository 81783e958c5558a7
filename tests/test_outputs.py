"""Every output from one parse pass per document (``stages/outputs.py``).

The parse task is the only place a run decodes and lays out a document:
its span row, view rows, YAML tree, visual-debug pages and figure crops
all come from the one ``extract_document_full`` call, inside the one
poison-row ``try``.
"""

import glob
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
from libpdf_ray.kernels.pdfwrite import write_pdf
from libpdf_ray.schema import RAW_DOC_SCHEMA
from libpdf_ray.stages.outputs import Outputs
from libpdf_ray.stages.parse import parse_batch
from libpdf_ray.stages.pdf_decoder import PdfByteDecoder
from libpdf_ray.stages.views import VIEWS, view_batch

POISON = b"%PDF-1.4 garbage"


def _pdf_batch(docs, extra=()):
    ids = [d["doc_id"] for d in docs] + [i for i, _ in extra]
    data = [write_pdf(d) for d in docs] + [b for _, b in extra]
    return pa.table({"doc_id": ids, "pdf_bytes": pa.array(data, pa.binary())})


def _all_outputs(root):
    return Outputs(
        views=tuple(VIEWS), views_dir=os.path.join(root, "views"),
        yaml_dir=os.path.join(root, "yaml"),
        visual_dir=os.path.join(root, "dbg"), visual_format="both",
        media_dir=os.path.join(root, "media"), media_format="both",
    )


def _files(root):
    return sorted(os.path.relpath(p, root) for p in glob.glob(
        os.path.join(root, "**", "*.*"), recursive=True))


def _span_rows(out):
    return [r for f in sorted(glob.glob(os.path.join(out, "part-*", "*.parquet")))
            for r in pq.read_table(f).to_pylist()]


def _view_rows(root, name):
    files = glob.glob(os.path.join(root, "views", name, "*.parquet"))
    return [r for f in sorted(files) for r in pq.read_table(f).to_pylist()]


@pytest.fixture
def counted(monkeypatch):
    """Call counters around ``decode_pdf_document`` and
    ``extract_document_full``, wherever a libpdf_ray module bound them."""
    import libpdf_ray.kernels.document as document
    import libpdf_ray.stages.pdf_decoder as pdf_decoder

    calls = {"decode_pdf_document": 0, "extract_document_full": 0}
    for owner, name in ((pdf_decoder, "decode_pdf_document"),
                        (document, "extract_document_full")):
        orig = getattr(owner, name)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("libpdf_ray")
                    and getattr(mod, name, None) is orig):
                monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_one_decode_and_one_layout_per_document(counted, tmp_path):
    docs = [build_document(200 + i, DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)])
            for i in range(8)]
    batch = _pdf_batch(docs)
    out = parse_batch(batch, SMART_CROP_CONFIG, decoder=PdfByteDecoder(),
                      outputs=_all_outputs(str(tmp_path)))
    assert out.column("error").to_pylist() == [""] * len(docs)
    assert counted == {"decode_pdf_document": len(docs),
                       "extract_document_full": len(docs)}
    # every asked-for output really was written
    files = _files(str(tmp_path))
    for d in docs:
        assert f"yaml/{d['doc_id']}.yaml" in files
        assert any(f.startswith(f"dbg/{d['doc_id']}/") for f in files)
    assert any(f.startswith("media/") for f in files)
    assert sum(out.column("media_crops").to_pylist()) > 0
    for name in ("elements", "file_meta", "pages", "text_styles"):
        assert _view_rows(str(tmp_path), name)

    # the driver's view API: one decode per doc, and no layout at all for
    # the views that read the decoded document alone
    counted.update(decode_pdf_document=0, extract_document_full=0)
    for name in ("file_meta", "pages"):
        assert view_batch(batch, name, SMART_CROP_CONFIG).num_rows > 0
    assert counted == {"decode_pdf_document": 2 * len(docs),
                       "extract_document_full": 0}


def test_poison_pdf_writes_no_side_outputs(ray_session, tmp_path, capsys):
    good = build_document(206, "figures")
    batch = _pdf_batch([good], extra=[("poison", POISON)])
    root = str(tmp_path / "task")
    out = parse_batch(batch, SMART_CROP_CONFIG, decoder=PdfByteDecoder(),
                      outputs=_all_outputs(root))
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows["poison"]["error"] == "RuntimeError: PdfError: no /Root catalog found"
    assert rows["poison"]["visual_debug_pages"] == rows["poison"]["media_crops"] == 0
    assert rows[good["doc_id"]]["error"] == ""
    assert rows[good["doc_id"]]["media_crops"] > 0
    # no YAML file, no page, no crop and no view row for the poison doc
    files = _files(root)
    assert not [f for f in files if "poison" in f]
    assert f"yaml/{good['doc_id']}.yaml" in files
    for name in VIEWS:
        assert {r["doc_id"] for r in _view_rows(root, name)} <= {good["doc_id"]}
    assert [r["doc_id"] for r in _view_rows(root, "file_meta")] == [good["doc_id"]]
    assert view_batch(batch, "file_meta", SMART_CROP_CONFIG).column(
        "doc_id").to_pylist() == [good["doc_id"]]

    # the -f yaml run counts the poison doc as an error and writes no tree
    from libpdf_ray.__main__ import main

    corpus = tmp_path / "pdfs"
    corpus.mkdir()
    (corpus / f"{good['doc_id']}.pdf").write_bytes(write_pdf(good))
    (corpus / "poison.pdf").write_bytes(POISON)
    yaml_out = str(tmp_path / "yaml")
    capsys.readouterr()
    assert main([str(corpus), "-o", yaml_out, "-f", "yaml",
                 "--input-format", "pdf", "--smart-page-crop"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (summary["documents"], summary["errors"]) == (2, 1)
    # one YAML tree, for the good document, beside the run's manifests
    assert sorted(os.listdir(yaml_out)) == ["_manifest", f"{good['doc_id']}.yaml"]


def test_views_run_survives_a_document_whose_layout_raises(ray_session, tmp_path):
    """A layout error is the doc's span error row, not a dead ``--views``
    run; the doc contributes no element-derived view rows."""
    from libpdf_ray.__main__ import main

    docs = [build_document(900 + i, "skew", skew_pages=12) for i in range(3)]
    docs[1]["outline_nodes"][0]["title"] = None
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(pa.Table.from_pylist(docs, schema=RAW_DOC_SCHEMA),
                   str(corpus / "part-0000.parquet"))
    out = str(tmp_path / "out")
    assert main([str(corpus), "-o", out, "--smart-page-crop",
                 "--views", "elements,cells,links,file_meta"]) == 0
    spans = _span_rows(out)
    errors = {r["doc_id"]: r["error"] for r in spans}
    assert errors[docs[1]["doc_id"]].startswith("AttributeError")
    assert [errors[d["doc_id"]] for d in (docs[0], docs[2])] == ["", ""]
    ok = {docs[0]["doc_id"], docs[2]["doc_id"]}
    for name in ("elements", "file_meta"):
        assert {r["doc_id"] for r in _view_rows(out, name)} == ok


def test_task_view_rows_equal_view_batch(tmp_path):
    """The parse task's view files hold exactly the rows ``view_batch``
    gives for the same batch (the driver's view API), on sidecar rows and
    on PDF bytes."""
    from libpdf_ray.fixtures import corpus_table

    for i, (batch, decoder) in enumerate((
        (corpus_table(16, skew_pages=6), None),
        (_pdf_batch([build_document(100, "rects"), build_document(317, "tables"),
                     build_document(206, "figures")]), PdfByteDecoder()),
    )):
        root = str(tmp_path / str(i))
        parse_batch(batch, SMART_CROP_CONFIG, decoder=decoder,
                    outputs=Outputs(views=tuple(VIEWS),
                                    views_dir=os.path.join(root, "views")))
        for name in VIEWS:
            assert _view_rows(root, name) == view_batch(
                batch, name, SMART_CROP_CONFIG).to_pylist(), name


def test_identical_pdfs_in_two_directories_keep_both_rows(ray_session, tmp_path):
    """Two copies of one PDF (same doc id, same bytes, one per block) give
    byte-identical span and view tables; both are written, not one over
    not one over the other."""
    from libpdf_ray.__main__ import main

    data = write_pdf(build_document(206, "figures"))
    for sub in ("a", "b"):
        (tmp_path / "pdfs" / sub).mkdir(parents=True)
        (tmp_path / "pdfs" / sub / "doc.pdf").write_bytes(data)
    out = str(tmp_path / "out")
    assert main([str(tmp_path / "pdfs"), "-o", out, "--input-format", "pdf",
                 "--smart-page-crop", "--views", "elements,file_meta",
                 "--batch-size", "1"]) == 0
    spans = _span_rows(out)
    assert [r["doc_id"] for r in spans] == ["doc", "doc"]
    assert len(_view_rows(out, "file_meta")) == 2
    one = view_batch(pa.table({"doc_id": ["doc"], "pdf_bytes": [data]}),
                     "elements", SMART_CROP_CONFIG).to_pylist()
    assert one
    assert (sorted(tuple(r.items()) for r in _view_rows(out, "elements"))
            == sorted(tuple(r.items()) for r in one * 2))
