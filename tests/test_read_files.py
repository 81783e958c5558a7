"""The path-list file reader behind ``read_pdf_files``/``read_html_files``:
its file set and ``doc_id`` rule match ``ray.data.read_binary_files``, and
its read fuses into the caller's parse ``map_batches`` (no ``ReadBinary``
operator, no empty blocks)."""

import os

import pytest

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document


def _tree(root) -> str:
    """.pdf, .PDF, a nested .pdf and a non-matching .txt under ``root``."""
    os.makedirs(os.path.join(root, "sub", "deeper"))
    for rel, data in [("a.pdf", b"%PDF a"), ("B.PDF", b"%PDF B"),
                      ("sub/deeper/c.pdf", b"%PDF c"), ("notes.txt", b"txt")]:
        with open(os.path.join(root, rel), "wb") as fh:
            fh.write(data)
    return str(root)


def _pairs(ds) -> set:
    return {(r["doc_id"], bytes(r["pdf_bytes"])) for r in ds.take_all()}


def test_file_set_matches_read_binary_files(ray_session, tmp_path):
    import ray.data

    from libpdf_ray.ops.util import file_doc_id, list_files
    from libpdf_ray.stages.pdf_decoder import read_pdf_files

    root = _tree(tmp_path / "tree")

    def oracle(paths) -> set:
        return {
            (file_doc_id(r["path"]), r["bytes"])
            for r in ray.data.read_binary_files(
                paths, include_paths=True, file_extensions=["pdf", "PDF"]
            ).take_all()
        }

    # a directory, a single file, and a list mixing a directory, a
    # matching file and a non-matching one
    for paths in [
        root,
        os.path.join(root, "B.PDF"),
        [os.path.join(root, "sub"), os.path.join(root, "a.pdf"),
         os.path.join(root, "notes.txt")],
    ]:
        assert _pairs(read_pdf_files(paths)) == oracle(paths)
    assert len(oracle(root)) == 3
    assert [os.path.relpath(f, root) for f in list_files(root, (".pdf",))] == [
        "B.PDF", "a.pdf", os.path.join("sub", "deeper", "c.pdf")
    ]


def test_empty_or_missing_input_raises(ray_session, tmp_path):
    from libpdf_ray.ops.html import read_html_files
    from libpdf_ray.stages.pdf_decoder import read_pdf_files

    for reader in (read_pdf_files, read_html_files):
        with pytest.raises(ValueError):
            reader(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            reader(str(tmp_path / "missing"))


def _operators(ds) -> list:
    """Names of the operators the executed plan ran, input first."""
    summaries, names = [ds._get_stats_summary()], []
    while summaries:
        s = summaries.pop()
        summaries.extend(s.parents or [])
        names = [op.operator_name for op in s.operators_stats] + names
    return names


def _assert_one_fused_map(ds, parse_udf: str):
    names = _operators(ds.materialize())
    assert not any("ReadBinary" in n for n in names), names
    maps = [n for n in names if "MapBatches" in n]
    assert len(maps) == 1, names
    assert "_read_batch" in maps[0] and parse_udf in maps[0], names


def test_pdf_plan_is_one_fused_map(ray_session, tmp_path):
    from libpdf_ray.kernels.pdfwrite import write_pdf
    from libpdf_ray.pipelines.extract import extract_spans
    from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

    for i in range(3):
        doc = build_document(700 + i, DEFAULT_FAMILIES[i])
        (tmp_path / f"{doc['doc_id']}.pdf").write_bytes(write_pdf(doc))
    _assert_one_fused_map(
        extract_spans(read_pdf_files(str(tmp_path)), SMART_CROP_CONFIG,
                      decoder=PdfByteDecoder()),
        "parse_batch",
    )


def test_html_plan_is_one_fused_map(ray_session, tmp_path):
    import ray

    from libpdf_ray.kernels.htmldom import render_html
    from libpdf_ray.ops.html import html_spans_batch, read_html_files

    for i in range(3):
        (tmp_path / f"p{i}.html").write_text(render_html(f"p{i}", "word " * 9))
    _assert_one_fused_map(
        read_html_files(str(tmp_path)).map_batches(
            html_spans_batch, batch_format="pyarrow", batch_size=64
        ),
        "html_spans_batch",
    )
    # never more blocks than files, so no block is empty
    sizes = [ray.get(ref).num_rows
             for ref in read_html_files(str(tmp_path)).to_arrow_refs()]
    assert 0 < len(sizes) <= 3 and min(sizes) > 0 and sum(sizes) == 3
