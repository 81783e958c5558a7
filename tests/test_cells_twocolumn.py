"""Cell-level table view + two-column reading-order parity."""

from libpdf_ray.config import SMART_CROP_CONFIG
from libpdf_ray.fixtures import build_document
from libpdf_ray.kernels.document import extract_document


def test_two_column_interleaves_by_y():
    """No column detection, like the reference (two_colums_sampe.pdf):
    reading order strictly (page, height − y0)."""
    for i in range(25):
        doc = build_document(i, "twocolumn")
        assert extract_document(doc, SMART_CROP_CONFIG) == doc["expected_spans"]


def test_cells_table(ray_session, small_corpus_dir):
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.stages.views import view_table

    df = view_table(read_corpus(small_corpus_dir), "cells", SMART_CROP_CONFIG).to_pandas()
    assert len(df) > 0
    # cells are 1-based row/col addressed; a position swallowed by a merge
    # produces no Cell (pdfplumber None, tables.py:168-171), while an
    # anchor with no words is a Cell with empty text
    assert (df["row"] >= 1).all() and (df["col"] >= 1).all()
    assert (df["table_idx"] >= 1).all()
    assert df["table_uid"].str.contains("table").all()
    # geometry: each cell inside its page coordinate space
    assert (df["x1"] > df["x0"]).all() and (df["y1"] > df["y0"]).all()

    # cross-check known grids DETECTED from raw segments: 3×3 full grid →
    # 9 cells; 2×2 with merged top row → 3 cells (one spanning both
    # columns); nested case → outer 1×2 (2 cells) + inner 2×2 (4 cells)
    doc = build_document(6, "tables")
    from libpdf_ray.kernels.document import extract_document_full

    _, elements = extract_document_full(doc, SMART_CROP_CONFIG)
    tables = [el for el in elements if el["etype"] == "table"]
    assert sorted(len(t["cells"]) for t in tables) == [2, 3, 4, 9]
    # the merged cell spans both columns
    merged_tbl = next(t for t in tables if len(t["cells"]) == 3)
    wide = next(c for c in merged_tbl["cells"] if c["row"] == 1)
    assert wide["col"] == 1
    assert wide["x1"] == max(c["x1"] for c in merged_tbl["cells"])

    # expected_cells (generator-as-oracle) match the engine cell-for-cell
    got = set()
    table_no = 0
    for el in elements:
        if el["etype"] != "table":
            continue
        table_no += 1
        for c in el["cells"]:
            got.add((el["page"], table_no, c["row"], c["col"], c["text"]))
    exp = {
        (e["page"], e["table_idx"], e["row"], e["col"], e["text"])
        for e in doc["expected_cells"]
    }
    assert got == exp


def test_cell_and_figure_links(ray_session, tmp_path):
    """Cell links resolve to element uids; figure links stay unresolved
    (the reference explorer runs only on paragraphs/tables)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from libpdf_ray.fixtures import build_document
    from libpdf_ray.pipelines.extract import read_corpus
    from libpdf_ray.schema import RAW_DOC_SCHEMA
    from libpdf_ray.stages.views import view_table

    rows = [build_document(i, "tablelinks") for i in range(4)]
    path = str(tmp_path / "tl.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=RAW_DOC_SCHEMA), path)
    df = view_table(read_corpus(path), "links", SMART_CROP_CONFIG).to_pandas()
    cells = df[df["source_kind"] == "cell"]
    figs = df[df["source_kind"] == "figure"]
    assert len(cells) == 4 and len(figs) == 4
    assert (cells["target"] == "chapter.1").all()
    assert (cells["row"] == 1).all() and (cells["col"] == 2).all()
    assert (figs["target"] == "").all()
    assert (df["idx_stop"] > df["idx_start"]).all()
    assert (df["anchor"].str.len() > 0).all()
