"""What a parse task writes besides its span row, from the same model.

The parse task decodes and lays out each document once
(``extract_document_full`` → spans + flat elements).  Every other output a
run asks for is rendered from that one ``(doc, spans, elements)``, in the
same task, inside the same per-document poison-row ``try``:

- rows of the requested relational views (``stages/views.py:VIEWS``),
  written as one parquet file per view per batch under
  ``<views_dir>/<view>/``;
- the nested YAML tree, ``<yaml_dir>/<doc_id>.yaml``
  (``pipelines/yamldump.py:doc_yaml``);
- the visual-debug pages under ``visual_dir``
  (``stages/elements.py:debug_pages``);
- the figure crops under ``media_dir``
  (``state/media_store.py:figure_crops``).

A document whose decode or layout fails writes none of them.  Every file
goes through :func:`write_file` (tmp + rename) under a deterministic name
(the document id, or for a parquet file the digest of its input's identity
and its bytes), so a retried task or a resumed partition overwrites the
same files.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import pyarrow as pa

from ..pipelines.yamldump import doc_yaml
from ..state.media_store import figure_crops
from .elements import RENDER_ELEMENTS, debug_pages
from .views import VIEWS

#: per-document counts a parse task with outputs appends to its span rows
#: (the run summary's ``visual_debug_pages`` / ``media_crops``)
COUNT_COLUMNS = ("visual_debug_pages", "media_crops")


@dataclass(frozen=True)
class Outputs:
    """The side outputs of one run; an empty field means "not asked for"."""

    views: tuple = ()
    views_dir: str = ""
    yaml_dir: str = ""
    visual_dir: str = ""
    visual_format: str = "svg"
    visual_elements: tuple = RENDER_ELEMENTS
    visual_split: bool = False
    media_dir: str = ""
    media_format: str = "png"

    def keys(self) -> list:
        """One entry per output this spec writes, with what decides its
        files.  A resumable partition whose manifest lists every key needs
        no rerun."""
        keys = [f"view {name} {self.views_dir}" for name in self.views]
        if self.yaml_dir:
            keys.append(f"yaml {self.yaml_dir}")
        if self.visual_dir:
            keys.append(
                f"visual_debug {self.visual_dir} {self.visual_format} "
                f"{'split' if self.visual_split else 'page'} "
                f"{','.join(self.visual_elements)}"
            )
        if self.media_dir:
            keys.append(f"media {self.media_dir} {self.media_format}")
        return sorted(keys)


def write_file(path: str, payload) -> None:
    """Atomic side-file write (tmp + rename): a killed or retried task
    never leaves a torn file under the final name."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
    os.replace(tmp, path)


def write_table(out_dir: str, table: pa.Table, source: str) -> None:
    """Write ``table`` as ``<out_dir>/<digest>.parquet``, the digest taken
    over ``source`` (what the table was made from: the task's input paths
    or doc ids, or its write-task index) and the table's bytes.  A retried
    task, or a resumed partition, rewrites the same file; two inputs that
    give byte-identical tables (one PDF copied into two directories) still
    write two files."""
    payload = parquet_bytes(table)
    digest = hashlib.sha1(source.encode("utf-8") + b"\0" + payload)
    write_file(os.path.join(out_dir, digest.hexdigest()[:16] + ".parquet"), payload)


def parquet_bytes(table: pa.Table) -> bytes:
    """``table`` as the bytes of one parquet file."""
    import pyarrow.parquet as pq

    sink = pa.BufferOutputStream()
    pq.write_table(table, sink)
    return sink.getvalue().to_pybytes()


def write_doc_outputs(doc: dict, spans: list, elements: list, cfg,
                      out: Outputs, view_rows: dict) -> tuple:
    """Render and write one document's side files; append its view rows
    to ``view_rows`` (view name → row list) only once everything for the
    document succeeded.  Returns (visual-debug pages, figure crops)."""
    rows = {name: list(VIEWS[name][1](doc, elements, cfg)) for name in out.views}
    files = []
    if out.yaml_dir:
        files.append((os.path.join(out.yaml_dir, f"{doc['doc_id']}.yaml"),
                      doc_yaml(spans, elements)))
    pages = crops = []
    if out.visual_dir:
        pages = debug_pages(doc, elements, out.visual_elements,
                            out.visual_split, out.visual_format)
        files += [(os.path.join(out.visual_dir, p), b) for p, b in pages]
    if out.media_dir:
        crops = figure_crops(doc, elements, out.media_format)
        files += [(os.path.join(out.media_dir, p), b) for p, b in crops]
    for path, payload in files:
        write_file(path, payload)
    for name, r in rows.items():
        view_rows[name].extend(r)
    # "both" writes an svg + png pair per page render / per crop
    return (len(pages) // (2 if out.visual_format == "both" else 1),
            len(crops) // (2 if out.media_format == "both" else 1))


def write_views(view_rows: dict, out: Outputs, source: str) -> None:
    """One parquet file per view for a batch (see :func:`write_table`); a
    view with no rows in the batch writes nothing."""
    for name, rows in view_rows.items():
        if rows:
            write_table(os.path.join(out.views_dir, name),
                        pa.Table.from_pylist(rows, schema=VIEWS[name][0]), source)
