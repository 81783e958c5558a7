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
(the document id, or for a view file the name of the batch's work item),
so a retried task overwrites the same files.
"""

from __future__ import annotations

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
        no rerun.  Directories enter as absolute paths, so two spellings
        of one directory (``out`` and ``./out``) are one key."""
        path = os.path.abspath
        keys = [f"view {name} {path(self.views_dir)}" for name in self.views]
        if self.yaml_dir:
            keys.append(f"yaml {path(self.yaml_dir)}")
        if self.visual_dir:
            keys.append(
                f"visual_debug {path(self.visual_dir)} {self.visual_format} "
                f"{'split' if self.visual_split else 'page'} "
                f"{','.join(self.visual_elements)}"
            )
        if self.media_dir:
            keys.append(f"media {path(self.media_dir)} {self.media_format}")
        return sorted(keys)


def write_file(path: str, payload) -> None:
    """Atomic side-file write (tmp + rename): a killed or retried task
    never leaves a torn file under the final name."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
    os.replace(tmp, path)


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


def write_views(view_rows: dict, out: Outputs, name: str) -> None:
    """One parquet file per view for a batch, ``<views_dir>/<view>/<name>.parquet``
    (:func:`view_file`); a view with no rows in the batch writes nothing."""
    for view, rows in view_rows.items():
        if rows:
            write_file(view_file(out, view, name), parquet_bytes(
                pa.Table.from_pylist(rows, schema=VIEWS[view][0])))


def view_file(out: Outputs, view: str, name: str) -> str:
    """The path of a batch's ``view`` file, ``name`` naming the batch."""
    return os.path.join(out.views_dir, view, f"{name}.parquet")
