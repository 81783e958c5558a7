"""Hierarchical YAML dump — parity with ``python -m libpdf -f yaml``.

The reference's primary output is one YAML file per PDF holding the nested
object tree ``{"root": {... chapters contain their content ...}}``
(``/root/reference/libpdf/process.py:131-186`` via ``to_dict_output``'s
recursive model walk).  The engine's scale output is relational span/view
parquet; this mode reconstructs the reference's NESTED tree per document —
chapter nesting from the elements' uid paths (``chapter.1/chapter.1.1/
paragraph.2``), link spans attached to their carrier element — and writes
one YAML file per document.

Written by the parse task (``stages/outputs.py``) from the document model
it already built for the span row: :func:`doc_yaml` per document, one
``<doc_id>.yaml`` each, through the same atomic tmp+rename writer as every
other side file (idempotent on retry).  A debugging/hand-off format: at
corpus scale the parquet views remain the real sink, so files-per-doc
fan-out is acceptable here.

The tree is built by the pure, unit-tested pair :func:`build_doc_tree` /
:func:`flatten_tree`, with the round-trip contract

    flatten_tree(build_doc_tree(spans, elements)) == spans

pinned for every fixture family (``tests/test_yamldump.py``).
"""

from __future__ import annotations


def build_doc_tree(spans: list, elements: list) -> dict:
    """Ordered (spans, elements) of ONE document → nested reference tree.

    ``elements`` (from ``extract_document_full``) align 1:1 with the
    non-link spans, in document order; a ``link`` span is an attribute of
    the element preceding it (reference: links live on textbox elements,
    not in the element tree — libpdf/models/link.py).  Nesting comes from
    each element's uid path: ``a/b/c`` hangs under the node with uid
    ``a/b`` (parents always precede children in document order)."""
    root: dict = {"type": "root", "content": []}
    by_path: dict = {"": root}
    out_nodes: list = []
    j = 0
    for sp in spans:
        if sp["kind"] == "link":
            carrier = out_nodes[-1] if out_nodes else root
            carrier.setdefault("links", []).append(
                {"text": sp["text"], "media_ref": sp["media_ref"]}
            )
            continue
        if j >= len(elements):
            raise ValueError(
                f"span/element misalignment: span {sp['kind']!r} at offset "
                f"{sp.get('offset')} has no element"
            )
        el = elements[j]
        j += 1
        if el["etype"] != sp["kind"]:
            raise ValueError(
                f"span/element misalignment: span kind {sp['kind']!r} vs "
                f"element {el['uid']!r} ({el['etype']!r})"
            )
        node = {
            "type": el["etype"],
            "uid": el["uid"],
            "text": sp["text"],
            "media_ref": sp["media_ref"],
            "page": int(el["page"]) if el.get("page") is not None else None,
        }
        parent_path = el["uid"].rsplit("/", 1)[0] if "/" in el["uid"] else ""
        parent = by_path.get(parent_path, root)
        parent.setdefault("content", []).append(node)
        by_path[el["uid"]] = node
        out_nodes.append(node)
    if j != len(elements):
        raise ValueError(f"{len(elements) - j} element(s) without a span")
    return {"root": root}


def flatten_tree(tree: dict) -> list:
    """Inverse of :func:`build_doc_tree`: depth-first walk re-emitting the
    original ordered span list (offsets re-densified by emission order)."""
    out: list = []

    def emit_links(node):
        for link in node.get("links", []):
            out.append(
                {
                    "kind": "link",
                    "text": link["text"],
                    "media_ref": link["media_ref"],
                    "offset": len(out),
                }
            )

    def walk(node):
        for child in node.get("content", []):
            out.append(
                {
                    "kind": child["type"],
                    "text": child["text"],
                    "media_ref": child["media_ref"],
                    "offset": len(out),
                }
            )
            emit_links(child)
            walk(child)

    emit_links(tree["root"])  # pre-content links (defensive; normally none)
    walk(tree["root"])
    return out


def doc_yaml(spans: list, elements: list) -> str:
    """One document's YAML file text: its :func:`build_doc_tree`, dumped."""
    import yaml

    return yaml.safe_dump(build_doc_tree(spans, elements), sort_keys=False,
                          allow_unicode=True, width=100)
