"""Spans around calls into each layer's public functions, and the per-layer
report built from them.

A :class:`Tracer` replaces module attributes with timing wrappers for the
duration of one in-process replay, then restores them; nothing in the
library is edited and nothing is traced inside Ray workers.  Spans are kept
in memory as ``(id, parent, name, start, end)`` and written out at the end.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict


#: leg → [(module, attribute, span name)].  Kernel functions are wrapped at
#: their import site in kernels.document, which is where the document
#: layer calls them.
def _layer_hooks(leg: str) -> list:
    import libpdf_ray.kernels.document as document
    import libpdf_ray.stages.parse as parse

    hooks = []
    if leg in ("sidecar", "pdf"):
        from libpdf_ray.kernels import (
            catalog, chapters, headerfooter, links, regions, textmodel,
        )

        hooks.append((parse, "extract_document", "document.extract"))
        hooks.append((document, "prepare_pages", "document.prepare"))
        hooks.append((document, "finish_document", "document.finish"))
        for mod, short in ((textmodel, "textmodel"), (regions, "regions"),
                           (chapters, "chapters"), (links, "links"),
                           (headerfooter, "headerfooter"),
                           (catalog, "catalog")):
            for attr, fn in vars(document).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    hooks.append((document, attr, short))
    if leg == "sidecar":
        from libpdf_ray.stages.decoder import SidecarDecoder

        hooks.append((SidecarDecoder, "decode", "decoder.sidecar"))
    elif leg == "pdf":
        import libpdf_ray.stages.pdf_decoder as pdf_decoder
        from libpdf_ray.kernels.pdfobj import PdfFile
        from libpdf_ray.kernels.pdftext import PageInterpreter

        hooks += [
            (pdf_decoder, "decode_pdf_document", "pdf_decoder.decode"),
            (pdf_decoder, "PdfFile", "pdfobj.open"),
            (PdfFile, "pages", "pdfobj.pages"),
            (PdfFile, "content_bytes", "pdfobj.stream"),
            (PageInterpreter, "run_page", "pdftext.run_page"),
        ]
    else:
        import libpdf_ray.kernels.htmldom as htmldom

        hooks += [
            (htmldom, "extract_blocks", "htmldom.extract"),
            (htmldom, "parse_html", "htmldom.parse"),
        ]
    return hooks


class _Span:
    __slots__ = ("tr", "name", "sid", "parent", "t0")

    def __init__(self, tr, name):
        self.tr, self.name = tr, name

    def __enter__(self):
        tr = self.tr
        self.sid = len(tr.spans) + len(tr.stack)
        self.parent = tr.stack[-1].sid if tr.stack else -1
        tr.stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tr
        tr.stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.t0, t1))
        return False


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.streams: list = []  # content streams seen (pdf leg)
        self._restore: list = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def install(self, leg: str) -> None:
        for owner, attr, name in _layer_hooks(leg):
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name))
            self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, fn, name):
        span = self.span
        keep = self.streams if name == "pdfobj.stream" else None

        def wrapper(*args, **kwargs):
            with span(name):
                out = fn(*args, **kwargs)
            if keep is not None:
                keep.append(out)
            return out

        return wrapper

    # -- report ----------------------------------------------------------

    def self_times(self) -> dict:
        """span name → (self seconds, calls)."""
        child = defaultdict(float)
        for _sid, parent, _name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: [0.0, 0])
        for sid, _parent, name, t0, t1 in self.spans:
            out[name][0] += (t1 - t0) - child[sid]
            out[name][1] += 1
        return dict(out)

    def inclusive(self, name: str) -> float:
        """Total time of the outermost spans called ``name``."""
        names = {sid: n for sid, _p, n, _a, _b in self.spans}
        parents = {sid: p for sid, p, _n, _a, _b in self.spans}
        total = 0.0
        for sid, _p, n, t0, t1 in self.spans:
            if n != name:
                continue
            p = parents[sid]
            while p >= 0 and names.get(p) != name:
                p = parents.get(p, -1)
            if p < 0:
                total += t1 - t0
        return total

    def top_level(self) -> float:
        return sum(t1 - t0 for _s, p, _n, t0, t1 in self.spans if p < 0)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def lex_pass(streams: list) -> tuple:
    """Standalone ContentLexer pass over page content streams:
    (seconds, tokens).  Separates lexing from interpretation inside
    ``PageInterpreter.run_page``."""
    from libpdf_ray.kernels.pdfobj import ContentLexer, PdfError

    tokens = 0
    t0 = time.perf_counter()
    for data in streams:
        lex = ContentLexer(data, 0)
        n = len(data)
        while lex.pos < n:
            try:
                lex.parse()
            except PdfError:
                break
            tokens += 1
    return time.perf_counter() - t0, tokens


def plan_stats(datasets: list) -> dict:
    """Per-operator numbers from ``Dataset.stats()`` summed over the
    executed Datasets: {operator: {tasks, wall_s, udf_s, heap_mb, out_bytes}}.

    Reads the numeric summary behind ``stats()`` (a Ray-internal API; a
    written Dataset keeps its executed plan on ``_write_ds``)."""
    ops: dict = {}
    for ds in datasets:
        ds = getattr(ds, "_write_ds", None) or ds
        todo = [ds._get_stats_summary()]
        while todo:
            summ = todo.pop()
            todo.extend(summ.parents or [])
            for op in summ.operators_stats:
                rec = ops.setdefault(op.operator_name, dict(
                    tasks=0, wall_s=0.0, udf_s=0.0, heap_mb=0.0, out_bytes=0))
                rec["tasks"] += int((op.task_rows or {}).get("count", 0))
                rec["wall_s"] += float((op.wall_time or {}).get("sum", 0.0))
                rec["udf_s"] += float((op.udf_time or {}).get("sum", 0.0))
                rec["heap_mb"] = max(rec["heap_mb"],
                                     float((op.memory or {}).get("max", 0.0)))
                rec["out_bytes"] += int((op.output_size_bytes or {}).get("sum", 0))
    return ops


#: per-layer metrics every workload reports (the BENCHMARK.json
#: ``per_layer`` list), with units
COMMON_LAYERS = {
    "io.read_s": "s", "io.read_bytes": "bytes", "decode_s": "s",
    "layout_s": "s", "parse.encode_s": "s", "write_s": "s", "other_s": "s",
    "inproc.docs_per_s": "docs/s", "trace.overhead_frac": "ratio",
    "plan.wall_s": "s", "plan.tasks": "count", "plan.remote_wall_s": "s",
    "plan.udf_s": "s", "plan.sched_s": "s", "plan.ray_overhead_frac": "ratio",
    "plan.peak_heap_mb": "MiB", "plan.out_bytes": "bytes",
}


def layer_metrics(leg: str, tracer, wall: float) -> dict:
    """Module-level metrics of one traced replay, plus the common roll-ups
    (``decode_s``, ``layout_s``, ``write_s``) that exist on every leg."""
    st = tracer.self_times()

    def self_s(name):
        return st.get(name, (0.0, 0))[0]

    # module metrics: self time as ``<span>_s``, call count as ``<span>.calls``
    m = {f"{name}_s": v[0] for name, v in st.items()}
    m.update({f"{name}.calls": v[1] for name, v in st.items()})
    m["io.read_bytes"] = tracer.counts["io.read_bytes"]
    m["parse.encode_s"] = m.pop("parse_s")
    m["other_s"] = wall - tracer.top_level()
    m["accounted_s"] = sum(v[0] for v in st.values()) + m["other_s"]
    m["wall_s"] = wall
    if leg == "sidecar":
        m["decode_s"] = tracer.inclusive("decoder.sidecar")
        m["layout_s"] = tracer.inclusive("document.extract")
        m["write_s"] = self_s("checkpoint.write") + self_s("checkpoint.manifest")
    elif leg == "pdf":
        # decode minus its page, stream and interpreter children
        m["pdf_decoder.catalog_s"] = m.pop("pdf_decoder.decode_s")
        m["pdf_decoder.decode_s"] = m["decode_s"] = tracer.inclusive(
            "pdf_decoder.decode")
        m["layout_s"] = tracer.inclusive("document.extract")
        m["write_s"] = self_s("io.write")
        lex_s, tokens = lex_pass(tracer.streams)
        m["pdftext.lex_s"] = lex_s
        m["pdftext.tokens"] = tokens
        m["pdftext.interpret_s"] = self_s("pdftext.run_page") - lex_s
        m["pdf_decoder.pages"] = st["pdftext.run_page"][1]
    else:
        m["decode_s"] = tracer.inclusive("htmldom.parse")
        m["layout_s"] = self_s("htmldom.extract")
        m["write_s"] = self_s("io.write")
    return m
