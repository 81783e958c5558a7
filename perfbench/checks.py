"""Output checks: every document's output row must match its expected
digest; a planted poison file must yield exactly one row.

The digests come from the generator (``expected_spans``, the HTML source
text) or, for the two PDF families whose byte round trip differs by
design, from the single-threaded in-process reference (see corpora.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from corpora import html_output_digest, spans_digest


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    error_rows: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def fail(self, doc_id: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{doc_id}: {why}")


def read_rows(files: list) -> list:
    """(doc_id, spans, error) for every row of the output parquet files."""
    import pyarrow.parquet as pq

    rows = []
    for f in files:
        t = pq.read_table(f, columns=["doc_id", "spans", "error"])
        rows.extend(zip(*(t.column(c).to_pylist() for c in t.column_names)))
    return rows


def check_rows(leg: str, rows: list, expected: dict) -> CheckResult:
    """Compare output rows against ``expected`` (doc_id → digest | poison)."""
    res = CheckResult(attempted=len(expected))
    digest = html_output_digest if leg == "html" else spans_digest
    seen: dict = {}
    for doc_id, spans, error in rows:
        seen[doc_id] = seen.get(doc_id, 0) + 1
        if error:
            res.error_rows += 1
        want = expected.get(doc_id)
        if want is None:
            res.fail(doc_id, "row for a document not in the corpus")
        elif seen[doc_id] > 1:
            res.fail(doc_id, f"{seen[doc_id]} rows")
        elif want == "poison":
            continue  # any single row (error or recovered spans) is fine
        elif error:
            res.fail(doc_id, f"error row: {error}")
        elif digest(spans or []) != want:
            res.fail(doc_id, "spans differ from the expected output")
    for doc_id in expected:
        if doc_id not in seen:
            res.fail(doc_id, "missing from the output")
    return res


def self_test(work: str) -> list:
    """Plant wrong outputs at toy size; every one must be rejected.

    Returns a list of failures of the checker itself (empty = good)."""
    import copy
    import os
    import shutil

    import corpora
    import legs

    bad = []
    for leg, wl in (("sidecar", "sidecar_skewed"), ("pdf", "pdf_small"),
                    ("html", "html_pages")):
        base = corpora.WORKLOADS[wl]
        toy = corpora.Workload(f"selftest_{leg}", leg, _toy_size(base))
        corpus = corpora.ensure_corpus(work, toy, seed=1)
        out = os.path.join(work, "selftest", leg)
        shutil.rmtree(out, ignore_errors=True)
        legs.replay(leg, os.path.join(corpus, "input"), out)
        expected = corpora.load_expected(corpus)
        rows = read_rows(legs.output_files(leg, out))
        if not check_rows(leg, rows, expected).ok:
            bad.append(f"{leg}: correct toy output rejected")
        victim = next(i for i, r in enumerate(rows) if expected[r[0]] != "poison")
        doc_id, spans, error = rows[victim]
        wrong = copy.deepcopy(spans)
        wrong[-1]["text"] += " planted"
        plants = {
            "one wrong span text": rows[:victim] + [(doc_id, wrong, error)]
            + rows[victim + 1:],
            "one document missing": rows[:victim] + rows[victim + 1:],
            "one document twice": rows + [rows[victim]],
            "one error row": rows[:victim] + [(doc_id, [], "ValueError: x")]
            + rows[victim + 1:],
        }
        for what, planted in plants.items():
            if check_rows(leg, planted, expected).ok:
                bad.append(f"{leg}: {what} was accepted")
    return bad


def _toy_size(wl) -> dict:
    size = dict(wl.size)
    if "n_docs" in size:
        size["n_docs"] = 8 if wl.leg == "sidecar" else 6
    if "shards" in size:
        size["shards"] = 2
    return size
