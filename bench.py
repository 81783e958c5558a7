"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
    {"metric": "...", "value": <total sec>, "unit": "sec",
     "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
     "docs_per_sec_extract": ...}

``--scaling``: runs the headline extraction twice in fresh processes
(num_cpus=8 then num_cpus=32) on the same input and reports both
throughputs + scaling efficiency (the sandbox proxy for N vs 4N nodes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_CORPUS = os.environ.get("BENCH_CORPUS", "/tmp/libpdf_ray_bench_corpus")
BENCH_DOCS = int(os.environ.get("BENCH_DOCS", "4200"))
BENCH_SKEW_PAGES = int(os.environ.get("BENCH_SKEW_PAGES", "100"))
BENCH_PDF_DOCS = int(os.environ.get("BENCH_PDF_DOCS", "600"))


def _sf_label(path: str) -> float:
    import re

    m = re.search(r"sf([0-9.]+)", path)
    return float(m.group(1)) if m else 0.0


def _ensure_corpus() -> str:
    from libpdf_ray.fixtures import DEFAULT_FAMILIES, write_corpus

    # mixed corpus with a heavy skew tail: ~21% are 100-page outlined
    # manuals (~216 ms extraction each — difflib chapter matching), the
    # rest 1-3 page docs (~1 ms) — the 1-page-flyer / 5000-page-manual
    # shape of the north rule at test scale
    families = DEFAULT_FAMILIES + ("skew", "skew")
    # dir keyed by params: a stale corpus with different params must never
    # share a directory (read_parquet globs every shard in the dir)
    from libpdf_ray.schema import SCHEMA_VERSION

    out = f"{BENCH_CORPUS}_v{SCHEMA_VERSION}_n{BENCH_DOCS}_k{BENCH_SKEW_PAGES}"
    return write_corpus(out, n_docs=BENCH_DOCS, seed=42, shards=16,
                        skew_pages=BENCH_SKEW_PAGES, families=families)


def _ensure_pdf_corpus() -> str:
    """Deterministic on-disk corpus of REAL PDF files (fixture docs
    rendered by kernels/pdfwrite; cached across runs by param key)."""
    import glob

    from libpdf_ray.fixtures import DEFAULT_FAMILIES, build_document
    from libpdf_ray.kernels.pdfwrite import write_pdf
    from libpdf_ray.schema import SCHEMA_VERSION

    out = f"{BENCH_CORPUS}_pdf_v{SCHEMA_VERSION}_n{BENCH_PDF_DOCS}"
    if len(glob.glob(os.path.join(out, "*.pdf"))) == BENCH_PDF_DOCS:
        return out
    os.makedirs(out, exist_ok=True)
    for i in range(BENCH_PDF_DOCS):
        fam = DEFAULT_FAMILIES[i % len(DEFAULT_FAMILIES)]
        doc = build_document(i, fam, skew_pages=8)
        path = os.path.join(out, f"{doc['doc_id']}.pdf")
        if not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(write_pdf(doc))
    return out


def run_benchmarks() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from libpdf_ray.ops.util import tune_data_context

    tune_data_context()

    corpus = _ensure_corpus()

    from libpdf_ray.config import SMART_CROP_CONFIG
    from libpdf_ray.ops import relational as R
    from libpdf_ray.pipelines.extract import (
        extract_spans_fused,
        read_corpus,
    )

    # warm-up (untimed): spin up the full Python worker pool (worker
    # cold-start is ~2-5 s per process and would otherwise land inside the
    # first timed pipeline) and pull the corpus through the OS page cache
    ray.data.range(
        NUM_CPUS * 1000, override_num_blocks=NUM_CPUS * 2
    ).map_batches(lambda b: b, batch_format="pyarrow").count()
    read_corpus(corpus).count()

    timings: dict = {}
    raw_runs: dict = {}
    n_docs = 0

    def timed(name, fn):
        # min-of-2 for EVERY stage (uniform protocol — the r2 bench applied
        # it to extract only, which biased the headline; both raw draws are
        # recorded): this host's neighbor noise swings wall time up to 2x
        # between minutes (BASELINE.md series) and a single unlucky draw
        # would read as an engine regression
        t0 = time.time()
        out = fn()
        r1 = round(time.time() - t0, 3)
        t0 = time.time()
        fn()
        r2 = round(time.time() - t0, 3)
        timings[name] = min(r1, r2)
        raw_runs[name] = [r1, r2]
        return out

    # headline: full extraction of the interleaved corpus (fused
    # read+parse: one task per row-group fragment — only span outputs
    # enter the object store; see extract_spans_fused docstring).
    # Run twice, report the min: this host's neighbor noise swings wall
    # time up to 2x between minutes (BASELINE.md series) and a single
    # unlucky draw would read as an engine regression; both raw values
    # are recorded.
    def _extract():
        ds = extract_spans_fused(corpus, SMART_CROP_CONFIG)
        return ds.count()

    n_docs = timed("extract", _extract)
    extract_runs = raw_runs["extract"]

    if os.environ.get("BENCH_ONLY") == "extract":
        ray.shutdown()
        total = round(sum(timings.values()), 3)
        return {
            "metric": "extraction headline wall time",
            "value": total,
            "unit": "sec",
            "queries": timings,
            "query_runs": raw_runs,
            "sf": _sf_label(SF_DIR),
            "num_cpus": NUM_CPUS,
            "n_docs_extracted": n_docs,
            "extract_runs": extract_runs,
            "docs_per_sec_extract": round(n_docs / timings["extract"], 2),
        }

    # real-PDF byte path: a cached synthetic PDF corpus (fixture docs
    # rendered by kernels/pdfwrite) read by read_pdf_files inside the
    # PdfByteDecoder parse task — the deployment shape for actual PDF files
    pdf_dir = _ensure_pdf_corpus()
    from libpdf_ray.pipelines.extract import extract_spans
    from libpdf_ray.stages.pdf_decoder import PdfByteDecoder, read_pdf_files

    n_pdf = timed(
        "pdf_extract",
        lambda: extract_spans(
            read_pdf_files(pdf_dir), SMART_CROP_CONFIG,
            decoder=PdfByteDecoder(),
        ).count(),
    )

    # HTML main-content path: documents rendered into page chrome and
    # DOM-extracted back (ops/html.py) — reported separately like pdf
    from libpdf_ray.ops.html import q_html_main_text

    n_html = timed(
        "html_extract", lambda: q_html_main_text(SF_DIR).count()
    )

    # relational / training-data headliners over $GRAFT_SF_DIR
    timed("pricing_summary", lambda: R.q_pricing_summary(SF_DIR).to_pandas())
    timed("top_customers", lambda: R.q_top_customers(SF_DIR).to_pandas())
    timed("events_sessions", lambda: R.q_events_sessions(SF_DIR).to_pandas())
    timed("exact_dedup", lambda: R.q_exact_dedup(SF_DIR).count())
    timed("token_counts", lambda: R.q_token_counts(SF_DIR).to_pandas())
    timed("knn_bruteforce", lambda: R.q_knn(SF_DIR).to_pandas())

    ray.shutdown()

    control = _noise_control()

    # the summed headline stays comparable with earlier rounds: the new
    # real-PDF stage reports separately (pdf_extract_sec / docs_per_sec_pdf)
    total = round(
        sum(v for k, v in timings.items()
            if k not in ("pdf_extract", "html_extract")), 3
    )
    return {
        "metric": "headline pipelines wall time (extract + relational suite)",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "query_runs": raw_runs,
        "sf": _sf_label(SF_DIR),
        "num_cpus": NUM_CPUS,
        "n_docs_extracted": n_docs,
        "extract_runs": extract_runs,
        "docs_per_sec_extract": round(n_docs / timings["extract"], 2)
        if timings.get("extract")
        else None,
        "n_pdfs_extracted": n_pdf,
        "pdf_extract_sec": timings.get("pdf_extract"),
        "docs_per_sec_pdf": round(n_pdf / timings["pdf_extract"], 2)
        if timings.get("pdf_extract")
        else None,
        "n_html_extracted": n_html,
        "html_extract_sec": timings.get("html_extract"),
        "docs_per_sec_html": round(n_html / timings["html_extract"], 2)
        if timings.get("html_extract")
        else None,
        "noise_control": control,
    }


def _noise_control() -> dict:
    """Fixed Ray-free multiprocessing control recorded alongside every suite
    run: the same deterministic numpy workload (600x600 matmul x60, one
    task per CPU) on the bare host.  ``par_inflation`` — mean parallel task
    time over serial task time — is the host's concurrency tax at bench
    time; on a quiet host it reads ~1.0-1.2, during neighbor-noise windows
    it reads 1.5-2x+ (BASELINE.md series).  Lets any reader separate engine
    regressions from host contention in the recorded number."""
    import multiprocessing as mp

    import numpy as np

    serial = _burn(0)
    with mp.Pool(NUM_CPUS) as pool:
        t0 = time.time()
        tasks = pool.map(_burn, range(NUM_CPUS))
        wall = round(time.time() - t0, 3)
    mean_task = round(sum(tasks) / len(tasks), 3)
    return {
        "serial_task_sec": round(serial, 3),
        "parallel_wall_sec": wall,
        "parallel_mean_task_sec": mean_task,
        "par_inflation": round(mean_task / serial, 3) if serial else None,
        "n_procs": NUM_CPUS,
    }


def _burn(_i) -> float:
    import numpy as np

    a = np.random.default_rng(0).random((600, 600))
    t0 = time.time()
    for _ in range(60):
        a = a @ a
        a /= np.abs(a).max() + 1.0  # keep values bounded
    return time.time() - t0


def _control_scaling(lo: int, hi: int) -> dict:
    """Host scaling CEILING in this minute: the same fixed bag of ``2*hi``
    deterministic numpy tasks through a pool of ``lo`` procs, then of
    ``hi`` procs.  A perfectly isolated host gives wall_lo/wall_hi =
    hi/lo (efficiency 1.0); neighbor contention caps it lower — and caps
    the ENGINE's achievable ratio identically, which is why each scaling
    draw pairs the engine ratio with this one from the same minute."""
    import multiprocessing as mp

    n_tasks = 2 * hi

    def pool_wall(procs: int) -> float:
        with mp.Pool(procs) as pool:
            t0 = time.time()
            pool.map(_burn, range(n_tasks))
            return time.time() - t0

    wall_lo = pool_wall(lo)
    wall_hi = pool_wall(hi)
    eff = (wall_lo / wall_hi) / (hi / lo)
    return {
        "control_wall_low": round(wall_lo, 3),
        "control_wall_high": round(wall_hi, 3),
        "control_efficiency": round(eff, 3),
    }


def run_scaling() -> dict:
    """Same job at num_cpus=N and 4N in fresh processes — PAIRED with a
    Ray-free multiprocessing control measured in the same minute.

    Default levels are 2 → 8 (override with SCALE_CPUS_LOW/HIGH): a pure
    multiprocessing control shows this VM inflates per-task time ~21% at 8
    concurrent procs, ~30% at 16 and ~43% at 32 (BASELINE.md) — host
    contention, not engine behavior.  2→8 is the widest N→4N pair inside
    the host's linear regime, where the ratio measures the ENGINE.

    Each draw reports three numbers (round-4 verdict, next #6):
    ``scaling_efficiency`` (engine), ``control_efficiency`` (the host's
    same-minute ceiling), and ``paired_ratio`` = engine/control — the
    bar-relevant figure: a paired_ratio ≥ 0.8 means the engine achieves
    ≥ 80% of what ANY parallel program could achieve on this host right
    now.  ``SCALE_DRAWS`` (default 1) repeats the whole pairing and adds
    a median row.
    """

    def run(ncpu: int) -> dict:
        # scaling compares the headline extraction only ("run the headline
        # pipeline twice"); the full suite runs in the plain mode
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_ONLY="extract")
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo = int(os.environ.get("SCALE_CPUS_LOW", "2"))
    hi = int(os.environ.get("SCALE_CPUS_HIGH", "8"))
    n_draws = int(os.environ.get("SCALE_DRAWS", "1"))
    draws = []
    for _ in range(n_draws):
        # control brackets the engine pair so both see the same minute
        ctrl = _control_scaling(lo, hi)
        r_lo, r_hi = run(lo), run(hi)
        t_lo = r_lo["queries"]["extract"]
        t_hi = r_hi["queries"]["extract"]
        eff = (t_lo / t_hi) / (hi / lo)
        draws.append(
            {
                "extract_sec_low": t_lo,
                "extract_sec_high": t_hi,
                "docs_per_sec_low": r_lo["docs_per_sec_extract"],
                "docs_per_sec_high": r_hi["docs_per_sec_extract"],
                "scaling_efficiency": round(eff, 3),
                **ctrl,
                "paired_ratio": round(eff / ctrl["control_efficiency"], 3)
                if ctrl["control_efficiency"] else None,
            }
        )
    med = sorted(d["scaling_efficiency"] for d in draws)[len(draws) // 2]
    med_paired = sorted(
        d["paired_ratio"] for d in draws if d["paired_ratio"] is not None
    )
    out = {
        "metric": f"extract scaling efficiency (num_cpus {lo} -> {hi}, fresh processes, paired mp control)",
        "cpus_low": lo,
        "cpus_high": hi,
        "draws": draws,
        "scaling_efficiency": med,
        "paired_ratio": med_paired[len(med_paired) // 2] if med_paired else None,
        **{k: draws[-1][k] for k in ("extract_sec_low", "extract_sec_high",
                                     "docs_per_sec_low", "docs_per_sec_high")},
    }
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_benchmarks()))
