#!/usr/bin/env python3
"""Extraction benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload sidecar_skewed --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` times the CLI's Ray plan and
prints the end-to-end metrics; ``--trace 1`` prints the per-layer metrics
of a traced in-process replay plus one extra Ray run.  The last stdout line
is one JSON object ``{correct, attempted, failed, metrics}``; the exit code
is non-zero when any output is wrong.  ``--self-test`` plants wrong outputs
at toy size and checks that the checker rejects every one.

Generated corpora, outputs, traces and run records go under ``.perfbench/``
at the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
#: Ray sessions per timed run; setup_s is the median of their set-ups
SESSIONS = 3
#: minimum untraced and traced replays per traced run
MIN_REPLAYS = 3
OBJECT_STORE_BYTES = 512 * 2**20
#: AF_UNIX socket paths are capped at 107 bytes; Ray appends ~62
RAY_TEMP_MAX = 44


def nproc() -> int:
    """CPUs as ``nproc`` counts them: OMP_NUM_THREADS, if set, caps the
    CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(cpus, int(omp)) if omp.isdigit() and int(omp) > 0 else cpus


def parse_args(argv):
    import corpora

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(corpora.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    return args


# -- Ray session ---------------------------------------------------------


class RaySession:
    """One Ray session of ``nproc`` CPUs whose processes are all waited for
    at :meth:`stop`."""

    def __init__(self, num_cpus: int):
        import ray

        self.ray = ray
        path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                if p and p not in (ROOT, HERE)]
        # Ray workers import the library and the benchmark modules
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, HERE] + path)
        kwargs = dict(num_cpus=num_cpus, include_dashboard=False,
                      logging_level="ERROR", log_to_driver=False,
                      object_store_memory=OBJECT_STORE_BYTES)
        temp = os.path.join(WORK, "ray")
        # Ray's session files go under the work dir when the socket paths
        # fit, else to Ray's default temp dir
        self.temp = temp if len(temp) <= RAY_TEMP_MAX else None
        if self.temp:
            kwargs["_temp_dir"] = self.temp
        ray.init(**kwargs)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False

    def stop(self):
        from host import descendants, wait_gone

        pids = descendants(os.getpid())
        self.ray.shutdown()
        wait_gone(pids)
        if self.temp:
            shutil.rmtree(self.temp, ignore_errors=True)


def start_and_warm(leg: str, corpus: str, num_cpus: int) -> tuple:
    """Set-up as a user pays it: ``ray.init`` + DataContext + one pass of
    the workload's plan over the tiny ``warm/`` corpus.  (session, s)."""
    import legs

    out = os.path.join(WORK, "out", "warm")
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    session = RaySession(num_cpus)
    legs.run_ray(leg, os.path.join(corpus, "warm"), out)
    return session, time.perf_counter() - t0


def build_corpus(wl, seed: int):
    """Build the corpus in a child process, so the generator's memory never
    shows in the driver's peak resident set.  Returns its dir, or None when
    the in-process reference differs from the pinned one."""
    import subprocess

    import corpora

    path = corpora.corpus_dir(WORK, wl, seed)
    if not os.path.exists(os.path.join(path, "expected.json")):
        code = (f"import sys; sys.path[:0] = {[ROOT, HERE]!r}; import corpora\n"
                f"try:\n    corpora.ensure_corpus({WORK!r}, "
                f"corpora.WORKLOADS[{wl.name!r}], {seed})\n"
                "except corpora.ReferenceMismatch as exc:\n"
                "    sys.exit(f'WRONG OUTPUT {exc}')\n")
        if subprocess.run([sys.executable, "-c", code]).returncode != 0:
            return None
    return corpora.ensure_corpus(WORK, wl, seed)


# -- timed run -----------------------------------------------------------


def timed_run(wl, corpus: str, seconds: float, num_cpus: int) -> dict:
    import checks
    import corpora
    import host
    import legs

    # the driver's own imports are not set-up; load them before timing so
    # the set-ups measure the same thing
    legs.load_plan(wl.leg)
    # each session is set up, runs its share of the timed passes, and is
    # shut down: the passes are spread over the whole run, so a slow spell
    # of a shared host weighs on fewer of them
    setups, walls, outs, rss = [], [], [], []
    spent = 0.0
    for k in range(SESSIONS):
        session, s = start_and_warm(wl.leg, corpus, num_cpus)
        setups.append(s)
        host.reset_peak_rss()
        try:
            share = seconds * (k + 1) / SESSIONS
            # at least one pass per session, whatever ``--seconds`` says
            while spent < share or len(walls) <= k:
                out = os.path.join(WORK, "out", wl.name, f"pass-{len(walls)}")
                shutil.rmtree(out, ignore_errors=True)
                t0 = time.perf_counter()
                legs.run_ray(wl.leg, os.path.join(corpus, "input"), out)
                walls.append(time.perf_counter() - t0)
                spent += walls[-1]
                outs.append(out)
            rss.append(host.peak_rss(os.getpid()))
        finally:
            session.stop()
    expected = corpora.load_expected(corpus)
    total = checks.CheckResult()
    rates = []
    for out, wall in zip(outs, walls):
        rows = checks.read_rows(legs.output_files(wl.leg, out))
        res = checks.check_rows(wl.leg, rows, expected)
        rates.append((len(rows) - res.error_rows) / wall)
        total.attempted += res.attempted
        total.failed += res.failed
        total.error_rows += res.error_rows
        total.problems += res.problems[: 10 - len(total.problems)]
    return {
        "check": total,
        "metrics": {
            "docs_per_s": (statistics.median(rates), "docs/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(max(r.values()) for r in rss), "MiB"),
        },
        "extra": {
            "failed_frac": ((total.error_rows + total.failed) / total.attempted,
                            "ratio"),
            "passes": (len(walls), "count"),
            "pass_wall_s": (statistics.median(walls), "s"),
        },
        "detail": {"setups_s": setups, "pass_walls_s": walls,
                   "peak_rss_mb_by_session": rss},
    }


# -- traced run ----------------------------------------------------------


def traced_run(wl, corpus: str, seconds: float, seed: int,
               num_cpus: int) -> dict:
    import checks
    import corpora
    import legs
    import tracing

    expected = corpora.load_expected(corpus)
    total = checks.CheckResult()

    def check(out):
        res = checks.check_rows(
            wl.leg, checks.read_rows(legs.output_files(wl.leg, out)), expected)
        total.attempted += res.attempted
        total.failed += res.failed
        total.problems += res.problems[: 10 - len(total.problems)]

    # in-process replay: one warm-up, then untraced and traced
    # alternately; medians
    inputs = os.path.join(corpus, "input")
    out = os.path.join(WORK, "out", wl.name, "inproc")
    shutil.rmtree(out, ignore_errors=True)
    legs.replay(wl.leg, inputs, out)
    plain, traced, layer_runs = [], [], []
    tracer = None
    spent = 0.0
    while len(traced) < MIN_REPLAYS or spent < seconds:
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        n_docs = legs.replay(wl.leg, inputs, out)
        plain.append(time.perf_counter() - t0)
        check(out)
        shutil.rmtree(out, ignore_errors=True)
        tracer = tracing.Tracer()
        tracer.install(wl.leg)
        try:
            t0 = time.perf_counter()
            legs.replay(wl.leg, inputs, out, tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        check(out)
        layer_runs.append(tracing.layer_metrics(wl.leg, tracer, traced[-1]))
        spent += plain[-1] + traced[-1]
    layers = {k: statistics.median(r[k] for r in layer_runs)
              for k in layer_runs[0]}
    inproc_wall = statistics.median(plain)
    layers["inproc.docs_per_s"] = n_docs / inproc_wall
    layers["trace.overhead_frac"] = statistics.median(traced) / inproc_wall - 1

    # one extra Ray run for the plan layer
    session, _ = start_and_warm(wl.leg, corpus, num_cpus)
    try:
        out = os.path.join(WORK, "out", wl.name, "ray")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        datasets = legs.run_ray(wl.leg, inputs, out)
        ray_wall = time.perf_counter() - t0
        ops = tracing.plan_stats(datasets)
    finally:
        session.stop()
    check(out)
    remote = sum(o["wall_s"] for o in ops.values())
    layers.update({
        "plan.wall_s": ray_wall,
        "plan.tasks": sum(o["tasks"] for o in ops.values()),
        "plan.remote_wall_s": remote,
        "plan.udf_s": sum(o["udf_s"] for o in ops.values()),
        "plan.sched_s": ray_wall - remote,
        "plan.ray_overhead_frac": 1 - inproc_wall / ray_wall,
        "plan.peak_heap_mb": max(o["heap_mb"] for o in ops.values()),
        "plan.out_bytes": sum(o["out_bytes"] for o in ops.values()),
    })
    os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
    tracer.dump(os.path.join(WORK, "trace", f"{wl.name}-s{seed}.spans.jsonl"))
    return {"check": total, "layers": layers, "operators": ops}


# -- main ----------------------------------------------------------------


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, HERE]
    try:
        if not os.path.isdir(os.path.join(ROOT, "libpdf_ray")):
            raise ImportError("no libpdf_ray/ next to perfbench/")
        import libpdf_ray  # noqa: F401
        import ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program ({exc}); run from the "
              "repository root", file=sys.stderr)
        return 2
    args = parse_args(argv)
    import checks
    import corpora
    import host
    import tracing

    os.makedirs(WORK, exist_ok=True)
    if args.self_test:
        bad = checks.self_test(WORK)
        for line in bad:
            print(f"self-test FAILED: {line}", file=sys.stderr)
        print("self-test: every planted wrong output was rejected"
              if not bad else "self-test: checker accepted wrong output")
        return 1 if bad else 0

    wl = corpora.WORKLOADS[args.workload]
    n_cpus = nproc()
    before = host.host_record(n_cpus)
    corpus = build_corpus(wl, args.seed)
    if corpus is None:
        print("perfbench: building the corpus failed", file=sys.stderr)
        return 1
    try:
        if args.trace:
            res = traced_run(wl, corpus, args.seconds, args.seed, n_cpus)
        else:
            res = timed_run(wl, corpus, args.seconds, n_cpus)
    finally:
        # on any failure, still leave no Ray process behind
        pids = host.descendants(os.getpid())
        import ray

        if ray.is_initialized():
            ray.shutdown()
        host.wait_gone(pids)
    if args.trace:
        common = tracing.COMMON_LAYERS
        metrics = {k: (res["layers"][k], u) for k, u in common.items()}
        report = {k: v for k, v in res["layers"].items() if k not in common}
        lines = [f"layer {k} = {v:.6g}" for k, v in sorted(report.items())]
        lines += [f"operator {name}: " + json.dumps(o)
                  for name, o in res["operators"].items()]
    else:
        metrics = res["metrics"]
        lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in res["extra"].items()]
    after = host.host_record(n_cpus)
    chk = res["check"]
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "host_before": before, "host_after": after,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
        "report": res.get("layers") or res.get("detail"),
        "operators": res.get("operators"),
        "problems": chk.problems,
    }
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    with open(os.path.join(WORK, "runs", f"{wl.name}-s{args.seed}-t{args.trace}"
                           f"-{int(time.time())}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload {wl.name} seed {args.seed} nproc {after['nproc']} "
          f"load {before['loadavg'][0]:.2f}->{after['loadavg'][0]:.2f} "
          f"burn {before['cpu_burn_s']:.4f}->{after['cpu_burn_s']:.4f} s")
    for line in lines:
        print(line)
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    for p in chk.problems:
        print(f"WRONG OUTPUT {p}")
    print(json.dumps({
        "correct": chk.ok, "attempted": chk.attempted, "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if chk.ok else 1


if __name__ == "__main__":
    sys.exit(main())
