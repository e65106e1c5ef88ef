"""uisbench performance benchmark: one workload per run, one JSON result line.

Run from the root of a uisbench checkout::

    python3 perfbench/run.py --workload uniform_bench --seed 0 --seconds 10 --trace 0

The program is imported from the checkout's ``src/``; nothing is installed.
The metric names and units come from ``BENCHMARK.json``; workloads and the
metric map are described in ``perfbench/README.md``.

Each run sets up several times (a child interpreter imports ``uisbench``,
then the workload's distributions are sampled and, where the CLI needs them,
written to and read back from a dists CSV) and reports the median, timed
against the yardstick below, then
repeats the workload's command until another repeat would overrun
``--seconds``. With ``--trace 0`` the last stdout line carries the end-to-end
metrics. With ``--trace 1`` the run first repeats the command untraced for
half the time, then as many times again with the layer wrappers of
``tracing.py`` installed, and the last line carries the per-layer metrics.

The host's speed drifts, so untraced repeats are timed against the yardstick
of ``yardstick.py``: a fixed reference kernel, sampled every 50 ms of work
from an interval timer, whose time converts each stretch of work between two
samples into yardstick units. Throughput is counted per thousand units (kref).
Set-up, which runs in a child interpreter, is bracketed by samples instead and
reported in reference seconds: its units times the kernel's nominal 1.5 ms. The
run keeps itself, the child and the kernel on one CPU and BLAS to one thread,
so the kernel sees the same share of the host as the work it measures.

Correctness gates run outside the timed region. A run that fails one prints
``"correct": false`` with no metrics and exits 1. Without ``src/uisbench`` the
run exits 1 before printing a result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

# one BLAS thread: set before numpy is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

import checks
from tracing import Tracer
from yardstick import NOMINAL_SAMPLE_S, Measured, Yardstick

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

BENCH_DISTS = 14  # per bench run; 1 to 2 s each
# per oracle run, the two families alternately; the IPF work per distribution
# varies widely, so the grid pass takes many to keep the work per seed alike
GRID_DISTS = 1024
POINT_DISTS = 256
CHECK_EVERY = 16  # every 16th distribution's interior cells go to the tilt reference
SETUP_REPEATS = 7
FITTED = ("LINR", "INDP", "PRSP", "PWR", "WRST")
SEARCHED = ("LINR", "INDP", "PRSP", "PWR")  # WRST is closed form and never predicts
BENCH_QUALITY = (
    "optim.fit.INDP.eps_excess_max", "optim.fit.INDP.eps_excess_mean",
    "eta_mean.INDP", "eta_mean.PRSP", "eta_mean.PWR", "fits_converged_frac",
)
UNIFORM_GEN_SEED, COND_INDEP_GEN_SEED = 1987, 1986  # the acceptance runs' gen seeds, at --seed 0

# which per-layer metrics each wrapped attribute feeds; a missing attribute
# turns them into null instead of zero
FEEDS = {
    "uisbench.cli.run_bench": ("bench.dist_ms", "bench.self_s", "cli.self_s"),
    "uisbench.bench.standard_vector": (
        "oracle.calls", "oracle.busy_s", "oracle.share", "oracle.ms_", "bench.dist_ms", "bench.self_s",
    ),
    "uisbench.bench.fit": tuple(f"optim.fit.{k}.{s}" for k in FITTED for s in
                                ("busy_s", "share", "ms_", "converged_frac", "iters_mean", "budget_hit_frac"))
    + ("bench.self_s",),
    "uisbench.optim._predict_rows": ("models.",),
    "uisbench.oracle.mce_update": ("oracle.cells",),
    "uisbench.cli.standard_answer": (
        "oracle.calls", "oracle.busy_s", "oracle.share", "oracle.ms_", "cli.self_s",
    ),
    "uisbench.cli.write_report_csv": ("bench.artifacts_s", "cli.self_s"),
    "uisbench.cli.summarize": ("bench.artifacts_s", "cli.self_s"),
    "uisbench.cli.write_summary_json": ("bench.artifacts_s", "cli.self_s"),
}


@dataclass
class Run:
    """What one workload run measured and which gates failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float | None] = field(default_factory=dict)


# --- program loading and set-up ---------------------------------------------------


def load_program():
    src = ROOT / "src"
    if not (src / "uisbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no uisbench package under {src}; run from the root of a uisbench checkout")
    sys.path.insert(0, str(src))
    import uisbench
    import uisbench.cli

    if Path(uisbench.__file__).resolve().parent != (src / "uisbench").resolve():
        raise SystemExit(f"error: imported uisbench from {uisbench.__file__}, not from {src}")
    return uisbench


def import_seconds() -> float:
    """Time to import uisbench (numpy included) in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import uisbench; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def measure_setup(uis, sample, csv_path: Path | None, run: Run) -> list:
    """Set up SETUP_REPEATS times, record the median of each phase, return the distributions.

    Each set-up is bracketed by three yardstick samples on either side and
    converted into yardstick units with their medians.
    """
    yardstick = Yardstick()
    phases: dict[str, list[float]] = {"import": [], "sample": [], "csv_write": [], "csv_read": [], "total": []}
    units = []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(yardstick.sample() for _ in range(3))
        t_import = import_seconds()
        t0 = time.perf_counter()
        dists = sample()
        t1 = time.perf_counter()
        t2 = t3 = t1
        if csv_path is not None:
            uis.dist.write_dists_csv(csv_path, dists)
            t2 = time.perf_counter()
            back = uis.dist.read_dists_csv(csv_path)
            t3 = time.perf_counter()
            if len(back) != len(dists) or any(not np.array_equal(a.atoms, b.atoms) for a, b in zip(dists, back)):
                run.failures.append(f"{csv_path.name} did not round-trip the sampled distributions exactly")
        for name, value in (("import", t_import), ("sample", t1 - t0), ("csv_write", t2 - t1),
                            ("csv_read", t3 - t2), ("total", t_import + t3 - t0)):
            phases[name].append(value)
        after = statistics.median(yardstick.sample() for _ in range(3))
        units.append(2.0 * phases["total"][-1] / (before + after))
    medians = {name: statistics.median(values) for name, values in phases.items()}
    run.end_to_end["setup_s"] = statistics.median(units) * NOMINAL_SAMPLE_S
    run.per_layer.update({
        "setup.wall_s": medians["total"],
        "setup.import_s": medians["import"],
        "dist.sample_s": medians["sample"],
        "dist.csv_write_s": medians["csv_write"],
        "dist.csv_read_s": medians["csv_read"],
    })
    return dists


def mixed_dists(uis, seed: int, n: int) -> list:
    """n distributions, uniform and cond_indep alternately."""
    uniform = uis.dist.sample_uniform(UNIFORM_GEN_SEED + seed, n // 2)
    cond_indep = uis.dist.sample_cond_indep(COND_INDEP_GEN_SEED + seed, n // 2)
    return [d for pair in zip(uniform, cond_indep) for d in pair]


# --- timing -----------------------------------------------------------------------


def repeat_for(seconds: float, step) -> list:
    """Call ``step`` until another call would overrun ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def invoke_cli(uis, argv: list[str], tracer: Tracer | None) -> tuple[float, int, str, str]:
    """Run ``uisbench <argv>`` in-process; returns (wall seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    main = uis.cli.main
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = main(argv)
            else:
                with tracer.span("cli.main"):
                    code = main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - t0
    return wall, code, out.getvalue(), err.getvalue()


def traced_repeats(uis, run: Run, install, step, count: int) -> tuple[Tracer, list]:
    """Repeat ``step(tracer)`` ``count`` times with the wrappers of ``install`` in place."""
    tracer = Tracer()
    install(tracer, uis)
    try:
        results = [step(tracer) for _ in range(count)]
    finally:
        not_restored = tracer.restore()
    if not_restored:
        run.failures.append(f"wrappers not restored: {', '.join(not_restored)}")
    return tracer, results


def record_throughput(run: Run, dists: int, repeats: list[Measured], yardstick: Yardstick) -> None:
    """Throughput of the untraced repeats, each of which processed ``dists`` distributions.

    The end-to-end figure counts time in thousands of yardstick units (kref),
    so a drift of the host's speed cancels; wall-clock throughput and the
    yardstick's own time are kept beside it as per-layer metrics.
    """
    run.end_to_end["dists_per_kref"] = dists * 1e3 / statistics.median(m.units for m in repeats)
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()
    run.per_layer["wall.dists_per_s"] = dists / statistics.median(m.seconds for m in repeats)
    run.per_layer["yardstick.ms_p50"] = percentile_ms(yardstick.samples, 50)


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def mean_or_none(values: list) -> float | None:
    if any(v is None for v in values):
        return None
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, units: int, untraced_wall: float, traced_wall: float) -> dict[str, float | None]:
    """Per-layer metrics of a traced pass of ``units`` identical repeats (one bench call,
    one grid pass or one round of oracle queries each).

    Counts and seconds are per repeat, so they do not depend on how many
    repeats fit in the run. Layers the workload never calls read 0.
    """
    seconds = tracer.seconds_by_name()
    self_seconds = tracer.self_seconds_by_name()
    wall = tracer.root_seconds()
    oracle = seconds["oracle.standard_vector"] + seconds["oracle.standard_answer"]
    m: dict[str, float | None] = {
        "oracle.calls": len(oracle) / units,
        "oracle.cells": tracer.counts["oracle.cells"] / units,
        "oracle.busy_s": sum(oracle) / units,
        "oracle.share": sum(oracle) / wall,
        "oracle.ms_p50": percentile_ms(oracle, 50),
        "oracle.ms_p90": percentile_ms(oracle, 90),
    }
    for kind in FITTED:
        spans = seconds[f"optim.fit.{kind}"]
        fits = tracer.fits[kind]
        prefix = f"optim.fit.{kind}"
        m[f"{prefix}.busy_s"] = sum(spans) / units
        m[f"{prefix}.share"] = sum(spans) / wall
        m[f"{prefix}.ms_p50"] = percentile_ms(spans, 50)
        m[f"{prefix}.ms_p90"] = percentile_ms(spans, 90)
        m[f"{prefix}.converged_frac"] = mean_or_none([c for _, c, _ in fits])
        m[f"{prefix}.iters_mean"] = mean_or_none([i for i, _, _ in fits])
        m[f"{prefix}.budget_hit_frac"] = mean_or_none(
            [None if i is None or b is None else i == b for i, _, b in fits]
        )
    for kind in SEARCHED:
        m[f"models.{kind}.calls"] = tracer.counts[f"models.{kind}.calls"] / units
        m[f"models.{kind}.rows"] = tracer.counts[f"models.{kind}.rows"] / units
    dist_spans = seconds["bench.dist"]
    m["bench.dist_ms_p50"] = percentile_ms(dist_spans, 50)
    m["bench.dist_ms_p90"] = percentile_ms(dist_spans, 90)
    m["bench.self_s"] = (self_seconds["bench.run"] + self_seconds["bench.dist"]) / units
    m["bench.artifacts_s"] = sum(seconds["bench.artifacts"]) / units
    m["cli.self_s"] = self_seconds["cli.main"] / units
    m["trace.wall_s"] = wall / units
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    for attr in tracer.missing:
        print(f"layer missing: {attr} no longer exists; its metrics read null")
        for name in m:
            if name.startswith(FEEDS.get(attr, ())):
                m[name] = None
    return m


def dump_spans(tracer: Tracer, args) -> None:
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")


# --- workloads ----------------------------------------------------------------------


class BenchCall(NamedTuple):
    wall: float
    units: float | None  # the call's cost in yardstick units; None when traced
    code: int
    err: str
    report: bytes
    summary: bytes


@dataclass(frozen=True)
class BenchSpec:
    family: str
    gen_seed: int  # at --seed 0; --seed n samples with gen_seed + n
    bench_seed: int


def install_bench_wrappers(tracer: Tracer, uis) -> None:
    tracer.wrap(uis.cli, "run_bench", tracer.run_bench)
    tracer.wrap(uis.bench, "standard_vector", tracer.bench_standard_vector)
    tracer.wrap(uis.bench, "fit", tracer.fit)
    tracer.wrap(uis.optim, "_predict_rows", tracer.predict_rows)
    tracer.wrap(uis.oracle, "mce_update", tracer.counted("oracle.cells"))
    for attr in ("write_report_csv", "summarize", "write_summary_json"):
        tracer.wrap(uis.cli, attr, tracer.timed("bench.artifacts"))


def bench_workload(spec: BenchSpec):
    def run_workload(uis, args, work: Path, run: Run) -> None:
        sampler = uis.dist.sample_uniform if spec.family == "uniform" else uis.dist.sample_cond_indep
        csv_path = work / "dists.csv"
        dists = measure_setup(uis, lambda: sampler(spec.gen_seed + args.seed, BENCH_DISTS), csv_path, run)
        out = work / "bench"
        argv = ["bench", "--dists", str(csv_path), "--seed", str(spec.bench_seed), "--jobs", "1", "--out", str(out)]

        def call(tracer=None, yardstick=None) -> BenchCall:
            for name in ("report.csv", "summary.json"):
                (out / name).unlink(missing_ok=True)
            if yardstick is None:
                wall, code, _, err = invoke_cli(uis, argv, tracer)
                units = None
            else:
                with yardstick.measure() as measured:
                    _, code, _, err = invoke_cli(uis, argv, None)
                wall, units = measured.seconds, measured.units
            report = (out / "report.csv").read_bytes() if (out / "report.csv").exists() else b""
            summary = (out / "summary.json").read_bytes() if (out / "summary.json").exists() else b""
            return BenchCall(wall, units, code, err, report, summary)

        yardstick = Yardstick()
        calls = repeat_for(args.untraced_seconds, lambda: call(yardstick=yardstick))
        untraced_wall = sum(c.wall for c in calls)
        record_throughput(run, BENCH_DISTS, [Measured(c.wall, c.units) for c in calls], yardstick)
        if args.trace:
            tracer, traced = traced_repeats(uis, run, install_bench_wrappers, call, len(calls))
            run.per_layer.update(layer_metrics(tracer, len(traced), untraced_wall, sum(c.wall for c in traced)))
            if any(c.report != calls[0].report for c in traced):
                run.failures.append("traced report.csv differs from the untraced one")
            dump_spans(tracer, args)

        run.attempted = BENCH_DISTS * len(calls)
        report, summary = calls[0].report, calls[0].summary
        for c in calls:
            if c.code != 0:
                run.failures.append(f"uisbench bench exited {c.code}: {c.err.strip()[-300:]}")
            if c.report != report:
                run.failures.append("report.csv differs between repeats of one run")
        if not report or not summary:
            run.failed = run.attempted
            run.failures.append("uisbench bench wrote no report.csv or summary.json")
            return
        parsed = checks.parse_report(report)
        run.failed = (BENCH_DISTS - len(parsed)) * len(calls)
        run.failures += checks.check_report(parsed)

        _, code, _, err = invoke_cli(uis, ["report", "--report", str(out / "report.csv"),
                                           "--json", str(work / "resummary.json")], None)
        if code != 0 or (work / "resummary.json").read_bytes() != summary:
            run.failures.append(f"uisbench report --json does not reproduce summary.json ({err.strip()[-200:]})")
        inputs = checks.source_digest(ROOT / "src") + checks.sha256(csv_path.read_bytes()) + " ".join(argv[3:5])
        key = f"{args.workload}-{checks.sha256(inputs.encode())[:16]}"
        run.failures += checks.check_repeat_sha(OUT / "report-sha", key, checks.sha256(report))

        excess, failures = checks.indp_exact_excess(uis, dists, parsed)
        run.failures += failures
        mu = {model: row["mu"] for model, row in json.loads(summary).items()}
        converged = [rows[k]["converged"] == "true" for rows in parsed.values() for k in SEARCHED]
        run.per_layer.update({
            "optim.fit.INDP.eps_excess_max": max(excess),
            "optim.fit.INDP.eps_excess_mean": float(np.mean(excess)),
            "eta_mean.INDP": mu["INDP"],
            "eta_mean.PRSP": mu["PRSP"],
            "eta_mean.PWR": mu["PWR"],
            "fits_converged_frac": float(np.mean(converged)),
        })

    return run_workload


def oracle_grid(uis, args, work: Path, run: Run) -> None:
    dists = measure_setup(uis, lambda: mixed_dists(uis, args.seed, GRID_DISTS), None, run)
    standard_vector = uis.oracle.standard_vector
    oracle_errors = (uis.oracle.ConvergenceError, uis.oracle.InfeasibleEvidenceError)

    def one_pass(tracer=None):
        """Returns (answers, failed)."""
        answers, failed = [], 0
        for d in dists:
            try:
                if tracer is None:
                    answers.append(standard_vector(d))
                else:
                    with tracer.span("oracle.standard_vector"):
                        answers.append(standard_vector(d))
            except oracle_errors:
                answers.append(None)
                failed += 1
        return answers, failed

    warmup = one_pass()  # untimed, so the timed passes start warm; kept for the gates
    yardstick = Yardstick()

    # a timed pass returns (Measured, same answers as the warm-up, failed) and drops its answers
    def timed_pass():
        with yardstick.measure() as measured:
            answers, failed = one_pass()
        return measured, answers == warmup[0], failed

    def traced_pass(tracer):
        t0 = time.perf_counter()
        with tracer.span("grid.pass"):
            answers, failed = one_pass(tracer)
        return Measured(time.perf_counter() - t0), answers == warmup[0], failed

    def install(tracer, uis):
        tracer.wrap(uis.oracle, "mce_update", tracer.counted("oracle.cells"))

    passes = repeat_for(args.untraced_seconds, timed_pass)
    record_throughput(run, len(dists), [p[0] for p in passes], yardstick)
    if args.trace:
        tracer, traced = traced_repeats(uis, run, install, traced_pass, len(passes))
        run.per_layer.update(layer_metrics(
            tracer, len(traced), sum(p[0].seconds for p in passes), sum(p[0].seconds for p in traced)
        ))
        passes += traced
        dump_spans(tracer, args)

    run.attempted = len(dists) * (len(passes) + 1)
    run.failed = sum(p[2] for p in passes) + warmup[1]
    if not all(p[1] for p in passes):
        run.failures.append("standard_vector answers differ between passes")
    for i in range(0, len(dists), CHECK_EVERY):
        for ev, value in warmup[0][i] or ():
            want = checks.reference_answer(uis, dists[i], ev.e1, ev.e2)
            run.failures += checks.check_answer(f"dist {i} cell ({ev.e1}, {ev.e2})", value, want)


def evidence_pairs(seed: int) -> list[tuple[float, float]]:
    """Four hard corners, four half-hard pairs and 25 interior off-grid pairs.

    The interior pairs are stratified: one drawn uniformly inside each cell of
    a 5x5 partition of [0.02, 0.98]^2, so every seed covers the square alike
    and the IPF work per round varies little from seed to seed.
    """
    rng = np.random.default_rng([seed, 2])
    lo = 0.02

    def interior(cell: int = 0, cells: int = 1) -> float:
        return float(lo + (cell + rng.uniform()) * 0.96 / cells)

    pairs = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    pairs += [(h, interior()) for h in (0.0, 1.0)] + [(interior(), h) for h in (0.0, 1.0)]
    pairs += [(interior(i, 5), interior(j, 5)) for i in range(5) for j in range(5)]
    return pairs


def oracle_point(uis, args, work: Path, run: Run) -> None:
    csv_path = work / "dists.csv"
    dists = measure_setup(uis, lambda: mixed_dists(uis, args.seed, POINT_DISTS), csv_path, run)
    pairs = evidence_pairs(args.seed)
    argvs = [["oracle", "--dists", str(csv_path), "--e1", repr(e1), "--e2", repr(e2)] for e1, e2 in pairs]

    def one_round(tracer=None):
        return [invoke_cli(uis, argv, tracer) for argv in argvs]

    warmup = one_round()  # untimed, so the timed rounds start warm; kept for the gates
    yardstick = Yardstick()

    def compared(calls):
        """Each call's output compared with the warm-up's and then dropped."""
        return [(wall, code, out == first[2], err) for (wall, code, out, err), first in zip(calls, warmup)]

    def timed_round():
        with yardstick.measure() as measured:
            calls = one_round()
        return measured, compared(calls)

    def install(tracer, uis):
        tracer.wrap(uis.cli, "standard_answer", tracer.timed("oracle.standard_answer"))
        tracer.wrap(uis.oracle, "mce_update", tracer.counted("oracle.cells"))

    timed = repeat_for(args.untraced_seconds, timed_round)
    per_round = len(pairs) * len(dists)
    record_throughput(run, per_round, [m for m, _ in timed], yardstick)
    rounds = [r for _, r in timed]
    if args.trace:
        tracer, traced = traced_repeats(uis, run, install, lambda tracer: compared(one_round(tracer)), len(rounds))
        untraced_wall = sum(m.seconds for m, _ in timed)
        traced_wall = sum(c[0] for r in traced for c in r)
        run.per_layer.update(layer_metrics(tracer, len(traced), untraced_wall, traced_wall))
        rounds += traced
        dump_spans(tracer, args)

    rounds.append([(wall, code, True, err) for wall, code, _, err in warmup])
    run.attempted = per_round * len(rounds)
    run.failed = sum(err.count("\ndist ") + err.startswith("dist ") for r in rounds for _, _, _, err in r)
    for r in rounds:
        for (e1, e2), (_, code, same, err) in zip(pairs, r):
            if code != 0:
                run.failures.append(f"uisbench oracle --e1 {e1!r} --e2 {e2!r} exited {code}: {err.strip()[-200:]}")
            if not same:
                run.failures.append(f"uisbench oracle --e1 {e1!r} --e2 {e2!r} printed different answers on a repeat")
    for (e1, e2), (_, _, out, _) in zip(pairs, warmup):
        lines = out.split()
        answers = dict(zip(lines[0::2], lines[1::2]))
        if len(lines) != 2 * len(dists) or list(answers) != [str(i) for i in range(len(dists))]:
            run.failures.append(f"uisbench oracle --e1 {e1!r} --e2 {e2!r} did not print one answer per distribution")
            continue
        hard = e1 in (0.0, 1.0) or e2 in (0.0, 1.0)
        for i in range(0, len(dists), 1 if hard else CHECK_EVERY):
            want = checks.reference_answer(uis, dists[i], e1, e2)
            run.failures += checks.check_answer(f"dist {i} at ({e1!r}, {e2!r})", float(answers[str(i)]), want)


WORKLOADS = {
    "uniform_bench": bench_workload(BenchSpec("uniform", UNIFORM_GEN_SEED, 11)),
    "cond_indep_bench": bench_workload(BenchSpec("cond_indep", COND_INDEP_GEN_SEED, 13)),
    "oracle_grid": oracle_grid,
    "oracle_point": oracle_point,
}


# --- entry point --------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # a traced run spends half its time untraced, as the base for trace.overhead_frac
    args.untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    # one CPU for the run and its child, so the yardstick shares the work's
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    uis = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    run = Run()
    try:
        WORKLOADS[args.workload](uis, args, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.attempted < 1:
        run.failures.append("no operation was attempted")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} attempted, {run.failed} failed")
    metrics = {}
    if not run.failures:
        run.end_to_end["ok_frac"] = 1.0 - run.failed / run.attempted
        for name in BENCH_QUALITY:  # no fit runs on the oracle workloads
            run.per_layer.setdefault(name, 0.0)
        measured = run.per_layer if args.trace else run.end_to_end
        names = {m["name"] for m in wanted}
        if set(measured) != names:
            raise RuntimeError(f"measured metrics and BENCHMARK.json disagree: {sorted(set(measured) ^ names)}")
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
        for name, metric in metrics.items():
            print(f"  {name:36s} {metric['value']!r} {metric['unit']}")
    for failure in run.failures:
        print(f"GATE FAILED: {failure}")
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
