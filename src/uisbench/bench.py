"""Experiment orchestration: fit every model on every distribution and score it.

For each joint distribution the standard vector is computed once, every
requested model is fitted against it, and each fitted error eps_X is rescaled
to the normalized accuracy score

    eta = (eps_X - eps_LINR) / (0 - eps_LINR)            if eps_X <= eps_LINR
    eta = (eps_X - eps_LINR) / (eps_LINR - eps_WRST)     otherwise

so that +1 means a perfect fit, 0 ties plain linear regression and -1 ties the
evidence-ignoring constant. Distributions where linear regression already fits
exactly (eps_LINR below 1e-12) leave eta undefined; they are flagged degenerate
and excluded from aggregates rather than silently included. Scores outside
[-1, 1] are clamped and flagged.

Aggregation reports the mean, the sample (n-1) standard deviation and their
ratio per model. Distributions are processed in consecutive chunks of at most
``_BATCH_DISTS`` (128), so a serial run of up to 128 distributions is one
chunk; a chunk is one oracle batch and then one ``optim.fit_batch`` call per
model over the rows of its answer matrix, in which the PRSP (and PWR) starts
run as the rows of one Levenberg–Marquardt batch. Rows do not interact and
model fits use RNG substreams derived from (seed, distribution index), so
reports do not depend on the chunking, execution order or worker count.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import JointDist
from .models import PARAM_DIM, _PWR_EVIDENCE_ERROR, ModelKind, ModelParams, true_params_prsp
# fit and standard_vector are not called here, but perfbench's tracer wraps them
# (test_every_traced_attribute_exists; ROADMAP item 1)
from .optim import FitResult, OptimSettings, fit, fit_batch  # noqa: F401
from .oracle import DEFAULT_GRID, EvidenceGrid, _batch_answers, standard_vector  # noqa: F401

__all__ = [
    "DEGENERATE_EPS",
    "EtaScore",
    "ModelScore",
    "DistReport",
    "SummaryRow",
    "SummaryTable",
    "eta",
    "check_bench_args",
    "run_bench",
    "summarize",
    "write_report_csv",
    "read_report_csv",
    "write_summary_json",
    "format_summary_table",
]

DEGENERATE_EPS = 1e-12
# distributions whose PRSP and PWR fits share one Levenberg–Marquardt batch, so
# that a run of up to 128 (both acceptance runs have 109) pays numpy's per-step
# overhead once. Stopped starts leave the batch, so its later steps cost little:
# on a 2-vCPU VM 128 uniform distributions (gen seed 1987, bench seed 11) took
# 0.7–0.9 s in one chunk and 2.6–3.2 s in chunks of 8. Memory grows with the
# chunk: that run peaked at 57 MB resident (42 MB in chunks of 8, 37 MB before
# the run), mostly the first Jacobian of its 2,944 PRSP starts with its
# temporaries
_BATCH_DISTS = 128
_MAX_PARAMS = max(PARAM_DIM.values())

REPORT_CSV_COLUMNS = (
    "dist_id",
    "model",
    "epsilon",
    "eta",
    "clamped",
    "degenerate",
    "converged",
    "iterations",
    "start_index",
) + tuple(f"param{i}" for i in range(_MAX_PARAMS))


@dataclass(frozen=True)
class EtaScore:
    """Normalized accuracy in [-1, 1]; flags record clamping and degeneracy."""

    value: float
    clamped: bool = False
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not (-1.0 <= self.value <= 1.0):
            raise ValueError(f"eta must lie in [-1, 1], got {self.value!r}")


@dataclass(frozen=True)
class ModelScore:
    kind: ModelKind
    epsilon: float
    eta: EtaScore
    params: ModelParams
    converged: bool
    iterations: int = 0  # steps of the winning start; 0 for BST and the closed-form fits
    start_index: int = 0  # the winning start (see ``optim.fit``)

    def __post_init__(self) -> None:
        for name in ("epsilon", "iterations", "start_index"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class DistReport:
    """Per-distribution results; ``error`` is set instead of scores on failure.

    Only the oracle fails a distribution, with its error on the first cell it cannot answer;
    ``optim.fit_batch`` fits every row or raises for the whole run.
    """

    dist_id: int
    scores: tuple[ModelScore, ...]
    eps_linr: float | None
    eps_wrst: float | None
    error: str | None = None

    @property
    def degenerate(self) -> bool:
        return self.error is None and self.eps_linr is not None and self.eps_linr < DEGENERATE_EPS


@dataclass(frozen=True)
class SummaryRow:
    kind: ModelKind
    mu: float
    sigma: float
    mu_over_sigma: float
    n_included: int
    n_degenerate: int
    n_converged: int


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[SummaryRow, ...]


def eta(eps_x: float, eps_linr: float, eps_wrst: float) -> EtaScore:
    """Rescale a fitted error against the perfect/linear/constant anchors.

    All inputs must be non-negative; the perfect reference error is exactly 0.
    When the model is worse than the linear baseline the denominator is
    floored in magnitude at 1e-12, and the result is clamped to [-1, 1] with
    the ``clamped`` flag set.
    """
    for name, value in (("eps_x", eps_x), ("eps_linr", eps_linr), ("eps_wrst", eps_wrst)):
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if eps_linr < DEGENERATE_EPS:
        return EtaScore(0.0, clamped=False, degenerate=True)
    if eps_x <= eps_linr:
        value = (eps_x - eps_linr) / (0.0 - eps_linr)
    else:
        denom = eps_linr - eps_wrst
        if abs(denom) < 1e-12:
            denom = math.copysign(1e-12, denom if denom != 0.0 else -1.0)
        value = (eps_x - eps_linr) / denom
    clamped = value < -1.0 or value > 1.0
    # + 0.0 folds the -0.0 produced at the LINR anchor into +0.0
    return EtaScore(min(1.0, max(-1.0, value)) + 0.0, clamped=clamped, degenerate=False)


def _derived_seed(seed: int, dist_index: int) -> int:
    """Stable per-distribution seed, independent of execution order."""
    return int(np.random.SeedSequence([int(seed), int(dist_index)]).generate_state(1, np.uint64)[0])


def _prsp_warm_start(d: JointDist) -> ModelParams | None:
    try:
        return true_params_prsp(d)
    except ValueError:
        return None  # boundary joint: fall back to seeded starts only


def _bench_chunk(
    dists: list[JointDist],
    first_id: int,
    kinds: tuple[ModelKind, ...],
    grid: EvidenceGrid,
    settings: OptimSettings,
    seed: int,
) -> list[DistReport]:
    """Reports of consecutive distributions, numbered from ``first_id``.

    One ``_batch_answers`` call gives the (n, L²) answer matrix; a
    distribution with an error in any cell fails with its first failing
    cell's error, as ``standard_vector`` would raise. Each model is then one
    ``fit_batch`` over the other distributions, which fits each or raises.
    """
    e1, e2 = np.array([(ev.e1, ev.e2) for ev in grid.pairs()]).T
    n, k = len(dists), len(e1)
    answers, failed = _batch_answers(np.repeat([d.atoms for d in dists], k, axis=0), np.tile(e1, n), np.tile(e2, n))
    targets = np.reshape(answers, (n, k))
    errors: dict[int, str] = {}
    for i in range(n):
        exc = next(filter(None, failed[i * k : (i + 1) * k]), None)  # the first failing cell's
        if exc is not None:  # recorded, not fatal to the run
            errors[i] = f"{type(exc).__name__}: {exc}"

    ok = [i for i in range(n) if i not in errors]
    seeds = [_derived_seed(seed, first_id + i) for i in ok]
    fits: dict[ModelKind, dict[int, FitResult]] = {}
    for kind in kinds:
        if kind is ModelKind.BST:
            continue
        warm = [_prsp_warm_start(dists[i]) if kind is ModelKind.PRSP else None for i in ok]
        fits[kind] = dict(zip(ok, fit_batch(kind, e1, e2, targets[ok], settings, seeds, warm)))

    reports = []
    for i in range(n):
        if i in errors:
            reports.append(DistReport(first_id + i, (), None, None, error=errors[i]))
            continue
        eps_linr, eps_wrst = fits[ModelKind.LINR][i].epsilon, fits[ModelKind.WRST][i].epsilon
        scores = []
        for kind in kinds:
            r = FitResult(ModelParams(kind, ()), 0.0, 0, True, 0) if kind is ModelKind.BST else fits[kind][i]
            scores.append(ModelScore(kind, r.epsilon, eta(r.epsilon, eps_linr, eps_wrst), r.params, r.converged,
                                     r.iterations, r.start_index))
        reports.append(DistReport(first_id + i, tuple(scores), eps_linr, eps_wrst))
    return reports


def _bench_chunk_star(args) -> list[DistReport]:
    return _bench_chunk(*args)


def check_bench_args(dists: list[JointDist], kinds, grid: EvidenceGrid) -> None:
    """Raise ``ValueError`` naming what ``run_bench`` cannot run on; see there."""
    if not dists:
        raise ValueError("dists must be non-empty")
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"model {kind.value} is listed more than once")
    for required in (ModelKind.LINR, ModelKind.WRST):
        if required not in kinds:
            raise ValueError(f"kinds must include {required.value}; eta is defined relative to it")
    if len(grid.levels) < 2:
        raise ValueError(f"grid needs at least 2 levels, got {grid.levels}; a one-level grid makes the fits singular")
    if ModelKind.PWR in kinds:
        for level in grid.levels:
            if level in (0.0, 1.0):
                raise ValueError(f"grid level {level} cannot be used with PWR: {_PWR_EVIDENCE_ERROR}")


def run_bench(
    dists: list[JointDist],
    kinds: tuple[ModelKind, ...] = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP, ModelKind.PWR),
    grid: EvidenceGrid = DEFAULT_GRID,
    settings: OptimSettings | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> list[DistReport]:
    """Fit every requested model on every distribution and score eta.

    ``kinds`` must include LINR and WRST (eta is defined relative to them),
    and ``grid`` needs at least two levels: on one, LINR's and INDP's least
    squares are singular. With PWR no level may be 0 or 1, where its logit is
    infinite. A model may be listed once. Distributions are processed in
    consecutive chunks of at most ``_BATCH_DISTS``, each one oracle batch and
    one ``fit_batch`` call per model. With ``jobs > 1`` chunks are processed in
    parallel, at most ``ceil(len(dists) / jobs)`` distributions each so that
    every worker gets one, by at most one worker per chunk; reports are
    returned ordered by distribution index and are identical to a serial run.
    """
    kinds = tuple(kinds)
    check_bench_args(dists, kinds, grid)
    settings = settings or OptimSettings()
    size = _BATCH_DISTS if jobs <= 1 else min(_BATCH_DISTS, math.ceil(len(dists) / jobs))
    items = [(dists[lo : lo + size], lo, kinds, grid, settings, seed) for lo in range(0, len(dists), size)]
    workers = min(jobs, len(items))  # the pool starts all its workers at once, busy or not
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_bench_chunk_star, items))
    else:
        chunks = [_bench_chunk(*item) for item in items]
    return [report for chunk in chunks for report in chunk]


def summarize(reports: list[DistReport]) -> SummaryTable:
    """Mean, sample standard deviation and their ratio of eta per model.

    Also counts, per model, the included distributions whose fit converged.
    Degenerate distributions never contribute; failed reports are skipped.
    Raises ValueError unless at least two non-degenerate reports remain.
    A zero sigma is reported as a signed-infinity ratio.
    """
    usable = [r for r in reports if r.error is None]
    included = [r for r in usable if not r.degenerate]
    if len(included) < 2:
        raise ValueError(
            f"need at least 2 non-degenerate reports to aggregate, got {len(included)}"
        )
    n_degenerate = len(usable) - len(included)
    kinds = [s.kind for s in included[0].scores]
    rows = []
    for pos, kind in enumerate(kinds):
        # sorted so aggregates are exactly permutation-invariant over reports
        values = np.sort([r.scores[pos].eta.value for r in included])
        mu = float(np.mean(values))
        sigma = float(np.std(values, ddof=1))
        ratio = mu / sigma if sigma > 0.0 else math.copysign(math.inf, mu)
        n_converged = sum(r.scores[pos].converged for r in included)
        rows.append(SummaryRow(kind, mu, sigma, ratio, len(included), n_degenerate, n_converged))
    return SummaryTable(tuple(rows))


# --- artifacts ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_report_csv(path, reports: list[DistReport]) -> None:
    """One row per (distribution, model); failed distributions carry no rows."""
    with open(path, "w", newline="") as f:
        f.write(",".join(REPORT_CSV_COLUMNS) + "\n")
        for report in reports:
            if report.error is not None:
                continue
            for s in report.scores:
                padded = [_fmt(v) for v in s.params.values]
                padded += [""] * (_MAX_PARAMS - len(padded))
                row = [
                    str(report.dist_id),
                    s.kind.value,
                    _fmt(s.epsilon),
                    _fmt(s.eta.value),
                    "true" if s.eta.clamped else "false",
                    "true" if s.eta.degenerate else "false",
                    "true" if s.converged else "false",
                    str(s.iterations),
                    str(s.start_index),
                ] + padded
                f.write(",".join(row) + "\n")


def _read_flag(field: str, text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"{field} must be true or false, got {text!r}")
    return text == "true"


def _read_number(field: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _model_kind(name: str) -> ModelKind:
    try:
        return ModelKind(name)
    except ValueError:
        raise ValueError(f"unknown model {name!r}; valid models: {','.join(k.value for k in ModelKind)}") from None


def read_report_csv(path) -> list[DistReport]:
    """Reconstruct reports from a report CSV (enough to re-run summarize).

    Raises ValueError naming the row and field of a bad value, including a
    row without one value per column, an unknown model, a flag other than
    ``true`` and ``false``, a negative or non-finite ``epsilon``,
    ``iterations`` or ``start_index`` or an empty ``paramN`` before a filled
    one, and naming the distribution whose model list (in row order) differs
    from the first's.
    """
    by_dist: dict[int, list[ModelScore]] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != REPORT_CSV_COLUMNS:
            raise ValueError(f"{path}: bad header, expected {','.join(REPORT_CSV_COLUMNS)}")
        for row_no, row in enumerate(reader):
            try:
                if len(row) != len(REPORT_CSV_COLUMNS):
                    raise ValueError(f"expected {len(REPORT_CSV_COLUMNS)} columns, got {len(row)}")
                dist_id = _read_number("dist_id", int, row[0])
                kind = _read_number("model", _model_kind, row[1])
                epsilon = _read_number("epsilon", float, row[2])
                clamped, degenerate, converged = (_read_flag(REPORT_CSV_COLUMNS[i], row[i]) for i in (4, 5, 6))
                score = EtaScore(_read_number("eta", float, row[3]), clamped=clamped, degenerate=degenerate)
                iterations, start_index = (_read_number(REPORT_CSV_COLUMNS[i], int, row[i]) for i in (7, 8))
                last = max(i for i, v in enumerate(row) if v)  # the empty fields after it pad the parameters
                values = row[9 : last + 1]
                if "" in values:
                    raise ValueError(f"param{values.index('')} is empty, but a later parameter is set")
                params = ModelParams(kind, tuple(_read_number(f"param{i}", float, v) for i, v in enumerate(values)))
                model_score = ModelScore(kind, epsilon, score, params, converged, iterations, start_index)
            except ValueError as exc:
                raise ValueError(f"{path}: row {row_no}: {exc}") from None
            by_dist.setdefault(dist_id, []).append(model_score)
    reports = []
    first = None
    for dist_id in sorted(by_dist):
        # summarize pairs scores by position, so every distribution must list the same models in order
        models = ",".join(s.kind.value for s in by_dist[dist_id])
        first = first or (dist_id, models)
        if models != first[1]:
            raise ValueError(f"{path}: dist {dist_id} lists models {models}, but dist {first[0]} lists {first[1]}")
        eps = {s.kind: s.epsilon for s in by_dist[dist_id]}
        reports.append(DistReport(dist_id, tuple(by_dist[dist_id]), eps.get(ModelKind.LINR), eps.get(ModelKind.WRST)))
    return reports


def _ratio_json(ratio: float):
    if math.isinf(ratio):
        return "+inf" if ratio > 0 else "-inf"
    return ratio


def write_summary_json(path, table: SummaryTable) -> None:
    payload = {
        row.kind.value: {
            "mu": row.mu,
            "sigma": row.sigma,
            "mu_over_sigma": _ratio_json(row.mu_over_sigma),
            "n_included": row.n_included,
            "n_degenerate": row.n_degenerate,
            "n_converged": row.n_converged,
        }
        for row in table.rows
    }
    with open(path, "w", newline="") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def format_summary_table(table: SummaryTable) -> str:
    """Render the summary in the two-row mu/sigma layout (plus their ratio)."""
    names = [row.kind.value for row in table.rows]
    width = max(8, *(len(n) for n in names)) + 2

    def line(label: str, values: list[str]) -> str:
        # a value wider than its column still keeps one space from its neighbour
        return label.ljust(10) + "".join(" " + v.rjust(width - 1) for v in values)

    def ratio_str(r: float) -> str:
        return ("+inf" if r > 0 else "-inf") if math.isinf(r) else f"{r:.2f}"

    out = [
        line("", names),
        line("mu", [f"{row.mu:.4f}" for row in table.rows]),
        line("sigma", [f"{row.sigma:.4f}" for row in table.rows]),
        line("mu/sigma", [ratio_str(row.mu_over_sigma) for row in table.rows]),
    ]
    n_inc = table.rows[0].n_included
    n_deg = table.rows[0].n_degenerate
    out.append(f"n_included={n_inc} n_degenerate={n_deg}")
    return "\n".join(out)
