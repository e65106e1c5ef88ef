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
PRSP's random starts use RNG substreams derived from (seed, distribution
index), so reports do not depend on the chunking, execution order or worker
count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .dist import JointDist, _DecodeError, _utf8_text
from .models import PARAM_DIM, _PWR_EVIDENCE_ERROR, ModelKind, ModelParams, _check_kind, true_params_prsp
# fit and standard_vector are not called here, but perfbench's tracer wraps them
# (test_every_traced_attribute_exists; ROADMAP item 2)
from .optim import FitResult, _check_integer, fit, fit_batch  # noqa: F401
from .oracle import DEFAULT_GRID, EvidenceGrid, _batch_answers, standard_vector  # noqa: F401

__all__ = [
    "DEFAULT_MODELS",
    "DEGENERATE_EPS",
    "EtaScore",
    "DistReport",
    "SummaryRow",
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
DEFAULT_MODELS = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP, ModelKind.PWR)
# distributions whose PRSP and PWR fits share one Levenberg–Marquardt batch, so
# that a run of up to 128 (both acceptance runs have 109) pays numpy's per-step
# overhead once. Stopped starts leave the batch, so its later steps cost little.
# Memory grows with the chunk, mostly the first Jacobian of its PRSP starts with
# its temporaries. README's Library section gives the measured time and memory
# against smaller chunks
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
class DistReport:
    """Per-distribution fits; ``error`` is set instead of fits on failure.

    Only the oracle fails a distribution, with its error on the first cell it cannot answer;
    ``optim.fit_batch`` fits every row or raises for the whole run. ``etas``
    holds :func:`eta` of each fit, computed once from the report's own LINR
    and WRST fits. A report that did not fail must hold both and no model
    twice, and one that failed holds no fits, or it raises ``ValueError``
    naming the distribution (and the model).
    """

    dist_id: int
    scores: tuple[FitResult, ...]
    error: str | None = None
    etas: tuple[EtaScore, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            if self.error is None:
                _check_models(tuple(s.kind for s in self.scores))
            elif self.scores:
                raise ValueError(f"failed with {self.error!r}, but holds fits")
        except ValueError as exc:
            raise ValueError(f"dist {self.dist_id}: {exc}") from None
        eps = {s.kind: s.epsilon for s in self.scores}
        etas = tuple([eta(s.epsilon, eps[ModelKind.LINR], eps[ModelKind.WRST]) for s in self.scores])
        object.__setattr__(self, "etas", etas)

    @property
    def degenerate(self) -> bool:
        return any(e.degenerate for e in self.etas)


@dataclass(frozen=True)
class SummaryRow:
    """One model's summary; its fields after ``kind`` are that model's keys in ``summary.json``, in order."""

    kind: ModelKind
    mu: float
    sigma: float
    mu_over_sigma: float
    n_included: int
    n_degenerate: int
    n_converged: int


def eta(eps_x: float, eps_linr: float, eps_wrst: float) -> EtaScore:
    """Rescale a fitted error against the perfect/linear/constant anchors.

    All inputs must be non-negative; the perfect reference error is exactly 0.
    When the model is worse than the linear baseline the denominator is
    eps_linr - eps_wrst capped at -1e-12: LINR nests WRST, so it is negative
    but where rounding leaves LINR's fit at or above WRST's, and a model
    worse than LINR never scores above 0. The result is clamped to [-1, 1]
    with the ``clamped`` flag set.
    """
    for name, value in (("eps_x", eps_x), ("eps_linr", eps_linr), ("eps_wrst", eps_wrst)):
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if eps_linr < DEGENERATE_EPS:
        return EtaScore(0.0, clamped=False, degenerate=True)
    if eps_x <= eps_linr:
        value = (eps_x - eps_linr) / (0.0 - eps_linr)
    else:
        value = (eps_x - eps_linr) / min(eps_linr - eps_wrst, -1e-12)
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
        return None  # boundary joint: no warm start


def _bench_chunk(
    dists: list[JointDist],
    first_id: int,
    kinds: tuple[ModelKind, ...],
    grid: EvidenceGrid,
    seed: int,
) -> list[DistReport]:
    """Reports of consecutive distributions, numbered from ``first_id``.

    One ``_batch_answers`` call over the distributions and the grid's pairs
    gives the (n, L²) answer matrix; a distribution with an error in any cell
    fails with its first failing cell's error, as ``standard_vector`` would
    raise. Each listed model, BST included, is then one ``fit_batch`` over the
    others, which fits each or raises; PRSP's rows start warm from their joints.
    """
    targets, first_errors = _batch_answers([d.atoms for d in dists], grid.evidence)
    # recorded, not fatal to the run
    errors = {i: f"{type(exc).__name__}: {exc}" for i, exc in enumerate(first_errors) if exc is not None}

    ok = [i for i in range(len(dists)) if i not in errors]
    seeds = [_derived_seed(seed, first_id + i) for i in ok]
    fits = [fit_batch(kind, grid.e1, grid.e2, targets[ok], seeds,
                      [_prsp_warm_start(dists[i]) if kind is ModelKind.PRSP else None for i in ok])
            for kind in kinds]
    scores = dict(zip(ok, zip(*fits)))  # each distribution's fits, in the order of ``kinds``
    return [DistReport(first_id + i, scores.get(i, ()), errors.get(i)) for i in range(len(dists))]


def _check_unique(kinds: tuple[ModelKind, ...]) -> None:
    """Raise ``ValueError`` naming the first model listed again."""
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"model {kind.value} is listed more than once")


def _check_models(kinds: tuple[ModelKind, ...]) -> None:
    """Raise ``ValueError`` naming a model that is not a ``ModelKind`` or is listed twice, or LINR or WRST missing:
    eta is defined relative to them."""
    for kind in kinds:
        _check_kind(kind)
    _check_unique(kinds)
    for required in (ModelKind.LINR, ModelKind.WRST):
        if required not in kinds:
            raise ValueError(f"kinds must include {required.value}; eta is defined relative to it")


def _check_same_models(first: tuple[int, tuple[ModelKind, ...]], dist_id: int, kinds: tuple[ModelKind, ...]) -> None:
    """Raise ``ValueError`` naming both distributions unless ``kinds`` lists the models of ``first``
    (a distribution and its models) in the same order: ``summarize`` pairs fits by position."""
    if kinds != first[1]:
        raise ValueError(f"dist {dist_id} lists models {','.join(k.value for k in kinds)}, "
                         f"but dist {first[0]} lists {','.join(k.value for k in first[1])}")


def check_bench_args(dists: list[JointDist], kinds, grid: EvidenceGrid) -> None:
    """Raise ``ValueError`` naming what ``run_bench`` cannot run on; see there."""
    if not dists:
        raise ValueError("dists must be non-empty")
    _check_models(kinds)
    if len(grid.levels) < 2:
        raise ValueError(f"grid needs at least 2 levels, got {grid.levels}; a one-level grid makes the fits singular")
    if ModelKind.PWR in kinds:
        for level in grid.levels:
            if level in (0.0, 1.0):
                raise ValueError(f"grid level {level} cannot be used with PWR: {_PWR_EVIDENCE_ERROR}")


def run_bench(
    dists: list[JointDist],
    kinds: tuple[ModelKind, ...] = DEFAULT_MODELS,
    grid: EvidenceGrid = DEFAULT_GRID,
    seed: int = 0,
    jobs: int = 1,
) -> list[DistReport]:
    """Fit every requested model on every distribution and score eta.

    ``kinds`` must include LINR and WRST (eta is defined relative to them),
    and ``grid`` needs at least two levels: on one, LINR's and INDP's least
    squares are singular. With PWR no level may be 0 or 1, where its logit is
    infinite. A model may be listed once. ``seed`` must be a non-negative
    integer and ``jobs`` a positive one, Python's or numpy's but not a
    ``bool``; ``ValueError`` names either otherwise. Distributions are
    processed in consecutive chunks of at most ``_BATCH_DISTS``, each one
    oracle batch and one ``fit_batch`` call per model. ``jobs`` is first
    capped at the CPU count. With ``jobs > 1`` chunks are then processed in
    parallel, at most ``ceil(len(dists) / jobs)`` distributions each so that
    every worker gets one, by at most one worker per chunk; reports are
    returned ordered by distribution index and are identical to a serial run.
    """
    kinds = tuple(kinds)
    check_bench_args(dists, kinds, grid)
    _check_integer("seed", seed)
    _check_integer("jobs", jobs, 1)
    jobs = min(jobs, os.cpu_count() or 1)  # a worker beyond the CPUs only waits for one
    size = _BATCH_DISTS if jobs <= 1 else min(_BATCH_DISTS, math.ceil(len(dists) / jobs))
    items = [(dists[lo : lo + size], lo, kinds, grid, seed) for lo in range(0, len(dists), size)]
    workers = min(jobs, len(items))  # the pool starts all its workers at once, busy or not
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so importing uisbench loads no multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_bench_chunk, *zip(*items)))
    else:
        chunks = [_bench_chunk(*item) for item in items]
    return [report for chunk in chunks for report in chunk]


def summarize(reports: list[DistReport]) -> tuple[SummaryRow, ...]:
    """Mean, sample standard deviation and their ratio of eta per model.

    Also counts, per model, the included distributions whose fit converged.
    Degenerate distributions never contribute; failed reports are skipped.
    Raises ValueError unless at least two non-degenerate reports remain, and
    naming both distributions where an included report's models differ from
    the first's or are in another order. A zero sigma gives a signed-infinity
    ratio, or 0 where mu is 0 too.
    """
    usable = [r for r in reports if r.error is None]
    included = [r for r in usable if not r.degenerate]
    if len(included) < 2:
        raise ValueError(
            f"need at least 2 non-degenerate reports to aggregate, got {len(included)}"
        )
    n_degenerate = len(usable) - len(included)
    kinds = tuple(s.kind for s in included[0].scores)
    for r in included[1:]:
        _check_same_models((included[0].dist_id, kinds), r.dist_id, tuple(s.kind for s in r.scores))
    rows = []
    for pos, kind in enumerate(kinds):
        # sorted so aggregates are exactly permutation-invariant over reports
        values = np.sort([r.etas[pos].value for r in included])
        mu = float(np.mean(values))
        sigma = float(np.std(values, ddof=1))
        ratio = mu / sigma if sigma > 0.0 else math.copysign(math.inf, mu) if mu else 0.0  # LINR's 0/0 is 0
        n_converged = sum(r.scores[pos].converged for r in included)
        rows.append(SummaryRow(kind, mu, sigma, ratio, len(included), n_degenerate, n_converged))
    return tuple(rows)


# --- artifacts ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_report_csv(path, reports: list[DistReport]) -> None:
    """One row per (distribution, model); failed distributions carry no rows."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(REPORT_CSV_COLUMNS) + "\n")
        for report in reports:
            if report.error is not None:
                continue
            for s, e in zip(report.scores, report.etas):
                padded = [_fmt(v) for v in s.params.values]
                padded += [""] * (_MAX_PARAMS - len(padded))
                row = [
                    str(report.dist_id),
                    s.kind.value,
                    _fmt(s.epsilon),
                    _fmt(e.value),
                    "true" if e.clamped else "false",
                    "true" if e.degenerate else "false",
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


def _report_rows(path, f) -> dict[int, list[tuple[int, FitResult, tuple[float, bool, bool]]]]:
    """The rows of report file ``path``, read from text stream ``f``, by distribution: (row, fit, (eta, clamped,
    degenerate)) each, in file order. Raises ValueError naming the first row or field that does not parse."""
    by_dist: dict[int, list[tuple[int, FitResult, tuple[float, bool, bool]]]] = {}
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
            eta_read = (_read_number("eta", float, row[3]), clamped, degenerate)
            iterations, start_index = (_read_number(REPORT_CSV_COLUMNS[i], int, row[i]) for i in (7, 8))
            last = max(i for i, v in enumerate(row) if v)  # the empty fields after it pad the parameters
            values = row[9 : last + 1]
            if "" in values:
                raise ValueError(f"param{values.index('')} is empty, but a later parameter is set")
            params = ModelParams(kind, tuple(_read_number(f"param{i}", float, v) for i, v in enumerate(values)))
            fit = FitResult(params, epsilon, iterations, converged, start_index)
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None
        by_dist.setdefault(dist_id, []).append((row_no, fit, eta_read))
    return by_dist


def read_report_csv(path) -> list[DistReport]:
    """Reconstruct reports from a report CSV (enough to re-run summarize).

    Raises ValueError naming the row and field of a bad value, including a
    row without one value per column, an unknown model, a flag other than
    ``true`` and ``false``, a negative or non-finite ``epsilon``,
    ``iterations`` or ``start_index``, an empty ``paramN`` before a filled
    one, or an ``eta``, ``clamped`` or ``degenerate`` other than :func:`eta`
    gives from the distribution's ``epsilon`` values (exactly: they are written
    at 17 digits), and naming the distribution whose model list (in row order)
    differs from the first's, or that :class:`DistReport` rejects. Bytes that
    do not decode are named with their row, unless an earlier row is faulty.
    """
    try:
        with _utf8_text(path, csv=True, newline="") as f:
            by_dist = _report_rows(path, f)
    except _DecodeError as exc:
        if exc.head:  # the lines before the undecodable one come first in file order
            _report_rows(path, io.StringIO(exc.head.decode("utf-8"), newline=""))
        raise
    reports = []
    first = None
    for dist_id in sorted(by_dist):
        rows = by_dist[dist_id]
        kinds = tuple(fit.kind for _, fit, _ in rows)
        first = first or (dist_id, kinds)
        try:
            _check_same_models(first, dist_id, kinds)
            # DistReport names a model listed twice, or LINR or WRST missing
            report = DistReport(dist_id, tuple(fit for _, fit, _ in rows))
            for (row_no, _, read), e in zip(rows, report.etas):
                for name, got, want in zip(("eta", "clamped", "degenerate"), read, (e.value, e.clamped, e.degenerate)):
                    if got != want:
                        raise ValueError(f"row {row_no}: {name} is {str(got).lower()}, but the epsilons of "
                                         f"dist {dist_id} give {str(want).lower()}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        reports.append(report)
    return reports


def _spelled(x, fmt=lambda x: x):
    """``+inf`` or ``-inf`` where ``x`` is infinite, else ``fmt(x)``: how a ratio is written."""
    return ("+inf" if x > 0 else "-inf") if math.isinf(x) else fmt(x)


def write_summary_json(path, rows: tuple[SummaryRow, ...]) -> None:
    """Per model, under its name, the fields of its ``SummaryRow`` after ``kind``, in declaration order."""
    names = [f.name for f in fields(SummaryRow)[1:]]
    payload = {row.kind.value: {name: _spelled(getattr(row, name)) for name in names} for row in rows}
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def format_summary_table(rows: tuple[SummaryRow, ...]) -> str:
    """Render the summary in the two-row mu/sigma layout (plus their ratio)."""
    names = [row.kind.value for row in rows]
    width = max(8, *(len(n) for n in names)) + 2

    def line(label: str, values: list[str]) -> str:
        # a value wider than its column still keeps one space from its neighbour
        return label.ljust(10) + "".join(" " + v.rjust(width - 1) for v in values)

    out = [
        line("", names),
        line("mu", [f"{row.mu:.4f}" for row in rows]),
        line("sigma", [f"{row.sigma:.4f}" for row in rows]),
        line("mu/sigma", [_spelled(row.mu_over_sigma, "{:.2f}".format) for row in rows]),
    ]
    n_inc = rows[0].n_included
    n_deg = rows[0].n_degenerate
    out.append(f"n_included={n_inc} n_degenerate={n_deg}")
    return "\n".join(out)
