"""Minimum-cross-entropy updating of a joint under soft evidence on E1 and E2.

Given target posterior marginals (e1, e2) for the two evidence events, the
posterior is the distribution closest in KL divergence to the prior among all
distributions with those marginals (the I-projection of Csiszár, 1975). It is
computed by iterative proportional fitting (IPF) on the atoms viewed as the
(E1, E2, C) cube ``atoms.reshape(2, 2, 2)``: alternately rescale the E1=1 and
E1=0 halves of the cube to hit e1, then the E2 halves to hit e2, until both
marginals are within tolerance. Both constraints are imposed jointly as a
single projection, which is what makes the answer invariant to the order the
constraints are listed in.

Every rescaling multiplies a whole (E1, E2) cell by one factor, so the
converged posterior has the exponential-tilt form
``atom'(x) = atom(x) * a^[E1(x)] * b^[E2(x)]`` for positive scalars a, b; in
particular atoms that are zero in the prior stay zero, and P(C | E1, E2) is
unchanged within each hard-evidence cell. Hard evidence (a target of exactly
0 or 1) empties the excluded half in the first sweep, which makes the update
coincide with ordinary Bayesian conditioning.

Many queries run as the rows of one (n, 2, 2, 2) cube in :func:`_ipf_rows`.
Each row does the scalar loop's arithmetic in the same order, so the answers
are bit for bit those of one :func:`mce_update` per row; a row leaves the
batch at its own stop. :func:`_batch_answers` runs such a batch for at most
``_BATCH_SWEEPS`` sweeps and its callers redo a row still running then with
the scalar loop, in order. So rows out of reach cost what the scalar loop
makes them cost, rather than all running to the full sweep budget at the
batch's higher cost per sweep. :func:`standard_vector` runs a distribution's
grid cells as one batch, about 4x faster than 25 scalar loops on the default
grid, and ``bench`` the cells of a whole chunk of distributions, redoing one
with a failing cell by :func:`standard_vector`; ``uisbench oracle`` runs every
distribution of its file at the one evidence pair as one batch, about 5x
faster than a scalar loop per distribution over 256 of them (2-vCPU VM).
:func:`mce_update` and :func:`standard_answer` answer a single query with the
scalar loop: routed through the kernel as a batch of one, 256 single queries
took about 90 ms against 35-50 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import _RENORM_EPS, EVENT_AXES, JointDist, marginal

__all__ = [
    "EvidencePair",
    "EvidenceGrid",
    "DEFAULT_GRID",
    "InfeasibleEvidenceError",
    "ConvergenceError",
    "mce_update",
    "standard_answer",
    "standard_vector",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 10000
# standard_vector's batch stops here and hands cells still running to the
# scalar loop: fewer than 1 in 4,000 cells of sampled joints need more sweeps,
# while a cell whose evidence is out of reach runs all DEFAULT_MAX_SWEEPS, and
# a lone row sweeps faster in the scalar loop than in the batch
_BATCH_SWEEPS = 100


class InfeasibleEvidenceError(ValueError):
    """The target marginals cannot be reached from the prior's support."""


class ConvergenceError(RuntimeError):
    """IPF failed to reach tolerance within the sweep budget."""


@dataclass(frozen=True)
class EvidencePair:
    """Target posterior probabilities for E1 and E2, each in [0, 1]."""

    e1: float
    e2: float

    def __post_init__(self) -> None:
        for name, value in (("e1", self.e1), ("e2", self.e2)):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class EvidenceGrid:
    """Strictly increasing evidence levels in [0, 1], scanned over both events."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(v) for v in self.levels)
        if len(levels) == 0:
            raise ValueError("grid needs at least one level")
        for v in levels:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"grid level {v!r} outside [0, 1]")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"grid levels must be strictly increasing, got {levels}")
        object.__setattr__(self, "levels", levels)

    def pairs(self) -> list[EvidencePair]:
        """All level combinations in row-major order (e1 outer, e2 inner)."""
        return [EvidencePair(a, b) for a in self.levels for b in self.levels]


DEFAULT_GRID = EvidenceGrid((0.001, 0.25, 0.5, 0.75, 0.999))


def _check_max_sweeps(max_sweeps) -> None:
    if type(max_sweeps) is not int:  # as OptimSettings: a bool or a float is no sweep count
        raise ValueError(f"max_sweeps must be an integer, got {max_sweeps!r}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")


def _unreachable(name: str, target: float, value: int) -> InfeasibleEvidenceError:
    return InfeasibleEvidenceError(
        f"target P({name})={target!r} unreachable: P({name}) is {1 - value} on the current support"
    )


def _not_converged(residual: float, tol: float, max_sweeps: int) -> ConvergenceError:
    return ConvergenceError(f"marginal residual {residual:.3e} above tol {tol:g} after {max_sweeps} sweeps")


def mce_update(
    d: JointDist,
    ev: EvidencePair,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    sweep_order: tuple[str, str] = ("E1", "E2"),
) -> JointDist:
    """Minimum-cross-entropy posterior of ``d`` with marginals fixed to ``ev``.

    Raises :class:`InfeasibleEvidenceError` when a target marginal cannot be
    reached (e.g. e1 > 0 while P(E1) = 0 under ``d``), and
    :class:`ConvergenceError` when the sweep budget is exhausted, reporting
    the residual.
    """
    if tuple(sweep_order) not in (("E1", "E2"), ("E2", "E1")):
        raise ValueError(f"sweep_order must be a permutation of ('E1', 'E2'), got {sweep_order!r}")
    _check_max_sweeps(max_sweeps)
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    targets = {"E1": float(ev.e1), "E2": float(ev.e2)}
    atoms = np.array(d.atoms, dtype=np.float64)
    # halves[name][v] is the view of the atoms where event ``name`` is v; a sum
    # over one view adds its atoms in index order (a sum over several axes of
    # the cube would not, and would move answers in the last digit)
    cube = atoms.reshape(2, 2, 2)
    halves = {name: cube.swapaxes(0, EVENT_AXES[name]) for name in targets}
    residual = np.inf
    for _ in range(max_sweeps):
        for name in sweep_order:
            target = targets[name]
            for value, want in ((1, target), (0, 1.0 - target)):
                half = halves[name][value]
                mass = float(half.sum())
                if mass > 0.0:
                    half *= want / mass
                elif want > 0.0:  # scaling keeps an empty half empty
                    raise _unreachable(name, target, value)
        residual = max(
            abs(float(halves["E1"][1].sum()) - targets["E1"]),
            abs(float(halves["E2"][1].sum()) - targets["E2"]),
        )
        if residual <= tol:
            return JointDist(atoms)
    raise _not_converged(residual, tol, max_sweeps)


def standard_answer(d: JointDist, ev: EvidencePair) -> float:
    """Posterior P(C) after the minimum-cross-entropy update: the target each model is scored against."""
    return marginal(mce_update(d, ev), "C")


def _halves(cube: np.ndarray, axis: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The halves of the event on ``axis`` for each row of ``cube`` (rows, 2, 2, 2).

    ``h[:, v]`` is each row's E=v half. The four views, each (rows, 2, 1, 1),
    are the atoms of every half in the order ``half.sum()`` adds them.
    """
    h = cube.swapaxes(1, axis + 1)
    return h, (h[:, :, :1, :1], h[:, :, :1, 1:], h[:, :, 1:, :1], h[:, :, 1:, 1:])


def _mass(quarters: tuple[np.ndarray, ...]) -> np.ndarray:
    a, b, c, d = quarters
    return ((a + b) + c) + d


def _ipf_rows(
    atoms: np.ndarray, e1: np.ndarray, e2: np.ndarray, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> tuple[np.ndarray, list[Exception | None]]:
    """:func:`mce_update` at its default ``tol`` on each row of ``atoms`` (n, 8) at once, bit for bit.

    Returns the posterior atoms (n, 8), renormalised as :class:`JointDist`
    does, and per row ``None`` or the error ``mce_update`` would raise for it;
    a failed row's atoms are NaN. Every row runs the scalar loop's arithmetic
    in the same order, E1 then E2. A row leaves the batch once its residual
    is within ``DEFAULT_TOL`` or it has failed, and the batch is compacted
    only on sweeps where some row leaves.
    """
    _check_max_sweeps(max_sweeps)
    cube = np.array(atoms, dtype=np.float64).reshape(-1, 2, 2, 2)
    n = len(cube)
    names = ("E1", "E2")
    # per event: its targets (rows,) and the masses (rows, 2, 1, 1) its
    # (E=0, E=1) halves must reach
    targets = [np.asarray(t, dtype=np.float64).reshape(n) for t in (e1, e2)]
    want = [np.stack([1.0 - t, t], axis=1).reshape(n, 2, 1, 1) for t in targets]
    post = np.full((n, 8), np.nan)
    errors: list[Exception | None] = [None] * n
    rows = np.arange(n)
    residual = np.full(n, np.inf)
    views = [_halves(cube, EVENT_AXES[name]) for name in names]
    mass = _mass(views[0][1])  # E1's masses, carried over from the residual
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_sweeps):
            if not len(rows):
                break
            failed = None
            for k, (h, quarters) in enumerate(views):
                if k:
                    mass = _mass(quarters)
                positive = mass > 0.0
                factor = want[k] / mass
                if not positive.all():
                    # an empty half keeps factor 1; wanting mass there fails the row
                    factor = np.where(positive, factor, 1.0)
                    unreachable = ~positive & (want[k] > 0.0)
                    bad = unreachable.any(axis=(1, 2, 3))
                    if failed is None:
                        failed = np.zeros(len(rows), dtype=bool)
                    for i in np.flatnonzero(bad & ~failed):
                        value = 1 if unreachable[i, 1, 0, 0] else 0
                        errors[rows[i]] = _unreachable(names[k], float(targets[k][i]), value)
                    failed |= bad
                h *= factor
            r2 = abs(_mass(views[1][1])[:, 1, 0, 0] - targets[1])
            mass = _mass(views[0][1])
            r1 = abs(mass[:, 1, 0, 0] - targets[0])
            residual = np.where(r2 > r1, r2, r1)  # Python's max(r1, r2), NaN included
            converged = leave = residual <= DEFAULT_TOL
            if failed is not None:
                converged = converged & ~failed
                leave = converged | failed
            if leave.any():
                post[rows[converged]] = cube[converged].reshape(-1, 8)
                stay = ~leave
                cube, rows, residual = cube[stay], rows[stay], residual[stay]
                targets = [t[stay] for t in targets]
                want = [w[stay] for w in want]
                views = [_halves(cube, EVENT_AXES[name]) for name in names]
                mass = _mass(views[0][1])
    for i, r in zip(rows, residual):
        errors[i] = _not_converged(float(r), DEFAULT_TOL, max_sweeps)

    # JointDist's check and renormalisation; np.sum adds eight atoms pairwise
    a = post.T
    total = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    # a factor that overflowed to inf leaves NaN where it met a zero atom; the
    # row can still converge when that half's target is 0, and JointDist then
    # rejects it in mce_update
    for i in np.flatnonzero(~np.isfinite(total)):
        if errors[i] is None:
            try:
                JointDist(post[i])
            except ValueError as exc:
                errors[i] = exc
                post[i] = np.nan
    renorm = abs(total - 1.0) > _RENORM_EPS
    post[renorm] /= total[renorm, None]
    return post, errors


def _batch_answers(atoms, e1, e2) -> tuple[list[float], list[Exception | None]]:
    """:func:`standard_answer` on each row of ``atoms`` (n, 8) at ``(e1[k], e2[k])``, as one capped batch.

    One :func:`_ipf_rows` call runs every row for at most ``_BATCH_SWEEPS``
    sweeps. Returns per row the posterior P(C), summed in :func:`marginal`'s
    order, and ``None`` or the row's error. A row still running at the cap
    carries a :class:`ConvergenceError` (and a NaN answer): the caller redoes
    it with :func:`standard_answer`, which runs the full sweep budget. Every
    other answer and error is bit for bit that of :func:`standard_answer`.
    """
    post, errors = _ipf_rows(atoms, e1, e2, max_sweeps=_BATCH_SWEEPS)
    p_c = ((post[:, 1] + post[:, 3]) + post[:, 5]) + post[:, 7]
    return [float(c) for c in p_c], errors


def standard_vector(d: JointDist, grid: EvidenceGrid = DEFAULT_GRID) -> list[tuple[EvidencePair, float]]:
    """Standard answers over the full evidence grid, row-major (e1 outer).

    One :func:`_batch_answers` call runs every grid cell as a row of one
    batch for up to ``_BATCH_SWEEPS`` sweeps; a cell still running then is
    redone by :func:`standard_answer`, in row-major order. The answers are
    bit for bit those of :func:`standard_answer` per cell, and the error of
    the first failing cell in row-major order is raised, as a loop over the
    cells would. On the default grid this is about 4x faster than 25 scalar loops
    (see the module notes).
    """
    pairs = grid.pairs()
    answers, errors = _batch_answers(
        np.broadcast_to(d.atoms, (len(pairs), 8)), [ev.e1 for ev in pairs], [ev.e2 for ev in pairs]
    )
    for k, (ev, exc) in enumerate(zip(pairs, errors)):
        if isinstance(exc, ConvergenceError):
            answers[k] = standard_answer(d, ev)
        elif exc is not None:
            raise exc
    return list(zip(pairs, answers))
