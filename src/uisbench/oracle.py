"""Minimum-cross-entropy updating of a joint under soft evidence on E1 and E2.

Given target posterior marginals (e1, e2) for the two evidence events, the
posterior is the distribution closest in KL divergence to the prior among all
distributions with those marginals (the I-projection of Csiszár, 1975). It has
the exponential-tilt form ``atom'(x) = atom(x) * a^[E1(x)] * b^[E2(x)]``: each
(E1, E2) cell is rescaled as a whole, so P(C | E1, E2) is unchanged within
every cell, atoms that are zero in the prior stay zero, and the posterior cell
table q keeps the prior's odds ratio theta = p00 p11 / (p01 p10) (Mosteller,
"Association and estimation in contingency tables", 1968). With q11 = x the
margins fix the rest of the table, q10 = e1 - x, q01 = e2 - x and
q00 = 1 - e1 - e2 + x, and the odds ratio makes x the one root in
[max(0, e1 + e2 - 1), min(e1, e2)] of

    (1 - theta) x^2 + (1 + (theta - 1)(e1 + e2)) x - theta e1 e2 = 0,

so the update is solved in closed form, with no iteration.

A cell that is empty in the prior stays empty, which fixes x linearly. The
target must then lie in the convex hull of the prior's non-empty cells; on a
face of that hull (e1 + e2 = 1 when the (1, 1) cell is empty, say) the
posterior lives on the face's cells, and a target outside the hull raises
:class:`InfeasibleEvidenceError` at once. Hard evidence (a target of exactly 0
or 1) fixes x too, and the update is then ordinary Bayesian conditioning (or
Jeffrey's rule when one target is soft).

One vectorised computation, :func:`_posteriors`, solves every query: it
takes distributions (n, 8) and the evidence terms of pairs (k,), and returns
each query's posterior cell table q with each distribution's P(atom | cell).
The terms of the pairs alone (1 - e1, 1 - e1 - e2, e1 + e2, 1 - e2 and the
hard-evidence masks) are built by :func:`_evidence`; an :class:`EvidenceGrid`
builds its own once, for every call at its pairs. The prior's terms are
computed once per distribution for all its pairs. An answer, P(C), is summed
straight from the cell table as q_ij P(C | cell (i, j)) over the four cells;
only :func:`mce_update` multiplies the table out into posterior atoms.
:func:`mce_update` and :func:`standard_answer` are a call of one distribution
at one pair, :func:`standard_vector` one distribution at its grid's pairs,
``bench`` a chunk of distributions at the grid's pairs and ``uisbench oracle``
every distribution of its file at its one pair. A query's answer does not
depend on the other distributions and pairs of its call, so it is bit for bit
the same in any call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import JointDist

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

# a posterior cell within this of 0 counts as 0 (see _posteriors)
_CELL_TOL = 1e-15


class InfeasibleEvidenceError(ValueError):
    """The target marginals cannot be reached from the prior's support."""


class ConvergenceError(RuntimeError):
    """Formerly raised when iterative fitting ran out of sweeps.

    The oracle is solved in closed form and never raises it. The name stays
    because the perfbench harness catches it.
    """


@dataclass(frozen=True)
class EvidencePair:
    """Target posterior probabilities for E1 and E2, each in [0, 1]."""

    e1: float
    e2: float

    def __post_init__(self) -> None:
        for name, value in (("e1", self.e1), ("e2", self.e2)):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True, eq=False)
class _Evidence:
    """The terms of evidence pairs (k,) that do not depend on the prior, as read-only arrays.

    ``t`` is 1 - e1 - e2 formed by a two-sum (see :func:`_evidence`);
    ``hard`` is the masks (e1 or e2 is 0, e1 is 1, e2 is 1), or ``None`` when
    no target is 0 or 1.
    """

    e1: np.ndarray
    e2: np.ndarray
    h1: np.ndarray  # 1 - e1
    t: np.ndarray
    s: np.ndarray  # e1 + e2
    h2: np.ndarray  # 1 - e2
    hard: tuple[np.ndarray, np.ndarray, np.ndarray] | None


def _evidence(e1, e2) -> _Evidence:
    """The :class:`_Evidence` of the pairs ``(e1[j], e2[j])``, on copies of the targets."""
    e1 = np.array(e1, dtype=np.float64).reshape(-1)
    e2 = np.array(e2, dtype=np.float64).reshape(-1)
    h1, h2 = 1.0 - e1, 1.0 - e2
    # t = 1 - e1 - e2 as (h1 - e2) + h1_lo, where h1 + h1_lo = 1 - e1 exactly (Dekker's fast two-sum, as 1 >= e1);
    # h1 - e2 is exact where e2 lies in [h1 / 2, 2 h1] (Sterbenz), so t is correctly rounded near the face e1 + e2 = 1
    t = (h1 - e2) + ((1.0 - h1) - e1)
    s = e1 + e2
    masks = ((e1 == 0.0) | (e2 == 0.0), e1 == 1.0, e2 == 1.0)
    for array in (e1, e2, h1, h2, t, s, *masks):
        array.setflags(write=False)
    hard = masks if any(np.count_nonzero(mask) for mask in masks) else None
    return _Evidence(e1, e2, h1, t, s, h2, hard)


@dataclass(frozen=True)
class EvidenceGrid:
    """Strictly increasing evidence levels in [0, 1], scanned over both events.

    The level pairs are built once, with their targets as read-only arrays
    ``e1`` and ``e2`` in the same order and their :class:`_Evidence` as
    ``evidence``; equality, hashing, ``repr`` and pickling see only ``levels``.
    """

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
        object.__setattr__(self, "_pairs", tuple(EvidencePair(a, b) for a in levels for b in levels))
        evidence = _evidence([ev.e1 for ev in self._pairs], [ev.e2 for ev in self._pairs])
        object.__setattr__(self, "evidence", evidence)
        object.__setattr__(self, "e1", evidence.e1)
        object.__setattr__(self, "e2", evidence.e2)

    def __reduce__(self):
        return EvidenceGrid, (self.levels,)

    def pairs(self) -> list[EvidencePair]:
        """All level combinations in row-major order (e1 outer, e2 inner)."""
        return list(self._pairs)


DEFAULT_GRID = EvidenceGrid((0.001, 0.25, 0.5, 0.75, 0.999))


def _unreachable(name: str, target: float, value: int) -> InfeasibleEvidenceError:
    return InfeasibleEvidenceError(
        f"target P({name})={target!r} unreachable: P({name}) is {1 - value} on the current support"
    )


def _infeasible(atoms: np.ndarray, e1: float, e2: float) -> InfeasibleEvidenceError:
    """The error of a target outside the hull of the support of the prior ``atoms`` (8,).

    A half of E1 or E2 that is empty on the support the hard evidence leaves,
    where the target wants mass, is named as such, E1 first; otherwise the
    empty cells are named.
    """
    m = atoms.reshape(2, 2, 2).sum(axis=2)  # the cell masses (E1, E2)
    kept = m * np.outer([e1 < 1.0, e1 > 0.0], [e2 < 1.0, e2 > 0.0])
    for name, half, target in (("E1", kept.sum(axis=1), e1), ("E2", kept.sum(axis=0), e2)):
        for value, want in ((1, target), (0, 1.0 - target)):
            if half[value] == 0.0 and want > 0.0:
                return _unreachable(name, target, value)
    cells = " and ".join(f"({i}, {j})" for i in (0, 1) for j in (0, 1) if m[i, j] == 0.0)
    return InfeasibleEvidenceError(
        f"target P(E1)={e1!r}, P(E2)={e2!r} unreachable: P(E1, E2) is 0 at {cells} on the current support"
    )


def _posteriors(atoms, evidence: _Evidence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mce_update` of each row of ``atoms`` (n, 8) at each pair of ``evidence`` (k,), in closed form.

    Returns the posterior cell table q (n, k, 4), indexed by cell 2i + j,
    P(atom | cell) (n, 4, 2), indexed by cell and C, and the failed mask
    (n, k); a failed query's cells are NaN. The posterior atoms are q_ij times
    P(atom | cell (i, j)), and only :func:`mce_update` forms them; an answer
    is summed from q and P(C | cell) (see :func:`_batch_answers`).

    With m_ij the prior mass of the cell (E1=i, E2=j), x = q11 is fixed by,
    in order of precedence:

    * hard evidence: 0 where e1 or e2 is 0, e2 where e1 is 1, e1 where e2 is 1;
    * an empty cell: the x that empties that cell of the table, 0 for (1, 1),
      e1 for (1, 0), e2 for (0, 1) and e2 - (1 - e1) for (0, 0);
    * otherwise the root of the module's quadratic, divided by 1 + theta:
      A x^2 + B x - C = 0 with w = theta / (1 + theta), v = 1 / (1 + theta),
      A = v - w, B = v (1 - e1 - e2) + w (e1 + e2) and C = w e1 e2. w and v
      are formed from the masses' mantissas and exponents, so theta cannot
      under- or overflow on denormal or tiny cells. 1 - e1 - e2 is rounded
      once near the face e1 + e2 = 1, so where e1 + e2 <= 1 B is a sum of two
      non-negative terms and keeps its relative accuracy on the face, where
      it is about w and v - A (e1 + e2) would cancel two numbers near 1. The
      discriminant B^2 + 4AC is summed as (B - 2w e2)^2 + 4vw e2 (1 - e2),
      two terms that are non-negative for either sign of A, and x as
      2C / (B + sqrt D) when B > 0 and (sqrt D - B) / 2A otherwise (where
      A > 0): no term cancels.

    The table is q11 = x, q10 = e1 - x, q01 = e2 - x and q00 = (1 - e1) - q01,
    exact at hard evidence. **Rounding rule:** the margins fix a table only to
    rounding (1 - 0.7 - 0.3 is 5.6e-17, and 1 + 0.3 - 1 is not 0.3), so a cell
    within ``_CELL_TOL`` (1e-15) of 0 counts as 0. A query fails when a cell of
    its table is below -1e-15, or a cell empty in the prior is above 1e-15;
    otherwise negative cells are clipped to 0 and empty ones set to 0.

    The terms of the pairs alone come built in ``evidence``, and those of the
    prior alone (m, w, v, A and P(atom | cell)) are computed once per
    distribution, as (n, 1) columns. A selection that changes nothing is
    skipped: the empty-cell steps where no cell is empty and the hard-evidence
    pins where no target is 0 or 1. Every element takes the same
    floating-point operations in any call.
    """
    p = np.asarray(atoms, dtype=np.float64).reshape(-1, 4, 2)  # (distribution, cell 2i + j, C)
    e1, e2 = evidence.e1, evidence.e2
    n, k = len(p), len(e1)
    m = p[:, :, 0] + p[:, :, 1]
    empty = m == 0.0
    some_empty = np.count_nonzero(empty)
    frac, expo = np.frexp(m)
    # m00 m11 and m01 m10 as mantissa products, the larger one's scale taken out of both
    pair_expo = expo[:, :2] + expo[:, :1:-1]
    ab = np.ldexp(frac[:, :2] * frac[:, :1:-1], np.minimum(pair_expo - pair_expo[:, ::-1], 0))
    # a distribution with an empty cell may divide 0 by 0 here; its x is pinned below
    with np.errstate(divide="ignore", invalid="ignore"):
        wv = ab / (ab[:, :1] + ab[:, 1:])
        w, v = wv[:, :1], wv[:, 1:]
        lead = v - w
        lin = v * evidence.t + w * evidence.s
        const = w * e1 * e2
        root = np.sqrt((lin - 2.0 * w * e2) ** 2 + 4.0 * v * w * e2 * evidence.h2)
        x = np.where(lin > 0.0, 2.0 * const / (lin + root), (root - lin) / (2.0 * lead))
    if some_empty:
        for cell, pin in enumerate((e2 - evidence.h1, e2, e1, 0.0)):
            x = np.where(empty[:, cell, None], pin, x)
    if evidence.hard is not None:
        zero, one1, one2 = evidence.hard
        x = np.where(zero, 0.0, np.where(one1, e2, np.where(one2, e1, x)))

    q = np.empty((n, k, 4))
    q[:, :, 3], q[:, :, 2], q[:, :, 1] = x, e1 - x, e2 - x
    q[:, :, 0] = evidence.h1 - q[:, :, 1]
    failed = (q < -_CELL_TOL).any(axis=2)
    if some_empty:
        failed |= (empty[:, None] & (q > _CELL_TOL)).any(axis=2)
        q = np.where(empty[:, None], 0.0, np.maximum(q, 0.0))
        given_cell = np.divide(p, m[:, :, None], out=np.zeros_like(p), where=~empty[:, :, None])
    else:
        q = np.maximum(q, 0.0)
        given_cell = p / m[:, :, None]
    if np.count_nonzero(failed):
        q[failed] = np.nan
    return q, given_cell, failed


def _first_errors(atoms: np.ndarray, evidence: _Evidence, failed: np.ndarray) -> list[InfeasibleEvidenceError | None]:
    """Per row of ``atoms`` ``None``, or the error of its first failed pair of ``evidence`` in ``failed`` (n, k)."""
    errors: list[InfeasibleEvidenceError | None] = [None] * len(failed)
    if not np.count_nonzero(failed):
        return errors
    for i in np.flatnonzero(failed.any(axis=1)):
        j = failed[i].argmax()
        errors[i] = _infeasible(atoms[i], float(evidence.e1[j]), float(evidence.e2[j]))
    return errors


def _batch_answers(atoms, evidence: _Evidence) -> tuple[np.ndarray, list[InfeasibleEvidenceError | None]]:
    """:func:`standard_answer` of each row of ``atoms`` (n, 8) at each pair of ``evidence`` (k,).

    Returns the answers (n, k) and per distribution ``None`` or the error of
    its first failed pair, as a loop over the pairs would raise. An answer is
    ((q00 g00 + q01 g01) + q10 g10) + q11 g11 with g = P(C | cell): the
    posterior atoms with C summed in :func:`~uisbench.dist.marginal`'s order,
    bit for bit, without forming them (NaN where a query failed).
    """
    atoms = np.asarray(atoms, dtype=np.float64).reshape(-1, 8)
    q, given_cell, failed = _posteriors(atoms, evidence)
    terms = q * given_cell[:, None, :, 1]
    answers = ((terms[:, :, 0] + terms[:, :, 1]) + terms[:, :, 2]) + terms[:, :, 3]
    return answers, _first_errors(atoms, evidence, failed)


def _raise_first(errors: list[InfeasibleEvidenceError | None]) -> None:
    for exc in errors:
        if exc is not None:
            raise exc


def mce_update(d: JointDist, ev: EvidencePair) -> JointDist:
    """Minimum-cross-entropy posterior of ``d`` with marginals fixed to ``ev``.

    Raises :class:`InfeasibleEvidenceError` when no distribution on the
    support of ``d`` has those marginals (e.g. e1 > 0 while P(E1) = 0 under
    ``d``).
    """
    evidence = _evidence([ev.e1], [ev.e2])
    q, given_cell, failed = _posteriors(d.atoms[None], evidence)
    _raise_first(_first_errors(d.atoms[None], evidence, failed))
    return JointDist((q[0, 0, :, None] * given_cell[0]).reshape(8))


def standard_answer(d: JointDist, ev: EvidencePair) -> float:
    """Posterior P(C) after the minimum-cross-entropy update: the target each model is scored against."""
    answers, errors = _batch_answers(d.atoms[None], _evidence([ev.e1], [ev.e2]))
    _raise_first(errors)
    return float(answers[0, 0])


def standard_vector(d: JointDist, grid: EvidenceGrid = DEFAULT_GRID) -> list[tuple[EvidencePair, float]]:
    """Standard answers over the full evidence grid, row-major (e1 outer).

    The grid's pairs are one call of the oracle, so each answer is bit for bit
    that of :func:`standard_answer`, and the error of the first failing pair in
    row-major order is raised, as a loop over the pairs would.
    """
    answers, errors = _batch_answers(d.atoms[None], grid.evidence)
    _raise_first(errors)
    return list(zip(grid._pairs, answers[0].tolist()))
