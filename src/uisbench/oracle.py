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

Every query is a row of one vectorised computation, :func:`_posterior_rows`:
:func:`mce_update` and :func:`standard_answer` are a batch of one,
:func:`standard_vector` runs a distribution's grid cells, ``bench`` every grid
cell of a chunk of distributions and ``uisbench oracle`` every distribution of
its file at one evidence pair. Rows do not interact, so a query's answer is
bit for bit the same in any batch.
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

# a posterior cell within this of 0 counts as 0 (see _posterior_rows)
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


@dataclass(frozen=True)
class EvidenceGrid:
    """Strictly increasing evidence levels in [0, 1], scanned over both events.

    The level pairs are built once; equality, hashing, ``repr`` and pickling
    see only ``levels``.
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


def _infeasible(m: np.ndarray, e1: float, e2: float) -> InfeasibleEvidenceError:
    """The error of a target outside the hull of the support; ``m`` holds the prior's cell masses (2, 2).

    A half of E1 or E2 that is empty on the support the hard evidence leaves,
    where the target wants mass, is named as such, E1 first; otherwise the
    empty cells are named.
    """
    kept = m * np.outer([e1 < 1.0, e1 > 0.0], [e2 < 1.0, e2 > 0.0])
    for name, half, target in (("E1", kept.sum(axis=1), e1), ("E2", kept.sum(axis=0), e2)):
        for value, want in ((1, target), (0, 1.0 - target)):
            if half[value] == 0.0 and want > 0.0:
                return _unreachable(name, target, value)
    cells = " and ".join(f"({i}, {j})" for i in (0, 1) for j in (0, 1) if m[i, j] == 0.0)
    return InfeasibleEvidenceError(
        f"target P(E1)={e1!r}, P(E2)={e2!r} unreachable: P(E1, E2) is 0 at {cells} on the current support"
    )


def _posterior_rows(atoms, e1, e2) -> tuple[np.ndarray, list[Exception | None]]:
    """:func:`mce_update` on each row of ``atoms`` (n, 8) at ``(e1[k], e2[k])``, in closed form.

    Returns the posterior atoms (n, 8) and per row ``None`` or its
    :class:`InfeasibleEvidenceError`; a failed row's atoms are NaN.

    With m_ij the prior mass of the cell (E1=i, E2=j), x = q11 is fixed by,
    in order of precedence:

    * hard evidence: 0 where e1 or e2 is 0, e2 where e1 is 1, e1 where e2 is 1;
    * an empty cell: the x that empties that cell of the table, 0 for (1, 1),
      e1 for (1, 0), e2 for (0, 1) and e2 - (1 - e1) for (0, 0);
    * otherwise the root of the module's quadratic, divided by 1 + theta:
      A x^2 + B x - C = 0 with w = theta / (1 + theta), v = 1 / (1 + theta),
      A = v - w, B = v - A (e1 + e2) and C = w e1 e2. w and v are formed from
      the masses' mantissas and exponents, so theta cannot under- or
      overflow on denormal or tiny cells. The discriminant is summed as
      B^2 + 4AC when A >= 0 and as v^2 - 2vA (e1 (1 - e2) + e2 (1 - e1)) +
      A^2 (e1 - e2)^2 when A < 0, and x as 2C / (B + sqrt D) when B > 0 and
      (sqrt D - B) / 2A otherwise (where A > 0): no term cancels.

    The table is q11 = x, q10 = e1 - x, q01 = e2 - x and q00 = (1 - e1) - q01,
    exact at hard evidence. **Rounding rule:** the margins fix a table only to
    rounding (1 - 0.7 - 0.3 is 5.6e-17, and 1 + 0.3 - 1 is not 0.3), so a cell
    within ``_CELL_TOL`` (1e-15) of 0 counts as 0. A row fails when a cell of
    its table is below -1e-15, or a cell empty in the prior is above 1e-15;
    otherwise negative cells are clipped to 0 and empty ones set to 0. The
    posterior atoms are q_ij times P(atom | cell (i, j)).
    """
    p = np.asarray(atoms, dtype=np.float64).reshape(-1, 4, 2)  # (row, cell 2i + j, C)
    n = len(p)
    e1 = np.asarray(e1, dtype=np.float64).reshape(n)
    e2 = np.asarray(e2, dtype=np.float64).reshape(n)
    m = p[:, :, 0] + p[:, :, 1]
    empty = m == 0.0
    frac, expo = np.frexp(m)
    shift = expo[:, 1] + expo[:, 2] - expo[:, 0] - expo[:, 3]
    a = np.ldexp(frac[:, 0] * frac[:, 3], np.minimum(-shift, 0))  # m00 m11 and m01 m10, scaled alike
    b = np.ldexp(frac[:, 1] * frac[:, 2], np.minimum(shift, 0))
    # rows with an empty cell divide 0 by 0 here; their x is fixed below
    with np.errstate(divide="ignore", invalid="ignore"):
        w, v = a / (a + b), b / (a + b)
        lead = v - w
        lin = v - lead * (e1 + e2)
        const = w * e1 * e2
        disc = np.where(
            lead >= 0.0,
            lin * lin + 4.0 * lead * const,
            v * v - 2.0 * v * lead * (e1 * (1.0 - e2) + e2 * (1.0 - e1)) + (lead * (e1 - e2)) ** 2,
        )
        root = np.sqrt(disc)
        x = np.where(lin > 0.0, 2.0 * const / (lin + root), (root - lin) / (2.0 * lead))
    for cell, pin in enumerate((e2 - (1.0 - e1), e2, e1, 0.0)):
        x = np.where(empty[:, cell], pin, x)
    x = np.where((e1 == 0.0) | (e2 == 0.0), 0.0, np.where(e1 == 1.0, e2, np.where(e2 == 1.0, e1, x)))

    q = np.empty((n, 4))
    q[:, 3], q[:, 2], q[:, 1] = x, e1 - x, e2 - x
    q[:, 0] = (1.0 - e1) - q[:, 1]
    failed = (q < -_CELL_TOL).any(axis=1) | (empty & (q > _CELL_TOL)).any(axis=1)
    q = np.where(empty, 0.0, np.maximum(q, 0.0))
    given_cell = np.divide(p, m[:, :, None], out=np.zeros_like(p), where=~empty[:, :, None])
    post = (q[:, :, None] * given_cell).reshape(n, 8)
    post[failed] = np.nan
    errors: list[Exception | None] = [None] * n
    for i in np.flatnonzero(failed):
        errors[i] = _infeasible(m[i].reshape(2, 2), float(e1[i]), float(e2[i]))
    return post, errors


def _batch_answers(atoms, e1, e2) -> tuple[list[float], list[Exception | None]]:
    """:func:`standard_answer` on each row of ``atoms`` (n, 8) at ``(e1[k], e2[k])``.

    Returns per row the posterior P(C), summed in :func:`~uisbench.dist.marginal`'s
    order (NaN where the row failed), and ``None`` or the row's error.
    """
    post, errors = _posterior_rows(atoms, e1, e2)
    p_c = ((post[:, 1] + post[:, 3]) + post[:, 5]) + post[:, 7]
    return p_c.tolist(), errors


def _raise_first(errors: list[Exception | None]) -> None:
    for exc in errors:
        if exc is not None:
            raise exc


def mce_update(d: JointDist, ev: EvidencePair) -> JointDist:
    """Minimum-cross-entropy posterior of ``d`` with marginals fixed to ``ev``.

    Raises :class:`InfeasibleEvidenceError` when no distribution on the
    support of ``d`` has those marginals (e.g. e1 > 0 while P(E1) = 0 under
    ``d``).
    """
    post, errors = _posterior_rows(d.atoms[None], [ev.e1], [ev.e2])
    _raise_first(errors)
    return JointDist(post[0])


def standard_answer(d: JointDist, ev: EvidencePair) -> float:
    """Posterior P(C) after the minimum-cross-entropy update: the target each model is scored against."""
    answers, errors = _batch_answers(d.atoms[None], [ev.e1], [ev.e2])
    _raise_first(errors)
    return answers[0]


def standard_vector(d: JointDist, grid: EvidenceGrid = DEFAULT_GRID) -> list[tuple[EvidencePair, float]]:
    """Standard answers over the full evidence grid, row-major (e1 outer).

    The grid cells are the rows of one batch, so each answer is bit for bit
    that of :func:`standard_answer`, and the error of the first failing cell in
    row-major order is raised, as a loop over the cells would.
    """
    pairs = grid.pairs()
    answers, errors = _batch_answers(
        np.broadcast_to(d.atoms, (len(pairs), 8)), [ev.e1 for ev in pairs], [ev.e2 for ev in pairs]
    )
    _raise_first(errors)
    return list(zip(pairs, answers))
