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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import EVENT_AXES, JointDist, marginal

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
    if set(sweep_order) != {"E1", "E2"}:
        raise ValueError(f"sweep_order must be a permutation of ('E1', 'E2'), got {sweep_order!r}")
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
                    raise InfeasibleEvidenceError(
                        f"target P({name})={target!r} unreachable: P({name}) is {1 - value} on the current support"
                    )
        residual = max(
            abs(float(halves["E1"][1].sum()) - targets["E1"]),
            abs(float(halves["E2"][1].sum()) - targets["E2"]),
        )
        if residual <= tol:
            return JointDist(atoms)
    raise ConvergenceError(
        f"marginal residual {residual:.3e} above tol {tol:g} after {max_sweeps} sweeps"
    )


def standard_answer(d: JointDist, ev: EvidencePair) -> float:
    """Posterior P(C) after the minimum-cross-entropy update: the target each model is scored against."""
    return marginal(mce_update(d, ev), "C")


def standard_vector(d: JointDist, grid: EvidenceGrid = DEFAULT_GRID) -> list[tuple[EvidencePair, float]]:
    """Standard answers over the full evidence grid, row-major (e1 outer)."""
    return [(ev, standard_answer(d, ev)) for ev in grid.pairs()]
