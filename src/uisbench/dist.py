"""Joint distributions over three binary events: evidence E1, E2 and a conclusion C.

Atoms are indexed by ``i = 4*[E1] + 2*[E2] + [C]``, so ``p000`` is the mass of
(E1=0, E2=0, C=0) and ``p111`` that of (E1=1, E2=1, C=1). The same bit order is
used in the distribution CSV format. Equivalently, ``atoms.reshape(2, 2, 2)``
is the (E1, E2, C) cube, with each event on the axis given by ``EVENT_AXES``.

Two seeded generators produce the experimental families:

* :func:`sample_uniform` draws uniformly from the probability simplex over the
  eight atoms (flat Dirichlet, realised as normalised unit-exponential draws).
* :func:`sample_cond_indep` draws five conditional parameters and expands them,
  so E1 and E2 are exactly independent given C and given not-C.

Everything here is immutable after construction and every operation is a pure
function, so the module is safe to use from concurrent workers. Distribution
``k`` of a batch is drawn from an RNG substream derived from ``(seed, k)``,
which makes generation independent of batch size and execution order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EVENTS",
    "EVENT_AXES",
    "JointDist",
    "CondIndepParams",
    "atom_index",
    "new_joint",
    "marginal",
    "condition_c",
    "expand",
    "sample_uniform",
    "sample_cond_indep",
    "write_dists_csv",
    "read_dists_csv",
    "DIST_CSV_COLUMNS",
]

EVENTS = ("E1", "E2", "C")

# Axis of each event in the cube atoms.reshape(2, 2, 2): by the
# 4*[E1] + 2*[E2] + [C] convention, cube[e1, e2, c] is atom atom_index(e1, e2, c).
EVENT_AXES = {"E1": 0, "E2": 1, "C": 2}

_SUM_TOLERANCE = 1e-9
_RENORM_EPS = 1e-13  # below this the sum is left alone, keeping round-trips exact


def atom_index(e1: bool, e2: bool, c: bool) -> int:
    """Index of the atom for the outcome (E1=e1, E2=e2, C=c)."""
    return 4 * bool(e1) + 2 * bool(e2) + bool(c)


@dataclass(frozen=True, eq=False)
class JointDist:
    """A full joint distribution over (E1, E2, C): eight non-negative atoms.

    Construction validates that every atom is non-negative and that the atoms
    sum to 1 within 1e-9; the atoms are then renormalised to machine precision
    and frozen. Zero atoms stay exactly zero through renormalisation.
    """

    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.float64)
        if atoms.shape != (8,):
            raise ValueError(f"expected 8 atoms, got shape {atoms.shape}")
        bad = ~(np.isfinite(atoms) & (atoms >= 0.0))
        if bad.any():
            i = int(bad.argmax())  # the first bad atom
            raise ValueError(f"atom {i} must be a finite non-negative real, got {atoms[i]!r}")
        total = float(atoms.sum())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"atoms must sum to 1 within {_SUM_TOLERANCE:g}, got {total!r}")
        atoms = atoms / total if abs(total - 1.0) > _RENORM_EPS else atoms.copy()
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    def atom(self, e1: bool, e2: bool, c: bool) -> float:
        """Probability mass of the single outcome (E1=e1, E2=e2, C=c)."""
        return float(self.atoms[atom_index(e1, e2, c)])


def new_joint(atoms) -> JointDist:
    """Build a validated :class:`JointDist` from eight probability masses."""
    return JointDist(np.asarray(atoms, dtype=np.float64))


@dataclass(frozen=True)
class CondIndepParams:
    """Five parameters defining a joint where E1, E2 are independent given C.

    ``pc`` is the prior probability of C; the remaining four are the
    conditional probabilities of each evidence event given C and given not-C.
    All five must lie strictly inside (0, 1).
    """

    pc: float
    pe1_given_c: float
    pe1_given_not_c: float
    pe2_given_c: float
    pe2_given_not_c: float

    def __post_init__(self) -> None:
        for name, value in (
            ("pc", self.pc),
            ("pe1_given_c", self.pe1_given_c),
            ("pe1_given_not_c", self.pe1_given_not_c),
            ("pe2_given_c", self.pe2_given_c),
            ("pe2_given_not_c", self.pe2_given_not_c),
        ):
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


def marginal(d: JointDist, event: str) -> float:
    """Marginal probability that ``event`` (one of E1, E2, C) is true."""
    try:
        axis = EVENT_AXES[event]
    except KeyError:
        raise ValueError(f"unknown event {event!r}, expected one of {EVENTS}") from None
    return float(d.atoms.reshape(2, 2, 2).take(1, axis).sum())


def condition_c(d: JointDist, e1: bool, e2: bool) -> float:
    """P(C=true | E1=e1, E2=e2) by ordinary conditioning on the hard-evidence cell.

    Raises ValueError if the conditioning cell has zero probability.
    """
    p_true = d.atoms[atom_index(e1, e2, True)]
    p_false = d.atoms[atom_index(e1, e2, False)]
    cell = p_true + p_false
    if cell <= 0.0:
        raise ValueError(f"cannot condition on zero-probability cell (E1={bool(e1)}, E2={bool(e2)})")
    return float(p_true / cell)


def expand(p: CondIndepParams) -> JointDist:
    """Expand conditional-independence parameters into the full 8-atom joint.

    atom(e1, e2, c) = P(c) * P(e1|c) * P(e2|c), so the result satisfies
    conditional independence of E1 and E2 given C and given not-C exactly.
    """
    atoms = np.empty(8)
    for e1 in (0, 1):
        for e2 in (0, 1):
            for c in (0, 1):
                pc = p.pc if c else 1.0 - p.pc
                pe1 = (p.pe1_given_c if c else p.pe1_given_not_c)
                pe1 = pe1 if e1 else 1.0 - pe1
                pe2 = (p.pe2_given_c if c else p.pe2_given_not_c)
                pe2 = pe2 if e2 else 1.0 - pe2
                atoms[atom_index(e1, e2, c)] = pc * pe1 * pe2
    return JointDist(atoms)


def _substream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(k)])


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")


def sample_uniform(seed: int, n: int) -> list[JointDist]:
    """Draw ``n`` joints uniformly from the 7-simplex of 8-atom distributions.

    Uses the standard flat-Dirichlet construction: eight independent
    unit-exponential draws, normalised to sum 1.
    """
    _check_count(n)
    out = []
    for k in range(n):
        g = _substream(seed, k).exponential(size=8)
        out.append(JointDist(g / g.sum()))
    return out


def sample_cond_indep(seed: int, n: int) -> list[JointDist]:
    """Draw ``n`` joints that exactly satisfy conditional independence.

    The five parameters are drawn independently and uniformly from
    [0.01, 0.99]; the interval is kept away from {0, 1} so the expanded
    joints are never degenerate.
    """
    _check_count(n)
    out = []
    for k in range(n):
        v = _substream(seed, k).uniform(0.01, 0.99, size=5)
        out.append(expand(CondIndepParams(*v)))
    return out


# --- CSV interchange -------------------------------------------------------

DIST_CSV_COLUMNS = ("id", "p000", "p001", "p010", "p011", "p100", "p101", "p110", "p111")


def write_dists_csv(path, dists: list[JointDist]) -> None:
    """Write distributions in the interchange CSV format.

    Column bits are (E1, E2, C) per the atom index convention; probabilities
    are printed with 17 significant digits so the file round-trips exactly.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(DIST_CSV_COLUMNS) + "\n")
        for k, d in enumerate(dists):
            f.write(str(k) + "," + ",".join(f"{a:.17g}" for a in d.atoms) + "\n")


def read_dists_csv(path) -> list[JointDist]:
    """Read distributions written by :func:`write_dists_csv`.

    Rows must carry consecutive ids starting at 0; parse and validation
    errors name the offending row.
    """
    dists: list[JointDist] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != DIST_CSV_COLUMNS:
            raise ValueError(f"{path}: bad header {header!r}, expected {','.join(DIST_CSV_COLUMNS)}")
        for row_no, row in enumerate(reader):
            try:
                if len(row) != 9:
                    raise ValueError(f"expected 9 columns, got {len(row)}")
                if int(row[0]) != row_no:
                    raise ValueError(f"id {row[0]!r} out of order, expected {row_no}")
                dists.append(new_joint([float(x) for x in row[1:]]))
            except ValueError as exc:
                raise ValueError(f"{path}: row {row_no}: {exc}") from None
    return dists
