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

One vectorised check, :func:`_checked_rows`, holds the rules a joint must
meet. A single :class:`JointDist`, a sampled batch and a distribution file read
by :func:`read_atoms_csv` all go through it, the last two as one (n, 8) array.

Everything here is immutable after construction and every operation is a pure
function, so the module is safe to use from concurrent workers. Distribution
``k`` of a batch is drawn from an RNG substream derived from ``(seed, k)``,
which makes generation independent of batch size and execution order.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

__all__ = [
    "EVENTS",
    "EVENT_AXES",
    "JointDist",
    "CondIndepParams",
    "atom_index",
    "marginal",
    "condition_c",
    "expand",
    "sample_uniform",
    "sample_cond_indep",
    "write_dists_csv",
    "read_atoms_csv",
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


class _RowError(ValueError):
    """A fault of one row of an atoms array; ``row`` is its index."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


def _checked_rows(atoms: np.ndarray) -> np.ndarray:
    """The rows of ``atoms`` (n, 8) checked by :class:`JointDist`'s rules, as a new read-only array.

    Every atom must be finite and non-negative, and each row must sum to 1
    within 1e-9. A row whose sum is off by more than 1e-13 is divided by it;
    every other row is kept bit for bit, so a written file reads back exactly.
    Zero atoms stay exactly zero. Raises :class:`_RowError` for the first
    faulty row, naming its first bad atom, or else its sum.
    """
    out = atoms.copy()
    if len(atoms):
        # ufunc reductions, not the array methods: this runs for every JointDist
        totals = np.add.reduce(atoms, axis=1)
        off = np.abs(totals - 1.0)
        worst = np.maximum.reduce(off)
        # a NaN atom makes the minimum NaN and an infinite one the sum, so either fails
        if not (np.minimum.reduce(atoms, axis=None) >= 0.0 and worst <= _SUM_TOLERANCE):
            bad = ~(np.isfinite(atoms) & (atoms >= 0.0))
            row = int((bad.any(axis=1) | ~(off <= _SUM_TOLERANCE)).argmax())
            if bad[row].any():
                i = int(bad[row].argmax())
                raise _RowError(row, f"atom {i} must be a finite non-negative real, got {atoms[row, i]!r}")
            raise _RowError(row, f"atoms must sum to 1 within {_SUM_TOLERANCE:g}, got {float(totals[row])!r}")
        if worst > _RENORM_EPS:
            renorm = off > _RENORM_EPS
            out[renorm] /= totals[renorm, None]
    out.flags.writeable = False
    return out


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
        object.__setattr__(self, "atoms", _checked_rows(atoms[None])[0])


def _wrapped(checked: np.ndarray) -> list[JointDist]:
    """One :class:`JointDist` per row of an array from :func:`_checked_rows`, without checking it again."""
    out = []
    for row in checked:
        d = object.__new__(JointDist)
        object.__setattr__(d, "atoms", row)  # a view of a read-only array, so read-only too
        out.append(d)
    return out


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{f.name} must lie strictly in (0, 1), got {value!r}")


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
    return JointDist(_expanded_atoms(np.array([astuple(p)]))[0])


def _expanded_atoms(p: np.ndarray) -> np.ndarray:
    """The atoms (n, 8) of :func:`expand`, unchecked, for each row of ``p`` (n, 5).

    A row holds the fields of :class:`CondIndepParams` in order. Each atom is
    P(c) * P(e1|c) * P(e2|c), multiplied in that order.
    """
    pc = np.column_stack([1.0 - p[:, 0], p[:, 0]])  # (n, c)
    # P(ej = v | c) (n, v, c), from the columns given not-C, then given C
    pe1, pe2 = (np.stack([1.0 - q, q], axis=1) for q in (p[:, [2, 1]], p[:, [4, 3]]))
    return (pc[:, None, None] * pe1[:, :, None] * pe2[:, None]).reshape(len(p), 8)


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
    g = np.array([_substream(seed, k).exponential(size=8) for k in range(n)]).reshape(n, 8)
    return _wrapped(_checked_rows(g / g.sum(axis=1, keepdims=True)))


def sample_cond_indep(seed: int, n: int) -> list[JointDist]:
    """Draw ``n`` joints that exactly satisfy conditional independence.

    The five parameters are drawn independently and uniformly from
    [0.01, 0.99]; the interval is kept away from {0, 1} so the expanded
    joints are never degenerate.
    """
    _check_count(n)
    params = np.array([_substream(seed, k).uniform(0.01, 0.99, size=5) for k in range(n)]).reshape(n, 5)
    return _wrapped(_checked_rows(_expanded_atoms(params)))


# --- CSV interchange -------------------------------------------------------

DIST_CSV_COLUMNS = ("id", "p000", "p001", "p010", "p011", "p100", "p101", "p110", "p111")


def write_dists_csv(path, dists: list[JointDist]) -> None:
    """Write distributions in the interchange CSV format.

    Column bits are (E1, E2, C) per the atom index convention; probabilities
    are printed with 17 significant digits so the file round-trips exactly.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(DIST_CSV_COLUMNS) + "\n")
        for k, d in enumerate(dists):
            f.write(str(k) + "," + ",".join(f"{a:.17g}" for a in d.atoms) + "\n")


_BLOCK_HINT = 1 << 16  # bytes of lines read and parsed at once: a 256-row file is one block


class _DecodeError(ValueError):
    """Bytes of a file that do not decode as UTF-8; ``head`` holds the file's lines before the one that holds them."""

    def __init__(self, message: str, head: bytes) -> None:
        super().__init__(message)
        self.head = head


@contextmanager
def _utf8_text(path, csv: bool, newline: str | None = None):
    """File ``path`` opened to read as UTF-8 text, bytes that do not decode raising a :class:`_DecodeError`.

    The error names the file, the place and the byte. The place is the row
    of a CSV file whose first line is its header (``csv``), else the line,
    counted from 1.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:  # exc's position is within one decoded chunk, whole's in the file
            head = data[: whole.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")  # universal newlines
            place = ("header" if line == 0 else f"row {line - 1}") if csv else f"line {line + 1}"
            byte = f"byte {data[whole.start]:#04x} at offset {whole.start}"
            head = head[: max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]  # a line end is one byte, never in a character
            raise _DecodeError(f"{path}: {place}: {byte} is not UTF-8 ({whole.reason})", head) from None
        raise ValueError(f"{path}: {exc}") from None  # the file changed since


def _fields(line: str) -> list[str]:
    """The fields of one line of a distribution file, none for a blank line."""
    line = line.removesuffix("\n")
    return line.split(",") if line else []


def _row_atoms(line: str, row_no: int) -> list[float]:
    """The eight atoms of file row ``row_no``, or a ValueError saying why the line does not parse."""
    fields = _fields(line)
    quoted = [f for f in fields if f.startswith('"')]
    if quoted:
        raise ValueError(f"quoted field {quoted[0]!r}; fields must be unquoted")
    if len(fields) != 9:
        raise ValueError(f"expected 9 columns, got {len(fields)}")
    if int(fields[0]) != row_no:
        raise ValueError(f"id {fields[0]!r} out of order, expected {row_no}")
    return [float(x) for x in fields[1:]]


def _block_atoms(lines: list[str], first: int) -> np.ndarray:
    """The unchecked atoms (n, 8) of ``lines``, rows ``first`` on; a ValueError if any row does not parse.

    Accepts exactly the blocks whose every line :func:`_row_atoms` parses,
    with the same ``int`` and ``float``, but splits and converts the whole
    block at once.
    """
    n = len(lines)
    if set(map(str.count, lines, repeat(","))) != {8}:
        raise ValueError("a row without 9 columns")
    fields = "".join(lines).replace("\n", ",").split(",")  # only line ends hold a newline
    del fields[9 * n :]  # the empty field after the last line end, if the file has one
    if list(map(int, fields[::9])) != list(range(first, first + n)):
        raise ValueError("an id out of order")
    del fields[::9]
    return np.fromiter(map(float, fields), np.float64, 8 * n).reshape(n, 8)


def _first_fault(path, blocks: list[np.ndarray], lines: list[str], first: int) -> ValueError:
    """The error naming the first faulty row of a file whose block ``lines`` (rows ``first`` on) does not
    parse; ``blocks`` holds the atoms of every row before it."""
    rows: list[list[float]] = []
    for row_no, line in enumerate(lines, start=first):
        try:
            rows.append(_row_atoms(line, row_no))
        except ValueError as exc:
            fault = _RowError(row_no, str(exc))
            break
    try:
        _checked_rows(np.concatenate([*blocks, np.array(rows, dtype=np.float64).reshape(len(rows), 8)]))
    except _RowError as exc:
        fault = exc  # rows stop before the parse fault, so this row comes first
    return ValueError(f"{path}: row {fault.row}: {fault}")


def read_atoms_csv(path) -> np.ndarray:
    """Read the atoms of the distributions written by :func:`write_dists_csv`.

    Returns one read-only (n, 8) array whose rows are checked and renormalised
    as :class:`JointDist` does it, row ``k`` being bit for bit
    ``JointDist(...).atoms`` of the file's row ``k``. The file is UTF-8 text
    with LF or CRLF line ends and unquoted fields; atoms take Python
    ``float`` syntax. Rows must carry consecutive ids starting at 0. The first
    faulty row in file order is named, whether it fails to parse, to validate
    or to decode; a blank line or a quoted field fails to parse. Bytes that do
    not decode are named with their row.
    """
    try:
        with _utf8_text(path, csv=True) as f:
            return _file_atoms(path, f)
    except _DecodeError as exc:
        if exc.head:  # the lines before the undecodable one come first in file order
            _file_atoms(path, io.StringIO(exc.head.decode("utf-8"), newline=None))  # universal newlines, as open's
        raise


def _file_atoms(path, f) -> np.ndarray:
    """The checked atoms of distribution file ``path``, read from text stream ``f``."""
    blocks = [np.empty((0, 8))]
    n = 0
    line = f.readline()
    header = _fields(line) if line else None
    if header != list(DIST_CSV_COLUMNS):
        raise ValueError(f"{path}: bad header {header!r}, expected {','.join(DIST_CSV_COLUMNS)}")
    while lines := f.readlines(_BLOCK_HINT):
        try:
            blocks.append(_block_atoms(lines, n))
        except ValueError:
            raise _first_fault(path, blocks, lines, n) from None
        n += len(lines)
    atoms = np.concatenate(blocks)
    del blocks  # before _checked_rows copies atoms, so the file's atoms are held twice at most
    try:
        return _checked_rows(atoms)
    except _RowError as exc:
        raise ValueError(f"{path}: row {exc.row}: {exc}") from None


def read_dists_csv(path) -> list[JointDist]:
    """Read distributions written by :func:`write_dists_csv`, as :func:`read_atoms_csv` does."""
    return _wrapped(read_atoms_csv(path))
