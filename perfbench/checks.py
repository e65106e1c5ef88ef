"""Correctness gates, run outside the timed region.

Every check returns a list of failure messages; an empty list means it passed.
The oracle references share no code with the program's iterative proportional
fitting: interior evidence is solved through the two-variable convex dual
(exponential tilt) by Newton's method, and hard evidence through ordinary
conditioning (``condition_c``) and Jeffrey's rule.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-9
ETA_ANCHOR_TOL = 1e-12
NESTING_TOL = 1e-6
EXACT_TOL = 1e-12

# feature bits (E1, E2) of atom i = 4*[E1] + 2*[E2] + [C]
_FEATURES = np.array([[(i >> 2) & 1, (i >> 1) & 1] for i in range(8)], dtype=np.float64)
_C_ATOMS = np.array([i & 1 for i in range(8)], dtype=bool)


def tilt_posterior_c(atoms, e1: float, e2: float) -> float:
    """P(C) under the I-projection of ``atoms`` onto P(E1)=e1, P(E2)=e2.

    The projection is ``q ∝ p * exp(theta . (E1, E2))``; theta minimises the
    convex dual ``log sum p exp(theta . f) - theta . (e1, e2)``, found here by
    damped Newton steps. Valid for a strictly positive prior and targets
    strictly inside (0, 1).
    """
    p = np.asarray(atoms, dtype=np.float64)
    target = np.array([e1, e2])

    def tilt(theta):
        z = _FEATURES @ theta
        w = p * np.exp(z - z.max())
        total = float(w.sum())
        return w / total, float(z.max()) + math.log(total)

    def dual(theta):
        return tilt(theta)[1] - float(theta @ target)

    theta = np.zeros(2)
    for _ in range(100):
        q, log_z = tilt(theta)
        mean = _FEATURES.T @ q
        grad = mean - target
        if float(np.max(np.abs(grad))) <= 1e-15:
            break
        hess = (_FEATURES * q[:, None]).T @ _FEATURES - np.outer(mean, mean)
        step = np.linalg.solve(hess, grad)
        # backtrack while the dual rises by more than rounding noise
        f0, t = log_z - float(theta @ target), 1.0
        while t > 1e-12 and dual(theta - t * step) > f0 + 1e-14 * (1.0 + abs(f0)):
            t *= 0.5
        theta = theta - t * step
    q, _ = tilt(theta)
    if float(np.max(np.abs(_FEATURES.T @ q - target))) > 1e-13:
        raise ArithmeticError(f"tilt solve did not converge for evidence ({e1}, {e2})")
    return float(q[_C_ATOMS].sum())


def reference_answer(uis, d, e1: float, e2: float) -> float:
    """Oracle posterior of C by a route independent of the program's IPF."""
    hard1, hard2 = e1 in (0.0, 1.0), e2 in (0.0, 1.0)
    if hard1 and hard2:
        return uis.condition_c(d, bool(e1), bool(e2))
    if hard1:  # Jeffrey's rule over E2 inside the E1 cell
        h = bool(e1)
        return e2 * uis.condition_c(d, h, True) + (1.0 - e2) * uis.condition_c(d, h, False)
    if hard2:
        h = bool(e2)
        return e1 * uis.condition_c(d, True, h) + (1.0 - e1) * uis.condition_c(d, False, h)
    return tilt_posterior_c(d.atoms, e1, e2)


def check_answer(label: str, got: float, want: float) -> list[str]:
    if not abs(got - want) <= ORACLE_TOL:
        return [f"{label}: oracle gave {got!r}, reference {want!r} (|diff| {abs(got - want):.3e} > {ORACLE_TOL:g})"]
    return []


# --- bench artifacts -------------------------------------------------------------


def parse_report(data: bytes) -> dict[int, dict[str, dict[str, str]]]:
    """report.csv as {dist_id: {model: row}}, parsed without the program's reader."""
    out: dict[int, dict[str, dict[str, str]]] = {}
    for row in csv.DictReader(io.StringIO(data.decode())):
        out.setdefault(int(row["dist_id"]), {})[row["model"]] = row
    return out


def check_report(report: dict[int, dict[str, dict[str, str]]]) -> list[str]:
    """The eta anchors and the nesting bound, per distribution."""
    failures = []
    for dist_id, rows in sorted(report.items()):
        eps_wrst = float(rows["WRST"]["epsilon"])
        if rows["LINR"]["degenerate"] == "false":
            eta_linr, eta_wrst = float(rows["LINR"]["eta"]), float(rows["WRST"]["eta"])
            if abs(eta_linr) > ETA_ANCHOR_TOL:
                failures.append(f"dist {dist_id}: eta(LINR) = {eta_linr!r}, expected 0")
            if abs(eta_wrst + 1.0) > ETA_ANCHOR_TOL:
                failures.append(f"dist {dist_id}: eta(WRST) = {eta_wrst!r}, expected -1")
        for model, row in rows.items():
            if float(row["epsilon"]) > eps_wrst + NESTING_TOL:
                failures.append(f"dist {dist_id}: eps({model}) = {row['epsilon']} above eps(WRST) = {eps_wrst!r}")
    return failures


def indp_exact_excess(uis, dists, report) -> tuple[list[float], list[str]]:
    """INDP search epsilon minus the exact bounded least-squares epsilon, per distribution.

    INDP predictions are linear in its four parameters, so the exact fit is
    ``lsq_linear`` on the 25x4 bilinear design with bounds [0, 1].
    """
    from scipy.optimize import lsq_linear

    excess, failures = [], []
    for dist_id, d in enumerate(dists):
        if dist_id not in report:
            continue
        answers = uis.standard_vector(d)
        e1 = np.array([ev.e1 for ev, _ in answers])
        e2 = np.array([ev.e2 for ev, _ in answers])
        c = np.array([v for _, v in answers])
        design = np.column_stack([(1 - e1) * (1 - e2), (1 - e1) * e2, e1 * (1 - e2), e1 * e2])
        solution = lsq_linear(design, c, bounds=(0.0, 1.0), method="bvls", tol=1e-15)
        eps_exact = float(np.sqrt(np.mean((design @ solution.x - c) ** 2)))
        eps_search = float(report[dist_id]["INDP"]["epsilon"])
        if eps_exact > eps_search + EXACT_TOL:
            failures.append(f"dist {dist_id}: exact INDP eps {eps_exact!r} above the search's {eps_search!r}")
        excess.append(eps_search - eps_exact)
    return excess, failures


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest(src: Path) -> str:
    """Digest of the program's source tree, standing in for the commit."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_repeat_sha(store: Path, key: str, digest: str) -> list[str]:
    """report.csv must hash the same on every run with one key: the program's source, inputs and flags."""
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{key}.sha256"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            return [f"report.csv sha256 {digest} differs from {recorded} recorded by an earlier run ({path.name})"]
        return []
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(digest + "\n")
    partial.replace(path)  # atomic, so a concurrent run never reads half a digest
    return []
