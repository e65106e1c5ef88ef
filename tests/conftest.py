"""Shared helpers: extra distribution families and independent oracles.

The dual-solver here re-derives the minimum-cross-entropy posterior by a
completely different route (convex minimisation of the log-partition dual via
scipy) so the closed-form oracle can be checked against something it shares
no code with. ``reference_lm`` is the Levenberg–Marquardt loop that takes
the whole Jacobian at every trial point, which ``optim._lm`` must match bit
for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from uisbench.dist import JointDist, atom_index, new_joint
from uisbench.optim import _LAMBDA_MAX, _LAMBDA_MIN, _LAMBDA_START, _MAX_STEP, _OBJ_REL_TOL

GRID_LEVELS = (0.001, 0.25, 0.5, 0.75, 0.999)

# P(E1=0) is denormal and its (0, 1) cell empty: iterative fitting overflowed
# here and left NaN atoms at (0, 0)
DENORMAL_ROW = [1e-320, 1e-320, 0, 0, 0.25, 0.25, 0.25, 0.25]

# one line per acceptance criterion, echoed after the run so the PASS/FAIL
# verdicts survive pytest's output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def sample_marginal_indep(seed: int, n: int) -> list[JointDist]:
    """Joints where E1 and E2 are independent in the prior.

    Built as the product of an (E1, E2)-independent pair with arbitrary
    conditionals of C, kept away from the boundary so every hard-evidence
    cell is usable.
    """
    out = []
    for k in range(n):
        rng = np.random.default_rng([int(seed), 977, k])
        pe1, pe2 = rng.uniform(0.05, 0.95, size=2)
        b = rng.uniform(0.02, 0.98, size=4)  # b00, b01, b10, b11
        atoms = np.empty(8)
        for e1 in (0, 1):
            for e2 in (0, 1):
                w = (pe1 if e1 else 1.0 - pe1) * (pe2 if e2 else 1.0 - pe2)
                bij = b[2 * e1 + e2]
                atoms[atom_index(e1, e2, 1)] = w * bij
                atoms[atom_index(e1, e2, 0)] = w * (1.0 - bij)
        out.append(new_joint(atoms))
    return out


_CELLS = [(e1, e2) for e1 in (0, 1) for e2 in (0, 1)]


def planted_zero_atoms(seed: int, n: int) -> list:
    """Joints with zero atoms planted in three patterns.

    The first two empty one whole (E1, E2) cell, (1, 1) and then (1, 0), so
    the support reaches only e1 + e2 <= 1 and e1 <= e2: on the default grid
    each has 5 cells on that face, answered from the face's cells, and 10
    beyond it, infeasible though no half of E1 or E2 is empty. The rest
    alternate between one to three zero atoms in distinct cells, where every
    grid is answered, and an emptied half of E1 or E2 plus one more zero atom,
    where interior evidence is infeasible.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        atoms = rng.exponential(size=8)
        if k < 2:
            e1, e2 = _CELLS[3 - k]
            atoms[atom_index(e1, e2, 0)] = atoms[atom_index(e1, e2, 1)] = 0.0
        elif k % 2:
            for e1, e2 in rng.permutation(_CELLS)[: rng.integers(1, 4)]:
                atoms[atom_index(e1, e2, rng.integers(2))] = 0.0
        else:
            atoms.reshape(2, 2, 2).swapaxes(0, rng.integers(2))[rng.integers(2)] = 0.0
            atoms[atom_index(*rng.permutation(_CELLS)[0], rng.integers(2))] = 0.0
        out.append(new_joint(atoms / atoms.sum()))
    return out


def dual_tilt_posterior(d: JointDist, e1: float, e2: float) -> np.ndarray:
    """I-projection onto {P(E1)=e1, P(E2)=e2} by minimising the convex dual.

    Only valid for strictly positive priors and targets strictly inside
    (0, 1). Returns the posterior atoms.
    """
    p = np.asarray(d.atoms)
    feats = np.array([[(i >> 2) & 1, (i >> 1) & 1] for i in range(8)], dtype=float)
    target = np.array([e1, e2])

    def dual(theta):
        z = feats @ theta
        m = z.max()
        logz = m + np.log(np.sum(p * np.exp(z - m)))
        return logz - theta @ target

    def grad(theta):
        w = p * np.exp(feats @ theta)
        w = w / w.sum()
        return feats.T @ w - target

    res = scipy.optimize.minimize(dual, np.zeros(2), jac=grad, method="BFGS",
                                  options={"gtol": 1e-13, "maxiter": 500})
    w = p * np.exp(feats @ res.x)
    return w / w.sum()


def _reference_evaluate(model, x, c):
    pred, jac = model(x)
    r = c - pred
    jac = -jac()
    sse = np.sum(r * r, axis=-1)
    finite = np.isfinite(sse) & np.all(np.isfinite(jac), axis=(1, 2))
    jt = jac.transpose(0, 2, 1)
    return np.where(finite, sse, np.inf), jt @ jac, (jt @ r[..., None])[..., 0]


def reference_lm(model, x0, c, settings):
    """``optim._lm`` with the whole Jacobian and normal equations taken at every trial point.

    Takes the same arguments and returns the same four arrays, plus the number
    of accepted row-steps: the count of Jacobian rows ``_lm`` completes after
    those at ``x0``. It keeps the state of every row and steps the rows not
    yet stopped by their indices.
    """
    x = np.array(x0, dtype=np.float64)
    sse, jtj, jtr = _reference_evaluate(model, x, c)
    lam = np.full(len(x), _LAMBDA_START)
    iters = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    n_accepted = 0
    active = np.flatnonzero(np.isfinite(sse))
    for it in range(1, settings.max_iters + 1):
        if active.size == 0:
            break

        a_jtj = jtj[active]
        diag = np.diagonal(a_jtj, axis1=1, axis2=2)
        scale = np.where(diag > 0.0, diag, 1.0)
        damped = a_jtj + (lam[active, None] * scale)[..., None] * np.eye(x.shape[1])
        step = -np.linalg.solve(damped, jtr[active][..., None])[..., 0]
        step *= (_MAX_STEP / np.maximum(np.max(np.abs(step), axis=-1), _MAX_STEP))[:, None]
        x_try = x[active] + step
        sse_try, jtj_try, jtr_try = _reference_evaluate(model, x_try, c[active])
        iters[active] = it

        sse_old = sse[active]
        accepted = sse_try < sse_old
        n_accepted += int(accepted.sum())
        acc = active[accepted]
        x[acc], sse[acc], jtj[acc], jtr[acc] = x_try[accepted], sse_try[accepted], jtj_try[accepted], jtr_try[accepted]
        lam[active] = np.where(accepted, np.maximum(lam[active] / 10.0, _LAMBDA_MIN), lam[active] * 10.0)
        done = np.where(accepted, sse_old - sse_try < _OBJ_REL_TOL * sse_old, lam[active] > _LAMBDA_MAX)
        converged[active[done]] = True
        active = active[~done]
    return x, sse, iters, converged, n_accepted


def counting(predict_rows, events):
    """Wrap ``_predict_rows`` to append (kind, "forward", rows) to ``events`` per call, and
    (kind, "jacobian", rows) per completion of a Jacobian from its forward pass."""
    def counted(kind, values, *args, **kwargs):
        out = predict_rows(kind, values, *args, **kwargs)
        events.append((kind, "forward", len(values)))
        if not kwargs.get("jacobian"):
            return out
        pred, jac = out

        def counted_jac(rows=slice(None)):
            completed = jac(rows)
            events.append((kind, "jacobian", len(completed)))
            return completed

        return pred, counted_jac

    return counted


def assert_batch_calls(calls, model, x0, c, settings):
    """Check one ``_lm`` batch's evaluations, given as ("forward" or "jacobian", rows) per event.

    The first call evaluates every row of ``x0``, whose Jacobian is completed
    for every row. Then step ``it`` makes exactly one call, over the rows not
    yet stopped, those that ``reference_lm`` steps ``it`` times or more, and
    the batch ends with its last row. The completed Jacobian rows add up to
    the batch plus its accepted row-steps.
    """
    calls = list(calls)  # before the reference adds its own
    *_, iters, _, n_accepted = reference_lm(model, x0, c, settings)
    assert calls[:2] == [("forward", len(x0)), ("jacobian", len(x0))]
    assert [rows for event, rows in calls[2:] if event == "forward"] == [
        int(np.count_nonzero(iters >= it)) for it in range(1, iters.max() + 1)
    ]
    assert sum(rows for event, rows in calls if event == "jacobian") == len(x0) + n_accepted
