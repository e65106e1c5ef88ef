"""Fitting model parameters against a standard vector.

The objective is the root-mean-square error between a model's predictions and
the oracle's standard answers over the evidence grid. Each model has one fit
path. WRST, LINR and INDP are solved exactly, so their fitted error is the
model's minimum: WRST's constant is the mean of the targets, LINR is ordinary
least squares, and INDP, whose predictions are linear in its parameters, is
least squares on the box [0, 1] (see ``_indp_exact``).

PRSP and PWR are fitted by a deflected-gradient (quasi-Newton) descent: the
step direction is the negative gradient deflected through a running
inverse-curvature estimate, updated with a standard secant-condition
(BFGS-style) rank update after each accepted step and reset to the identity
every N+1 iterations, where N is the number of free parameters. Gradients are
central finite differences in the search coordinates; steps are accepted
through a backtracking line search that halves the step until the objective
decreases. PRSP's bounded parameters are searched through a logistic
reparameterisation so the search itself is unconstrained; search coordinates
are clamped to |x| <= 30 to keep the sigmoid out of saturation.

Every search runs from several starts: the caller-supplied warm start when
there is one, a constant-baseline start at the mean of the targets (every
model can represent a constant, which guarantees a fit is never worse than
WRST), and ``n_starts`` seeded random starts. ``fit`` is a pure function of
its arguments; independent fits may run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .models import PARAM_DIM, ModelKind, ModelParams, _predict_rows, logit, predict_grid, sigmoid

__all__ = ["OptimSettings", "FitResult", "objective", "ols_linr", "fit"]

_SEARCH_CLAMP = 30.0
_BOUNDED_KINDS = (ModelKind.PRSP,)
_KIND_INDEX = {kind: i for i, kind in enumerate(ModelKind)}
# the 81 active patterns of INDP's four parameters: nan is free, else held there
_INDP_PATTERNS = np.array(list(itertools.product((np.nan, 0.0, 1.0), repeat=4)))


@dataclass(frozen=True)
class OptimSettings:
    """Knobs of the multistart search (PRSP and PWR); all must be positive.

    The closed-form fits ignore them. The inverse-curvature reset period is
    not a knob: it is fixed at N+1 iterations for an N-parameter model.
    """

    n_starts: int = 5
    max_iters: int = 500
    grad_tol: float = 1e-8
    obj_rel_tol: float = 1e-12
    fd_step: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_starts < 1 or self.max_iters < 1:
            raise ValueError("n_starts and max_iters must be positive")
        if min(self.grad_tol, self.obj_rel_tol, self.fd_step) <= 0.0:
            raise ValueError("tolerances and fd_step must be positive")


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    epsilon: float
    iterations: int
    converged: bool
    start_index: int

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon!r}")


def _target_arrays(targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not targets:
        raise ValueError("targets must be non-empty")
    e1 = np.array([ev.e1 for ev, _ in targets], dtype=np.float64)
    e2 = np.array([ev.e2 for ev, _ in targets], dtype=np.float64)
    c = np.array([v for _, v in targets], dtype=np.float64)
    return e1, e2, c


def objective(params: ModelParams, targets) -> float:
    """Root-mean-square error of the model against the standard vector."""
    e1, e2, c = _target_arrays(targets)
    if params.kind is ModelKind.BST:
        return 0.0
    pred = predict_grid(params.kind, params.values, e1, e2)
    return float(np.sqrt(np.mean((c - pred) ** 2)))


def ols_linr(targets) -> ModelParams:
    """Exact least-squares LINR solution via the normal equations.

    This is LINR's fit. Raises ``numpy.linalg.LinAlgError`` when the grid is
    degenerate (design matrix singular).
    """
    e1, e2, c = _target_arrays(targets)
    design = np.column_stack([e1, e2, np.ones_like(e1)])
    beta = np.linalg.solve(design.T @ design, design.T @ c)
    return ModelParams(ModelKind.LINR, tuple(beta))


def _indp_exact(e1: np.ndarray, e2: np.ndarray, c: np.ndarray) -> ModelParams:
    """Exact INDP fit: least squares on the bilinear design with every parameter in [0, 1].

    Each of the 81 active patterns holds every parameter free, at 0 or at 1.
    The free columns' normal equations give a candidate, kept if its free
    values lie in [0, 1]; the kept candidate with the lowest squared error
    wins. The problem is convex and on a product grid of two or more levels
    every column subset has full rank, so that is the global minimum (Lawson
    & Hanson, *Solving Least Squares Problems*, 1974).
    """
    design = _predict_rows(ModelKind.INDP, np.eye(4), e1, e2).T  # column j: the table with only b_j = 1
    best, best_sse = None, np.inf
    for pattern in _INDP_PATTERNS:
        free = np.isnan(pattern)
        b = np.where(free, 0.0, pattern)
        if free.any():
            cols = design[:, free]
            b[free] = np.linalg.solve(cols.T @ cols, cols.T @ (c - design @ b))
            if np.any(b[free] < 0.0) or np.any(b[free] > 1.0):
                continue
        sse = float(np.sum((c - design @ b) ** 2))
        if sse < best_sse:
            best, best_sse = b, sse
    return ModelParams(ModelKind.INDP, tuple(best))


def _to_model_values(kind: ModelKind, x: np.ndarray) -> np.ndarray:
    if kind in _BOUNDED_KINDS:
        return sigmoid(np.clip(x, -_SEARCH_CLAMP, _SEARCH_CLAMP))
    return x


def _to_search_coords(kind: ModelKind, values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if kind in _BOUNDED_KINDS:
        lo, hi = float(sigmoid(-_SEARCH_CLAMP)), float(sigmoid(_SEARCH_CLAMP))
        return np.asarray(logit(np.clip(x, lo, hi)), dtype=np.float64)
    return x.copy()


def _fd_grad(f_rows, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient; all 2n perturbed points in one batch."""
    n = x.size
    points = np.repeat(x[None, :], 2 * n, axis=0)
    idx = np.arange(n)
    points[idx, idx] += h
    points[n + idx, idx] -= h
    vals = f_rows(points)
    return (vals[:n] - vals[n:]) / (2.0 * h)


def _search(f, f_rows, x0: np.ndarray, settings: OptimSettings):
    """Deflected-gradient descent from one start.

    ``f`` evaluates a single search vector, ``f_rows`` a batch of them (used
    for finite-difference gradients). Returns (x, fx, iterations, converged,
    history) where history is the sequence of accepted objective values,
    starting with f(x0).
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    n = x.size
    fx = f(x)
    history = [fx]
    if not np.isfinite(fx):
        return x, np.inf, 0, False, history

    reset_period = n + 1
    curv = np.eye(n)
    g = _fd_grad(f_rows, x, settings.fd_step)
    converged = False
    iterations = 0
    for it in range(1, settings.max_iters + 1):
        iterations = it
        if not np.all(np.isfinite(g)):
            break
        if float(np.linalg.norm(g)) < settings.grad_tol:
            converged = True
            break
        if it % reset_period == 0:
            curv = np.eye(n)
        direction = -(curv @ g)
        if float(direction @ g) >= 0.0:
            curv = np.eye(n)
            direction = -g

        step = 1.0
        accepted = False
        for _ in range(50):
            x_new = x + step * direction
            f_new = f(x_new)
            if np.isfinite(f_new) and f_new < fx:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no descent along the deflected direction
            break

        g_new = _fd_grad(f_rows, x_new, settings.fd_step)
        s = x_new - x
        y = g_new - g
        ys = float(y @ s)
        if ys > 1e-12:
            rho = 1.0 / ys
            left = np.eye(n) - rho * np.outer(s, y)
            curv = left @ curv @ left.T + rho * np.outer(s, s)
        else:
            curv = np.eye(n)

        rel_drop = (fx - f_new) / max(abs(fx), 1e-300)
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        if rel_drop < settings.obj_rel_tol:
            converged = True
            break
    return x, fx, iterations, converged, history


def _constant_start(kind: ModelKind, mean_target: float) -> tuple[float, ...]:
    """PWR or PRSP parameters at which the model predicts the target mean everywhere."""
    m = min(max(mean_target, 1e-6), 1.0 - 1e-6)
    if kind is ModelKind.PWR:
        return (0.0, 0.0, float(logit(m)))
    return (m, 0.5, m, m, 0.5, m, m)


def fit(
    kind: ModelKind,
    targets,
    settings: OptimSettings | None = None,
    seed: int = 0,
    warm_start: ModelParams | None = None,
) -> FitResult:
    """Minimise the RMS objective for ``kind`` over the given standard vector.

    WRST, LINR and INDP are solved exactly: ``settings``, ``seed`` and
    ``warm_start`` do not affect them, and the result has zero iterations and
    ``converged=True``. PRSP and PWR run the multistart search; ``warm_start``
    is then an extra start (callers typically pass the parameters read off the
    underlying joint). Non-convergence within the iteration budget is not an
    error; the best point found is returned with ``converged=False``. A fit
    error is raised only if no start produces a finite objective. A warm start
    of another kind is rejected for every model.
    """
    settings = settings or OptimSettings()
    if kind is ModelKind.BST:
        raise ValueError("BST requires no fit; its error is zero by definition")
    if warm_start is not None and warm_start.kind is not kind:
        raise ValueError(f"warm start is {warm_start.kind.value}, expected {kind.value}")

    e1, e2, c = _target_arrays(targets)
    if kind in (ModelKind.WRST, ModelKind.LINR, ModelKind.INDP):
        if kind is ModelKind.WRST:
            params = ModelParams(kind, (float(np.mean(c)),))
        elif kind is ModelKind.LINR:
            params = ols_linr(targets)
        else:
            params = _indp_exact(e1, e2, c)
        return FitResult(params, objective(params, targets), 0, True, 0)

    def f_rows(points: np.ndarray) -> np.ndarray:
        pred = _predict_rows(kind, _to_model_values(kind, points), e1, e2)
        rms = np.sqrt(np.mean((c - pred) ** 2, axis=-1))
        return np.where(np.isfinite(rms), rms, np.inf)

    def f(x: np.ndarray) -> float:
        return float(f_rows(x[None, :])[0])

    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(_to_search_coords(kind, warm_start.values))
    starts.append(_to_search_coords(kind, _constant_start(kind, float(np.mean(c)))))

    dim = PARAM_DIM[kind]
    rng = np.random.default_rng([int(seed), _KIND_INDEX[kind]])
    spread = 2.0 if kind in _BOUNDED_KINDS else 1.0
    for _ in range(settings.n_starts):
        starts.append(rng.uniform(-spread, spread, size=dim))

    best = None
    for idx, x0 in enumerate(starts):
        x, fx, iters, converged, _ = _search(f, f_rows, x0, settings)
        if np.isfinite(fx) and (best is None or fx < best[1]):
            best = (x, fx, iters, converged, idx)
    if best is None:
        raise RuntimeError(f"{kind.value} fit failed: no start produced a finite objective")

    x, fx, iters, converged, idx = best
    params = ModelParams(kind, tuple(_to_model_values(kind, x)))
    return FitResult(params, fx, iters, converged, idx)
