"""Fitting model parameters against a standard vector.

The objective is the root-mean-square error between a model's predictions and
the oracle's standard answers over the evidence grid. Each model has one fit
path, ``fit_batch`` over the rows of an answer matrix, and ``fit`` is its
one-row case. BST, WRST, LINR and INDP are solved exactly, so their fitted
error is the model's minimum: BST predicts the standard answers (error 0),
WRST's constant is the mean of the targets, LINR is ordinary least squares,
and INDP is least squares on the box [0, 1] (see ``_indp_exact``). LINR's and
INDP's predictions are linear in their parameters, so one function,
``_least_squares``, solves both on the design their own formula gives.

PRSP and PWR are fitted by Levenberg–Marquardt on the vector of grid
residuals (Levenberg 1944; Marquardt 1963; Moré, "The Levenberg–Marquardt
algorithm: implementation and theory", 1978), with analytic Jacobians from the
models' own formulas (``_predict_rows(..., jacobian=True)``); PRSP's is
one-sided where a rule's kink pEj sits on a grid level. PWR has no bounds and
no kinks, and random starts found it no lower minimum, so its fit is one
descent, the polish (below) with an unbounded box, from its constant start.

Only PRSP runs the multi-start search. Its parameters lie in (0, 1), so they
are searched through a logistic reparameterisation with search coordinates
clamped to |x| <= 30; the chain rule through the sigmoid gives a clamped
coordinate zero derivative. Every start is one row of a single batch, so one
``_predict_rows`` call evaluates all their trial points (see ``_lm``).
``fit_batch`` puts the starts of every row of its answer matrix into one
batch, which pays numpy's per-call overhead once per step for all of them;
rows do not interact, so each vector gets bit for bit the result ``fit``
gives it alone. The starts are the caller-supplied warm start when there is
one, a constant start at which the model predicts the mean of the targets
(every model can represent a constant, which guarantees a fit is never worse
than WRST), ``_N_STARTS`` seeded random starts and one start per cell of its
kink partition: PRSP is smooth only while each pEj stays between two
consecutive grid levels, and LM does not cross kinks well. This budget,
``_N_STARTS`` and the step cap ``_MAX_ITERS``, is part of the method, since it
moves the fitted errors, so it is fixed here and no caller sets it.

Every start of the search and every row of the polish follows one stop rule
(see ``_lm``): it leaves the batch once its error stops falling or reaches
exactly 0, or after ``_MAX_ITERS`` steps, and the batch ends with its last
row. Most starts stop early, but a few creep along a kink or a flat valley
to the cap, so the batch takes all its steps while most of its row-steps are
never taken. Each step makes one ``_predict_rows`` call, over the trial
points of the rows still in the batch; its forward pass keeps what the
Jacobian needs, and ``_lm`` completes the Jacobian and normal equations from
it only for the rows whose error fell, the only points a next step starts
from.

The starts that creep mostly head for a minimum on a bound: a pEj just inside
the lowest or highest grid level, with the conditional whose weight vanishes
there at 0 or 1, which the logistic search coordinates put at infinity. So
each PRSP fit's winning start is finished by the polish (see ``_polish``): one
more batch, one row per fitted vector, that steps in model coordinates inside
the search's range (``_SEARCH_RANGE``), where such a bound is a face that a
step reaches directly, and whose pEj cross their kinks freely. The polish
shares the search's damping, acceptance and stop rules and its step cap,
starts at the winner's values with the winner's error, and accepts only steps
that lower it, so a fit never ends above its search. Which starts creep, and
for how long, varies between distributions, so a fit's cost depends on its
data. README's Library section gives the measured figures. ``fit`` and
``fit_batch`` are pure functions of their arguments; independent fits may run
concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dist import _check_integer
from .models import (PARAM_DIM, ModelKind, ModelParams, _check_evidence, _check_kind, _evidence_levels, _predict_rows,
                     logit, predict_grid, sigmoid)

__all__ = ["FitResult", "objective", "fit", "fit_batch"]

_SEARCH_CLAMP = 30.0
# the lowest and highest value PRSP's search reaches in each model coordinate, [sigmoid(-30), sigmoid(30)]:
# the box of its starts and of its polish
_SEARCH_RANGE = sigmoid(np.array([-_SEARCH_CLAMP, _SEARCH_CLAMP]))
_PRSP_STREAM = 2  # the second key of each PRSP fit's random stream (see ``_starts``)
# Levenberg–Marquardt damping: starting value, floor (keeps the damped system
# positive definite after a long run of accepted steps) and the overflow that
# stops a row; and the cap on one step in max-norm of the search coordinates
_LAMBDA_START, _LAMBDA_MIN, _LAMBDA_MAX = 1e-3, 1e-12, 1e16
_MAX_STEP = 1.0
# a start's stop test on an accepted step: relative drop of its SSE (see ``_lm``)
_OBJ_REL_TOL = 1e-12
# the multiples of its damped step at which the polish tries each row (see ``_polish``)
_POLISH_ALPHAS = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0])
# the fit budget: the seeded random starts of each PRSP fit, and the cap on the steps of each start of
# PRSP's search and of each row of the polish, PRSP's and PWR's (see ``_starts``, ``_lm`` and ``_polish``)
_N_STARTS = 5
_MAX_ITERS = 200


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    epsilon: float
    iterations: int  # PRSP's winning start's search steps plus its polish steps, PWR's polish steps; else 0
    converged: bool
    start_index: int  # the winning start (see ``fit``)

    def __post_init__(self) -> None:
        for name in ("epsilon", "iterations", "start_index"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)!r}")

    @property
    def kind(self) -> ModelKind:
        return self.params.kind


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


def _least_squares(design: np.ndarray, c: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Least squares of each row of ``c`` (n, k) on the columns of ``design`` (k, p), once per row of ``held`` (h, p).

    A row of ``held`` holds each coefficient where it is not NaN at that value
    and leaves the others free. In each of the n·h systems a free coefficient's
    row is its row of the normal equations DᵀD b = Dᵀc, and a held one's a unit
    row; all go through one stacked solve. The held coefficients are then set
    to their held values exactly, which the solve leaves an ulp or so away.
    Returns the coefficients, (n, h, p).
    """
    free = np.isnan(held)
    lhs = np.where(free[..., None], design.T @ design, np.eye(design.shape[1]))
    rhs = np.where(free[..., None], (design.T @ c[..., None])[:, None], held[..., None])
    return np.where(free, np.linalg.solve(lhs, rhs)[..., 0], held)


def _indp_exact(e1: np.ndarray, e2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact INDP fit of each row of ``c`` (n, k): least squares on the bilinear design with every parameter in [0, 1].

    Each of the 81 active patterns holds every parameter free, at 0 or at 1,
    and is one row of ``_least_squares``' ``held``, the unconstrained pattern
    first. Its candidate is kept if its free values lie in [0, 1]; the kept
    candidate with the lowest squared error wins (the first kept one if every
    kept error overflows). The problem is convex and on a product grid of two
    or more levels every column subset has full rank, so that is the global
    minimum (Lawson & Hanson, *Solving Least Squares Problems*, 1974).
    """
    design = _predict_rows(ModelKind.INDP, np.eye(4), e1, e2).T  # column j: the table with only b_j = 1
    b = _least_squares(design, c, np.array(list(itertools.product((np.nan, 0.0, 1.0), repeat=4))))
    sse = np.sum((c[:, None] - b @ design.T) ** 2, axis=-1)
    feasible = np.all((b >= 0.0) & (b <= 1.0), axis=-1)
    rows, best = np.arange(len(c)), np.argmin(np.where(feasible, sse, np.inf), axis=1)
    # on a tie at inf, argmin picks index 0: the unconstrained candidate, feasible or not
    return b[rows, np.where(feasible[rows, best], best, np.argmax(feasible, axis=1))]


def _to_model_values(x: np.ndarray) -> np.ndarray:
    return sigmoid(np.clip(x, -_SEARCH_CLAMP, _SEARCH_CLAMP))


def _to_search_coords(values) -> np.ndarray:
    return logit(np.clip(np.asarray(values, dtype=np.float64), *_SEARCH_RANGE))


def _model(kind: ModelKind, e1: np.ndarray, e2: np.ndarray):
    """The model as ``_polish`` steps on it: points (m, n) in model coordinates map to ``_predict_rows``'
    ``(pred, jac)``. PRSP's ``models._evidence_levels(e1, e2)`` is computed here, once for every call of the map.
    """
    levels = _evidence_levels(e1, e2) if kind is ModelKind.PRSP else None
    return lambda values: _predict_rows(kind, values, e1, e2, jacobian=True, levels=levels)


def _search_model(e1: np.ndarray, e2: np.ndarray):
    """PRSP as ``_lm`` steps on it: search points ``x`` (m, 7) map to ``(pred, jac)``.

    ``pred`` (m, k) is the model's prediction at ``_to_model_values(x)``, from one ``_predict_rows`` call.
    ``jac(rows)`` completes, from that call's forward pass, the Jacobian in ``x`` of the given rows,
    (len(rows), k, 7), a new array.
    """
    model = _model(ModelKind.PRSP, e1, e2)

    def search_model(x: np.ndarray):
        values = _to_model_values(x)
        pred, jac = model(values)
        # chain rule through the sigmoid; the clamp makes a coordinate beyond it flat
        chain = np.where(np.abs(x) < _SEARCH_CLAMP, values * (1.0 - values), 0.0)

        def search_jac(rows=slice(None)):
            out = jac(rows)
            out *= chain[rows][:, None, :]
            return out

        return pred, search_jac

    return search_model


def _sse(r: np.ndarray) -> np.ndarray:
    """Per-row sum of squared residuals; inf where it is not finite."""
    sse = np.sum(r * r, axis=-1)
    return np.where(np.isfinite(sse), sse, np.inf)


def _normal_equations(jac: np.ndarray, r: np.ndarray):
    """Per row: whether the Jacobian J of the residuals ``r = pred - c`` is finite, and the normal equations JᵀJ
    and Jᵀr. J is the derivative of the predictions."""
    jt = jac.transpose(0, 2, 1)
    return np.all(np.isfinite(jac), axis=(1, 2)), jt @ jac, (jt @ r[..., None])[..., 0]


def _damped_step(jtj: np.ndarray, jtr: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Per row, the step -(JᵀJ + λD)⁻¹Jᵀr, capped at ``_MAX_STEP`` in max-norm; D is the diagonal of JᵀJ with 1
    where it is 0."""
    diag = np.diagonal(jtj, axis1=1, axis2=2)
    scale = np.where(diag > 0.0, diag, 1.0)  # a flat coordinate gets no step
    damped = jtj + (lam[:, None] * scale)[..., None] * np.eye(jtj.shape[1])
    step = -np.linalg.solve(damped, jtr[..., None])[..., 0]
    step *= (_MAX_STEP / np.maximum(np.max(np.abs(step), axis=-1), _MAX_STEP))[:, None]
    return step


def _search_trial(model, x, jtj, jtr, lam, c):
    """The search's trial point of each row: its damped step from ``x``, evaluated in one model call."""
    x_try = x + _damped_step(jtj, jtr, lam)
    pred, jac = model(x_try)
    r = pred - c
    return x_try, r, _sse(r), jac


def _descend(model, x0: np.ndarray, c: np.ndarray, max_iters: int, trial):
    """The Levenberg–Marquardt loop of the search and the polish: damping, acceptance and stop rule.

    ``model`` maps an (m, n) batch of points to their predictions (m, k) and a
    function completing the Jacobian of any of their rows. ``trial(model, x,
    jtj, jtr, lam, c)`` gives, for the rows still in the batch, at points
    ``x`` with normal equations (JᵀJ, Jᵀr), damping ``lam`` and targets ``c``,
    each row's trial point, its residuals and SSE, and the function completing
    their Jacobian, all from one model call. See ``_lm`` for the rules and the
    returned arrays.
    """
    x_end = np.array(x0, dtype=np.float64)
    pred, jac = model(x_end)
    r = pred - c
    finite, jtj, jtr = _normal_equations(jac(), r)
    sse_end = np.where(finite, _sse(r), np.inf)
    del pred, jac, r
    iters = np.zeros(len(x_end), dtype=int)
    converged = sse_end == 0.0  # an exact fit at x0 takes no step

    # the state of the rows still in the batch; ``live`` is their index in x0
    keep = np.isfinite(sse_end) & ~converged  # a start with no finite SSE is never moved
    live, x, sse, jtj, jtr, c = (a[keep] for a in (np.arange(len(x_end)), x_end, sse_end, jtj, jtr, c))
    lam = np.full(len(live), _LAMBDA_START)
    for it in range(1, max_iters + 1):
        if live.size == 0:
            break
        x_try, r, sse_try, jac = trial(model, x, jtj, jtr, lam, c)

        # only a point whose SSE fell can be accepted, so only there are derivatives needed; one
        # whose derivatives are not finite is rejected
        accepted = np.flatnonzero(sse_try < sse)
        if accepted.size:
            finite, jtj_new, jtr_new = _normal_equations(jac(accepted), r[accepted])
            if not finite.all():
                accepted, jtj_new, jtr_new = accepted[finite], jtj_new[finite], jtr_new[finite]
        del jac, r
        lam_accepted = np.maximum(lam[accepted] / 10.0, _LAMBDA_MIN)
        lam *= 10.0
        lam[accepted] = lam_accepted
        stop = lam > _LAMBDA_MAX  # a rejected step's stop: no step lowers the SSE
        if accepted.size:
            sse_old, sse_new = sse[accepted], sse_try[accepted]
            stop[accepted] = (sse_old - sse_new < _OBJ_REL_TOL * sse_old) | (sse_new == 0.0)
            x[accepted], sse[accepted], jtj[accepted], jtr[accepted] = x_try[accepted], sse_new, jtj_new, jtr_new
        if stop.any():  # the stopped rows leave the batch
            out = live[stop]
            x_end[out], sse_end[out], iters[out], converged[out] = x[stop], sse[stop], it, True
            keep = ~stop
            live, x, sse, jtj, jtr, lam, c = (a[keep] for a in (live, x, sse, jtj, jtr, lam, c))
    # the rows still in the batch ran out of steps
    x_end[live], sse_end[live], iters[live] = x, sse, max_iters
    return x_end, sse_end, iters, converged


def _lm(model, x0: np.ndarray, c: np.ndarray, max_iters: int):
    """Levenberg–Marquardt on every row of ``x0`` at once; each row is one start of the search.

    ``model`` is a map as ``_search_model`` returns: an (m, n) batch of points
    to the predictions (m, k) and a function completing the Jacobian of any of
    their rows. ``c`` holds each start's targets, one row per row of ``x0``,
    so the starts of several fits can share a batch (see ``fit_batch``); the
    residuals are ``pred - c``, so their Jacobian J is the model's. The step
    is -(JᵀJ + λD)⁻¹Jᵀr, where every row keeps its own damping λ and D is the
    diagonal of JᵀJ with 1 where it is 0. A step is capped at ``_MAX_STEP``
    in max-norm and accepted only if it lowers the row's sum of squared
    residuals (SSE) and the derivatives at the new point are finite. A row stops, and leaves
    the batch, when an accepted step lowers its SSE by a relative amount under
    ``_OBJ_REL_TOL`` or its SSE reaches exactly 0 (a start at 0 takes no
    step), when its damping passes ``_LAMBDA_MAX`` (no step lowers the SSE) or
    after ``max_iters`` steps; only the last is reported as not converged. No
    gradient test stops a row: along a sloppy direction a tiny gradient can
    still lead to a lower SSE. The batch shrinks as its rows stop, and the
    call ends when the last one does (Moré 1978). Rows interact
    through no computation, so a start's result does not depend, to the bit,
    on the other starts in the batch or on its position in it. ``_descend``
    runs these rules, which the polish shares (see ``_polish``).

    Each step makes one model evaluation, at the trial points of the rows
    still in the batch, and completes the Jacobian and normal equations only
    of the rows whose SSE fell, the only points a next step starts from. A
    start's Jacobian is thus taken once at ``x0`` and once per accepted step,
    and the model is evaluated once at ``x0`` and once per step. A row's state
    between steps is its point, SSE, damping, targets and normal equations
    (JᵀJ, Jᵀr), never its Jacobian, which is the batch's largest array. The
    state is kept for the rows still in the batch only, and compacted on a
    step where some row stops. What a forward pass keeps for the completion
    is dropped at the end of its step.

    Returns the final points, their SSE, the steps tried and the converged
    flags.
    """
    return _descend(model, x0, c, max_iters, _search_trial)


def _polish(model, x0: np.ndarray, c: np.ndarray, lo: float, hi: float, max_iters: int):
    """Levenberg–Marquardt on every row of ``x0`` at once, every coordinate boxed to [``lo``, ``hi``]: the polish.

    The arguments are those of ``_lm``, with ``model`` in model coordinates
    (``_model``), plus the bounds of the box, which holds ``x0``;
    ``fit_batch`` passes ``_SEARCH_RANGE`` for PRSP and (-inf, inf) for PWR,
    whose whole fit this is. The rows share the search's
    damping, acceptance and stop rules and its ``max_iters`` (``_descend``).
    A coordinate at a bound whose descent direction -Jᵀr leaves the box is
    held there, and the damped step d is taken on the free coordinates
    (Bertsekas, "Projected Newton methods for optimization problems with
    simple constraints", 1982). The trial points are clip(x + α·d) along the
    projected path, α in ``_POLISH_ALPHAS``, those of every row in one model
    call; a row's lowest is its trial point, the shortest on a tie. So a row
    reaches a face that the search's logistic coordinates put at infinity,
    crosses PRSP's kinks, and never ends above ``x0``. Returns what ``_lm``
    returns.
    """
    n_alphas = len(_POLISH_ALPHAS)

    def trial(model, x, jtj, jtr, lam, c):
        free = ~(((x <= lo) & (jtr > 0.0)) | ((x >= hi) & (jtr < 0.0)))
        d = _damped_step(jtj * (free[:, :, None] & free[:, None, :]), jtr * free, lam)
        points = np.clip(x[:, None] + _POLISH_ALPHAS[:, None] * d[:, None], lo, hi).reshape(-1, x.shape[1])
        pred, jac = model(points)
        r = pred - np.repeat(c, n_alphas, axis=0)
        sse = _sse(r)
        pick = np.arange(len(x)) * n_alphas + np.argmin(sse.reshape(len(x), n_alphas), axis=1)  # the first on a tie
        return points[pick], r[pick], sse[pick], lambda rows: jac(pick[rows])

    return _descend(model, x0, c, max_iters, trial)


def _target_mean(c: np.ndarray) -> np.ndarray:
    """The mean of each row of ``c``, clipped to [1e-6, 1 - 1e-6]: what PRSP's and PWR's constant starts predict."""
    return np.clip(np.mean(c, axis=1), 1e-6, 1.0 - 1e-6)


def _starts(e1: np.ndarray, e2: np.ndarray, c: np.ndarray, seeds, warm_starts) -> tuple[np.ndarray, np.ndarray]:
    """The PRSP starts of every row of ``c`` in search coordinates, and how many each row has.

    Row i of ``c`` gets a block of consecutive starts in ``start_index`` order
    (see ``fit``): ``warm_starts[i]`` when it is not ``None``; the constant
    start, at which PRSP predicts ``_target_mean`` everywhere; ``_N_STARTS``
    uniform draws on [-2, 2] from the row's own stream
    ``default_rng([seeds[i], _PRSP_STREAM])``, so a row's starts do not depend
    on the other rows; and one kink start per cell of the kink partition. A
    rule's posterior has its kink at pEj, so PRSP's fit is smooth only while
    pEj stays between two consecutive grid levels of ej; the kink starts are
    the warm start, or else the constant start, with (pE1, pE2) moved to the
    midpoints of every pair of such intervals, row-major.
    """
    m = _target_mean(c)
    half = np.full_like(m, 0.5)
    constant = np.column_stack([m, half, m, m, half, m, m])
    has_warm = np.array([w is not None for w in warm_starts])
    base = np.array([row if w is None else w.values for w, row in zip(warm_starts, constant)]).reshape(constant.shape)
    shape = (_N_STARTS, PARAM_DIM[ModelKind.PRSP])
    drawn = [np.random.default_rng([int(s), _PRSP_STREAM]).uniform(-2.0, 2.0, shape) for s in seeds]
    mids = [(levels[:-1] + levels[1:]) / 2.0 for levels in (np.unique(e1), np.unique(e2))]
    kinks = np.repeat(base[:, None], mids[0].size * mids[1].size, axis=1)
    kinks[..., 1], kinks[..., 4] = (g.reshape(-1) for g in np.meshgrid(*mids, indexing="ij"))
    starts = np.concatenate([_to_search_coords(base)[:, None], _to_search_coords(constant)[:, None],
                             np.reshape(drawn, (len(seeds), *shape)), _to_search_coords(kinks)], axis=1)
    used = np.ones(starts.shape[:2], dtype=bool)
    used[:, 0] = has_warm  # the first column is the warm start, where there is one
    return starts[used], used.sum(axis=1)


def fit_batch(kind: ModelKind, e1, e2, targets, seeds, warm_starts) -> list[FitResult]:
    """Fit ``kind`` to each row of ``targets`` (n, k), the standard answers at the evidence pairs (e1[j], e2[j]).

    ``seeds`` (non-negative integers, Python's or numpy's) and ``warm_starts``
    (``None`` for none) give one entry per row. Returns one ``FitResult`` per
    row, or raises for the whole call: ``ValueError`` on a ``kind`` that is
    not a ``ModelKind``, ``e1`` or ``e2`` that is not 1-D, evidence that
    ``models._check_evidence`` refuses (not finite, outside [0, 1], or PWR's
    at 0 or 1), non-finite targets, or a seed or a warm start of another kind
    in any row, naming the row; ``numpy.linalg.LinAlgError`` on evidence that
    makes a closed-form fit singular; and ``RuntimeError`` naming the kind
    and the first row whose best error is not finite. BST, WRST, LINR and
    INDP are solved for every row at once by stacked per-row operations,
    LINR's and INDP's systems in one stacked solve each (see
    ``_least_squares``). PWR's rows run as the rows of one ``_polish`` batch
    from their constant starts, unbounded. PRSP's starts of every row run as
    the rows of one ``_lm`` batch, and then each row's winning start as one
    row of one ``_polish`` batch, at the budget ``_N_STARTS`` and
    ``_MAX_ITERS``. Only PRSP reads ``seeds`` and ``warm_starts``. No
    operation mixes rows, so each result is bit for bit the one ``fit``
    returns.
    """
    _check_kind(kind)
    e1, e2, c = (np.asarray(a, dtype=np.float64) for a in (e1, e2, targets))
    for name, evidence in (("e1", e1), ("e2", e2)):
        if evidence.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {evidence.shape}")
    if c.ndim != 2 or not c.shape[1] == e1.size == e2.size or not len(seeds) == len(warm_starts) == len(c):
        raise ValueError(f"need targets of shape (n, {e1.size}) and one seed and one warm start per row, got "
                         f"{c.shape}, {len(seeds)} and {len(warm_starts)}")
    _check_evidence(kind, e1, e2)
    if not np.isfinite(c).all():
        raise ValueError("targets must be finite")
    for i, (seed, w) in enumerate(zip(seeds, warm_starts)):
        _check_integer(f"row {i}: seed", seed)
        if w is not None and w.kind is not kind:
            raise ValueError(f"row {i}: warm start is {w.kind.value}, expected {kind.value}")

    if kind not in (ModelKind.PRSP, ModelKind.PWR):
        if kind is ModelKind.WRST:
            values = np.mean(c, axis=1, keepdims=True)
        elif kind is ModelKind.LINR:  # ordinary least squares: every coefficient free
            # a design's memory layout fixes the order of the sums in Dᵀc, so the fit's last bits; LINR's is
            # in C order and INDP's in Fortran order, the layouts the pinned acceptance artifacts were made with
            design = np.ascontiguousarray(_predict_rows(kind, np.eye(3), e1, e2).T)
            values = _least_squares(design, c, np.full((1, 3), np.nan))[:, 0]
        elif kind is ModelKind.INDP:
            values = _indp_exact(e1, e2, c)
        else:  # BST predicts the standard answers themselves
            values = np.empty((len(c), 0))
        sse = np.zeros(len(c)) if kind is ModelKind.BST else _sse(c - _predict_rows(kind, values, e1, e2))
        iters = start = np.zeros(len(c), dtype=int)
        converged = np.ones(len(c), dtype=bool)
    elif kind is ModelKind.PWR:  # one descent from the constant start, where PWR predicts _target_mean everywhere
        m = _target_mean(c)
        x0 = np.column_stack([np.zeros_like(m), np.zeros_like(m), logit(m)])
        values, sse, iters, converged = _polish(_model(kind, e1, e2), x0, c, -np.inf, np.inf, _MAX_ITERS)
        start = np.zeros(len(c), dtype=int)
    else:
        x0, counts = _starts(e1, e2, c, seeds, warm_starts)
        x, sse, iters, converged = _lm(_search_model(e1, e2), x0, np.repeat(c, counts, axis=0), _MAX_ITERS)
        first = np.cumsum(counts) - counts
        start = np.array([np.argmin(sse[lo : lo + n]) for lo, n in zip(first, counts)], dtype=int)  # first on a tie
        best = first + start
        values = _to_model_values(x[best])
        values, sse, polish_iters, converged = _polish(_model(kind, e1, e2), values, c, *_SEARCH_RANGE, _MAX_ITERS)
        iters = iters[best] + polish_iters
    bad = np.flatnonzero(~np.isfinite(sse))
    if bad.size:
        raise RuntimeError(f"{kind.value} fit failed on row {bad[0]}: no start produced a finite error")
    eps = np.sqrt(sse / c.shape[1])
    return [FitResult(ModelParams(kind, tuple(v)), e, i, cv, s)
            for v, e, i, cv, s in zip(values, eps.tolist(), iters.tolist(), converged.tolist(), start.tolist())]


def fit(kind: ModelKind, targets, seed: int = 0, warm_start: ModelParams | None = None) -> FitResult:
    """Minimise the RMS objective for ``kind`` over the given standard vector.

    BST, WRST, LINR and INDP are solved exactly, and the result has zero
    iterations and ``converged=True`` (BST's has no parameters and error 0).
    Only PRSP reads ``seed`` and ``warm_start``. PWR runs one
    Levenberg–Marquardt descent, the polish with an unbounded box (see
    ``_polish``), from its constant start, at which it predicts the mean of
    the targets everywhere: ``start_index`` is 0 and ``iterations`` counts the
    descent's steps. PRSP runs batched Levenberg–Marquardt (see ``_lm``) from
    these starts, in this order, which ``start_index`` counts: ``warm_start``
    when given (callers typically pass the parameters read off the underlying
    joint), the constant start, ``_N_STARTS`` seeded random starts and one
    kink start per cell between consecutive grid levels of e1 and e2 (16 on
    the default grid). Every start steps until its error stops falling or
    reaches exactly 0, or for ``_MAX_ITERS`` steps (see ``_lm``), evaluating
    the model once per step at its trial point and completing the Jacobian
    there only where the step is accepted. The start with the lowest error
    wins; when several starts reach the same minimum, which one wins is
    decided at rounding level. The polish then steps from the winner, inside
    the range the search reaches, under the same rules and step cap, and its
    point is the result: ``iterations`` counts the winner's search steps plus
    the polish's. For both, ``converged`` is whether the polish stopped on its
    own rule before ``_MAX_ITERS``. Non-convergence is not an error; the best
    point found is returned with ``converged=False``. This is ``fit_batch`` on
    one row and raises its errors; an empty vector raises ``ValueError`` too.
    """
    e1, e2, c = _target_arrays(targets)
    return fit_batch(kind, e1, e2, c[None], [seed], [warm_start])[0]
