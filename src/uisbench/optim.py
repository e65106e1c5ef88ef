"""Fitting model parameters against a standard vector.

The objective is the root-mean-square error between a model's predictions and
the oracle's standard answers over the evidence grid. Each model has one fit
path, ``fit_batch`` over the rows of an answer matrix, and ``fit`` is its
one-row case. WRST, LINR and INDP are solved exactly, so their fitted error is
the model's minimum: WRST's constant is the mean of the targets, LINR is
ordinary least squares, and INDP, whose predictions are linear in its
parameters, is least squares on the box [0, 1] (see ``_indp_exact``).

PRSP and PWR are fitted by Levenberg–Marquardt on the vector of grid
residuals (Levenberg 1944; Marquardt 1963; Moré, "The Levenberg–Marquardt
algorithm: implementation and theory", 1978). Their Jacobians are analytic and
come from the models' own formulas (``_predict_rows(..., jacobian=True)``);
PRSP's is one-sided where a rule's kink pEj sits on a grid level. PRSP's
parameters must lie in (0, 1), so they are searched through a logistic
reparameterisation with search coordinates clamped to |x| <= 30; the chain
rule through the sigmoid gives a clamped coordinate zero derivative.

Every start is one row of a single batch, so one ``_predict_rows`` call
evaluates all their trial points (see ``_lm``). ``fit_batch`` puts the starts
of every row of its answer matrix into one batch, which pays numpy's per-call
overhead once per step for all of them; rows do not interact, so each vector
gets bit for bit the result ``fit`` gives it alone. The starts are the
caller-supplied warm start when there is one, a constant-baseline start at the
mean of the targets (every model can represent a constant, which guarantees a
fit is never worse than WRST), ``n_starts`` seeded random starts and, for PRSP,
one start per cell of its kink partition: PRSP is smooth only while each pEj
stays between two consecutive grid levels, and LM does not cross kinks well.

Every start of PRSP and PWR follows one stop rule (see ``_lm``): it leaves the
batch once its error stops falling or after ``max_iters`` steps, and the batch
ends with its last start. On the two 109-distribution acceptance runs, each
fitted as one batch of 2,507 PRSP starts, the median start stops after 13
(uniform) or 23 (cond_indep) steps, but 156 and 174 starts creep along a kink
or a flat valley to ``max_iters``, so the batch takes all 500 steps; 143,971
(11%, uniform) and 224,834 (18%, cond_indep) of its 1,253,500 row-steps are
taken. About three in five of them are accepted (60% and 56%). Each step makes
one ``_predict_rows`` call, over the trial points of the rows still in the
batch; its forward pass keeps what the Jacobian needs, and ``_lm`` completes
the Jacobian and normal equations from it only for the rows whose error fell,
the only points a next step starts from. On a 2-vCPU VM the forward pass with
its residuals takes about 0.04 ms for one row, 0.18 ms for a 14-distribution
run's 322 rows and 2.2 ms for an acceptance run's 2,507; completing the
Jacobian and normal equations of as many rows takes 0.05–0.08, 1.0 and 7 ms.
Which starts creep, and for how long, varies between distributions, so a fit's
cost depends on its data: over perfbench seeds 0–9, ten samples of 14
distributions, bench throughput (``dists_per_kref``) ranged 81–94 (uniform) and
58–139 (cond_indep). PWR's starts stop within 36 steps on the acceptance runs,
though one held-out start took 324. ``fit`` and ``fit_batch`` are pure
functions of their arguments; independent fits may run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .models import PARAM_DIM, ModelKind, ModelParams, _evidence_levels, _predict_rows, logit, predict_grid, sigmoid

__all__ = ["OptimSettings", "FitResult", "objective", "fit", "fit_batch"]

_SEARCH_CLAMP = 30.0
_BOUNDED_KINDS = (ModelKind.PRSP,)
_KIND_INDEX = {kind: i for i, kind in enumerate(ModelKind)}
# Levenberg–Marquardt damping: starting value, floor (keeps the damped system
# positive definite after a long run of accepted steps) and the overflow that
# stops a row; and the cap on one step in max-norm of the search coordinates
_LAMBDA_START, _LAMBDA_MIN, _LAMBDA_MAX = 1e-3, 1e-12, 1e16
_MAX_STEP = 1.0
# a start's stop test on an accepted step: relative drop of its SSE (see ``_lm``)
_OBJ_REL_TOL = 1e-12


def _indp_groups() -> list[tuple[np.ndarray, np.ndarray]]:
    """INDP's 81 active patterns grouped by free columns.

    Per free mask, one row per way to hold the other parameters at 0 or 1; the
    free entries are left at 0.
    """
    groups = []
    for free in itertools.product((True, False), repeat=4):
        free = np.array(free)
        n_held = int((~free).sum())
        held = np.zeros((2**n_held, 4))
        held[:, ~free] = list(itertools.product((0.0, 1.0), repeat=n_held))
        groups.append((free, held))
    return groups


_INDP_GROUPS = _indp_groups()


@dataclass(frozen=True)
class OptimSettings:
    """Settings of the Levenberg–Marquardt fit of PRSP and PWR; both are positive integers.

    ``n_starts`` seeded random starts join the fixed ones; ``max_iters`` caps
    the steps tried per start, and a start that reaches it before its error
    stops falling is reported as not converged (see ``_lm``). A step costs one
    model evaluation at the trial point; when the step is accepted, the
    Jacobian and normal equations are completed from that evaluation. The
    closed-form fits ignore them.
    """

    n_starts: int = 5
    max_iters: int = 500

    def __post_init__(self) -> None:
        for name in ("n_starts", "max_iters"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


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


def _indp_exact(e1: np.ndarray, e2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact INDP fit of each row of ``c`` (n, k): least squares on the bilinear design with every parameter in [0, 1].

    Each of the 81 active patterns holds every parameter free, at 0 or at 1.
    The free columns' normal equations give a candidate, kept if its free
    values lie in [0, 1]; the kept candidate with the lowest squared error
    wins (the first kept one if every kept error overflows). Patterns sharing
    their free columns are solved together, one right-hand side each, in one
    stack of solves over the rows. The problem is convex and on a product grid
    of two or more levels every column subset has full rank, so that is the
    global minimum (Lawson & Hanson, *Solving Least Squares Problems*, 1974).
    """
    design = _predict_rows(ModelKind.INDP, np.eye(4), e1, e2).T  # column j: the table with only b_j = 1
    candidates = []
    for free, held in _INDP_GROUPS:
        b = np.repeat(held[None], len(c), axis=0)
        if free.any():
            cols = design[:, free]
            rhs = cols.T @ (c[..., None] - design @ held.T)
            b[..., free] = np.linalg.solve(cols.T @ cols, rhs).transpose(0, 2, 1)
        candidates.append(b)
    b = np.concatenate(candidates, axis=1)
    sse = np.sum((c[:, None] - b @ design.T) ** 2, axis=-1)
    feasible = np.all((b >= 0.0) & (b <= 1.0), axis=-1)
    rows, best = np.arange(len(c)), np.argmin(np.where(feasible, sse, np.inf), axis=1)
    # on a tie at inf, argmin picks index 0: the unconstrained candidate, feasible or not
    return b[rows, np.where(feasible[rows, best], best, np.argmax(feasible, axis=1))]


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


def _search_model(kind: ModelKind, e1: np.ndarray, e2: np.ndarray, levels=None):
    """The model as ``_lm`` steps on it: search points ``x`` (m, n) map to ``(pred, jac)``.

    ``pred`` (m, k) is the model's prediction at ``_to_model_values(kind, x)``, from one ``_predict_rows``
    call. ``jac(rows)`` completes, from that call's forward pass, the Jacobian in ``x`` of the given rows,
    (len(rows), k, n), a new array. ``levels`` is ``models._evidence_levels(e1, e2)``, which the caller may
    compute once for many calls.
    """
    def model(x: np.ndarray):
        values = _to_model_values(kind, x)
        pred, jac = _predict_rows(kind, values, e1, e2, jacobian=True, levels=levels)
        if kind not in _BOUNDED_KINDS:
            return pred, jac
        # chain rule through the sigmoid; the clamp makes a coordinate beyond it flat
        chain = np.where(np.abs(x) < _SEARCH_CLAMP, values * (1.0 - values), 0.0)

        def search_jac(rows=slice(None)):
            out = jac(rows)
            out *= chain[rows][:, None, :]
            return out

        return pred, search_jac

    return model


def _sse(r: np.ndarray) -> np.ndarray:
    """Per-row sum of squared residuals; inf where it is not finite."""
    sse = np.sum(r * r, axis=-1)
    return np.where(np.isfinite(sse), sse, np.inf)


def _normal_equations(dpred: np.ndarray, r: np.ndarray):
    """Per row: whether the derivatives are finite, and the normal equations JᵀJ and Jᵀr.

    ``dpred`` is the derivative of the predictions, so J, that of the residuals ``r``, is its negative;
    it is negated in place, as the batch's largest array is not copied.
    """
    jac = np.negative(dpred, out=dpred)
    jt = jac.transpose(0, 2, 1)
    return np.all(np.isfinite(jac), axis=(1, 2)), jt @ jac, (jt @ r[..., None])[..., 0]


def _lm(model, x0: np.ndarray, c: np.ndarray, settings: OptimSettings):
    """Levenberg–Marquardt on every row of ``x0`` at once; each row is one start.

    ``model`` is a map as ``_search_model`` returns: an (m, n) batch of points
    to the predictions (m, k) and a function completing the Jacobian of any of
    their rows. ``c`` holds each start's targets, one row per row of ``x0``,
    so the starts of several fits can share a batch (see ``fit_batch``); the
    residuals are ``c - pred``. Every row keeps its own damping, scaled by the
    diagonal of JᵀJ. A step is capped at ``_MAX_STEP`` in max-norm and
    accepted only if it lowers the row's sum of squared residuals (SSE) and
    the derivatives at the new point are finite. A row stops, and leaves
    the batch, when an accepted step lowers its SSE by a relative amount under
    ``_OBJ_REL_TOL``, when its damping passes ``_LAMBDA_MAX`` (no step lowers
    the SSE) or after ``max_iters`` steps; only the last is reported as not
    converged. No gradient test stops a row: along a sloppy direction a tiny
    gradient can still lead to a lower SSE. The batch shrinks as its rows
    stop, and the call ends when the last one does (Moré 1978). Rows interact
    through no computation, so a start's result does not depend, to the bit,
    on the other starts in the batch or on its position in it.

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
    x_end = np.array(x0, dtype=np.float64)
    pred, jac = model(x_end)
    r = c - pred
    finite, jtj, jtr = _normal_equations(jac(), r)
    sse_end = np.where(finite, _sse(r), np.inf)
    del pred, jac, r
    iters = np.zeros(len(x_end), dtype=int)
    converged = np.zeros(len(x_end), dtype=bool)
    eye = np.eye(x_end.shape[1])

    # the state of the rows still in the batch; ``live`` is their index in x0
    keep = np.isfinite(sse_end)  # a start with no finite SSE is never moved
    live, x, sse, jtj, jtr, c = (a[keep] for a in (np.arange(len(x_end)), x_end, sse_end, jtj, jtr, c))
    lam = np.full(len(live), _LAMBDA_START)
    for it in range(1, settings.max_iters + 1):
        if live.size == 0:
            break
        diag = np.diagonal(jtj, axis1=1, axis2=2)
        scale = np.where(diag > 0.0, diag, 1.0)  # a flat coordinate gets no step
        damped = jtj + (lam[:, None] * scale)[..., None] * eye
        step = -np.linalg.solve(damped, jtr[..., None])[..., 0]
        step *= (_MAX_STEP / np.maximum(np.max(np.abs(step), axis=-1), _MAX_STEP))[:, None]
        x_try = x + step
        pred, jac = model(x_try)
        r = c - pred
        sse_try = _sse(r)

        # only a point whose SSE fell can be accepted, so only there are derivatives needed; one
        # whose derivatives are not finite is rejected
        accepted = np.flatnonzero(sse_try < sse)
        if accepted.size:
            finite, jtj_new, jtr_new = _normal_equations(jac(accepted), r[accepted])
            if not finite.all():
                accepted, jtj_new, jtr_new = accepted[finite], jtj_new[finite], jtr_new[finite]
        del pred, jac, r
        lam_accepted = np.maximum(lam[accepted] / 10.0, _LAMBDA_MIN)
        lam *= 10.0
        lam[accepted] = lam_accepted
        stop = lam > _LAMBDA_MAX  # a rejected step's stop: no step lowers the SSE
        if accepted.size:
            sse_old, sse_new = sse[accepted], sse_try[accepted]
            stop[accepted] = sse_old - sse_new < _OBJ_REL_TOL * sse_old
            x[accepted], sse[accepted], jtj[accepted], jtr[accepted] = x_try[accepted], sse_new, jtj_new, jtr_new
        if stop.any():  # the stopped rows leave the batch
            out = live[stop]
            x_end[out], sse_end[out], iters[out], converged[out] = x[stop], sse[stop], it, True
            keep = ~stop
            live, x, sse, jtj, jtr, lam, c = (a[keep] for a in (live, x, sse, jtj, jtr, lam, c))
    # the rows still in the batch ran out of steps
    x_end[live], sse_end[live], iters[live] = x, sse, settings.max_iters
    return x_end, sse_end, iters, converged


def _starts(kind: ModelKind, e1: np.ndarray, e2: np.ndarray, c: np.ndarray, settings: OptimSettings,
            seeds, warm_starts) -> tuple[np.ndarray, np.ndarray]:
    """The starts of every row of ``c`` in search coordinates, and how many each row has.

    Row i of ``c`` gets a block of consecutive starts in ``start_index`` order
    (see ``fit``): ``warm_starts[i]`` when it is not ``None``; the constant
    start, at which the model predicts the mean of the row's targets (clipped
    to [1e-6, 1 - 1e-6]) everywhere; ``n_starts`` uniform draws from the row's
    own stream ``default_rng([seeds[i], kind])``, so a row's starts do not
    depend on the other rows; and, for PRSP, one kink start per cell of the
    kink partition. A rule's posterior has its kink at pEj, so PRSP's fit is
    smooth only while pEj stays between two consecutive grid levels of ej;
    the kink starts are the warm start, or else the constant start, with
    (pE1, pE2) moved to the midpoints of every pair of such intervals,
    row-major.
    """
    dim = PARAM_DIM[kind]
    m = np.clip(np.mean(c, axis=1), 1e-6, 1.0 - 1e-6)
    if kind is ModelKind.PWR:
        constant = np.column_stack([np.zeros_like(m), np.zeros_like(m), logit(m)])
    else:
        half = np.full_like(m, 0.5)
        constant = np.column_stack([m, half, m, m, half, m, m])
    has_warm = np.array([w is not None for w in warm_starts])
    base = constant.copy()
    if has_warm.any():
        base[has_warm] = [w.values for w in warm_starts if w is not None]
    spread = 2.0 if kind in _BOUNDED_KINDS else 1.0
    drawn = [np.random.default_rng([int(s), _KIND_INDEX[kind]]).uniform(-spread, spread, size=(settings.n_starts, dim))
             for s in seeds]
    blocks = [_to_search_coords(kind, base)[:, None], _to_search_coords(kind, constant)[:, None],
              np.reshape(drawn, (len(seeds), settings.n_starts, dim))]
    if kind is ModelKind.PRSP:
        mids = [(levels[:-1] + levels[1:]) / 2.0 for levels in (np.unique(e1), np.unique(e2))]
        kinks = np.repeat(base[:, None], mids[0].size * mids[1].size, axis=1)
        kinks[..., 1], kinks[..., 4] = (g.reshape(-1) for g in np.meshgrid(*mids, indexing="ij"))
        blocks.append(_to_search_coords(kind, kinks))
    starts = np.concatenate(blocks, axis=1)
    used = np.ones(starts.shape[:2], dtype=bool)
    used[:, 0] = has_warm  # the first column is the warm start, where there is one
    return starts[used], used.sum(axis=1)


def fit_batch(
    kind: ModelKind,
    e1,
    e2,
    targets,
    settings: OptimSettings | None,
    seeds,
    warm_starts,
) -> list[FitResult]:
    """Fit ``kind`` to each row of ``targets`` (n, k), the standard answers at the evidence pairs (e1[j], e2[j]).

    ``seeds`` and ``warm_starts`` (``None`` for none) give one entry per row.
    Returns one ``FitResult`` per row, or raises for the whole call:
    ``ValueError`` on non-finite targets or a warm start of another kind in
    any row, ``numpy.linalg.LinAlgError`` on evidence that makes a closed-form
    fit singular, and ``RuntimeError`` naming the kind and the first row whose
    best error is not finite. WRST, LINR and INDP are solved for every row at
    once by stacked per-row operations. For PRSP and PWR the starts of every
    row run as the rows of one ``_lm`` batch. No operation mixes rows, so each
    result is bit for bit the one ``fit`` returns.
    """
    settings = settings or OptimSettings()
    if kind is ModelKind.BST:
        raise ValueError("BST requires no fit; its error is zero by definition")
    e1, e2, c = (np.asarray(a, dtype=np.float64) for a in (e1, e2, targets))
    if c.ndim != 2 or not c.shape[1] == e1.size == e2.size or not len(seeds) == len(warm_starts) == len(c):
        raise ValueError(f"need targets of shape (n, {e1.size}) and one seed and one warm start per row, got "
                         f"{c.shape}, {len(seeds)} and {len(warm_starts)}")
    if not np.isfinite(c).all():
        raise ValueError("targets must be finite")
    for w in warm_starts:
        if w is not None and w.kind is not kind:
            raise ValueError(f"warm start is {w.kind.value}, expected {kind.value}")

    if kind not in (ModelKind.PRSP, ModelKind.PWR):
        if kind is ModelKind.WRST:
            values = np.mean(c, axis=1, keepdims=True)
        elif kind is ModelKind.LINR:  # one 3×3 solve per row, stacked
            design = np.column_stack([e1, e2, np.ones_like(e1)])
            values = np.linalg.solve(design.T @ design, design.T @ c[..., None])[..., 0]
        else:
            values = _indp_exact(e1, e2, c)
        sse = _sse(c - _predict_rows(kind, values, e1, e2))
        iters = start = np.zeros(len(c), dtype=int)
        converged = np.ones(len(c), dtype=bool)
    else:
        x0, counts = _starts(kind, e1, e2, c, settings, seeds, warm_starts)
        model = _search_model(kind, e1, e2, _evidence_levels(e1, e2))
        x, sse, iters, converged = _lm(model, x0, np.repeat(c, counts, axis=0), settings)
        first = np.cumsum(counts) - counts
        start = np.array([np.argmin(sse[lo : lo + n]) for lo, n in zip(first, counts)], dtype=int)  # first on a tie
        best = first + start
        values, sse, iters, converged = _to_model_values(kind, x[best]), sse[best], iters[best], converged[best]
    bad = np.flatnonzero(~np.isfinite(sse))
    if bad.size:
        raise RuntimeError(f"{kind.value} fit failed on row {bad[0]}: no start produced a finite error")
    eps = np.sqrt(sse / c.shape[1])
    return [FitResult(ModelParams(kind, tuple(v)), e, i, cv, s)
            for v, e, i, cv, s in zip(values, eps.tolist(), iters.tolist(), converged.tolist(), start.tolist())]


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
    ``converged=True``. PRSP and PWR run batched Levenberg–Marquardt (see
    ``_lm``) from these starts, in this order, which ``start_index`` counts:
    ``warm_start`` when given (callers typically pass the parameters read off
    the underlying joint), the constant start, ``settings.n_starts`` seeded
    random starts and, for PRSP only, one kink start per cell between
    consecutive grid levels of e1 and e2 (16 on the default grid). Every
    start steps until its error stops falling or for ``max_iters`` steps (see
    ``_lm``). Every step evaluates the model once at a start's trial point,
    and completes the Jacobian from that evaluation only where the step is
    accepted. The start with the lowest error wins and reports its steps tried
    and its convergence; when several starts reach the same minimum, which
    one wins is decided at rounding level. Non-convergence within
    ``max_iters`` is not an error; the best point found is returned with
    ``converged=False``. This is ``fit_batch`` on one row and raises its
    errors; an empty vector raises ``ValueError`` too.
    """
    e1, e2, c = _target_arrays(targets)
    return fit_batch(kind, e1, e2, c[None], settings, [seed], [warm_start])[0]
