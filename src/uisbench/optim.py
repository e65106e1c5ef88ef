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
batch at its first stop test or after ``max_iters`` steps, and the batch ends
with its last start. On the two 109-distribution acceptance runs, each fitted
as one batch of 2,507 PRSP starts, the median start stops after 13 (uniform)
or 21 (cond_indep) steps, but 143 and 164 starts creep along a kink or a flat
valley to ``max_iters``, so the batch takes all 500 steps; 11% (uniform) and
17% (cond_indep) of its 1,253,500 row-steps are taken. About three in five of
them are accepted (60% and 56%), and on a batch that large residuals cost a
fifth of a Jacobian, so ``_lm`` takes Jacobians lazily: each step evaluates
the residuals of the rows still in the batch, and the Jacobian and normal
equations only of the rows whose error fell. On a 2-vCPU VM the residuals of
one row take about 0.03 ms, of a 14-distribution run's 322 rows 0.14 ms and of
an acceptance run's 2,507 rows 2.2 ms; their Jacobian and normal equations
0.09, 1.2 and 10 ms. Which starts creep, and for how long, varies between
distributions, so a fit's cost depends on its data: over ten samples of 14
distributions, perfbench's bench throughput (``dists_per_kref``) ranged 45–57
(uniform) and 41–64 (cond_indep). PWR's starts all stop within a few dozen
steps. ``fit`` and ``fit_batch`` are pure functions of their arguments;
independent fits may run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .models import PARAM_DIM, ModelKind, ModelParams, _evidence_levels, _predict_rows, logit, predict_grid, sigmoid

__all__ = ["OptimSettings", "FitResult", "objective", "ols_linr", "fit", "fit_batch"]

_SEARCH_CLAMP = 30.0
_BOUNDED_KINDS = (ModelKind.PRSP,)
_KIND_INDEX = {kind: i for i, kind in enumerate(ModelKind)}
# Levenberg–Marquardt damping: starting value, floor (keeps the damped system
# positive definite after a long run of accepted steps) and the overflow that
# stops a row; and the cap on one step in max-norm of the search coordinates
_LAMBDA_START, _LAMBDA_MIN, _LAMBDA_MAX = 1e-3, 1e-12, 1e16
_MAX_STEP = 1.0
# Stop tests of one start (see ``_lm``): norm of the RMS gradient in search
# coordinates, and relative drop of the SSE in one accepted step
_GRAD_TOL, _OBJ_REL_TOL = 1e-8, 1e-12


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
    the steps tried per start, and a start that reaches it before a stop test
    is reported as not converged (see ``_lm``). A step costs one residual
    evaluation, plus one Jacobian when it is accepted. The closed-form fits
    ignore them.
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
    wins. Patterns sharing their free columns are solved together, one
    right-hand side each, in one stack of solves over the rows. The problem is
    convex and on a product grid of two or more levels every column subset has
    full rank, so that is the global minimum (Lawson & Hanson, *Solving Least
    Squares Problems*, 1974).
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
    return b[np.arange(len(c)), np.argmin(np.where(feasible, sse, np.inf), axis=1)]


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


def _residuals(kind: ModelKind, x: np.ndarray, e1: np.ndarray, e2: np.ndarray, c: np.ndarray, jacobian: bool = True,
               levels=None):
    """Residuals ``c - pred`` at the search points ``x`` (m, n) and, with ``jacobian``, their Jacobian (m, k, n) in ``x``.

    ``c`` holds each row's targets, shape (m, k), so rows of different fits can share a call. ``levels`` is
    ``models._evidence_levels(e1, e2)``, which the caller may compute once for many calls.
    """
    values = _to_model_values(kind, x)
    if not jacobian:
        return c - _predict_rows(kind, values, e1, e2, levels=levels)
    pred, jac = _predict_rows(kind, values, e1, e2, jacobian=True, levels=levels)
    if kind in _BOUNDED_KINDS:
        # chain rule through the sigmoid; the clamp makes a coordinate beyond it flat
        jac *= np.where(np.abs(x) < _SEARCH_CLAMP, values * (1.0 - values), 0.0)[:, None, :]
    return c - pred, np.negative(jac, out=jac)  # in place: the batch's largest array is not copied


def _sse(r: np.ndarray) -> np.ndarray:
    """Per-row sum of squared residuals; inf where it is not finite."""
    sse = np.sum(r * r, axis=-1)
    return np.where(np.isfinite(sse), sse, np.inf)


def _evaluate(residuals, x: np.ndarray, rows: np.ndarray):
    """Per row of ``x``: the SSE and the normal equations JᵀJ and Jᵀr; also the residual count.

    The SSE is inf where a residual or a derivative is not finite. The
    Jacobian, the batch's largest array, is freed on return.
    """
    r, jac = residuals(x, rows, True)
    jt = jac.transpose(0, 2, 1)
    sse = np.where(np.all(np.isfinite(jac), axis=(1, 2)), _sse(r), np.inf)
    return sse, jt @ jac, (jt @ r[..., None])[..., 0], r.shape[1]


def _lm(residuals, x0: np.ndarray, settings: OptimSettings):
    """Levenberg–Marquardt on every row of ``x0`` at once; each row is one start.

    ``residuals(x, rows, jacobian)`` maps an (m, n) batch of points and the
    indices of their rows in ``x0`` to residuals (m, k), and with
    ``jacobian`` to the pair of residuals and their Jacobian (m, k, n); the
    indices let each row keep its own targets, so the starts of several fits
    can share a batch (see ``fit_batch``). A row's state between steps is its
    point, SSE and normal equations (JᵀJ, Jᵀr), never its Jacobian, which is
    the batch's largest array. Every row keeps its own damping, scaled by the
    diagonal of JᵀJ. A step is capped at ``_MAX_STEP`` in max-norm and
    accepted only if it lowers the row's sum of squared residuals (SSE) and
    the derivatives at the new point are finite. A row stops, and leaves
    the batch, when an accepted step lowers its SSE by a relative amount under
    ``_OBJ_REL_TOL``, when the norm of its RMS gradient falls under
    ``_GRAD_TOL``, when its damping passes ``_LAMBDA_MAX`` (no step lowers the
    SSE) or after ``max_iters`` steps; only the last is reported as not
    converged. The batch shrinks as its rows stop, and the call ends when the
    last one does (Moré 1978). Rows interact through no computation, so a
    start's result does not depend, to the bit, on the other starts in the
    batch or on its position in it.

    The Jacobian is evaluated lazily: each step evaluates only the residuals
    of every active row at its trial point, and then the Jacobian and normal
    equations of the rows whose SSE fell, the only points a next step starts
    from. A start's Jacobian is thus taken once at ``x0`` and once per
    accepted step.

    Returns the final points, their SSE, the steps tried and the converged
    flags.
    """
    x = np.array(x0, dtype=np.float64)
    n = len(x)
    sse, jtj, jtr, k = _evaluate(residuals, x, np.arange(n))
    lam = np.full(n, _LAMBDA_START)
    iters = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    eye = np.eye(x.shape[1])
    active = np.flatnonzero(np.isfinite(sse))  # a start with no finite SSE is never moved
    for it in range(1, settings.max_iters + 1):
        # |grad RMS| = |Jᵀr| / sqrt(k SSE), taken as 0 at an exact fit
        flat = (sse[active] == 0.0) | (np.linalg.norm(jtr[active], axis=-1) < _GRAD_TOL * np.sqrt(k * sse[active]))
        converged[active[flat]] = True
        active = active[~flat]
        if active.size == 0:
            break

        a_jtj, a_lam, sse_old = jtj[active], lam[active], sse[active]
        diag = np.diagonal(a_jtj, axis1=1, axis2=2)
        scale = np.where(diag > 0.0, diag, 1.0)  # a flat coordinate gets no step
        damped = a_jtj + (a_lam[:, None] * scale)[..., None] * eye
        step = -np.linalg.solve(damped, jtr[active][..., None])[..., 0]
        step *= (_MAX_STEP / np.maximum(np.max(np.abs(step), axis=-1), _MAX_STEP))[:, None]
        x_try = x[active] + step
        sse_try = _sse(residuals(x_try, active, False))
        iters[active] = it

        # only a point whose SSE fell can be accepted, so only there are derivatives needed
        fell = np.flatnonzero(sse_try < sse_old)
        if fell.size:
            sse_try[fell], jtj_fell, jtr_fell, _ = _evaluate(residuals, x_try[fell], active[fell])
        accepted = sse_try < sse_old  # not where a derivative is not finite: its SSE is now inf
        lam_new = np.where(accepted, np.maximum(a_lam / 10.0, _LAMBDA_MIN), a_lam * 10.0)
        done = np.where(accepted, sse_old - sse_try < _OBJ_REL_TOL * sse_old, lam_new > _LAMBDA_MAX)
        lam[active] = lam_new
        converged[active[done]] = True
        if fell.size:
            moved = active[accepted]
            x[moved], sse[moved] = x_try[accepted], sse_try[accepted]
            jtj[moved], jtr[moved] = jtj_fell[accepted[fell]], jtr_fell[accepted[fell]]
        active = active[~done]
    return x, sse, iters, converged


def _constant_start(kind: ModelKind, mean_target: float) -> tuple[float, ...]:
    """PWR or PRSP parameters at which the model predicts the target mean everywhere."""
    m = min(max(mean_target, 1e-6), 1.0 - 1e-6)
    if kind is ModelKind.PWR:
        return (0.0, 0.0, float(logit(m)))
    return (m, 0.5, m, m, 0.5, m, m)


def _kink_starts(base, e1: np.ndarray, e2: np.ndarray) -> list[tuple[float, ...]]:
    """PRSP starts: ``base`` with (pE1, pE2) moved into each cell of the kink partition.

    A rule's posterior has its kink at pEj, so its fit is smooth only while
    pEj stays between two consecutive grid levels of ej; these starts put
    (pE1, pE2) at the midpoints of every pair of such intervals, row-major.
    """
    mids = [(levels[:-1] + levels[1:]) / 2.0 for levels in (np.unique(e1), np.unique(e2))]
    out = []
    for m1, m2 in itertools.product(*mids):
        values = list(base)
        values[1], values[4] = float(m1), float(m2)
        out.append(tuple(values))
    return out


def _starts(kind: ModelKind, e1: np.ndarray, e2: np.ndarray, c: np.ndarray, settings: OptimSettings,
            seed: int, warm_start: ModelParams | None) -> np.ndarray:
    """One fit's starts in search coordinates, one per row, in ``start_index`` order (see ``fit``)."""
    constant = _constant_start(kind, float(np.mean(c)))
    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(_to_search_coords(kind, warm_start.values))
    starts.append(_to_search_coords(kind, constant))

    dim = PARAM_DIM[kind]
    rng = np.random.default_rng([int(seed), _KIND_INDEX[kind]])
    spread = 2.0 if kind in _BOUNDED_KINDS else 1.0
    starts += list(rng.uniform(-spread, spread, size=(settings.n_starts, dim)))  # the same draws as one per start
    if kind is ModelKind.PRSP:
        base = warm_start.values if warm_start is not None else constant
        starts += [_to_search_coords(kind, v) for v in _kink_starts(base, e1, e2)]
    return np.array(starts)


def fit_batch(
    kind: ModelKind,
    e1,
    e2,
    targets,
    settings: OptimSettings | None,
    seeds,
    warm_starts,
) -> list[FitResult | Exception]:
    """Fit ``kind`` to each row of ``targets`` (n, k), the standard answers at the evidence pairs (e1[j], e2[j]).

    ``seeds`` and ``warm_starts`` (``None`` for none) give one entry per row.
    Returns one entry per row: its ``FitResult``, or the exception ``fit``
    raises on that row alone. Non-finite targets, and evidence on which a
    closed-form fit is singular (``numpy.linalg.LinAlgError``), raise for the
    whole call. WRST, LINR and INDP are solved for every row at once by
    stacked per-row operations, their errors from one residual matrix. For
    PRSP and PWR the starts of every row run as the rows of one ``_lm`` batch,
    which pays numpy's per-call cost once per step for all of them. No
    operation mixes rows, so each result is bit for bit the one ``fit`` returns.
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

    results: list[FitResult | Exception | None] = [None] * len(c)
    for i, w in enumerate(warm_starts):
        if w is not None and w.kind is not kind:
            results[i] = ValueError(f"warm start is {w.kind.value}, expected {kind.value}")
    if kind not in (ModelKind.PRSP, ModelKind.PWR):
        if kind is ModelKind.WRST:
            values = np.mean(c, axis=1, keepdims=True)
        elif kind is ModelKind.LINR:  # one 3×3 solve per row, stacked
            design = np.column_stack([e1, e2, np.ones_like(e1)])
            values = np.linalg.solve(design.T @ design, design.T @ c[..., None])[..., 0]
        else:
            values = _indp_exact(e1, e2, c)
        eps = np.sqrt(np.mean((c - _predict_rows(kind, values, e1, e2)) ** 2, axis=1)).tolist()
        return [r or FitResult(ModelParams(kind, tuple(v)), e, 0, True, 0) for r, v, e in zip(results, values, eps)]

    searched = [i for i, r in enumerate(results) if r is None]
    if not searched:
        return results
    starts = [_starts(kind, e1, e2, c[i], settings, seeds[i], warm_starts[i]) for i in searched]
    counts = [len(s) for s in starts]
    c_rows = np.repeat(c[searched], counts, axis=0)
    levels = _evidence_levels(e1, e2)
    x, sse, iters, converged = _lm(
        lambda x, rows, jacobian: _residuals(kind, x, e1, e2, c_rows[rows], jacobian, levels),
        np.concatenate(starts),
        settings,
    )
    for i, lo, hi in zip(searched, np.cumsum([0] + counts[:-1]), np.cumsum(counts)):
        idx = int(np.argmin(sse[lo:hi]))  # the first start on a tie
        if not np.isfinite(sse[lo + idx]):
            results[i] = RuntimeError(f"{kind.value} fit failed: no start produced a finite objective")
            continue
        params = ModelParams(kind, tuple(_to_model_values(kind, x[lo + idx])))
        results[i] = FitResult(params, float(np.sqrt(sse[lo + idx] / c.shape[1])), int(iters[lo + idx]),
                               bool(converged[lo + idx]), idx)
    return results


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
    start steps until its own stop test or ``max_iters`` (see ``_lm``). Every
    step evaluates a start's residuals, and its Jacobian only where the step
    is accepted. The start with the lowest error wins and reports its steps
    tried and its convergence. Non-convergence within ``max_iters`` is not an error; the best point found
    is returned with ``converged=False``. A fit error is raised only if no
    start produces a finite objective. An empty vector, and a warm start of
    another kind, are rejected for every model. This is ``fit_batch`` on one row.
    """
    e1, e2, c = _target_arrays(targets)
    result = fit_batch(kind, e1, e2, c[None], settings, [seed], [warm_start])[0]
    if isinstance(result, Exception):
        raise result
    return result


def ols_linr(targets) -> ModelParams:
    """LINR's exact least-squares fit; raises ``numpy.linalg.LinAlgError`` when the design matrix is singular."""
    return fit(ModelKind.LINR, targets).params
