"""The prediction models whose accuracy the harness measures.

Each model maps an evidence pair (e1, e2) -- the target posterior
probabilities of E1 and E2 -- to a predicted posterior probability of C,
given a parameter vector:

* ``LINR`` -- linear regression of probabilities: a1*e1 + a2*e2 + b. The
  output is deliberately not clipped to [0, 1]; only squared errors are ever
  compared, and the unconstrained surface is better behaved for the optimizer.
* ``INDP`` -- exact updating under a marginally independent prior, which
  reduces to a bilinear blend of the four conditionals b_ij = P(C | E1=i, E2=j).
* ``PRSP`` -- odds-ratio combination with piecewise-linear interpolation of
  each rule's single-evidence posterior, with seven free probabilities. Each
  rule j maps its evidence value through the piecewise-linear curve anchored
  at (0, P(C|not Ej)), (pEj, pc), (1, P(C|Ej)); the rule's odds multiplier
  against the prior is then applied to the prior odds. At the prior point
  (e1, e2) = (pE1, pE2) both multipliers are 1 and the output is pc.
* ``PWR`` -- linear regression of log odds: logit(c) = a1*logit(e1) +
  a2*logit(e2) + b.
* ``WRST`` -- evidence-ignoring constant (fitted as the mean of the targets).
* ``BST`` -- the perfect reference (prediction == target); it carries no
  parameters and no predictor.

The scalar :func:`predict` wraps :func:`predict_grid`, which checks the
domain and calls ``_predict_rows``, the optimizer's hot path, so the paths
are bit-identical by construction. All predictors are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import EVENT_AXES, JointDist, condition_c, marginal

__all__ = [
    "ModelKind",
    "ModelParams",
    "PARAM_DIM",
    "sigmoid",
    "logit",
    "predict",
    "predict_grid",
    "true_params_indp",
    "true_params_prsp",
]


class ModelKind(str, Enum):
    LINR = "LINR"
    INDP = "INDP"
    PRSP = "PRSP"
    PWR = "PWR"
    WRST = "WRST"
    BST = "BST"


PARAM_DIM = {
    ModelKind.LINR: 3,  # a1, a2, b
    ModelKind.INDP: 4,  # b00, b01, b10, b11
    ModelKind.PRSP: 7,  # pc, pe1, q(C|E1), q(C|not E1), pe2, q(C|E2), q(C|not E2)
    ModelKind.PWR: 3,   # a1, a2, b in logit space
    ModelKind.WRST: 1,  # the constant
    ModelKind.BST: 0,
}
_PWR_EVIDENCE_ERROR = "PWR needs evidence strictly inside (0, 1); logit is infinite at 0 and 1"


def _check_evidence(kind: ModelKind, e1: np.ndarray, e2: np.ndarray) -> None:
    """Raise ``ValueError`` unless every evidence value is finite and in [0, 1], and strictly inside for PWR."""
    for name, e in (("e1", e1), ("e2", e2)):
        if not np.all((e >= 0.0) & (e <= 1.0)):
            raise ValueError(f"{name} must be finite and in [0, 1], got {e.tolist()}")
    if kind is ModelKind.PWR and not np.all((e1 > 0.0) & (e1 < 1.0) & (e2 > 0.0) & (e2 < 1.0)):
        raise ValueError(_PWR_EVIDENCE_ERROR)


def _check_kind(kind) -> None:
    """Raise ``ValueError`` naming ``kind`` unless it is a :class:`ModelKind` member.

    ``ModelKind`` is a ``str`` enum, so a plain string such as ``'LINR'`` would
    pass ``in`` tests and dict lookups but not the ``kind is ModelKind.X`` tests
    of the model rules; it is refused, not converted.
    """
    if not isinstance(kind, ModelKind):
        raise ValueError(f"model {kind!r} is not a ModelKind; valid models: {','.join(k.value for k in ModelKind)}")


@dataclass(frozen=True)
class ModelParams:
    """A model identifier plus its parameter vector.

    ``kind`` must be a :class:`ModelKind` member, and it fixes the dimension.
    INDP parameters must lie in [0, 1] (every combination then is a valid
    conditional table). PRSP's four conditionals must lie in [0, 1] and pc,
    pE1 and pE2, by which the prior odds and the rules' kinks divide, strictly
    in (0, 1). LINR and PWR coefficients are unconstrained.
    """

    kind: ModelKind
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        values = tuple(float(v) for v in self.values)
        expected = PARAM_DIM[self.kind]
        if len(values) != expected:
            raise ValueError(f"{self.kind.value} takes {expected} parameters, got {len(values)}")
        if not all(np.isfinite(values)):
            raise ValueError(f"{self.kind.value} parameters must be finite, got {values}")
        if self.kind is ModelKind.INDP and not all(0.0 <= v <= 1.0 for v in values):
            raise ValueError(f"INDP parameters must lie in [0, 1], got {values}")
        if self.kind is ModelKind.PRSP and not all(0.0 < v < 1.0 if i in (0, 1, 4) else 0.0 <= v <= 1.0
                                                   for i, v in enumerate(values)):
            raise ValueError(f"PRSP needs pc, pE1 and pE2 in (0, 1) and the conditionals in [0, 1], got {values}")
        object.__setattr__(self, "values", values)


def sigmoid(x):
    """Numerically stable inverse logit, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def logit(p):
    """log(p / (1 - p)), elementwise; defined for p strictly in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


def _rule_posterior(e, p_e, q1, q0, pc):
    """Single-rule posterior of C: piecewise-linear through (0, q0), (p_e, pc), (1, q1)."""
    below = q0 + (e / p_e) * (pc - q0)
    above = pc + ((e - p_e) / (1.0 - p_e)) * (q1 - pc)
    return np.where(e <= p_e, below, above)


def _rule_posterior_jac(e, p_e, q1, q0, pc):
    """Partial derivatives of :func:`_rule_posterior` with respect to (pc, p_e, q1, q0).

    At a kink (e == p_e) they are those of the ``e <= p_e`` branch, the one the
    posterior itself takes there.
    """
    below = e <= p_e
    s = e / p_e  # below the kink, the weight of pc
    t = (e - p_e) / (1.0 - p_e)  # above it, the weight of q1
    d_pc = np.where(below, s, 1.0 - t)
    d_pe = np.where(below, -(s / p_e) * (pc - q0), ((e - 1.0) / (1.0 - p_e) ** 2) * (q1 - pc))
    d_q1 = np.where(below, 0.0, t)
    d_q0 = np.where(below, 1.0 - s, 0.0)
    return d_pc, d_pe, d_q1, d_q0


def _evidence_levels(e1: np.ndarray, e2: np.ndarray):
    """PRSP's two rules side by side: their evidence levels, parameter columns and cell indices.

    Returns the distinct levels of ``e1`` followed by those of ``e2``, shape
    (L1 + L2,); the columns of (pEj, q(C|Ej), q(C|not Ej)) of each level's
    rule, shape (3, L1 + L2); and, per rule, each cell's index into the levels.
    """
    (lev1, cell1), (lev2, cell2) = (np.unique(e, return_inverse=True) for e in (e1, e2))
    cols = np.repeat([[1, 4], [2, 5], [3, 6]], [lev1.size, lev2.size], axis=1)
    return np.concatenate([lev1, lev2]), cols, (cell1, cell2 + lev1.size)


def _predict_rows(kind: ModelKind, values: np.ndarray, e1: np.ndarray, e2: np.ndarray, jacobian: bool = False,
                  levels=None):
    """Evaluate rows of parameter vectors over flat evidence arrays.

    ``values`` has shape (m, n_params); ``e1`` and ``e2`` shape (k,). Returns
    an (m, k) prediction matrix. This is the single source for every model
    formula; it performs no domain checks (out-of-domain rows yield nan/inf),
    which lets the optimizer evaluate whole batches of parameter vectors in
    one call.

    With ``jacobian`` (PRSP and PWR only, the models fitted iteratively) it
    returns ``(pred, jac)``, where ``jac(rows)`` completes the Jacobian of the
    given rows (an index array or slice, all rows by default) from what this
    forward pass kept: ``jac(rows)[i, j, p]`` is the derivative of
    ``pred[rows][i, j]`` with respect to ``values[rows][i, p]``, a new array
    with the bits of a forward pass over those rows alone. PRSP's is one-sided
    at a kink, following :func:`_rule_posterior_jac`. ``levels`` is
    ``_evidence_levels(e1, e2)``, which PRSP needs; a caller that evaluates
    the same evidence many times passes it in, and it is computed when absent.
    """
    if jacobian and kind not in (ModelKind.PRSP, ModelKind.PWR):
        raise ValueError(f"{kind.value} has no Jacobian; it is fitted in closed form")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind is ModelKind.LINR:
            a1, a2, b = values[:, 0:1], values[:, 1:2], values[:, 2:3]
            return a1 * e1 + a2 * e2 + b
        if kind is ModelKind.INDP:
            b00, b01, b10, b11 = (values[:, i : i + 1] for i in range(4))
            return (
                b00 * (1.0 - e1) * (1.0 - e2)
                + b01 * (1.0 - e1) * e2
                + b10 * e1 * (1.0 - e2)
                + b11 * e1 * e2
            )
        if kind is ModelKind.PRSP:
            # Rule j depends on ej alone, so both rules are evaluated in one pass on
            # the distinct levels of e1 and e2 side by side, and gathered out to the
            # cells: each cell gets the same operations on the same operands as a
            # per-cell, per-rule evaluation, hence the same bits. ``take`` keeps the
            # gathered arrays C-ordered, so row sums of the residuals keep numpy's
            # pairwise order whatever the number of rows.
            lev, cols, cells = _evidence_levels(e1, e2) if levels is None else levels
            pc = values[:, 0:1]
            prior_odds = pc / (1.0 - pc)
            rule_values = values[:, cols]  # (m, 3, L1 + L2): pEj, q(C|Ej), q(C|not Ej) of each level's rule
            p = _rule_posterior(lev, *rule_values.swapaxes(0, 1), pc)
            multiplier = (p / (1.0 - p)) / prior_odds
            odds = prior_odds * multiplier.take(cells[0], axis=1) * multiplier.take(cells[1], axis=1)
            pred = odds / (1.0 + odds)
            if not jacobian:
                return pred

            def prsp_jac(rows=slice(None)):
                return _prsp_jacobian(lev, cells, pc[rows], rule_values[rows], p[rows], pred[rows])

            return pred, prsp_jac
        if kind is ModelKind.PWR:
            a1, a2, b = values[:, 0:1], values[:, 1:2], values[:, 2:3]
            l1, l2 = logit(e1), logit(e2)
            pred = sigmoid(a1 * l1 + a2 * l2 + b)
            if not jacobian:
                return pred

            def pwr_jac(rows=slice(None)):
                rows_pred = pred[rows]
                with np.errstate(invalid="ignore", over="ignore"):
                    slope = rows_pred * (1.0 - rows_pred)
                    return np.stack((slope * l1, slope * l2, slope), axis=-1)

            return pred, pwr_jac
        if kind is ModelKind.WRST:
            return values[:, 0:1] + np.zeros_like(e1)
    raise ValueError(f"{kind.value} has no predictor; it is scored as prediction == target")  # BST, the only kind left


def _prsp_jacobian(lev, cells, pc, rule_values, p, pred):
    """PRSP's Jacobian (m, k, 7) from rows of its forward pass: pc, the rules' parameters and posteriors, and pred."""
    # logit pred = logit p1 + logit p2 - logit pc, and d logit p / dp = 1 / (p (1 - p))
    cell1, cell2 = cells
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = 1.0 / (p * (1.0 - p))
        dp_pc, *dp_rest = _rule_posterior_jac(lev, *rule_values.swapaxes(0, 1), pc)
        d_pc = w * dp_pc
        jac = np.empty(pred.shape + (7,))
        jac[..., 0] = d_pc.take(cell1, axis=1) + d_pc.take(cell2, axis=1) - 1.0 / (pc * (1.0 - pc))
        for col, dp in enumerate(dp_rest, 1):  # (pEj, q(C|Ej), q(C|not Ej)) of rule 1, then rule 2
            dp = w * dp
            jac[..., col] = dp.take(cell1, axis=1)
            jac[..., col + 3] = dp.take(cell2, axis=1)
        jac *= (pred * (1.0 - pred))[..., None]
    return jac


def predict_grid(kind: ModelKind, values, e1, e2):
    """Evaluate a model over evidence arrays; shapes broadcast.

    Unlike the raw row evaluator, this validates the domain: ``values`` must
    be those of a ``ModelParams(kind, values)``, the evidence must pass
    ``_check_evidence`` (finite and in [0, 1], strictly inside for PWR), and
    PRSP rejects parameters whose single-rule posterior reaches 0 or 1 (odds
    multiplier undefined).
    """
    row = np.array([ModelParams(kind, values).values])
    e1a = np.asarray(e1, dtype=np.float64)
    e2a = np.asarray(e2, dtype=np.float64)
    shape = np.broadcast_shapes(e1a.shape, e2a.shape)
    e1f = np.broadcast_to(e1a, shape).reshape(-1)
    e2f = np.broadcast_to(e2a, shape).reshape(-1)
    _check_evidence(kind, e1f, e2f)
    if kind is ModelKind.PRSP:
        pc, pe1, q11, q10, pe2, q21, q20 = row[0]
        for p in (_rule_posterior(e1f, pe1, q11, q10, pc), _rule_posterior(e2f, pe2, q21, q20, pc)):
            if np.any(p <= 0.0) or np.any(p >= 1.0):
                raise ValueError("single-rule posterior hit 0 or 1; odds multiplier undefined")
    return _predict_rows(kind, row, e1f, e2f)[0].reshape(shape)


def predict(params: ModelParams, ev) -> float:
    """The model's predicted posterior of C for one evidence pair."""
    return float(predict_grid(params.kind, params.values, ev.e1, ev.e2))


def true_params_indp(d: JointDist) -> ModelParams:
    """Read the four conditionals b_ij = P(C | E1=i, E2=j) off the joint.

    Requires every hard-evidence cell to have positive probability.
    """
    values = tuple(condition_c(d, i, j) for i in (0, 1) for j in (0, 1))
    return ModelParams(ModelKind.INDP, values)


def _cond_given(d: JointDist, event: str, present: bool) -> float:
    # the (other evidence, C) square of the cube where ``event`` is ``present``
    square = d.atoms.reshape(2, 2, 2).take(int(present), EVENT_AXES[event])
    weight = float(square.sum())
    joint = float(square[:, 1].sum())
    return joint / weight


def true_params_prsp(d: JointDist) -> ModelParams:
    """Read the seven probabilities a self-consistent rule base would carry.

    (pc, pE1, P(C|E1), P(C|not E1), pE2, P(C|E2), P(C|not E2)), used both as a
    warm start for fitting and in exactness checks. Requires the marginals of
    E1, E2 and C to lie strictly inside (0, 1).
    """
    p = {event: marginal(d, event) for event in ("E1", "E2", "C")}
    for event, m in p.items():
        if not (0.0 < m < 1.0):
            raise ValueError(f"P({event})={m!r} is on the boundary; parameters undefined")
    values = (
        p["C"],
        p["E1"],
        _cond_given(d, "E1", True),
        _cond_given(d, "E1", False),
        p["E2"],
        _cond_given(d, "E2", True),
        _cond_given(d, "E2", False),
    )
    return ModelParams(ModelKind.PRSP, values)
