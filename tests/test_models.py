import itertools
import warnings

import numpy as np
import pytest

from uisbench.dist import CondIndepParams, JointDist, condition_c, expand, sample_cond_indep, sample_uniform
from uisbench.models import (
    ModelKind,
    ModelParams,
    PARAM_DIM,
    _predict_rows,
    _rule_posterior,
    _rule_posterior_jac,
    logit,
    predict,
    predict_grid,
    sigmoid,
    true_params_indp,
    true_params_prsp,
)
from uisbench.oracle import DEFAULT_GRID, EvidencePair, standard_answer

from conftest import sample_marginal_indep

UNIFORM = JointDist([0.125] * 8)
CI_EXAMPLE = expand(CondIndepParams(0.5, 0.8, 0.2, 0.8, 0.2))


class TestModelParams:
    def test_dimensions(self):
        assert PARAM_DIM[ModelKind.LINR] == 3
        assert PARAM_DIM[ModelKind.INDP] == 4
        assert PARAM_DIM[ModelKind.PRSP] == 7
        assert PARAM_DIM[ModelKind.PWR] == 3
        assert PARAM_DIM[ModelKind.WRST] == 1
        assert PARAM_DIM[ModelKind.BST] == 0
        with pytest.raises(ValueError, match="takes 3"):
            ModelParams(ModelKind.LINR, (1.0, 2.0))

    def test_indp_range(self):
        ModelParams(ModelKind.INDP, (0.0, 1.0, 0.5, 0.5))  # closed interval allowed
        with pytest.raises(ValueError, match="INDP"):
            ModelParams(ModelKind.INDP, (0.0, 1.1, 0.5, 0.5))

    def test_prsp_open_range(self):
        # pc, pE1 and pE2: the prior odds and each rule's kink divide by them and their complements
        for index, value in itertools.product((0, 1, 4), (0.0, 1.0)):
            values = [0.5] * 7
            values[index] = value
            with pytest.raises(ValueError, match="PRSP"):
                ModelParams(ModelKind.PRSP, tuple(values))

    def test_prsp_conditionals_on_the_closed_interval(self):
        for index, value in itertools.product((2, 3, 5, 6), (0.0, 1.0)):
            values = [0.5] * 7
            values[index] = value
            assert ModelParams(ModelKind.PRSP, tuple(values)).values[index] == value
            values[index] = 1.1 if value else -0.1
            with pytest.raises(ValueError, match="PRSP"):
                ModelParams(ModelKind.PRSP, tuple(values))

    def test_linr_unconstrained(self):
        ModelParams(ModelKind.LINR, (-5.0, 12.0, 3.0))
        ModelParams(ModelKind.PWR, (-5.0, 12.0, 3.0))

    def test_bst_empty(self):
        ModelParams(ModelKind.BST, ())

    @pytest.mark.parametrize("kind, values", [("INDP", (5.0,) * 4), ("PRSP", (2.0,) * 7), ("LINR", (0.0,) * 3), (3, ())])
    def test_kind_must_be_a_model_kind(self, kind, values):
        # ModelKind is a str enum, so a plain string passed the PARAM_DIM lookup and skipped the box checks
        with pytest.raises(ValueError, match=f"^model {kind!r} is not a ModelKind; valid models: LINR,INDP,PRSP,PWR,WRST,BST$"):
            ModelParams(kind, values)

    def test_predict_grid_kind_must_be_a_model_kind(self):
        # a plain string reached the last raise of _predict_rows, an AttributeError on kind.value
        with pytest.raises(ValueError, match="^model 'LINR' is not a ModelKind; valid models: LINR,INDP,PRSP,PWR,WRST,BST$"):
            predict_grid("LINR", (1.0, 2.0, 3.0), 0.5, 0.5)

    def test_parameters_must_be_finite(self):
        with pytest.raises(ValueError, match=r"^LINR parameters must be finite, got \(1\.0, nan, 0\.0\)$"):
            ModelParams(ModelKind.LINR, (1.0, float("nan"), 0.0))


class TestLogitSigmoid:
    def test_roundtrip(self):
        p = np.linspace(0.001, 0.999, 101)
        assert np.allclose(sigmoid(logit(p)), p, atol=1e-12)

    def test_sigmoid_saturates_without_overflow(self):
        assert float(sigmoid(1000.0)) == 1.0
        assert float(sigmoid(-1000.0)) == 0.0


class TestLinr:
    def test_constant(self):
        p = ModelParams(ModelKind.LINR, (0.0, 0.0, 0.3))
        assert predict(p, EvidencePair(0.9, 0.1)) == 0.3

    def test_identity_on_e1(self):
        p = ModelParams(ModelKind.LINR, (1.0, 0.0, 0.0))
        assert predict(p, EvidencePair(0.25, 0.8)) == 0.25

    def test_arithmetic(self):
        p = ModelParams(ModelKind.LINR, (0.5, 0.5, 0.1))
        assert predict(p, EvidencePair(0.5, 0.5)) == pytest.approx(0.6, abs=1e-15)

    def test_output_not_clipped(self):
        p = ModelParams(ModelKind.LINR, (2.0, 2.0, 0.0))
        assert predict(p, EvidencePair(0.9, 0.9)) == pytest.approx(3.6, abs=1e-12)


class TestIndp:
    def test_corner_returns_b00(self):
        p = ModelParams(ModelKind.INDP, (0.1, 0.2, 0.3, 0.4))
        assert predict(p, EvidencePair(0.0, 0.0)) == 0.1

    def test_center_averages_corners(self):
        p = ModelParams(ModelKind.INDP, (0.1, 0.2, 0.3, 0.4))
        assert predict(p, EvidencePair(0.5, 0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_exact_on_marginally_independent_priors(self):
        for d in sample_marginal_indep(31, 20):
            p = true_params_indp(d)
            for ev in DEFAULT_GRID.pairs():
                assert abs(predict(p, ev) - standard_answer(d, ev)) < 1e-9

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = ModelParams(ModelKind.INDP, tuple(rng.uniform(0, 1, 4)))
            v = predict(p, EvidencePair(*rng.uniform(0, 1, 2)))
            assert 0.0 <= v <= 1.0


class TestPrsp:
    def test_uninformative_rules_return_prior(self):
        p = ModelParams(ModelKind.PRSP, (0.3, 0.5, 0.3, 0.3, 0.5, 0.3, 0.3))
        for ev in (EvidencePair(0.0, 1.0), EvidencePair(0.2, 0.9)):
            assert predict(p, ev) == pytest.approx(0.3, abs=1e-12)

    def test_prior_point_returns_prior(self):
        p = ModelParams(ModelKind.PRSP, (0.37, 0.6, 0.9, 0.1, 0.2, 0.8, 0.3))
        assert predict(p, EvidencePair(0.6, 0.2)) == pytest.approx(0.37, abs=1e-12)

    def test_hand_computed_interior_point(self):
        # p1 = 0.2 + (0.25/0.5)(0.4-0.2) = 0.3; p2 = 0.4 + (0.25/0.5)(0.7-0.4) = 0.55
        # odds = (2/3) * (9/14) * (11/6) = 11/14 -> 11/25
        p = ModelParams(ModelKind.PRSP, (0.4, 0.5, 0.8, 0.2, 0.5, 0.7, 0.3))
        assert predict(p, EvidencePair(0.25, 0.75)) == pytest.approx(0.44, abs=1e-12)

    def test_conditionals_at_0_or_1_predict_inside_the_unit_interval(self):
        # on grid levels strictly inside (0, 1) each rule's posterior weighs pc, so it stays inside too
        e1 = np.array([ev.e1 for ev in DEFAULT_GRID.pairs()])
        e2 = np.array([ev.e2 for ev in DEFAULT_GRID.pairs()])
        for (q11, q10, q21, q20), (pe1, pe2) in itertools.product(
            itertools.product((0.0, 1.0), repeat=4), ((0.3, 0.6), (0.001, 0.999), (0.25, 0.5))  # the last two on levels
        ):
            values = ModelParams(ModelKind.PRSP, (0.4, pe1, q11, q10, pe2, q21, q20)).values
            pred = predict_grid(ModelKind.PRSP, values, e1, e2)
            assert np.all(np.isfinite(pred)) and np.all((pred > 0.0) & (pred < 1.0))

    def test_conditional_at_0_rejected_on_a_hard_level(self):
        # at level 0 rule 1's posterior is q(C|not E1) itself: 0 leaves its odds multiplier undefined
        p = ModelParams(ModelKind.PRSP, (0.4, 0.3, 0.8, 0.0, 0.6, 0.7, 0.2))
        assert 0.0 < predict(p, EvidencePair(0.5, 0.5)) < 1.0
        with pytest.raises(ValueError, match="hit 0 or 1"):
            predict(p, EvidencePair(0.0, 0.5))

    def test_true_params_exact_at_hard_corners(self):
        assert predict(true_params_prsp(CI_EXAMPLE), EvidencePair(1.0, 1.0)) == pytest.approx(
            16 / 17, abs=1e-12
        )
        for d in sample_cond_indep(32, 25):
            p = true_params_prsp(d)
            for e1 in (0.0, 1.0):
                for e2 in (0.0, 1.0):
                    want = condition_c(d, e1 == 1.0, e2 == 1.0)
                    assert abs(predict(p, EvidencePair(e1, e2)) - want) < 1e-9

    def test_degenerate_rule_posterior_rejected(self):
        # values inside ModelParams' domain whose rule posterior is q(C|not E1) = 0 at level 0
        with pytest.raises(ValueError, match="0 or 1"):
            predict_grid(ModelKind.PRSP, (0.5, 0.5, 0.8, 0.0, 0.5, 0.8, 0.2), 0.0, 0.5)
        # pc or a pEj at 0 or 1 makes a posterior NaN, as does any NaN value, and NaN passes that
        # check; ModelParams' domain refuses them, before any RuntimeWarning
        base = (0.5,) * 7
        for i, v in itertools.product(range(7), (0.0, 1.0, np.nan)):
            if i not in (0, 1, 4) and not np.isnan(v):
                continue  # a conditional may be 0 or 1
            values = base[:i] + (v,) + base[i + 1:]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^PRSP (needs|parameters must be finite)"):
                    predict_grid(ModelKind.PRSP, values, [0.0, 0.3, 1.0], [0.3, 0.3, 0.3])


def prsp_per_cell(values, e1, e2):
    """PRSP's predictions and Jacobian with every rule evaluated cell by cell."""
    pc, pe1, q11, q10, pe2, q21, q20 = (values[:, i : i + 1] for i in range(7))
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = _rule_posterior(e1, pe1, q11, q10, pc)
        p2 = _rule_posterior(e2, pe2, q21, q20, pc)
        prior_odds = pc / (1.0 - pc)
        odds = prior_odds * ((p1 / (1.0 - p1)) / prior_odds) * ((p2 / (1.0 - p2)) / prior_odds)
        pred = odds / (1.0 + odds)
        w1, w2, wc = (1.0 / (p * (1.0 - p)) for p in (p1, p2, pc))
        d1_pc, d1_pe, d1_q1, d1_q0 = _rule_posterior_jac(e1, pe1, q11, q10, pc)
        d2_pc, d2_pe, d2_q1, d2_q0 = _rule_posterior_jac(e2, pe2, q21, q20, pc)
        dlogit = (
            w1 * d1_pc + w2 * d2_pc - wc,
            w1 * d1_pe, w1 * d1_q1, w1 * d1_q0,
            w2 * d2_pe, w2 * d2_q1, w2 * d2_q0,
        )
        jac = (pred * (1.0 - pred))[..., None] * np.stack(np.broadcast_arrays(*dlogit), axis=-1)
    return pred, jac


class TestPrspLevelwiseKernel:
    """The rules are evaluated on the distinct evidence levels; the bits must be those of a per-cell evaluation."""

    def rows(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(0.02, 0.98, (12, 7))
        values[:4, 1] = (0.001, 0.25, 0.5, 0.999)  # pE1 on a grid level: the one-sided branch
        values[4:8, 4] = (0.75, 0.5, 0.25, 0.001)  # pE2 on a grid level
        return values

    def check(self, values, e1, e2):
        pred, jac = _predict_rows(ModelKind.PRSP, values, e1, e2, jacobian=True)
        jac = jac()
        want_pred, want_jac = prsp_per_cell(values, e1, e2)
        assert np.array_equal(pred, want_pred) and np.array_equal(jac, want_jac)
        assert np.array_equal(_predict_rows(ModelKind.PRSP, values, e1, e2), want_pred)
        assert pred.flags.c_contiguous  # keeps numpy's pairwise row sums independent of the row count

    def test_grid_cells(self):
        pairs = DEFAULT_GRID.pairs()
        e1 = np.array([ev.e1 for ev in pairs])
        e2 = np.array([ev.e2 for ev in pairs])
        self.check(self.rows(), e1, e2)

    def test_repeated_off_grid_evidence(self):
        rng = np.random.default_rng(22)
        g1, g2 = np.meshgrid(rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 3), indexing="ij")
        values = self.rows()
        self.check(values, g1.reshape(-1), g2.reshape(-1))
        for row in values:  # the path predict_grid takes
            want = prsp_per_cell(row[None, :], g1.reshape(-1), g2.reshape(-1))[0][0].reshape(g1.shape)
            assert np.array_equal(predict_grid(ModelKind.PRSP, row, g1, g2), want)


class TestPwr:
    def test_zero_coefficients_give_half(self):
        p = ModelParams(ModelKind.PWR, (0.0, 0.0, 0.0))
        assert predict(p, EvidencePair(0.9, 0.2)) == 0.5

    def test_identity_in_logit_space(self):
        p = ModelParams(ModelKind.PWR, (1.0, 0.0, 0.0))
        assert predict(p, EvidencePair(0.75, 0.4)) == pytest.approx(0.75, abs=1e-12)

    def test_hand_odds_arithmetic(self):
        # odds 3 * 3 = 9 -> 0.9
        p = ModelParams(ModelKind.PWR, (1.0, 1.0, 0.0))
        assert predict(p, EvidencePair(0.75, 0.75)) == pytest.approx(0.9, abs=1e-12)

    def test_boundary_evidence_rejected(self):
        p = ModelParams(ModelKind.PWR, (1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="strictly inside"):
            predict(p, EvidencePair(0.0, 0.5))
        with pytest.raises(ValueError, match="strictly inside"):
            predict(p, EvidencePair(0.5, 1.0))

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = ModelParams(ModelKind.PWR, tuple(rng.uniform(-3, 3, 3)))
            v = predict(p, EvidencePair(*rng.uniform(0.01, 0.99, 2)))
            assert 0.0 < v < 1.0


class TestWrstAndDispatch:
    def test_constant(self):
        p = ModelParams(ModelKind.WRST, (0.42,))
        assert predict(p, EvidencePair(0.0, 1.0)) == 0.42

    def test_dispatcher_matches_direct(self):
        ev = EvidencePair(0.25, 0.75)
        cases = [
            ModelParams(ModelKind.LINR, (0.1, 0.2, 0.3)),
            ModelParams(ModelKind.INDP, (0.1, 0.2, 0.3, 0.4)),
            ModelParams(ModelKind.PWR, (1.0, -1.0, 0.5)),
            ModelParams(ModelKind.WRST, (0.42,)),
        ]
        for p in cases:
            assert predict(p, ev) == predict_grid(p.kind, p.values, ev.e1, ev.e2)

    def test_evidence_outside_the_domain_rejected(self):
        # the rule fit_batch applies: predict_grid gave NaN at NaN evidence and a value outside [0, 1]
        cases = [ModelParams(ModelKind.LINR, (0.1, 0.2, 0.3)), ModelParams(ModelKind.INDP, (0.1, 0.2, 0.3, 0.4)),
                 ModelParams(ModelKind.PRSP, (0.5, 0.4, 0.8, 0.2, 0.6, 0.7, 0.3)),
                 ModelParams(ModelKind.PWR, (1.0, -1.0, 0.5)), ModelParams(ModelKind.WRST, (0.42,))]
        for p, name, value in itertools.product(cases, ("e1", "e2"), (np.nan, np.inf, -0.2, 1.5)):
            evidence = {"e1": [0.3, 0.5], "e2": [0.3, 0.5]}
            evidence[name][1] = value
            with pytest.raises(ValueError, match=rf"^{name} must be finite and in \[0, 1\], got "):
                predict_grid(p.kind, p.values, evidence["e1"], evidence["e2"])

    def test_bst_has_no_predictor(self):
        for call in (lambda: predict(ModelParams(ModelKind.BST, ()), EvidencePair(0.5, 0.5)),
                     lambda: predict_grid(ModelKind.BST, (), 0.5, 0.5)):
            with pytest.raises(ValueError, match="^BST has no predictor; it is scored as prediction == target$"):
                call()


class TestTrueParams:
    def test_indp_uniform(self):
        assert true_params_indp(UNIFORM).values == (0.5, 0.5, 0.5, 0.5)

    def test_indp_expanded_example(self):
        assert true_params_indp(CI_EXAMPLE).values[3] == pytest.approx(16 / 17, abs=1e-12)

    def test_indp_values_are_probabilities(self):
        for d in sample_uniform(33, 100):
            assert all(0.0 <= v <= 1.0 for v in true_params_indp(d).values)

    def test_indp_zero_cell_rejected(self):
        d = JointDist([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="zero-probability"):
            true_params_indp(d)

    def test_prsp_uniform(self):
        assert true_params_prsp(UNIFORM).values == (0.5,) * 7

    def test_prsp_expanded_example(self):
        v = true_params_prsp(CI_EXAMPLE).values
        assert v[1] == pytest.approx(0.5, abs=1e-12)  # P(E1)
        assert v[2] == pytest.approx(0.8, abs=1e-12)  # P(C|E1) = 0.5*0.8/0.5

    def test_prsp_boundary_marginal_rejected(self):
        # checked in the order E1, E2, C: each case names the first marginal on the boundary, not the later ones
        for atoms, message in (([0.5, 0.5, 0, 0, 0, 0, 0, 0], r"P\(E1\)=0\.0"), ([0, 0, 0, 0, 0.5, 0.5, 0, 0], r"P\(E1\)=1\.0"),
                               ([0.5, 0, 0, 0, 0.5, 0, 0, 0], r"P\(E2\)=0\.0"), ([0.5, 0, 0, 0, 0, 0, 0.5, 0], r"P\(C\)=0\.0")):
            with pytest.raises(ValueError, match=f"^{message} is on the boundary; parameters undefined$"):
                true_params_prsp(JointDist(atoms))

    def test_prsp_values_strictly_inside(self):
        for d in sample_cond_indep(34, 100):
            assert all(0.0 < v < 1.0 for v in true_params_prsp(d).values)


class TestSharedProperties:
    def test_every_model_nests_any_constant(self):
        for c in (0.05, 0.3, 0.5, 0.9):
            reps = {
                ModelKind.LINR: (0.0, 0.0, c),
                ModelKind.PWR: (0.0, 0.0, float(logit(c))),
                ModelKind.INDP: (c, c, c, c),
                ModelKind.PRSP: (c, 0.5, c, c, 0.5, c, c),
            }
            for kind, values in reps.items():
                p = ModelParams(kind, values)
                for ev in DEFAULT_GRID.pairs():
                    assert predict(p, ev) == pytest.approx(c, abs=1e-12)

    def test_monotone_grid_response(self):
        rng = np.random.default_rng(5)
        levels = np.array(DEFAULT_GRID.levels)
        for _ in range(50):
            b = np.sort(rng.uniform(0, 1, 4))  # b00 <= b01 <= b10 <= b11
            indp = ModelParams(ModelKind.INDP, (b[0], b[1], b[2], b[3]))
            pwr = ModelParams(ModelKind.PWR, (rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(-1, 1)))
            for p in (indp, pwr):
                grid = predict_grid(p.kind, p.values, levels[:, None], levels[None, :])
                assert np.all(np.diff(grid, axis=0) >= -1e-12)
                assert np.all(np.diff(grid, axis=1) >= -1e-12)

    def test_predictors_are_pure(self):
        rng = np.random.default_rng(6)
        ev = EvidencePair(0.25, 0.75)
        for kind, dim in ((ModelKind.LINR, 3), (ModelKind.INDP, 4), (ModelKind.PWR, 3)):
            values = tuple(rng.uniform(0.1, 0.9, dim))
            p = ModelParams(kind, values)
            assert predict(p, ev) == predict(p, ev)

    def test_grid_and_scalar_paths_agree(self):
        rng = np.random.default_rng(7)
        e1 = np.array(DEFAULT_GRID.levels)
        e2 = np.array(DEFAULT_GRID.levels[::-1])
        cases = [
            ModelParams(ModelKind.LINR, tuple(rng.uniform(-1, 1, 3))),
            ModelParams(ModelKind.INDP, tuple(rng.uniform(0, 1, 4))),
            ModelParams(ModelKind.PRSP, tuple(rng.uniform(0.05, 0.95, 7))),
            ModelParams(ModelKind.PWR, tuple(rng.uniform(-1, 1, 3))),
        ]
        for p in cases:
            grid = predict_grid(p.kind, p.values, e1, e2)
            scalar = [predict(p, EvidencePair(a, b)) for a, b in zip(e1, e2)]
            assert np.array_equal(grid, np.array(scalar))
