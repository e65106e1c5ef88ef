import numpy as np
import pytest
from scipy.optimize import lsq_linear

from uisbench.dist import new_joint, sample_cond_indep, sample_uniform
from uisbench.models import ModelKind, ModelParams, true_params_indp, true_params_prsp
from uisbench.optim import (
    FitResult,
    OptimSettings,
    _fd_grad,
    _search,
    _to_model_values,
    fit,
    objective,
    ols_linr,
)
from uisbench.oracle import DEFAULT_GRID, EvidencePair, standard_vector

from conftest import sample_marginal_indep

UNIFORM = new_joint([0.125] * 8)


def constant_targets(value, grid=DEFAULT_GRID):
    return [(ev, value) for ev in grid.pairs()]


def planted_linear_targets(a1, a2, b, grid=DEFAULT_GRID):
    return [(ev, a1 * ev.e1 + a2 * ev.e2 + b) for ev in grid.pairs()]


def indp_design(targets):
    e1 = np.array([ev.e1 for ev, _ in targets])
    e2 = np.array([ev.e2 for ev, _ in targets])
    return np.column_stack([(1 - e1) * (1 - e2), (1 - e1) * e2, e1 * (1 - e2), e1 * e2])


def planted_indp_targets(table, grid=DEFAULT_GRID):
    """Targets of the bilinear INDP formula; a table outside [0, 1] forces active bounds."""
    pairs = grid.pairs()
    return list(zip(pairs, indp_design([(ev, 0.0) for ev in pairs]) @ np.array(table)))


def bvls_epsilon(targets):
    """RMS error of scipy's bounded-variable least squares on INDP's design, box [0, 1]."""
    design = indp_design(targets)
    c = np.array([v for _, v in targets])
    x = lsq_linear(design, c, bounds=(0.0, 1.0), method="bvls", tol=1e-15).x
    return float(np.sqrt(np.mean((design @ x - c) ** 2)))


class TestSettings:
    def test_defaults(self):
        s = OptimSettings()
        assert (s.n_starts, s.max_iters) == (5, 500)
        assert (s.grad_tol, s.obj_rel_tol, s.fd_step) == (1e-8, 1e-12, 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimSettings(n_starts=0)
        with pytest.raises(ValueError):
            OptimSettings(fd_step=0.0)


class TestObjective:
    def test_bst_is_zero(self):
        sv = standard_vector(sample_uniform(40, 1)[0])
        assert objective(ModelParams(ModelKind.BST, ()), sv) == 0.0

    def test_wrst_at_mean_is_population_std(self):
        sv = standard_vector(sample_uniform(41, 1)[0])
        c = np.array([v for _, v in sv])
        p = ModelParams(ModelKind.WRST, (float(np.mean(c)),))
        assert objective(p, sv) == pytest.approx(float(np.std(c)), abs=1e-15)

    def test_zero_predictor_on_half_targets(self):
        p = ModelParams(ModelKind.LINR, (0.0, 0.0, 0.0))
        assert objective(p, constant_targets(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            objective(ModelParams(ModelKind.WRST, (0.5,)), [])


class TestOlsLinr:
    def test_recovers_planted_coefficients(self):
        p = ols_linr(planted_linear_targets(0.2, 0.3, 0.1))
        assert np.allclose(p.values, (0.2, 0.3, 0.1), atol=1e-10)

    def test_constant_targets(self):
        p = ols_linr(constant_targets(0.5))
        assert np.allclose(p.values, (0.0, 0.0, 0.5), atol=1e-12)

    def test_beats_random_probes(self):
        sv = standard_vector(sample_uniform(42, 1)[0])
        best = objective(ols_linr(sv), sv)
        rng = np.random.default_rng(0)
        for _ in range(100):
            probe = ModelParams(ModelKind.LINR, tuple(rng.uniform(-2, 2, 3)))
            assert best <= objective(probe, sv) + 1e-15

    def test_degenerate_grid_is_singular(self):
        targets = [(EvidencePair(0.5, x), x) for x in (0.1, 0.5, 0.9)]  # e1 constant
        with pytest.raises(np.linalg.LinAlgError):
            ols_linr(targets)


class TestFit:
    def test_bst_rejected(self):
        with pytest.raises(ValueError, match="BST"):
            fit(ModelKind.BST, constant_targets(0.5))

    def test_warm_start_kind_checked(self):
        warm = ModelParams(ModelKind.INDP, (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="warm start"):
            fit(ModelKind.PRSP, constant_targets(0.5), warm_start=warm)
        linr = ModelParams(ModelKind.LINR, (0.0, 0.0, 0.5))
        with pytest.raises(ValueError, match="warm start"):  # exact kinds ignore it but still check it
            fit(ModelKind.INDP, constant_targets(0.5), warm_start=linr)

    def test_wrst_on_constant_targets(self):
        r = fit(ModelKind.WRST, standard_vector(UNIFORM))
        assert r.params.values[0] == pytest.approx(0.5, abs=1e-12)
        assert r.epsilon == pytest.approx(0.0, abs=1e-12)
        assert r.converged

    def test_wrst_constant_is_target_mean(self):
        sv = standard_vector(sample_uniform(43, 1)[0])
        r = fit(ModelKind.WRST, sv)
        c = np.array([v for _, v in sv])
        assert r.params.values[0] == pytest.approx(float(np.mean(c)), abs=1e-15)

    def test_linr_matches_ols(self):
        for d in sample_uniform(44, 5):
            sv = standard_vector(d)
            r = fit(ModelKind.LINR, sv, seed=9)
            assert abs(r.epsilon - objective(ols_linr(sv), sv)) <= 1e-8

    def test_indp_reaches_zero_on_marginally_independent_prior(self):
        for d in sample_marginal_indep(45, 3):
            sv = standard_vector(d)
            r = fit(ModelKind.INDP, sv, seed=9, warm_start=true_params_indp(d))
            assert r.epsilon <= 1e-6

    def test_deterministic(self):
        sv = standard_vector(sample_uniform(46, 1)[0])
        a = fit(ModelKind.PRSP, sv, seed=17)
        b = fit(ModelKind.PRSP, sv, seed=17)
        assert a == b

    def test_seed_changes_random_starts(self):
        sv = standard_vector(sample_uniform(47, 1)[0])
        a = fit(ModelKind.PWR, sv, seed=1)
        b = fit(ModelKind.PWR, sv, seed=2)
        # same optimum is fine; the search itself must still be seed-driven
        assert isinstance(a, FitResult) and isinstance(b, FitResult)
        assert abs(a.epsilon - b.epsilon) < 1e-4

    def test_nesting_bound(self):
        for d in sample_uniform(48, 3):
            sv = standard_vector(d)
            wrst = fit(ModelKind.WRST, sv).epsilon
            for kind in (ModelKind.LINR, ModelKind.PWR, ModelKind.INDP, ModelKind.PRSP):
                warm = None
                if kind is ModelKind.INDP:
                    warm = true_params_indp(d)
                if kind is ModelKind.PRSP:
                    warm = true_params_prsp(d)
                assert fit(kind, sv, seed=3, warm_start=warm).epsilon <= wrst + 1e-6

    def test_warm_start_dominance(self):
        for d in sample_cond_indep(49, 3):
            sv = standard_vector(d)
            for kind, warm in (
                (ModelKind.INDP, true_params_indp(d)),
                (ModelKind.PRSP, true_params_prsp(d)),
            ):
                r = fit(kind, sv, seed=5, warm_start=warm)
                assert r.epsilon <= objective(warm, sv) + 1e-12

    def test_result_invariants(self):
        sv = standard_vector(sample_uniform(50, 1)[0])
        for kind in (ModelKind.LINR, ModelKind.PWR, ModelKind.INDP, ModelKind.PRSP, ModelKind.WRST):
            r = fit(kind, sv, seed=7)
            assert r.epsilon >= 0.0
            assert len(r.params.values) == {"LINR": 3, "PWR": 3, "INDP": 4, "PRSP": 7, "WRST": 1}[kind.value]
            assert r.start_index >= 0


class TestExactFits:
    def test_indp_matches_bounded_least_squares(self):
        dists = sample_uniform(60, 15) + sample_cond_indep(61, 15)
        cases = [standard_vector(d) for d in dists]
        cases += [planted_indp_targets(t) for t in ((-0.2, 1.3, 0.5, 0.4), (1.5, -0.5, 2.0, 0.2))]
        for sv in cases:
            r = fit(ModelKind.INDP, sv)
            assert r.epsilon <= bvls_epsilon(sv) + 1e-12
            assert (r.iterations, r.converged, r.start_index) == (0, True, 0)

    def test_indp_finds_tables_on_the_bounds(self):
        # the first two are the constant targets 0 and 1
        for table in ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0), (0.0, 1.0, 0.3, 1.0), (1.0, 0.0, 0.0, 0.6)):
            sv = planted_indp_targets(table)
            r = fit(ModelKind.INDP, sv)
            assert r.epsilon <= bvls_epsilon(sv) + 1e-12
            assert np.allclose(r.params.values, table, atol=1e-9)

    def test_exact_fits_ignore_settings_seed_and_warm_start(self):
        for d in sample_uniform(62, 2) + sample_cond_indep(63, 2):
            sv = standard_vector(d)
            for kind in (ModelKind.LINR, ModelKind.INDP):
                assert fit(kind, sv, OptimSettings(max_iters=1)) == fit(kind, sv)
                assert fit(kind, sv, seed=5) == fit(kind, sv)
            assert fit(ModelKind.INDP, sv, warm_start=true_params_indp(d)) == fit(ModelKind.INDP, sv)


class TestSearchInternals:
    def test_descent_on_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])

        def f(x):
            return float(np.sum((x - target) ** 2))

        def f_rows(points):
            return np.sum((points - target) ** 2, axis=-1)

        x, fx, iters, converged, history = _search(f, f_rows, np.zeros(3), OptimSettings())
        assert converged
        assert np.allclose(x, target, atol=1e-4)
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_descent_on_real_objective(self):
        d = sample_uniform(51, 1)[0]
        sv = standard_vector(d)
        e1 = np.array([ev.e1 for ev, _ in sv])
        e2 = np.array([ev.e2 for ev, _ in sv])
        c = np.array([v for _, v in sv])
        from uisbench.models import _predict_rows

        def f_rows(points):
            pred = _predict_rows(ModelKind.PRSP, _to_model_values(ModelKind.PRSP, points), e1, e2)
            return np.sqrt(np.mean((c - pred) ** 2, axis=-1))

        def f(x):
            return float(f_rows(x[None, :])[0])

        rng = np.random.default_rng(8)
        for _ in range(3):
            x0 = rng.uniform(-2, 2, 7)
            _, _, _, _, history = _search(f, f_rows, x0, OptimSettings(max_iters=150))
            assert all(b <= a for a, b in zip(history, history[1:]))

    def test_finite_difference_consistency(self):
        # the derivative estimate must be stable when the step is halved
        d = sample_uniform(52, 1)[0]
        sv = standard_vector(d)
        e1 = np.array([ev.e1 for ev, _ in sv])
        e2 = np.array([ev.e2 for ev, _ in sv])
        c = np.array([v for _, v in sv])
        from uisbench.models import _predict_rows

        rng = np.random.default_rng(9)
        for kind in (ModelKind.LINR, ModelKind.INDP, ModelKind.PRSP, ModelKind.PWR, ModelKind.WRST):
            def f_rows(points, kind=kind):
                pred = _predict_rows(kind, _to_model_values(kind, points), e1, e2)
                return np.sqrt(np.mean((c - pred) ** 2, axis=-1))

            from uisbench.models import PARAM_DIM

            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, PARAM_DIM[kind])
                g1 = _fd_grad(f_rows, x, 1e-6)
                g2 = _fd_grad(f_rows, x, 5e-7)
                denom = max(float(np.linalg.norm(g1)), 1e-8)
                assert float(np.linalg.norm(g1 - g2)) / denom < 1e-3

    def test_bounded_transform_roundtrip(self):
        from uisbench.optim import _to_search_coords

        values = np.array([0.2, 0.5, 0.9, 0.0001, 0.3, 0.7, 0.999])
        x = _to_search_coords(ModelKind.PRSP, values)
        assert np.allclose(_to_model_values(ModelKind.PRSP, x), values, atol=1e-12)
        assert np.all(np.abs(x) <= 30.0)
