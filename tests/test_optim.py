import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from uisbench.bench import _derived_seed, run_bench
from uisbench.dist import new_joint, sample_cond_indep, sample_uniform
from uisbench.models import ModelKind, ModelParams, _predict_rows, predict_grid, true_params_indp, true_params_prsp
from uisbench.optim import (
    FitResult,
    OptimSettings,
    _KIND_INDEX,
    _indp_exact,
    _lm,
    _search_model,
    _starts,
    _to_model_values,
    _to_search_coords,
    fit,
    fit_batch,
    objective,
)
from uisbench.oracle import DEFAULT_GRID, EvidencePair, standard_vector

from conftest import assert_batch_calls, counting, reference_lm, sample_marginal_indep
from prsp_ratchet import RUNS, prsp_epsilons, read_ratchet

UNIFORM = new_joint([0.125] * 8)
FITTED_KINDS = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP, ModelKind.PWR)


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

    def test_validation(self):
        with pytest.raises(ValueError, match="n_starts"):
            OptimSettings(n_starts=0)
        with pytest.raises(ValueError, match="max_iters"):
            OptimSettings(max_iters=2.0)


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
        p = fit(ModelKind.LINR, planted_linear_targets(0.2, 0.3, 0.1)).params
        assert np.allclose(p.values, (0.2, 0.3, 0.1), atol=1e-10)

    def test_constant_targets(self):
        p = fit(ModelKind.LINR, constant_targets(0.5)).params
        assert np.allclose(p.values, (0.0, 0.0, 0.5), atol=1e-12)

    def test_beats_random_probes(self):
        sv = standard_vector(sample_uniform(42, 1)[0])
        best = objective(fit(ModelKind.LINR, sv).params, sv)
        rng = np.random.default_rng(0)
        for _ in range(100):
            probe = ModelParams(ModelKind.LINR, tuple(rng.uniform(-2, 2, 3)))
            assert best <= objective(probe, sv) + 1e-15

    def test_degenerate_grid_is_singular(self):
        targets = [(EvidencePair(0.5, x), x) for x in (0.1, 0.5, 0.9)]  # e1 constant
        with pytest.raises(np.linalg.LinAlgError):
            fit(ModelKind.LINR, targets)


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
            assert abs(r.epsilon - objective(fit(ModelKind.LINR, sv).params, sv)) <= 1e-8

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

    def test_indp_stays_in_the_box_when_every_error_overflows(self):
        # every feasible candidate's squared error is inf, so all tied and the unconstrained one won
        e1, e2 = grid_arrays()
        for value in (1e160, -1e160, 1e154):
            c = np.full((2, e1.size), value)
            c[0] = np.linspace(0.1, 0.9, e1.size)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                b = _indp_exact(e1, e2, c)
                assert np.all((b >= 0.0) & (b <= 1.0))
                assert np.array_equal(b[0], _indp_exact(e1, e2, c[:1])[0])
                with pytest.raises(RuntimeError, match="^INDP fit failed on row 1: "):
                    fit_batch(ModelKind.INDP, e1, e2, c, None, [0, 0], [None, None])

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


class TestFitBatch:
    def cases(self):
        """(targets, seed, PRSP warm start) of a uniform, a cond_indep and a planted-PRSP standard vector."""
        u, ci = sample_uniform(56, 1)[0], sample_cond_indep(57, 1)[0]
        e1, e2 = grid_arrays()
        planted = list(zip(DEFAULT_GRID.pairs(), predict_grid(ModelKind.PRSP, (0.4, 0.3, 0.8, 0.2, 0.6, 0.7, 0.25), e1, e2)))
        return [(standard_vector(u), 3, true_params_prsp(u)), (standard_vector(ci), 4, true_params_prsp(ci)), (planted, 5, None)]

    def test_equals_lone_fits_in_any_order(self):
        cases = self.cases()
        settings = OptimSettings(max_iters=200)
        for kind in (ModelKind.PRSP, ModelKind.PWR, ModelKind.INDP, ModelKind.LINR, ModelKind.WRST):
            warm = [w if kind is ModelKind.PRSP else None for _, _, w in cases]
            lone = [fit(kind, t, settings, s, w) for (t, s, _), w in zip(cases, warm)]
            for order in ((0, 1, 2), (2, 0, 1)):
                answers = [[v for _, v in cases[i][0]] for i in order]
                batch = fit_batch(
                    kind, *grid_arrays(), answers, settings, [cases[i][1] for i in order], [warm[i] for i in order]
                )
                for i, got in zip(order, batch):
                    want = lone[i]
                    assert got.params == want.params
                    assert got.epsilon == want.epsilon
                    assert got.iterations == want.iterations
                    assert got.converged == want.converged
                    assert got.start_index == want.start_index

    def test_bad_row_raises_for_the_whole_call(self):
        (sv, seed, warm), *_ = self.cases()
        e1, e2 = grid_arrays()
        c = [v for _, v in sv]
        wrong = ModelParams(ModelKind.INDP, (0.5, 0.5, 0.5, 0.5))
        settings = OptimSettings(max_iters=20)
        # a warm start of another kind in any row, also where the exact fits ignore it
        for kind, warm_starts in ((ModelKind.PRSP, [warm, None, wrong]), (ModelKind.LINR, [None, wrong])):
            with pytest.raises(ValueError, match=f"warm start is INDP, expected {kind.value}"):
                fit_batch(kind, e1, e2, [c] * len(warm_starts), settings, [seed] * len(warm_starts), warm_starts)
        # finite targets whose squared residuals overflow leave no start a finite error
        overflowing = [1e200 * (-1) ** j for j in range(len(c))]
        for kind in FITTED_KINDS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(RuntimeError, match=f"^{kind.value} fit failed on row 1: "):
                    fit_batch(kind, e1, e2, [c, overflowing, overflowing], settings, [seed] * 3, [None] * 3)
                with pytest.raises(RuntimeError, match=f"^{kind.value} fit failed on row 0: "):
                    fit(kind, list(zip(DEFAULT_GRID.pairs(), overflowing)), settings)
        with pytest.raises(ValueError, match="BST"):
            fit_batch(ModelKind.BST, e1, e2, [c], settings, [seed], [None])
        with pytest.raises(ValueError, match=r"need targets of shape \(n, 25\)"):
            fit_batch(ModelKind.PWR, e1, e2, [c[:-1]], settings, [seed], [None])

    def test_no_rows_give_no_results(self):
        e1, e2 = grid_arrays()
        for kind in FITTED_KINDS:
            assert fit_batch(kind, e1, e2, np.empty((0, e1.size)), OptimSettings(max_iters=5), [], []) == []

    def test_non_finite_targets_rejected(self):
        sv = constant_targets(0.5)
        sv[7] = (sv[7][0], float("nan"))
        for kind in (ModelKind.INDP, ModelKind.PWR):
            with pytest.raises(ValueError, match="targets must be finite"):
                fit(kind, sv)

    def test_array_built_starts_equal_each_rows_lone_fit(self, monkeypatch):
        import uisbench.optim as optim

        batches = []  # the starts of each _lm call

        def recorded(model, x0, c, settings):
            batches.append(x0)
            return _lm(model, x0, c, settings)

        monkeypatch.setattr(optim, "_lm", recorded)
        (sv_u, seed_u, warm_u), (sv_ci, seed_ci, _), (planted, seed_p, _) = self.cases()
        settings = OptimSettings(n_starts=3, max_iters=5)
        for kind, warm in ((ModelKind.PRSP, warm_u), (ModelKind.PWR, ModelParams(ModelKind.PWR, (0.6, -0.3, 0.2)))):
            # with and without a warm start
            rows = [(sv_u, seed_u, warm), (sv_ci, seed_ci, None), (planted, seed_p, warm)]
            batches.clear()
            results = fit_batch(kind, *grid_arrays(), [[v for _, v in t] for t, _, _ in rows], settings,
                                [s for _, s, _ in rows], [w for _, _, w in rows])
            (batch,) = batches
            lone_starts = []
            for (targets, seed, w), got in zip(rows, results):
                batches.clear()
                assert got == fit(kind, targets, settings, seed, w)
                (starts,) = batches
                lone_starts.append(starts)
                # start_index order: the warm start if any, the constant start, then the row's own seeded draws
                spread = 2.0 if kind is ModelKind.PRSP else 1.0
                draws = np.random.default_rng([seed, _KIND_INDEX[kind]]).uniform(-spread, spread, (3, starts.shape[1]))
                first = 1 if w is None else 2
                assert np.array_equal(starts[first : first + 3], draws)
                if w is not None:
                    assert np.array_equal(starts[0], _to_search_coords(kind, w.values))
            assert len(lone_starts[0]) == len(lone_starts[1]) + 1 == len(lone_starts[2])
            assert len(lone_starts[0]) == 2 + 3 + (16 if kind is ModelKind.PRSP else 0)
            assert np.array_equal(batch, np.concatenate(lone_starts))

    def test_empty_vector_rejected_by_fit(self):
        for kind in (ModelKind.PRSP, ModelKind.LINR):
            with pytest.raises(ValueError, match="non-empty"):
                fit(kind, [])


def grid_arrays(grid=DEFAULT_GRID):
    pairs = grid.pairs()
    return np.array([ev.e1 for ev in pairs]), np.array([ev.e2 for ev in pairs])


def central_difference(f, x, h):
    """d f(x) / d x[:, p] for every column p, stacked last: (m, k, n)."""
    cols = []
    for p in range(x.shape[1]):
        up, down = x.copy(), x.copy()
        up[:, p] += h
        down[:, p] -= h
        cols.append((f(up) - f(down)) / (2.0 * h))
    return np.stack(cols, axis=-1)


# PRSP's epsilon on the first 8 uniform acceptance distributions (gen seed 1987,
# bench seed 11, default settings), as fitted by the finite-difference search
# this optimizer replaced
PRSP_EPS_BEFORE_LM = (
    0.026260366946675943, 0.035694696724610724, 0.03517185998978955, 0.07074510406386808,
    0.07211377364963509, 0.002595406858735568, 0.014438672401330073, 0.08138510863078559,
)

# PRSP's epsilon on uniform acceptance distributions 68 and 45 (gen seed 1987,
# bench seed 11, default settings) when each start stepped on past its stop
# until its damping capped; these two rose most once starts left at their stop
PRSP_EPS_STEPPED_PAST_STOP = {68: 0.078855414251281106, 45: 0.10151948224445308}


class TestSearchInternals:
    def test_jacobian_matches_central_differences(self):
        e1, e2 = grid_arrays()
        c = np.linspace(0.1, 0.9, e1.size)
        rng = np.random.default_rng(9)
        for kind, dim in ((ModelKind.PRSP, 7), (ModelKind.PWR, 3)):
            x = rng.uniform(-2.5, 2.5, (40, dim))
            if kind is ModelKind.PRSP:
                x[:4, 0], x[4:8, 2], x[8:12, 3] = 35.0, -31.0, 29.0  # two clamped, one just inside
                values = _to_model_values(kind, x)
                for pe, e in ((values[:, 1:2], e1), (values[:, 4:5], e2)):  # both segments of both rules
                    assert np.any(e < pe) and np.any(e > pe)
                    assert np.min(np.abs(e - pe)) > 1e-3  # no kink inside the difference stencil
            model = _search_model(kind, e1, e2)
            jac = model(x)[1]()
            fd = central_difference(lambda pts: model(pts)[0], x, 1e-6)
            assert np.allclose(jac, fd, rtol=1e-6, atol=1e-8)
            if kind is ModelKind.PRSP:
                assert not np.any(jac[:4, :, 0]) and not np.any(jac[4:8, :, 2])
                assert np.any(jac[8:12, :, 3])

    def test_prsp_jacobian_one_sided_on_a_grid_level(self):
        # pE1 = 0.5 and pE2 = 0.25 sit on grid levels: there the kink takes the e <= pE branch
        e1, e2 = grid_arrays()
        values = np.array([[0.4, 0.5, 0.8, 0.2, 0.25, 0.8, 0.3]])  # the two slopes differ at both kinks
        jac = _predict_rows(ModelKind.PRSP, values, e1, e2, jacobian=True)[1]()
        h = 1e-7
        for p in (1, 4):
            up, down = values.copy(), values.copy()
            up[0, p] += h
            down[0, p] -= h
            base = _predict_rows(ModelKind.PRSP, values, e1, e2)
            forward = (_predict_rows(ModelKind.PRSP, up, e1, e2) - base) / h
            backward = (base - _predict_rows(ModelKind.PRSP, down, e1, e2)) / h
            on_level = (e1 if p == 1 else e2) == values[0, p]
            assert np.allclose(jac[0, :, p], forward[0], rtol=1e-5, atol=1e-6)
            assert not np.allclose(jac[0, on_level, p], backward[0, on_level], rtol=1e-3, atol=1e-3)

    def test_jacobian_completed_for_any_rows_equals_a_pass_over_them(self):
        e1, e2 = grid_arrays()
        rng = np.random.default_rng(23)
        for kind, dim in ((ModelKind.PRSP, 7), (ModelKind.PWR, 3)):
            x = rng.uniform(-2.5, 2.5, (9, dim))
            x[1, 0] = 35.0  # beyond the clamp, where PRSP's derivative is 0
            x[2, -1] = np.nan
            x[3, 0] = -np.inf
            values = rng.uniform(0.02, 0.98, (9, dim))
            if kind is ModelKind.PRSP:
                values[4, 1], values[5, 4] = 0.25, 0.999  # pE1 and pE2 on a grid level: the one-sided branch
                x[4, 1] = x[5, 4] = 0.0  # pE1 and pE2 at 0.5, a grid level
            values[6] = np.nan
            values[7, 0] = np.inf
            model = _search_model(kind, e1, e2)
            pass_values = _predict_rows(kind, values, e1, e2, jacobian=True)
            pass_x = model(x)
            for rows in (np.arange(9), np.arange(9)[::-1], np.array([6, 0, 4]), np.array([5]), np.array([3, 7, 2, 1])):
                for (pred, jac), alone in ((pass_values, lambda: _predict_rows(kind, values[rows], e1, e2, jacobian=True)),
                                           (pass_x, lambda: model(x[rows]))):
                    alone_pred, alone_jac = alone()
                    assert np.array_equal(pred[rows], alone_pred, equal_nan=True)
                    assert np.array_equal(jac(rows), alone_jac(), equal_nan=True)
            assert np.array_equal(pass_values[1](slice(None)), pass_values[1](np.arange(9)), equal_nan=True)
            jac = pass_x[1]()
            assert not np.isfinite(jac[2]).all() and not np.isfinite(pass_values[1]()[6]).all()
            if kind is ModelKind.PRSP:
                assert not np.any(jac[1, :, 0]) and np.all(np.isfinite(jac[1]))

    def test_closed_form_kinds_have_no_jacobian(self):
        e1, e2 = grid_arrays()
        with pytest.raises(ValueError, match="no Jacobian"):
            _predict_rows(ModelKind.INDP, np.full((1, 4), 0.5), e1, e2, jacobian=True)

    def test_start_result_independent_of_batch(self):
        d = sample_uniform(51, 1)[0]
        sv = standard_vector(d)
        e1, e2 = grid_arrays()
        c = np.array([v for _, v in sv])
        rng = np.random.default_rng(8)
        for kind, x0 in (
            (ModelKind.PRSP, np.vstack([_to_search_coords(ModelKind.PRSP, true_params_prsp(d).values),
                                        rng.uniform(-2, 2, (5, 7))])),
            (ModelKind.PWR, rng.uniform(-1, 1, (5, 3))),
        ):
            model, c_rows = _search_model(kind, e1, e2), np.tile(c, (len(x0), 1))
            batch = _lm(model, x0, c_rows, OptimSettings())
            reverse = _lm(model, x0[::-1], c_rows, OptimSettings())
            for i in range(len(x0)):
                alone = _lm(model, x0[i : i + 1], c[None], OptimSettings())
                for together in ((out[i] for out in batch), (out[len(x0) - 1 - i] for out in reverse)):
                    x, sse, iters, converged = together
                    assert np.array_equal(x, alone[0][0])
                    assert sse == alone[1][0]
                    assert (iters, converged) == (alone[2][0], alone[3][0])

    def test_lm_never_raises_the_error_of_a_start(self):
        sv = standard_vector(sample_uniform(52, 1)[0])
        e1, e2 = grid_arrays()
        c = np.array([v for _, v in sv])
        x0 = np.random.default_rng(3).uniform(-2, 2, (8, 7))
        model = _search_model(ModelKind.PRSP, e1, e2)
        x, sse, iters, _ = _lm(model, x0, np.tile(c, (len(x0), 1)), OptimSettings(max_iters=30))
        start_sse = np.sum((c - model(x0)[0]) ** 2, axis=-1)
        assert np.all(sse <= start_sse) and np.all(iters <= 30)
        assert np.allclose(np.sum((c - model(x)[0]) ** 2, axis=-1), sse, rtol=0, atol=0)

    def test_lm_matches_the_eager_reference(self):
        # two fits' starts in one batch, as fit_batch builds it, alone and with a start of non-finite SSE
        e1, e2 = grid_arrays()
        dists = (sample_uniform(64, 1)[0], sample_cond_indep(65, 1)[0])
        c = [np.array([v for _, v in standard_vector(d)]) for d in dists]
        budgets = (OptimSettings(max_iters=150), OptimSettings())  # one PRSP row steps to the end of each
        for kind, settings in itertools.product((ModelKind.PRSP, ModelKind.PWR), budgets):
            warm = [true_params_prsp(d) if kind is ModelKind.PRSP else None for d in dists]
            x0, counts = _starts(kind, e1, e2, np.stack(c), settings, [7, 7], warm)
            c_rows = np.repeat(np.stack(c), counts, axis=0)
            with_nan = x0.copy()
            with_nan[3] = np.nan
            model = _search_model(kind, e1, e2)
            for starts in (x0, with_nan):
                got = _lm(model, starts, c_rows, settings)
                *want, _ = reference_lm(model, starts, c_rows, settings)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b, equal_nan=True)
            assert got[2][3] == 0 and np.isnan(got[0][3]).all()  # never moved
            if kind is ModelKind.PRSP:  # rows leave at their stops, and the batch ends with its last row
                assert got[2].max() == settings.max_iters and 0 < np.count_nonzero(got[3]) < len(x0) - 1

    def test_lm_rejects_a_point_with_non_finite_derivatives(self):
        # predictions x against targets (1, -1), whose Jacobian is not finite where x0 > 0.5: steps
        # toward the minimum lower the SSE there but are rejected until the damping keeps them short
        c = np.tile([1.0, -1.0], (3, 1))
        past_wall = []  # per Jacobian completion, its points with x0 > 0.5

        def model(x):
            def jac(rows=slice(None)):
                past_wall.append(int(np.sum(x[rows, 0] > 0.5)))
                return np.where((x[rows, 0] > 0.5)[:, None, None], np.nan, np.eye(2))

            return x.copy(), jac

        x0 = np.array([[0.0, 0.0], [2.0, 0.0], [0.4, -0.5]])  # the second has no finite SSE: never moved
        settings = OptimSettings(max_iters=80)
        x, sse, iters, converged = _lm(model, x0, c, settings)
        assert sum(past_wall[1:]) > 0  # after the starts, only trial points whose SSE fell get a Jacobian
        for got, want in zip((x, sse, iters, converged), reference_lm(model, x0, c, settings)):
            assert np.array_equal(got, want)
        assert np.array_equal(x[1], x0[1]) and iters[1] == 0 and not converged[1]
        assert np.all(x[[0, 2], 0] <= 0.5) and np.all(iters[[0, 2]] > 0)

    def test_lm_steps_along_a_sloppy_direction(self):
        # predictions (0, 1e-8 x) against targets (1, 0.1): at x0 = 0 the RMS gradient is under 1e-8,
        # which once stopped the start there after 0 steps, yet every capped step lowers the SSE
        def model(x):
            pred = np.column_stack([np.zeros(len(x)), 1e-8 * x[:, 0]])
            return pred, lambda rows=slice(None): np.tile([[0.0], [1e-8]], (len(x[rows]), 1, 1))

        c, settings = np.array([[1.0, 0.1]]), OptimSettings(max_iters=50)
        x, sse, iters, converged = _lm(model, np.zeros((1, 1)), c, settings)
        assert x[0, 0] == pytest.approx(50.0, rel=1e-12) and iters[0] == 50 and not converged[0]
        assert sse[0] == pytest.approx(1.0 + (0.1 - 5e-7) ** 2, rel=1e-12) and sse[0] < 1.01
        for got, want in zip((x, sse, iters, converged), reference_lm(model, np.zeros((1, 1)), c, settings)):
            assert np.array_equal(got, want)

    def test_prsp_fit_steps_each_row_until_its_stop(self, monkeypatch):
        import uisbench.optim as optim

        events = []  # (kind, event, rows) per _predict_rows call and Jacobian completion
        batches = []  # the arguments of each _lm call

        def recorded(*args):
            batches.append(args)
            return _lm(*args)

        def check_calls():
            """The batch's calls follow its rows not yet stopped; its completed Jacobian rows its accepted steps."""
            model, x0, c, settings = batches.pop()
            assert_batch_calls([(event, rows) for _, event, rows in events], model, x0, c, settings)
            return len(x0)

        monkeypatch.setattr(optim, "_predict_rows", counting(_predict_rows, events))
        monkeypatch.setattr(optim, "_lm", recorded)
        e1, e2 = grid_arrays()
        planted = list(zip(DEFAULT_GRID.pairs(), predict_grid(ModelKind.PRSP, (0.4, 0.3, 0.8, 0.2, 0.6, 0.7, 0.25), e1, e2)))
        settings = OptimSettings(max_iters=40)
        starts = 2 + settings.n_starts + 16  # warm or constant start, seeded and kink starts
        for d in (sample_uniform(54, 1)[0], sample_cond_indep(55, 1)[0]):
            events.clear()
            fit(ModelKind.PRSP, standard_vector(d), settings, warm_start=true_params_prsp(d))
            assert check_calls() == starts
        for targets in (planted, constant_targets(0.5)):  # exact fits
            events.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # zero steps and a zero error divide by nothing
                r = fit(ModelKind.PRSP, targets, settings)
            assert check_calls() == starts - 1
            assert r.epsilon < 1e-10 and r.converged

    def test_recovers_planted_pwr_coefficients(self):
        e1, e2 = grid_arrays()
        for coeffs in ((0.7, -0.4, 0.3), (1.8, 0.5, -1.2)):
            targets = list(zip(DEFAULT_GRID.pairs(), predict_grid(ModelKind.PWR, coeffs, e1, e2)))
            r = fit(ModelKind.PWR, targets)
            assert r.epsilon < 1e-10 and r.converged
            assert np.allclose(r.params.values, coeffs, atol=1e-8)

    def test_recovers_planted_prsp_values(self):
        e1, e2 = grid_arrays()
        for values in ((0.4, 0.3, 0.8, 0.2, 0.6, 0.7, 0.25), (0.7, 0.85, 0.9, 0.3, 0.1, 0.95, 0.5)):
            targets = list(zip(DEFAULT_GRID.pairs(), predict_grid(ModelKind.PRSP, values, e1, e2)))
            assert fit(ModelKind.PRSP, targets).epsilon < 1e-10

    def test_prsp_no_worse_than_the_search_it_replaced(self):
        kinds = (ModelKind.LINR, ModelKind.WRST, ModelKind.PRSP)
        reports = run_bench(sample_uniform(1987, len(PRSP_EPS_BEFORE_LM)), kinds=kinds, seed=11)
        for report, before in zip(reports, PRSP_EPS_BEFORE_LM):
            assert report.scores[2].epsilon <= before + 1e-9

    def test_prsp_no_worse_than_stepping_past_the_stop(self):
        dists = sample_uniform(1987, max(PRSP_EPS_STEPPED_PAST_STOP) + 1)
        for i, before in PRSP_EPS_STEPPED_PAST_STOP.items():
            d = dists[i]
            r = fit(ModelKind.PRSP, standard_vector(d), seed=_derived_seed(11, i), warm_start=true_params_prsp(d))
            assert r.epsilon <= before + 1e-9  # the same fit as the bench's, bit for bit

    def test_prsp_no_worse_than_the_ratchet(self):
        # PRSP's ε on the two acceptance runs and twelve held-out runs, recorded by tests/prsp_ratchet.py
        recorded = read_ratchet()
        assert sorted(recorded) == sorted(RUNS) and sum(map(len, recorded.values())) == 1526
        worse = [(run, i, got, entry) for run in RUNS for i, (got, entry) in enumerate(zip(prsp_epsilons(*run), recorded[run]))
                 if got > entry + 1e-9]
        assert not worse, f"{len(worse)} PRSP fits above their recorded ε, first {worse[:5]}"

    def test_bounded_transform_roundtrip(self):
        values = np.array([0.2, 0.5, 0.9, 0.0001, 0.3, 0.7, 0.999])
        x = _to_search_coords(ModelKind.PRSP, values)
        assert np.allclose(_to_model_values(ModelKind.PRSP, x), values, atol=1e-12)
        assert np.all(np.abs(x) <= 30.0)
