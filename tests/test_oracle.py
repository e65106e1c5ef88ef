import numpy as np
import pytest

from uisbench.dist import (
    CondIndepParams,
    JointDist,
    atom_index,
    condition_c,
    expand,
    marginal,
    new_joint,
    sample_cond_indep,
    sample_uniform,
)
from uisbench.models import predict, true_params_indp
from uisbench import oracle
from uisbench.oracle import (
    DEFAULT_GRID,
    ConvergenceError,
    EvidenceGrid,
    EvidencePair,
    InfeasibleEvidenceError,
    _ipf_rows,
    mce_update,
    standard_answer,
    standard_vector,
)

from conftest import dual_tilt_posterior, planted_zero_atoms, sample_marginal_indep

UNIFORM = new_joint([0.125] * 8)
CI_EXAMPLE = expand(CondIndepParams(0.5, 0.8, 0.2, 0.8, 0.2))
class TestEvidenceTypes:
    def test_pair_range(self):
        EvidencePair(0.0, 1.0)
        with pytest.raises(ValueError, match="e1"):
            EvidencePair(-0.1, 0.5)
        with pytest.raises(ValueError, match="e2"):
            EvidencePair(0.5, 1.5)

    def test_default_grid(self):
        assert DEFAULT_GRID.levels == (0.001, 0.25, 0.5, 0.75, 0.999)
        assert len(DEFAULT_GRID.pairs()) == 25

    def test_grid_row_major(self):
        pairs = EvidenceGrid((0.1, 0.9)).pairs()
        assert [(p.e1, p.e2) for p in pairs] == [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)]

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EvidenceGrid((0.5, 0.5))
        with pytest.raises(ValueError, match="outside"):
            EvidenceGrid((0.1, 1.2))
        with pytest.raises(ValueError, match="at least one"):
            EvidenceGrid(())


class TestMceUpdate:
    def test_uniform_prior_hits_targets_and_keeps_c(self):
        for ev in (EvidencePair(0.3, 0.8), EvidencePair(0.001, 0.999), EvidencePair(0.5, 0.5)):
            post = mce_update(UNIFORM, ev)
            assert marginal(post, "E1") == pytest.approx(ev.e1, abs=1e-12)
            assert marginal(post, "E2") == pytest.approx(ev.e2, abs=1e-12)
            assert marginal(post, "C") == pytest.approx(0.5, abs=1e-12)

    def test_fixed_point_when_constraints_already_hold(self):
        d = sample_uniform(5, 1)[0]
        ev = EvidencePair(marginal(d, "E1"), marginal(d, "E2"))
        post = mce_update(d, ev)
        assert np.allclose(post.atoms, d.atoms, atol=1e-13)

    def test_hard_evidence_equals_conditioning(self):
        post = mce_update(CI_EXAMPLE, EvidencePair(1.0, 1.0))
        assert marginal(post, "C") == pytest.approx(16 / 17, abs=1e-12)

    def test_infeasible_zero_marginal(self):
        d = new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # P(E1)=0
        for order in (("E1", "E2"), ("E2", "E1")):
            with pytest.raises(InfeasibleEvidenceError, match=r"P\(E1\) is 0"):
                mce_update(d, EvidencePair(0.5, 0.5), sweep_order=order)
            mce_update(d, EvidencePair(0.0, 0.5), sweep_order=order)  # reachable: target matches support

    def test_infeasible_unit_marginal(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 0, 0)] = 0.5
        atoms[atom_index(1, 1, 0)] = 0.5
        d = new_joint(atoms)  # P(E1)=1
        for order in (("E1", "E2"), ("E2", "E1")):
            with pytest.raises(InfeasibleEvidenceError, match=r"P\(E1\) is 1"):
                mce_update(d, EvidencePair(0.25, 0.5), sweep_order=order)

    def test_infeasible_joint_support_detected(self):
        # P(E1=1, E2=0) = 0: once E2 is pinned to 0, no E1 mass remains
        atoms = np.zeros(8)
        atoms[atom_index(0, 0, 0)] = 0.4
        atoms[atom_index(0, 1, 0)] = 0.3
        atoms[atom_index(1, 1, 0)] = 0.3
        d = new_joint(atoms)
        with pytest.raises(InfeasibleEvidenceError):
            mce_update(d, EvidencePair(0.5, 0.0))

    def test_non_convergence_reports_residual(self):
        d = sample_uniform(8, 1)[0]
        with pytest.raises(ConvergenceError, match="residual"):
            mce_update(d, EvidencePair(0.9, 0.1), tol=1e-12, max_sweeps=1)

    def test_zero_atoms_stay_zero(self):
        atoms = np.array(sample_uniform(9, 1)[0].atoms)
        atoms[3] = 0.0
        d = new_joint(atoms / atoms.sum())
        post = mce_update(d, EvidencePair(0.7, 0.2))
        assert post.atoms[3] == 0.0

    def test_order_invariance(self):
        for k, d in enumerate(sample_uniform(10, 50)):
            ev = EvidencePair(0.75, 0.001)
            a = mce_update(d, ev, sweep_order=("E1", "E2"))
            b = mce_update(d, ev, sweep_order=("E2", "E1"))
            assert np.max(np.abs(a.atoms - b.atoms)) < 1e-9

    def test_bad_sweep_order_rejected(self):
        with pytest.raises(ValueError, match="sweep_order"):
            mce_update(UNIFORM, EvidencePair(0.5, 0.5), sweep_order=("E1", "E1"))

    def test_exponential_tilt_form(self):
        # atom ratios must be constant within each (E1, E2) block
        for d in sample_uniform(11, 100):
            post = mce_update(d, EvidencePair(0.25, 0.999))
            ratio = post.atoms / d.atoms
            for e1 in (0, 1):
                for e2 in (0, 1):
                    pair = (ratio[atom_index(e1, e2, 0)], ratio[atom_index(e1, e2, 1)])
                    assert abs(pair[0] - pair[1]) < 1e-9

    def test_matches_independent_dual_solver(self):
        rng = np.random.default_rng(21)
        for d in sample_uniform(12, 50):
            ev = EvidencePair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            post = mce_update(d, ev)
            ref = dual_tilt_posterior(d, ev.e1, ev.e2)
            assert np.max(np.abs(post.atoms - ref)) < 1e-8


def _update_batch(d, ev, **kw):
    return _ipf_rows(d.atoms[None], [ev.e1], [ev.e2], **kw)


class TestIpfArguments:
    """``mce_update`` rejects bad IPF arguments by name; ``_ipf_rows`` shares the ``max_sweeps`` check."""

    @pytest.mark.parametrize("order", [("E1", "E2", "E1"), ("E1",), ("E1", "E1"), ("E1", "C"), ()])
    def test_sweep_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match=r"sweep_order must be a permutation of \('E1', 'E2'\)"):
            mce_update(UNIFORM, EvidencePair(0.5, 0.5), sweep_order=order)

    def test_either_order_accepted(self):
        for order in (("E1", "E2"), ("E2", "E1"), ["E2", "E1"]):
            mce_update(UNIFORM, EvidencePair(0.5, 0.5), sweep_order=order)

    @pytest.mark.parametrize("update", [mce_update, _update_batch])
    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_max_sweeps_below_one_rejected(self, update, max_sweeps):
        with pytest.raises(ValueError, match=f"max_sweeps must be at least 1, got {max_sweeps}"):
            update(UNIFORM, EvidencePair(0.5, 0.5), max_sweeps=max_sweeps)

    @pytest.mark.parametrize("update", [mce_update, _update_batch])
    @pytest.mark.parametrize("max_sweeps", [2.5, float("inf"), True, "3"])
    def test_max_sweeps_must_be_an_int(self, update, max_sweeps):
        # 2.5 and inf raised a bare TypeError from range, and True ran one sweep
        with pytest.raises(ValueError, match=f"max_sweeps must be an integer, got {max_sweeps!r}"):
            update(UNIFORM, EvidencePair(0.5, 0.5), max_sweeps=max_sweeps)

    @pytest.mark.parametrize("tol", [-1e-12, float("nan"), float("inf")])
    def test_negative_or_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            mce_update(UNIFORM, EvidencePair(0.5, 0.5), tol=tol)

    def test_zero_tol_accepted(self):
        mce_update(UNIFORM, EvidencePair(0.5, 0.5), tol=0.0)


def _outcome(fn):
    """What ``fn()`` returns, or the type and message of what it raises."""
    try:
        return fn()
    except (InfeasibleEvidenceError, ConvergenceError, ValueError) as exc:
        return type(exc), str(exc)


class TestIpfRows:
    """The batched kernel equals ``mce_update`` row by row, bit for bit."""

    def _assert_rows_match(self, dists, pairs, **kw):
        """Each row's atoms or error equal ``mce_update``'s; returns the number of errors."""
        cases = [(d, EvidencePair(e1, e2)) for d in dists for e1, e2 in pairs]
        post, errors = _ipf_rows(
            np.array([d.atoms for d, _ in cases]), [ev.e1 for _, ev in cases], [ev.e2 for _, ev in cases], **kw
        )
        n_errors = 0
        for (d, ev), atoms, exc in zip(cases, post, errors):
            want = _outcome(lambda: mce_update(d, ev, **kw).atoms.tolist())
            assert (atoms.tolist() if exc is None else (type(exc), str(exc))) == want, ev
            n_errors += isinstance(want, tuple)
        return n_errors

    def test_convergence_errors_at_small_max_sweeps(self):
        dists = sample_uniform(31, 20) + sample_cond_indep(32, 20)
        pairs = [(ev.e1, ev.e2) for ev in DEFAULT_GRID.pairs()]
        for max_sweeps in (1, 2, 3, 5, 8):
            n_errors = self._assert_rows_match(dists, pairs, max_sweeps=max_sweeps)
            if max_sweeps <= 3:
                assert n_errors > 0

    def test_planted_zero_atoms(self):
        dists = planted_zero_atoms(33, 40)[2:]  # no empty cell: each row ends within a few sweeps or fails at once
        pairs = [(0.0, 0.0), (0.0, 0.7), (1.0, 0.3), (0.4, 1.0), (0.25, 0.75), (0.9, 0.1)]
        assert self._assert_rows_match(dists, pairs) > 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_converged_row_with_nan_atoms_fails_as_in_mce_update(self):
        # the E1=0 half's mass is denormal, so its factor overflows to inf and
        # turns the half's zero atoms into NaN; at (0, 0) the row still
        # converges, and mce_update's JointDist rejects the posterior
        d = JointDist(np.array([1e-320, 1e-320, 0, 0, 0.25, 0.25, 0.25, 0.25]))
        assert self._assert_rows_match([d], [(0.0, 0.0), (0.5, 0.5)]) == 2
        grid = EvidenceGrid((0.0, 0.5))
        want = _outcome(lambda: [(ev, standard_answer(d, ev)) for ev in grid.pairs()])
        assert want[0] is ValueError and _outcome(lambda: standard_vector(d, grid)) == want

    def test_empty_batch(self):
        post, errors = _ipf_rows(np.zeros((0, 8)), [], [])
        assert post.shape == (0, 8) and errors == []


class TestStandardAnswer:
    def test_hard_corners_equal_conditioning(self):
        for d in sample_uniform(13, 250):
            for e1 in (0.0, 1.0):
                for e2 in (0.0, 1.0):
                    sa = standard_answer(d, EvidencePair(e1, e2))
                    cc = condition_c(d, e1 == 1.0, e2 == 1.0)
                    assert abs(sa - cc) < 1e-9

    def test_marginally_independent_prior_gives_bilinear_answer(self):
        # the tilt preserves the product structure over (E1, E2) and leaves
        # P(C | E1, E2) alone, so the answer is the bilinear blend of the
        # hard-evidence conditionals
        for d in sample_marginal_indep(14, 30):
            params = true_params_indp(d)
            for ev in DEFAULT_GRID.pairs():
                assert abs(standard_answer(d, ev) - predict(params, ev)) < 1e-9

    def test_uniform_symmetry(self):
        assert standard_answer(UNIFORM, EvidencePair(0.75, 0.25)) == pytest.approx(0.5, abs=1e-12)


class TestStandardVector:
    def test_answers_pinned_bit_for_bit(self):
        # the first uniform acceptance distribution to 17 digits: summing an
        # event's atoms in another order moves answers, and the scores in
        # report.csv with them, in the last digit
        pinned = [
            0.94623905196505043, 0.8854560944739307, 0.82444073913050231, 0.76344343907590284, 0.70271984311895141,
            0.71139834588023831, 0.66133016657282451, 0.61391393984361797, 0.57019340584322598, 0.53122721153963615,
            0.47562621483936313, 0.43915716414640077, 0.40742324208390074, 0.38076511701527904, 0.3590756887657921,
            0.23987213908906707, 0.22067985444958638, 0.206008341318726, 0.19503252091798978, 0.18694222128241922,
            0.0050907945383923091, 0.0076559115531887852, 0.0102611644754418, 0.012884472688661964,
            0.015508951237150534,
        ]
        assert [c for _, c in standard_vector(sample_uniform(1987, 1)[0])] == pinned

    @pytest.mark.parametrize(
        "levels, raised",
        [
            (DEFAULT_GRID.levels, {InfeasibleEvidenceError, ConvergenceError}),
            ((0, 0.3, 1), {InfeasibleEvidenceError}),
            ((0, 0.5), {InfeasibleEvidenceError, ConvergenceError}),
            ((0.2, 0.4, 0.6, 0.8, 1.0), {InfeasibleEvidenceError, ConvergenceError}),
        ],
        ids=["default", "0-0.3-1", "0-0.5", "0.2-to-1"],
    )
    def test_equals_a_per_cell_loop(self, levels, raised):
        # the batched IPF against one scalar update per cell: every answer
        # equal with ==, and every failing distribution raising the error of
        # its first failing cell in row-major order, same type and message
        grid = EvidenceGrid(levels)
        dists = sample_uniform(17, 200) + sample_cond_indep(18, 200) + planted_zero_atoms(19, 300)
        kinds = set()
        for k, d in enumerate(dists):
            want = _outcome(lambda: [(ev, standard_answer(d, ev)) for ev in grid.pairs()])
            assert _outcome(lambda: standard_vector(d, grid)) == want, k
            if isinstance(want, tuple):
                kinds.add(want[0])
        assert kinds == raised

    def test_scalar_loop_redoes_only_cells_the_batch_leaves_running(self, monkeypatch):
        # P(E1, E2) = 0: the 15 default-grid cells with e1 + e2 >= 1 are out of
        # reach and each would run all 10,000 sweeps; only the first of them
        # in row-major order is run to the end, as a loop over the cells would
        calls = []

        def counting(d, ev, **kw):
            calls.append(ev)
            return mce_update(d, ev, **kw)

        monkeypatch.setattr(oracle, "mce_update", counting)
        with pytest.raises(ConvergenceError, match="after 10000 sweeps"):
            standard_vector(planted_zero_atoms(19, 1)[0])
        assert calls == [EvidencePair(0.001, 0.999)]

    def test_default_grid_has_25_entries_row_major(self):
        sv = standard_vector(sample_uniform(15, 1)[0])
        assert len(sv) == 25
        assert [(ev.e1, ev.e2) for ev, _ in sv] == [
            (a, b) for a in DEFAULT_GRID.levels for b in DEFAULT_GRID.levels
        ]

    def test_uniform_gives_constant_half(self):
        sv = standard_vector(UNIFORM)
        assert all(abs(c - 0.5) < 1e-12 for _, c in sv)

    def test_extreme_grid_entries_near_hard_conditionals(self):
        for d in sample_uniform(16, 100):
            sv = dict(((ev.e1, ev.e2), c) for ev, c in standard_vector(d))
            assert abs(sv[(0.001, 0.001)] - condition_c(d, False, False)) < 0.01
            assert abs(sv[(0.999, 0.999)] - condition_c(d, True, True)) < 0.01
