import numpy as np
import pytest

from uisbench.dist import (
    CondIndepParams,
    atom_index,
    condition_c,
    expand,
    marginal,
    new_joint,
    sample_uniform,
)
from uisbench.models import predict, true_params_indp
from uisbench.oracle import (
    DEFAULT_GRID,
    ConvergenceError,
    EvidenceGrid,
    EvidencePair,
    InfeasibleEvidenceError,
    mce_update,
    standard_answer,
    standard_vector,
)

from conftest import dual_tilt_posterior, sample_marginal_indep

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
