import re

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
from uisbench.oracle import (
    DEFAULT_GRID,
    EvidenceGrid,
    EvidencePair,
    InfeasibleEvidenceError,
    _posterior_rows,
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
        with pytest.raises(InfeasibleEvidenceError, match=r"P\(E1\) is 0"):
            mce_update(d, EvidencePair(0.5, 0.5))
        mce_update(d, EvidencePair(0.0, 0.5))  # reachable: target matches support

    def test_infeasible_unit_marginal(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 0, 0)] = 0.5
        atoms[atom_index(1, 1, 0)] = 0.5
        d = new_joint(atoms)  # P(E1)=1
        with pytest.raises(InfeasibleEvidenceError, match=r"P\(E1\) is 1"):
            mce_update(d, EvidencePair(0.25, 0.5))

    def test_infeasible_joint_support_detected(self):
        # P(E1=1, E2=0) = 0: once E2 is pinned to 0, no E1 mass remains
        atoms = np.zeros(8)
        atoms[atom_index(0, 0, 0)] = 0.4
        atoms[atom_index(0, 1, 0)] = 0.3
        atoms[atom_index(1, 1, 0)] = 0.3
        d = new_joint(atoms)
        with pytest.raises(InfeasibleEvidenceError):
            mce_update(d, EvidencePair(0.5, 0.0))

    def test_zero_atoms_stay_zero(self):
        atoms = np.array(sample_uniform(9, 1)[0].atoms)
        atoms[3] = 0.0
        d = new_joint(atoms / atoms.sum())
        post = mce_update(d, EvidencePair(0.7, 0.2))
        assert post.atoms[3] == 0.0

    def test_order_invariance(self):
        # the two constraints are one projection: swapping E1 and E2 in the
        # prior and in the targets leaves P(C) where it was
        for d in sample_uniform(10, 50):
            for e1, e2 in ((0.75, 0.001), (0.3, 0.9), (1.0, 0.25)):
                a = standard_answer(d, EvidencePair(e1, e2))
                b = standard_answer(_swap_events(d), EvidencePair(e2, e1))
                assert abs(a - b) < 1e-9

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


def _swap_events(d: JointDist) -> JointDist:
    """``d`` with the roles of E1 and E2 exchanged."""
    return JointDist(d.atoms.reshape(2, 2, 2).swapaxes(0, 1).reshape(8))


def _outcome(fn):
    """What ``fn()`` returns, or the type and message of what it raises."""
    try:
        return fn()
    except ValueError as exc:  # InfeasibleEvidenceError included
        return type(exc), str(exc)


def _cells_answer(d: JointDist, q) -> float:
    """P(C) of the posterior with cell table ``q`` (2, 2) that keeps P(C | E1, E2) of ``d``."""
    return sum(q[i][j] * condition_c(d, i, j) for i in (0, 1) for j in (0, 1) if q[i][j] > 0)


class TestClosedForm:
    """Targets on the boundary of what the support reaches, and cells at the limits of floating point."""

    def test_face_answered_and_outside_rejected(self):
        # joint 0 has its (1, 1) cell emptied, so the support reaches e1 + e2 <= 1;
        # joint 1 its (1, 0) cell, so e1 <= e2. With one cell empty the margins
        # fix the table, and on the face a second cell is empty too
        d0, d1 = planted_zero_atoms(19, 2)
        for d, empty, side, face, inside in (
            (d0, "(1, 1)", lambda a, b: np.sign(1.0 - (a + b)), lambda a, b: [[0, b], [a, 0]],
             lambda a, b: [[1 - a - b, b], [a, 0]]),
            (d1, "(1, 0)", lambda a, b: np.sign(b - a), lambda a, b: [[1 - a, 0], [0, a]],
             lambda a, b: [[1 - b, b - a], [0, a]]),
        ):
            counts = {-1: 0, 0: 0, 1: 0}
            for ev in DEFAULT_GRID.pairs():
                where = side(ev.e1, ev.e2)
                counts[where] += 1
                if where < 0:
                    with pytest.raises(InfeasibleEvidenceError, match=re.escape(f"P(E1, E2) is 0 at {empty} on")):
                        standard_answer(d, ev)
                else:
                    q = (face if where == 0 else inside)(ev.e1, ev.e2)
                    assert abs(standard_answer(d, ev) - _cells_answer(d, q)) < 1e-12, ev
            assert counts == {-1: 10, 0: 5, 1: 10}

    def test_target_on_the_face_within_rounding(self):
        # each pair sums to 1, but (1 - e1) - e2 is -5.6e-17, -1.1e-16 and +5.6e-17:
        # within 1e-15 of the face e1 + e2 = 1, so answered there
        d = planted_zero_atoms(19, 1)[0]  # its (1, 1) cell is empty
        for e1, e2 in ((0.54, 0.46), (0.07, 0.93), (0.7, 0.3)):
            want = _cells_answer(d, [[0.0, e2], [e1, 0.0]])
            assert abs(standard_answer(d, EvidencePair(e1, e2)) - want) < 1e-12
        with pytest.raises(InfeasibleEvidenceError):
            standard_answer(d, EvidencePair(0.54, 0.46 + 1e-12))
        # with the (0, 0) cell empty, 1 + 0.3 - 1 is not 0.3; the target is Jeffrey's rule in E1 = 1
        atoms = np.array(sample_uniform(20, 1)[0].atoms)
        atoms[:2] = 0.0
        d = new_joint(atoms / atoms.sum())
        want = 0.3 * condition_c(d, True, True) + 0.7 * condition_c(d, True, False)
        assert abs(standard_answer(d, EvidencePair(1.0, 0.3)) - want) < 1e-15

    def test_denormal_and_tiny_cells(self):
        # scaling a half of E1 is absorbed by the tilt, so the E1=0 half at
        # denormal scale answers as at a normal one; m00 * m11 alone would round
        # to 11 units of the last denormal place, 2% off
        half0, half1 = np.array([3.0, 1.0, 2.0, 4.0]), np.array([0.1, 0.2, 0.3, 0.4])
        tiny = new_joint(np.concatenate([half0 * 2.0**-1070, half1]))
        normal = new_joint(np.concatenate([half0 / 20, half1 / 2]))
        for ev in DEFAULT_GRID.pairs():
            assert abs(standard_answer(tiny, ev) - standard_answer(normal, ev)) < 1e-12, ev
        # cells (0, 1) and (1, 0) at 1e-200: the odds ratio is about 1e400, past
        # a double, and the table is at its limit q11 = min(e1, e2)
        atoms = np.array([0.2, 0.3, 1e-200, 1e-200, 1e-200, 1e-200, 0.4, 0.1])
        d = new_joint(atoms)
        for ev in DEFAULT_GRID.pairs():
            x = min(ev.e1, ev.e2)
            want = _cells_answer(d, [[1.0 - max(ev.e1, ev.e2), ev.e2 - x], [ev.e1 - x, x]])
            assert abs(standard_answer(d, ev) - want) < 1e-12, ev


class TestIpfRows:
    """``_posterior_rows``, the batched I-projection, equals ``mce_update`` row by row, bit for bit."""

    def _assert_rows_match(self, dists, pairs):
        """Each row's atoms or error equal ``mce_update``'s; returns the number of errors."""
        cases = [(d, EvidencePair(e1, e2)) for d in dists for e1, e2 in pairs]
        post, errors = _posterior_rows(
            np.array([d.atoms for d, _ in cases]), [ev.e1 for _, ev in cases], [ev.e2 for _, ev in cases]
        )
        n_errors = 0
        for (d, ev), atoms, exc in zip(cases, post, errors):
            want = _outcome(lambda: mce_update(d, ev).atoms.tolist())
            assert (atoms.tolist() if exc is None else (type(exc), str(exc))) == want, ev
            # a failed row's atoms are NaN; an answered row's are finite
            assert np.isnan(atoms).all() if exc is not None else np.isfinite(atoms).all(), ev
            n_errors += isinstance(want, tuple)
        return n_errors

    def test_planted_zero_atoms(self):
        # answered and failing rows side by side in one batch, on joints with
        # emptied atoms, cells and halves: no row's outcome leaks into another's
        dists = planted_zero_atoms(33, 40)
        pairs = [(0.0, 0.0), (0.0, 0.7), (1.0, 0.3), (0.4, 1.0), (0.25, 0.75), (0.9, 0.1), (0.5, 0.5)]
        n_errors = self._assert_rows_match(dists, pairs)
        assert 0 < n_errors < len(dists) * len(pairs)

    def test_converged_row_with_nan_atoms_fails_as_in_mce_update(self):
        # the (0, 1) cell is empty and the (0, 0) cell holds two denormal atoms;
        # the denormal scale must not turn the half's zero atoms into NaN. P(C | cell)
        # is 0.5 in both non-empty cells, and (0, 0.5) needs mass in (0, 1)
        d = JointDist(np.array([1e-320, 1e-320, 0, 0, 0.25, 0.25, 0.25, 0.25]))
        grid = EvidenceGrid((0.0, 0.5))
        assert self._assert_rows_match([d], [(ev.e1, ev.e2) for ev in grid.pairs()]) == 1
        assert [(ev.e1, ev.e2, _outcome(lambda: standard_answer(d, ev))) for ev in grid.pairs()] == [
            (0.0, 0.0, 0.5),
            (0.0, 0.5, (InfeasibleEvidenceError, "target P(E2)=0.5 unreachable: P(E2) is 0 on the current support")),
            (0.5, 0.0, 0.5),
            (0.5, 0.5, 0.5),
        ]
        assert _outcome(lambda: standard_vector(d, grid)) == _outcome(
            lambda: [(ev, standard_answer(d, ev)) for ev in grid.pairs()]
        )

    def test_empty_batch(self):
        post, errors = _posterior_rows(np.zeros((0, 8)), [], [])
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
            0.94623905196505043, 0.88545609447398876, 0.82444073912967109, 0.76344343907590273, 0.7027198431189513,
            0.71139834588024209, 0.66133016657312482, 0.61391393984287013, 0.57019340584258005, 0.53122721153958286,
            0.47562621483939155, 0.43915716414633732, 0.4074232420837266, 0.3807651170152398, 0.35907568876572116,
            0.23987213908909039, 0.22067985444951443, 0.20600834131870707, 0.19503252091786444, 0.18694222128240859,
            0.0050907945383923837, 0.0076559115527706769, 0.010261164475441672, 0.012884472688661941, 0.015508951237150514,
        ]
        assert [c for _, c in standard_vector(sample_uniform(1987, 1)[0])] == pinned

    @pytest.mark.parametrize(
        "levels, raised",
        [
            (DEFAULT_GRID.levels, {InfeasibleEvidenceError}),
            ((0, 0.3, 1), {InfeasibleEvidenceError}),
            ((0, 0.5), {InfeasibleEvidenceError}),
            ((0.2, 0.4, 0.6, 0.8, 1.0), {InfeasibleEvidenceError}),
        ],
        ids=["default", "0-0.3-1", "0-0.5", "0.2-to-1"],
    )
    def test_equals_a_per_cell_loop(self, levels, raised):
        # the grid as one batch against one single update per cell: every answer
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
