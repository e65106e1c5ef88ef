import dataclasses
import itertools
import math
import pickle
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uisbench.oracle as oracle
from uisbench.dist import (
    CondIndepParams,
    JointDist,
    atom_index,
    condition_c,
    expand,
    marginal,
    sample_cond_indep,
    sample_uniform,
)
from uisbench.models import predict, true_params_indp
from uisbench.oracle import (
    DEFAULT_GRID,
    EvidenceGrid,
    EvidencePair,
    InfeasibleEvidenceError,
    _batch_answers,
    _evidence,
    _posteriors,
    mce_update,
    standard_answer,
    standard_vector,
)

from conftest import DENORMAL_ROW, dual_tilt_posterior, planted_zero_atoms, sample_marginal_indep

UNIFORM = JointDist([0.125] * 8)
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

    def test_grid_pairs_built_once_and_seen_only_through_pairs(self, monkeypatch):
        grid = EvidenceGrid((0.1, 0.9))
        first = grid.pairs()
        first.append(EvidencePair(0.5, 0.5))  # a new list each call
        assert grid.pairs() == first[:4] and grid.pairs() is not grid.pairs()
        assert all(a is b for a, b in zip(grid.pairs(), grid.pairs()))
        same = EvidenceGrid([0.1, 0.9])
        assert same == grid and hash(same) == hash(grid) and repr(grid) == "EvidenceGrid(levels=(0.1, 0.9))"
        blob = pickle.dumps(grid)
        assert b"EvidencePair" not in blob and b"_pairs" not in blob and b"numpy" not in blob
        back = pickle.loads(blob)
        assert back == grid and back.pairs() == grid.pairs()
        # the targets as arrays in the order of pairs(), rebuilt on unpickling and read-only
        for g in (grid, back):
            assert g.e1.tolist() == [0.1, 0.1, 0.9, 0.9] and g.e2.tolist() == [0.1, 0.9, 0.1, 0.9]
            for targets in (g.e1, g.e2):
                with pytest.raises(ValueError, match="read-only"):
                    targets[0] = 0.5
        # the pairs' evidence terms: built once per grid, read-only, and seen by no comparison
        built = []
        monkeypatch.setattr(oracle, "_evidence", lambda e1, e2: built.append(1) or _evidence(e1, e2))
        grid = EvidenceGrid((0.0, 0.5, 1.0))
        d = sample_uniform(5, 1)[0]
        record = grid.evidence
        first = standard_vector(d, grid)
        assert standard_vector(d, grid) == first and grid.evidence is record and len(built) == 1
        # the grid's terms are those of its targets, and every array of the record is read-only
        fresh = _evidence(grid.e1, grid.e2)
        assert _evidence_fields(record) == _evidence_fields(fresh) and record.e1 is grid.e1 and record.e2 is grid.e2
        soft = EvidenceGrid((0.1, 0.9)).evidence
        assert soft.hard is None and record.hard is not None
        for terms in (record, soft):
            arrays = [a for f in dataclasses.fields(terms) for a in _arrays(getattr(terms, f.name))]
            assert len(arrays) == (9 if terms is record else 6)
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[1]
        # equality, hashing and repr see levels only, even against a grid holding another record
        other = EvidenceGrid([0.0, 0.5, 1.0])
        object.__setattr__(other, "evidence", soft)
        assert other == grid and hash(other) == hash(grid)
        assert repr(other) == repr(grid) == "EvidenceGrid(levels=(0.0, 0.5, 1.0))"
        # pickling carries levels only, and unpickling rebuilds an equal record
        blob = pickle.dumps(grid)
        assert b"_Evidence" not in blob and b"numpy" not in blob
        back = pickle.loads(blob)
        assert back.evidence is not record and _evidence_fields(back.evidence) == _evidence_fields(record)
        assert back.e1 is back.evidence.e1 and back.e2 is back.evidence.e2

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
        d = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # P(E1)=0
        with pytest.raises(InfeasibleEvidenceError, match=r"P\(E1\) is 0"):
            mce_update(d, EvidencePair(0.5, 0.5))
        mce_update(d, EvidencePair(0.0, 0.5))  # reachable: target matches support

    def test_infeasible_unit_marginal(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 0, 0)] = 0.5
        atoms[atom_index(1, 1, 0)] = 0.5
        d = JointDist(atoms)  # P(E1)=1
        with pytest.raises(InfeasibleEvidenceError, match=r"P\(E1\) is 1"):
            mce_update(d, EvidencePair(0.25, 0.5))

    def test_infeasible_joint_support_detected(self):
        # P(E1=1, E2=0) = 0: once E2 is pinned to 0, no E1 mass remains
        atoms = np.zeros(8)
        atoms[atom_index(0, 0, 0)] = 0.4
        atoms[atom_index(0, 1, 0)] = 0.3
        atoms[atom_index(1, 1, 0)] = 0.3
        d = JointDist(atoms)
        with pytest.raises(InfeasibleEvidenceError):
            mce_update(d, EvidencePair(0.5, 0.0))

    def test_zero_atoms_stay_zero(self):
        atoms = np.array(sample_uniform(9, 1)[0].atoms)
        atoms[3] = 0.0
        d = JointDist(atoms / atoms.sum())
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


def _posterior_atoms(atoms, e1, e2):
    """``_posteriors`` at the pairs ``(e1[j], e2[j])``, its cell table multiplied out into posterior
    atoms (n, k, 8) as :func:`mce_update` forms them, and the failed mask (n, k)."""
    q, given_cell, failed = _posteriors(atoms, _evidence(e1, e2))
    assert q.shape == (*failed.shape, 4) and given_cell.shape == (len(q), 4, 2)
    return (q[:, :, :, None] * given_cell[:, None]).reshape(*failed.shape, 8), failed


def _arrays(value) -> list:
    """The arrays of one field of an ``_Evidence``: an array, or the hard masks (none when ``None``)."""
    return [] if value is None else list(value) if isinstance(value, tuple) else [value]


def _evidence_fields(terms) -> list:
    """Each field of an ``_Evidence`` as (name, [(dtype, bytes) per array], read-only flags), to compare records."""
    return [
        (f.name, [(a.dtype.str, a.tobytes(), a.flags.writeable) for a in _arrays(getattr(terms, f.name))])
        for f in dataclasses.fields(terms)
    ]


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
        d = JointDist(atoms / atoms.sum())
        want = 0.3 * condition_c(d, True, True) + 0.7 * condition_c(d, True, False)
        assert abs(standard_answer(d, EvidencePair(1.0, 0.3)) - want) < 1e-15

    def test_denormal_and_tiny_cells(self):
        # scaling a half of E1 is absorbed by the tilt, so the E1=0 half at
        # denormal scale answers as at a normal one; m00 * m11 alone would round
        # to 11 units of the last denormal place, 2% off
        half0, half1 = np.array([3.0, 1.0, 2.0, 4.0]), np.array([0.1, 0.2, 0.3, 0.4])
        tiny = JointDist(np.concatenate([half0 * 2.0**-1070, half1]))
        normal = JointDist(np.concatenate([half0 / 20, half1 / 2]))
        for ev in DEFAULT_GRID.pairs():
            assert abs(standard_answer(tiny, ev) - standard_answer(normal, ev)) < 1e-12, ev
        # cells (0, 1) and (1, 0) at 1e-200: the odds ratio is about 1e400, past
        # a double, and the table is at its limit q11 = min(e1, e2)
        atoms = np.array([0.2, 0.3, 1e-200, 1e-200, 1e-200, 1e-200, 0.4, 0.1])
        d = JointDist(atoms)
        for ev in DEFAULT_GRID.pairs():
            x = min(ev.e1, ev.e2)
            want = _cells_answer(d, [[1.0 - max(ev.e1, ev.e2), ev.e2 - x], [ev.e1 - x, x]])
            assert abs(standard_answer(d, ev) - want) < 1e-12, ev


def _reference_q11(atoms, e1: float, e2: float) -> Decimal:
    """q11 of the posterior at 50 digits, from the float ``atoms`` (8,) and targets taken exactly:
    the root in [max(0, e1 + e2 - 1), min(e1, e2)] of the module's quadratic."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = [Decimal(float(t)) for t in atoms]
        m00, m01, m10, m11 = (a[2 * cell] + a[2 * cell + 1] for cell in range(4))
        theta = m00 * m11 / (m01 * m10)
        e1, e2 = Decimal(float(e1)), Decimal(float(e2))
        lead, lin, const = 1 - theta, 1 + (theta - 1) * (e1 + e2), theta * e1 * e2
        root = (lin * lin + 4 * lead * const).sqrt()
        x = 2 * const / (lin + root) if lin > 0 else (root - lin) / (2 * lead)
        assert max(0, e1 + e2 - 1) <= x <= min(e1, e2)
        return x


class TestRootAccuracy:
    def test_q11_against_a_50_digit_reference(self):
        # theta on both sides of 1 and at it (A = v - w of either sign and near 0), and pushed
        # to 1e-3 .. 1e-12 and their inverses by scaling one cell; pairs on the face e1 + e2 = 1
        # and on the diagonal e1 = e2, where the discriminant's terms are smallest
        scaled = []
        for d in sample_uniform(40, 4):
            for cell, scale in itertools.product(range(4), (1e-3, 1e-6, 1e-9, 1e-12)):
                atoms = np.array(d.atoms)
                atoms[2 * cell : 2 * cell + 2] *= scale
                scaled.append(JointDist(atoms / atoms.sum()))
        dists = sample_uniform(41, 20) + sample_marginal_indep(42, 10) + [UNIFORM] + scaled
        pairs = [(ev.e1, ev.e2) for ev in DEFAULT_GRID.pairs()] + [
            (0.54, 0.46), (0.07, 0.93), (0.7, 0.3), (0.3, 0.3), (0.9, 0.9), (0.123, 0.123)]
        atoms = np.array([d.atoms for d in dists])
        e1, e2 = np.array(pairs).T
        post, failed = _posterior_atoms(atoms, e1, e2)
        assert not failed.any()
        q11 = post[:, :, atom_index(1, 1, 0)] + post[:, :, atom_index(1, 1, 1)]
        ulps = []
        for i, j in itertools.product(range(len(dists)), range(len(pairs))):
            want = _reference_q11(atoms[i], e1[j], e2[j])
            error = abs(Decimal(float(q11[i, j])) - want)
            ulp_error = float(error / Decimal(math.ulp(float(want))))
            ulps.append(ulp_error)
            # on the face e1 + e2 = 1 with theta well below 1, q11 is near sqrt(theta e1 e2); B formed
            # as v - A (e1 + e2), a difference of two numbers near 1, left it 1e7 ulps off there
            assert ulp_error <= 8.0, (i, pairs[j], ulp_error)
        assert np.median(ulps) < 1.0


def _odds_side(d: JointDist) -> float:
    """The sign of m00 m11 - m01 m10: -1 where the prior's odds ratio theta is below 1, +1 above, 0 at 0/0."""
    m = d.atoms.reshape(4, 2).sum(axis=1)
    return float(np.sign(m[0] * m[3] - m[1] * m[2]))


def _pool() -> dict[tuple[bool, float], list[JointDist]]:
    """Joints with planted zero atoms, cells and halves, and two at the limits of floating point,
    keyed by (some cell empty, odds side); an emptied half leaves no odds ratio (side 0)."""
    pool: dict[tuple[bool, float], list[JointDist]] = {}
    for d in [d for seed in (33, 34, 35) for d in planted_zero_atoms(seed, 40)] + [
        JointDist(np.array(DENORMAL_ROW, dtype=float)),
        JointDist([0.2, 0.3, 1e-200, 1e-200, 1e-200, 1e-200, 0.4, 0.1]),
    ]:
        pool.setdefault((bool((d.atoms.reshape(4, 2).sum(axis=1) == 0.0).any()), _odds_side(d)), []).append(d)
    return pool


_POOL = _pool()
_SOFT = st.sampled_from(DEFAULT_GRID.levels) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# pairs on the face e1 + e2 = 1 to rounding, which (1 - e1) - e2 misses by up to 1.1e-16
_FACES = st.sampled_from([(0.54, 0.46), (0.46, 0.54), (0.07, 0.93), (0.7, 0.3)])


@st.composite
def _queries(draw, some_empty: bool, some_hard: bool, sides: tuple[float, ...]):
    """Joints and evidence pairs for one call: with or without an empty cell and a hard target,
    and odds ratios on the given sides of 1, each side other than 0 at least once."""
    def pool(empty):
        return [d for (e, side), ds in _POOL.items() if e in empty and side in sides for d in ds]

    allowed = pool((False, True) if some_empty else (False,))
    dists = [draw(st.sampled_from([d for d in allowed if _odds_side(d) == side])) for side in sides if side]
    if some_empty:
        dists.append(draw(st.sampled_from(pool((True,)))))
    dists = draw(st.permutations(dists + draw(st.lists(st.sampled_from(allowed), max_size=4))))
    target = _SOFT | st.sampled_from((0.0, 1.0)) if some_hard else _SOFT
    pairs = draw(st.lists(st.tuples(target, target) | _FACES, min_size=1, max_size=6))
    if some_hard:
        hard = draw(st.tuples(st.sampled_from((0.0, 1.0)), target))
        pairs.insert(draw(st.integers(0, len(pairs))), hard[:: draw(st.sampled_from((1, -1)))])
    return dists, pairs


def _conditioned(atoms: list[float], e1: float, e2: float) -> list[float] | None:
    """The posterior atoms at evidence with a target of 0 or 1, by conditioning and Jeffrey's rule.

    The hard side fixes one evidence event, and the other target splits that
    event's two (E1, E2) cells; each cell keeps the prior's proportions, and
    an empty cell counts as 0. ``None`` where an empty cell would need more
    than 1e-15, which the oracle's rounding rule counts as 0.
    """
    if e1 == 0.0:
        q = {(0, 0): 1.0 - e2, (0, 1): e2, (1, 0): 0.0, (1, 1): 0.0}
    elif e2 == 0.0:
        q = {(0, 0): 1.0 - e1, (0, 1): 0.0, (1, 0): e1, (1, 1): 0.0}
    elif e1 == 1.0:
        q = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0 - e2, (1, 1): e2}
    else:
        assert e2 == 1.0
        q = {(0, 0): 0.0, (0, 1): 1.0 - e1, (1, 0): 0.0, (1, 1): e1}
    post = [0.0] * 8
    for (i, j), mass in q.items():
        cell = [atom_index(i, j, c) for c in (0, 1)]
        m = atoms[cell[0]] + atoms[cell[1]]
        if m == 0.0:
            if mass > 1e-15:
                return None
            continue
        for a in cell:
            post[a] = mass * (atoms[a] / m)
    return post


class TestPosteriors:
    """``_posteriors``, the oracle over distributions × evidence pairs, equals ``mce_update`` query by query, bit for bit."""

    def _assert_queries_match(self, dists, pairs):
        """Each (i, j) query of one (n, k) call against ``mce_update`` and ``standard_answer`` at
        ``dists[i]`` and ``pairs[j]`` alone: the posterior atoms and the answer to the bit, or the
        error's type and message. The answer, summed from the cell table, is also P(C) of
        ``mce_update``'s atoms to the bit. Returns the number of failed queries."""
        atoms = np.array([d.atoms for d in dists]).reshape(-1, 8)
        e1, e2 = np.array(pairs, dtype=float).reshape(-1, 2).T
        post, failed = _posterior_atoms(atoms, e1, e2)
        answers, first_errors = _batch_answers(atoms, _evidence(e1, e2))
        assert post.shape == (len(dists), len(pairs), 8) and failed.shape == answers.shape == post.shape[:2]
        # the error of query (i, j) is the first of the call on the pairs from j on
        suffix_errors = [_batch_answers(atoms, _evidence(e1[j:], e2[j:]))[1] for j in range(len(pairs))]
        for i, d in enumerate(dists):
            first = None
            for j, ev in enumerate(EvidencePair(a, b) for a, b in pairs):
                want = _outcome(lambda: mce_update(d, ev).atoms.tobytes())
                if failed[i, j]:
                    exc = suffix_errors[j][i]
                    assert (type(exc), str(exc)) == want, (i, ev)
                    assert np.isnan(post[i, j]).all() and np.isnan(answers[i, j]), (i, ev)
                    assert _outcome(lambda: standard_answer(d, ev)) == want, (i, ev)
                    first = first or want
                else:
                    assert post[i, j].tobytes() == want, (i, ev)
                    assert answers[i, j].tobytes() == np.float64(standard_answer(d, ev)).tobytes(), (i, ev)
                    assert answers[i, j].tobytes() == np.float64(marginal(mce_update(d, ev), "C")).tobytes(), (i, ev)
            exc = first_errors[i]
            assert (exc if exc is None else (type(exc), str(exc))) == first, i
        return int(failed.sum())

    @pytest.mark.parametrize("sides", [(-1.0,), (1.0,), (-1.0, 0.0, 1.0)], ids=["theta<1", "theta>1", "both"])
    @pytest.mark.parametrize("some_hard", [False, True], ids=["soft", "hard"])
    @pytest.mark.parametrize("some_empty", [False, True], ids=["no-empty", "empty"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_each_query_equals_its_single_update(self, some_empty, some_hard, sides, data):
        # each selection the kernel skips when it changes nothing, taken and
        # skipped: an empty cell and a hard target; and A of either sign or
        # both in one call
        dists, pairs = data.draw(_queries(some_empty, some_hard, sides))
        self._assert_queries_match(dists, pairs)

    def test_planted_zero_atoms(self):
        # answered and failing queries side by side in one call, on joints with
        # emptied atoms, cells and halves: no query's outcome leaks into another's
        dists = planted_zero_atoms(33, 40)
        pairs = [(0.0, 0.0), (0.0, 0.7), (1.0, 0.3), (0.4, 1.0), (0.25, 0.75), (0.9, 0.1), (0.5, 0.5)]
        n_errors = self._assert_queries_match(dists, pairs)
        assert 0 < n_errors < len(dists) * len(pairs)

    def test_converged_row_with_nan_atoms_fails_as_in_mce_update(self):
        # the (0, 1) cell is empty and the (0, 0) cell holds two denormal atoms;
        # the denormal scale must not turn the half's zero atoms into NaN. P(C | cell)
        # is 0.5 in both non-empty cells, and (0, 0.5) needs mass in (0, 1)
        d = JointDist(np.array(DENORMAL_ROW, dtype=float))
        grid = EvidenceGrid((0.0, 0.5))
        assert self._assert_queries_match([d], [(ev.e1, ev.e2) for ev in grid.pairs()]) == 1
        assert [(ev.e1, ev.e2, _outcome(lambda: standard_answer(d, ev))) for ev in grid.pairs()] == [
            (0.0, 0.0, 0.5),
            (0.0, 0.5, (InfeasibleEvidenceError, "target P(E2)=0.5 unreachable: P(E2) is 0 on the current support")),
            (0.5, 0.0, 0.5),
            (0.5, 0.5, 0.5),
        ]
        assert _outcome(lambda: standard_vector(d, grid)) == _outcome(
            lambda: [(ev, standard_answer(d, ev)) for ev in grid.pairs()]
        )

    def test_hard_evidence_equals_conditioning_bit_for_bit(self):
        # a target of 0 or 1 fixes q11 by the pins, not by the quadratic, whose root at a tiny
        # other target is tiny but not 0; conditioning there puts exactly 0 in the ruled-out cells
        dists = planted_zero_atoms(33, 40) + [JointDist(np.array(DENORMAL_ROW, dtype=float))] + sample_uniform(34, 10)
        empty_10 = dists[1]  # the (1, 0) cell is empty
        assert empty_10.atoms[atom_index(1, 0, 0)] == empty_10.atoms[atom_index(1, 0, 1)] == 0.0
        others = (0.0, 5e-324, 1e-300, 0.3, 0.999, 1.0 - 2.0**-53, 1.0)
        pairs = [pair for hard in (0.0, 1.0) for other in others for pair in ((hard, other), (other, hard))]
        atoms = np.array([d.atoms for d in dists])
        e1, e2 = np.array(pairs).T
        post, failed = _posterior_atoms(atoms, e1, e2)
        answered = 0
        for i, d in enumerate(dists):
            for j, pair in enumerate(pairs):
                want = _conditioned(d.atoms.tolist(), *pair)
                if want is None:
                    assert failed[i, j], (i, pair)
                else:
                    assert not failed[i, j] and post[i, j].tobytes() == np.array(want).tobytes(), (i, pair)
                    answered += 1
        assert answered > len(dists) * len(pairs) // 2
        for d, pair, emptied in ((empty_10, (5e-324, 0.0), (1, 1)), (empty_10, (1e-300, 0.0), (1, 1)),
                                 (dists[40], (0.0, 1e-300), (1, 1))):
            got = _posterior_atoms(d.atoms[None], [pair[0]], [pair[1]])[0][0, 0]
            assert got[atom_index(*emptied, 0)] == got[atom_index(*emptied, 1)] == 0.0, pair

    @pytest.mark.parametrize("n, k", [(0, 0), (0, 3), (3, 0)], ids=["0x0", "0xk", "nx0"])
    def test_empty_shapes(self, n, k):
        atoms = np.array([d.atoms for d in planted_zero_atoms(33, n)]).reshape(n, 8)
        e1, e2 = np.full(k, 0.5), np.full(k, 0.25)
        post, failed = _posterior_atoms(atoms, e1, e2)
        assert post.shape == (n, k, 8) and failed.shape == (n, k)
        answers, first_errors = _batch_answers(atoms, _evidence(e1, e2))
        assert answers.shape == (n, k) and first_errors == [None] * n


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
            0.23987213908909039, 0.22067985444951443, 0.20600834131870707, 0.19503252091786444, 0.18694222128240853,
            0.0050907945383923837, 0.0076559115527706691, 0.010261164475441644, 0.012884472688661915, 0.015508951237150514,
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
