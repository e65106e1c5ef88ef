import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uisbench.dist import (
    CondIndepParams,
    atom_index,
    condition_c,
    expand,
    marginal,
    new_joint,
    read_dists_csv,
    sample_cond_indep,
    sample_uniform,
    write_dists_csv,
)

UNIFORM = [0.125] * 8
CI_EXAMPLE = CondIndepParams(0.5, 0.8, 0.2, 0.8, 0.2)


class TestNewJoint:
    def test_uniform_is_valid(self):
        d = new_joint(UNIFORM)
        assert np.allclose(d.atoms, 0.125)

    def test_point_mass_is_valid(self):
        d = new_joint([1, 0, 0, 0, 0, 0, 0, 0])
        assert d.atoms[0] == 1.0
        assert d.atoms[1:].sum() == 0.0

    def test_half_mass_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            new_joint([0.0625] * 8)

    def test_negative_atom_rejected_naming_index(self):
        atoms = [0.25, 0.25, 0.25, 0.35, -0.1, 0, 0, 0]
        with pytest.raises(ValueError, match="atom 4"):
            new_joint(atoms)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({2: float("nan")}, "atom 2 must be a finite non-negative real, got np.float64(nan)"),
            ({5: float("inf")}, "atom 5 must be a finite non-negative real, got np.float64(inf)"),
            ({1: float("-inf")}, "atom 1 must be a finite non-negative real, got np.float64(-inf)"),
            ({7: -0.25}, "atom 7 must be a finite non-negative real, got np.float64(-0.25)"),
            ({6: float("nan"), 3: -1e-300}, "atom 3 must be a finite non-negative real, got np.float64(-1e-300)"),
        ],
        ids=["nan", "inf", "-inf", "negative", "first-of-two"],
    )
    def test_bad_atom_message_names_the_first(self, bad, message):
        atoms = [0.125] * 8
        for i, value in bad.items():
            atoms[i] = value
        with pytest.raises(ValueError) as exc:
            new_joint(atoms)
        assert str(exc.value) == message

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="8 atoms"):
            new_joint([0.5, 0.5])

    def test_tiny_deviation_renormalized(self):
        atoms = np.full(8, 0.125)
        atoms[0] += 5e-10
        d = new_joint(atoms)
        assert abs(d.atoms.sum() - 1.0) <= 1e-12

    def test_atoms_frozen(self):
        d = new_joint(UNIFORM)
        with pytest.raises(ValueError):
            d.atoms[0] = 0.5

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_normalized_vectors_always_valid(self, raw):
        v = np.array(raw)
        d = new_joint(v / v.sum())
        assert np.all(d.atoms >= 0)
        assert abs(d.atoms.sum() - 1.0) <= 1e-12


class TestMarginal:
    def test_uniform(self):
        d = new_joint(UNIFORM)
        for event in ("E1", "E2", "C"):
            assert marginal(d, event) == pytest.approx(0.5, abs=1e-15)

    def test_point_mass(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 0, 0)] = 1.0
        d = new_joint(atoms)
        assert marginal(d, "E1") == 1.0
        assert marginal(d, "E2") == 0.0
        assert marginal(d, "C") == 0.0

    def test_expanded_example(self):
        # 0.5*0.8 + 0.5*0.2 by hand
        assert marginal(expand(CI_EXAMPLE), "E1") == pytest.approx(0.5, abs=1e-15)

    def test_unknown_event(self):
        with pytest.raises(ValueError, match="unknown event"):
            marginal(new_joint(UNIFORM), "E3")


class TestConditionC:
    def test_uniform(self):
        assert condition_c(new_joint(UNIFORM), True, True) == pytest.approx(0.5, abs=1e-15)

    def test_expanded_example(self):
        # Bayes by hand: 0.5*0.64 / (0.5*0.64 + 0.5*0.04) = 16/17
        d = expand(CI_EXAMPLE)
        assert condition_c(d, True, True) == pytest.approx(16 / 17, abs=1e-15)

    def test_point_mass(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 1, 1)] = 1.0
        d = new_joint(atoms)
        assert condition_c(d, True, True) == 1.0

    def test_zero_cell_rejected(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 1, 1)] = 1.0
        with pytest.raises(ValueError, match="zero-probability"):
            condition_c(new_joint(atoms), False, False)

    def test_matches_brute_force_on_random_dists(self):
        for k, d in enumerate(sample_uniform(101, 1000)):
            for e1 in (False, True):
                for e2 in (False, True):
                    t = d.atoms[atom_index(e1, e2, True)]
                    f = d.atoms[atom_index(e1, e2, False)]
                    brute = t / (t + f)
                    assert abs(condition_c(d, e1, e2) - brute) < 1e-12


class TestExpand:
    def test_product_atom(self):
        assert expand(CI_EXAMPLE).atom(1, 1, 1) == pytest.approx(0.32, abs=1e-15)

    def test_symmetric_params_give_uniform(self):
        d = expand(CondIndepParams(0.5, 0.5, 0.5, 0.5, 0.5))
        assert np.allclose(d.atoms, 0.125, atol=1e-15)

    def test_boundary_params_rejected(self):
        with pytest.raises(ValueError, match="pe1_given_c"):
            CondIndepParams(0.5, 1.0, 0.2, 0.8, 0.2)
        with pytest.raises(ValueError, match="pc"):
            CondIndepParams(0.0, 0.8, 0.2, 0.8, 0.2)

    def test_conditional_independence_exact(self):
        for d in sample_cond_indep(3, 50):
            for c in (0, 1):
                mask_c = np.array([bool((i & 1) == c) for i in range(8)])
                pc = d.atoms[mask_c].sum()
                p11 = d.atoms[atom_index(1, 1, c)] / pc
                p1_ = (d.atoms[atom_index(1, 0, c)] + d.atoms[atom_index(1, 1, c)]) / pc
                p_1 = (d.atoms[atom_index(0, 1, c)] + d.atoms[atom_index(1, 1, c)]) / pc
                assert abs(p11 - p1_ * p_1) < 1e-12

    def test_roundtrip_recovers_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = CondIndepParams(*rng.uniform(0.01, 0.99, size=5))
            d = expand(p)
            pc = marginal(d, "C")
            mask_c = np.array([bool(i & 1) for i in range(8)])
            mask_e1 = np.array([bool(i & 4) for i in range(8)])
            mask_e2 = np.array([bool(i & 2) for i in range(8)])
            got = (
                pc,
                d.atoms[mask_e1 & mask_c].sum() / pc,
                d.atoms[mask_e1 & ~mask_c].sum() / (1 - pc),
                d.atoms[mask_e2 & mask_c].sum() / pc,
                d.atoms[mask_e2 & ~mask_c].sum() / (1 - pc),
            )
            want = (p.pc, p.pe1_given_c, p.pe1_given_not_c, p.pe2_given_c, p.pe2_given_not_c)
            assert np.allclose(got, want, atol=1e-12)


class TestSampling:
    def test_zero_count_gives_empty(self):
        assert sample_uniform(1, 0) == []
        assert sample_cond_indep(1, 0) == []

    def test_negative_count_rejected(self):
        for sampler in (sample_uniform, sample_cond_indep):
            with pytest.raises(ValueError, match="n must be non-negative, got -1"):
                sampler(1, -1)

    def test_deterministic(self):
        a = sample_uniform(42, 20)
        b = sample_uniform(42, 20)
        for x, y in zip(a, b):
            assert np.array_equal(x.atoms, y.atoms)
        a = sample_cond_indep(42, 20)
        b = sample_cond_indep(42, 20)
        for x, y in zip(a, b):
            assert np.array_equal(x.atoms, y.atoms)

    def test_substreams_are_prefix_stable(self):
        # distribution k depends only on (seed, k), not on the batch size
        short = sample_uniform(9, 5)
        long = sample_uniform(9, 12)
        for x, y in zip(short, long):
            assert np.array_equal(x.atoms, y.atoms)

    def test_different_seeds_differ(self):
        a = sample_uniform(1, 1)[0]
        b = sample_uniform(2, 1)[0]
        assert not np.array_equal(a.atoms, b.atoms)

    def test_generated_dists_are_valid(self):
        for d in sample_uniform(5, 200) + sample_cond_indep(5, 200):
            assert np.all(d.atoms >= 0)
            assert abs(d.atoms.sum() - 1.0) <= 1e-12

    def test_flat_simplex_mean(self):
        # law of large numbers against the flat-Dirichlet mean of 1/8
        dists = sample_uniform(123, 100000)
        mean = np.mean([d.atoms for d in dists], axis=0)
        assert np.all(np.abs(mean - 0.125) < 0.01)

    def test_cond_indep_params_in_range(self):
        for d in sample_cond_indep(11, 100):
            assert np.all(d.atoms > 0)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        dists = sample_uniform(3, 7)
        write_dists_csv(path, dists)
        back = read_dists_csv(path)
        assert len(back) == 7
        for x, y in zip(dists, back):
            assert np.array_equal(x.atoms, y.atoms)

    def test_header(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dists_csv(path, sample_uniform(3, 1))
        first = path.read_text().splitlines()[0]
        assert first == "id,p000,p001,p010,p011,p100,p101,p110,p111"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="bad header"):
            read_dists_csv(path)

    def test_corrupt_row_named(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dists_csv(path, sample_uniform(3, 3))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 1"):
            read_dists_csv(path)

    def test_out_of_order_id_named(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dists_csv(path, sample_uniform(3, 2))
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="out of order"):
            read_dists_csv(path)
