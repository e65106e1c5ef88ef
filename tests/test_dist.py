import itertools
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DENORMAL_ROW
from uisbench.dist import (
    _BLOCK_HINT,
    CondIndepParams,
    JointDist,
    atom_index,
    condition_c,
    expand,
    marginal,
    read_atoms_csv,
    read_dists_csv,
    sample_cond_indep,
    sample_uniform,
    write_dists_csv,
)

UNIFORM = [0.125] * 8
CI_EXAMPLE = CondIndepParams(0.5, 0.8, 0.2, 0.8, 0.2)


class TestNewJoint:
    def test_uniform_is_valid(self):
        d = JointDist(UNIFORM)
        assert np.allclose(d.atoms, 0.125)

    def test_point_mass_is_valid(self):
        d = JointDist([1, 0, 0, 0, 0, 0, 0, 0])
        assert d.atoms[0] == 1.0
        assert d.atoms[1:].sum() == 0.0

    def test_half_mass_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            JointDist([0.0625] * 8)

    def test_negative_atom_rejected_naming_index(self):
        atoms = [0.25, 0.25, 0.25, 0.35, -0.1, 0, 0, 0]
        with pytest.raises(ValueError, match="atom 4"):
            JointDist(atoms)

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
            JointDist(atoms)
        assert str(exc.value) == message

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="8 atoms"):
            JointDist([0.5, 0.5])

    def test_tiny_deviation_renormalized(self):
        atoms = np.full(8, 0.125)
        atoms[0] += 5e-10
        d = JointDist(atoms)
        assert abs(d.atoms.sum() - 1.0) <= 1e-12

    def test_atoms_frozen(self):
        d = JointDist(UNIFORM)
        with pytest.raises(ValueError):
            d.atoms[0] = 0.5

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_normalized_vectors_always_valid(self, raw):
        v = np.array(raw)
        d = JointDist(v / v.sum())
        assert np.all(d.atoms >= 0)
        assert abs(d.atoms.sum() - 1.0) <= 1e-12


class TestMarginal:
    def test_uniform(self):
        d = JointDist(UNIFORM)
        for event in ("E1", "E2", "C"):
            assert marginal(d, event) == pytest.approx(0.5, abs=1e-15)

    def test_point_mass(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 0, 0)] = 1.0
        d = JointDist(atoms)
        assert marginal(d, "E1") == 1.0
        assert marginal(d, "E2") == 0.0
        assert marginal(d, "C") == 0.0

    def test_expanded_example(self):
        # 0.5*0.8 + 0.5*0.2 by hand
        assert marginal(expand(CI_EXAMPLE), "E1") == pytest.approx(0.5, abs=1e-15)

    def test_unknown_event(self):
        with pytest.raises(ValueError, match="unknown event"):
            marginal(JointDist(UNIFORM), "E3")


class TestConditionC:
    def test_uniform(self):
        assert condition_c(JointDist(UNIFORM), True, True) == pytest.approx(0.5, abs=1e-15)

    def test_expanded_example(self):
        # Bayes by hand: 0.5*0.64 / (0.5*0.64 + 0.5*0.04) = 16/17
        d = expand(CI_EXAMPLE)
        assert condition_c(d, True, True) == pytest.approx(16 / 17, abs=1e-15)

    def test_point_mass(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 1, 1)] = 1.0
        d = JointDist(atoms)
        assert condition_c(d, True, True) == 1.0

    def test_zero_cell_rejected(self):
        atoms = np.zeros(8)
        atoms[atom_index(1, 1, 1)] = 1.0
        with pytest.raises(ValueError, match="zero-probability"):
            condition_c(JointDist(atoms), False, False)

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
        assert expand(CI_EXAMPLE).atoms[atom_index(1, 1, 1)] == pytest.approx(0.32, abs=1e-15)

    def test_symmetric_params_give_uniform(self):
        d = expand(CondIndepParams(0.5, 0.5, 0.5, 0.5, 0.5))
        assert np.allclose(d.atoms, 0.125, atol=1e-15)

    def test_boundary_params_rejected(self):
        with pytest.raises(ValueError, match="pe1_given_c"):
            CondIndepParams(0.5, 1.0, 0.2, 0.8, 0.2)
        with pytest.raises(ValueError, match="pc"):
            CondIndepParams(0.0, 0.8, 0.2, 0.8, 0.2)

    @pytest.mark.parametrize("name", [f.name for f in fields(CondIndepParams)])
    def test_each_field_out_of_range_named(self, name):
        for bad in (0.0, 1.0, -0.25, 1.5, math.nan):
            with pytest.raises(ValueError) as exc:
                replace(CI_EXAMPLE, **{name: bad})
            assert str(exc.value) == f"{name} must lie strictly in (0, 1), got {bad!r}"

    def test_conditional_independence_exact(self):
        for d in sample_cond_indep(3, 50):
            for c in (0, 1):
                mask_c = np.array([bool((i & 1) == c) for i in range(8)])
                pc = d.atoms[mask_c].sum()
                p11 = d.atoms[atom_index(1, 1, c)] / pc
                p1_ = (d.atoms[atom_index(1, 0, c)] + d.atoms[atom_index(1, 1, c)]) / pc
                p_1 = (d.atoms[atom_index(0, 1, c)] + d.atoms[atom_index(1, 1, c)]) / pc
                assert abs(p11 - p1_ * p_1) < 1e-12

    def test_sampled_atoms_are_the_products_in_order(self):
        # each row is expanded as one array; every atom must still be P(c) * P(e1|c) * P(e2|c),
        # multiplied left to right, as the acceptance artifacts' digests were made
        for k, d in enumerate(sample_cond_indep(1986, 50)):
            pc, e1c, e1n, e2c, e2n = np.random.default_rng([1986, k]).uniform(0.01, 0.99, size=5).tolist()
            for e1, e2, c in itertools.product((0, 1), repeat=3):
                pe1, pe2 = (e1c, e2c) if c else (e1n, e2n)
                want = (pc if c else 1.0 - pc) * (pe1 if e1 else 1.0 - pe1) * (pe2 if e2 else 1.0 - pe2)
                assert d.atoms[atom_index(e1, e2, c)] == want, (k, e1, e2, c)

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
            with pytest.raises(ValueError, match="^n must be a non-negative integer, got -1$"):
                sampler(1, -1)

    def test_bad_seed_or_count_refused(self):
        # seeds 1.5 and True ran as seed 1 and "7" as seed 7, seed -1 raised numpy's own error, which did
        # not name the seed, and n=True a TypeError
        for sampler in (sample_uniform, sample_cond_indep):
            for seed in (1.5, True, "7", -1, np.int64(-1), None):
                with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
                    sampler(seed, 2)
            for n in (True, 2.0, "2", np.int64(-3)):
                with pytest.raises(ValueError, match=rf"^n must be a non-negative integer, got {re.escape(repr(n))}$"):
                    sampler(1, n)
            # Python's and numpy's integers of any size
            for seed, n in ((np.int64(7), np.int32(2)), (np.uint64(2**63), 1), (2**70, 1)):
                want = sampler(int(seed), int(n))
                assert [d.atoms.tolist() for d in sampler(seed, n)] == [d.atoms.tolist() for d in want]

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

    def test_batch_equals_one_joint_per_draw(self):
        # the samplers check their rows as one batch; each is bit for bit the
        # JointDist built from its own substream's draw
        for k, d in enumerate(sample_uniform(8, 40)):
            g = np.random.default_rng([8, k]).exponential(size=8)
            assert d.atoms.tobytes() == JointDist(g / g.sum()).atoms.tobytes()
        for k, d in enumerate(sample_cond_indep(8, 40)):
            v = np.random.default_rng([8, k]).uniform(0.01, 0.99, size=5)
            assert d.atoms.tobytes() == expand(CondIndepParams(*v)).atoms.tobytes()

    def test_atoms_frozen(self):
        for d in sample_uniform(2, 3) + sample_cond_indep(2, 3):
            with pytest.raises(ValueError):
                d.atoms[0] = 0.5

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


HEADER = "id,p000,p001,p010,p011,p100,p101,p110,p111\n"
_OFF_BY_5E_10 = [0.125 + 5e-10] + [0.125] * 7


def _csv_text(rows) -> str:
    return HEADER + "".join(f"{k}," + ",".join(f"{float(a):.17g}" for a in row) + "\n" for k, row in enumerate(rows))


# a fault of one row of 0.125s: its fields' transform and the message naming it, given the row
FAULTS = {
    "negative": (lambda f: f[:3] + ["-0.125", "0.375"] + f[5:], "atom 2 must be a finite non-negative real, got np.float64(-0.125)"),
    "unparsable": (lambda f: f[:6] + ["0.125x"] + f[7:], "could not convert string to float: '0.125x'"),
    "sum": (lambda f: f[:1] + ["0.0625"] * 8, "atoms must sum to 1 within 1e-09, got 0.5"),
    "short": (lambda f: f[:8], "expected 9 columns, got 8"),
    "id": (lambda f: ["7"] + f[1:], "id '7' out of order, expected {row}"),
    "blank": (lambda f: [], "expected 9 columns, got 0"),
}


class TestReadAtomsCsv:
    def _rows(self):
        sampled = sample_uniform(4, 3) + sample_cond_indep(4, 3)
        zeros = [0.5, 0, 0, 0.25, 0, 0, 0.25, 0]
        return [_OFF_BY_5E_10, zeros, DENORMAL_ROW] + [d.atoms for d in sampled], sampled

    def test_rows_bit_for_bit_those_of_joint_dist(self, tmp_path):
        rows, sampled = self._rows()
        path = tmp_path / "d.csv"
        path.write_text(_csv_text(rows))
        atoms = read_atoms_csv(path)
        dists = read_dists_csv(path)
        assert atoms.shape == (len(rows), 8) and len(dists) == len(rows)
        for k, row in enumerate(rows):
            parsed = np.array([float(f"{float(a):.17g}") for a in row])
            total = float(parsed.sum())
            # JointDist's rule, written out: divide only a row whose sum is off by more than 1e-13
            want = parsed / total if abs(total - 1.0) > 1e-13 else parsed
            assert JointDist(parsed).atoms.tobytes() == want.tobytes()
            assert atoms[k].tobytes() == want.tobytes(), k
            assert dists[k].atoms.tobytes() == want.tobytes(), k
        assert atoms[0].tobytes() != np.array(_OFF_BY_5E_10).tobytes()  # renormalised
        assert (atoms[1:3] == 0.0).sum() == 7 and atoms[2, 0] == 1e-320
        for k, d in enumerate(sampled, start=3):  # 17 digits round-trip exactly
            assert atoms[k].tobytes() == d.atoms.tobytes()

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("faults", list(itertools.permutations(FAULTS, 2)), ids="-then-".join)
    def test_first_faulty_row_named(self, tmp_path, first, faults):
        lines = _csv_text([UNIFORM] * 4).splitlines()
        for row, fault in enumerate(faults, start=first):
            fields = lines[1 + row].split(",")
            lines[1 + row] = ",".join(FAULTS[fault][0](fields))
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        for read in (read_atoms_csv, read_dists_csv):
            with pytest.raises(ValueError) as exc:
                read(path)
            assert str(exc.value) == f"{path}: row {first}: {FAULTS[faults[0]][1].format(row=first)}"

    def test_crlf_file_reads_identically(self, tmp_path):
        rows, _ = self._rows()
        path, crlf = tmp_path / "d.csv", tmp_path / "crlf.csv"
        path.write_text(_csv_text(rows))
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        assert read_atoms_csv(crlf).tobytes() == read_atoms_csv(path).tobytes()

    def test_header_only_gives_no_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [])
        assert read_atoms_csv(path).shape == (0, 8)
        assert read_dists_csv(path) == []

    def test_atoms_read_only(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dists_csv(path, sample_uniform(3, 3))
        atoms = read_atoms_csv(path)
        with pytest.raises(ValueError):
            atoms[1, 0] = 0.5
        for k in range(3):
            with pytest.raises(ValueError):
                read_dists_csv(path)[k].atoms[0] = 0.5

    def test_first_faulty_row_named_across_blocks(self, tmp_path):
        lines = _csv_text([UNIFORM] * 3000).splitlines(keepends=True)
        assert sum(map(len, lines[:2900])) > 2 * _BLOCK_HINT  # row 2899 is in the third block at least
        path = tmp_path / "d.csv"
        for early, late, message in [
            ("sum", "unparsable", FAULTS["sum"][1]),
            ("unparsable", "sum", FAULTS["unparsable"][1]),
            ("negative", "short", FAULTS["negative"][1]),
        ]:
            faulty = list(lines)
            for row, fault in ((5, early), (2899, late)):
                faulty[1 + row] = ",".join(FAULTS[fault][0](lines[1 + row].rstrip("\n").split(","))) + "\n"
            path.write_text("".join(faulty))
            with pytest.raises(ValueError) as exc:
                read_atoms_csv(path)
            assert str(exc.value) == f"{path}: row 5: {message}"
        path.write_text("".join(lines[:2900]) + "2899,0.125\n" + "".join(lines[2901:]))
        with pytest.raises(ValueError) as exc:
            read_atoms_csv(path)
        assert str(exc.value) == f"{path}: row 2899: expected 9 columns, got 2"

    def test_last_line_without_newline_reads_the_same(self, tmp_path):
        rows, _ = self._rows()
        path, bare = tmp_path / "d.csv", tmp_path / "bare.csv"
        for text in (_csv_text(rows), _csv_text(rows[:1]), HEADER):
            path.write_text(text)
            bare.write_text(text.removesuffix("\n"))
            assert read_atoms_csv(bare).tobytes() == read_atoms_csv(path).tobytes()
        bare.write_text(_csv_text([UNIFORM] * 3).removesuffix("\n") + "x")
        with pytest.raises(ValueError) as exc:
            read_atoms_csv(bare)
        assert str(exc.value) == f"{bare}: row 2: could not convert string to float: '0.125x'"

    @pytest.mark.parametrize("column", [0, 4, 8])
    def test_quoted_field_refused_naming_its_row(self, tmp_path, column):
        lines = _csv_text([UNIFORM] * 3).splitlines()
        fields = lines[2].split(",")
        fields[column] = f'"{fields[column]}"'
        lines[2] = ",".join(fields)
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            read_atoms_csv(path)
        assert str(exc.value) == f"{path}: row 1: quoted field {fields[column]!r}; fields must be unquoted"

    def test_undecodable_byte_names_file_and_row(self, tmp_path):
        text = _csv_text([UNIFORM] * 3).encode()
        path = tmp_path / "d.csv"
        for data, place, byte, reason in [
            (text.replace(b"\n1,0.125", b"\n1,0.1\xff25"), "row 1", b"\xff", "invalid start byte"),
            (text.replace(b"\n", b"\r\n").replace(b"\r\n2,", b"\r\n2,\xc3"), "row 2", b"\xc3", "invalid continuation byte"),
            (text.replace(b"p000", b"p\xe9000"), "header", b"\xe9", "invalid continuation byte"),
        ]:
            path.write_bytes(data)
            with pytest.raises(ValueError) as exc:
                read_atoms_csv(path)
            offset = data.index(byte)
            assert str(exc.value) == f"{path}: {place}: byte {byte[0]:#04x} at offset {offset} is not UTF-8 ({reason})"

    @pytest.mark.parametrize("fault", ["unparsable", "sum", "negative", "blank"])
    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_faulty_row_before_an_undecodable_one_named(self, tmp_path, fault, line_end):
        # named row 14's byte, read in the same decoded chunk as row 3
        lines = _csv_text([UNIFORM] * 20).splitlines()
        lines[1 + 3] = ",".join(FAULTS[fault][0](lines[1 + 3].split(",")))
        lines[1 + 14] = lines[1 + 14].replace(",0.125", ",0.1\xff25", 1)
        path = tmp_path / "d.csv"
        path.write_bytes(line_end.join(line.encode("latin-1") for line in lines) + line_end)
        with pytest.raises(ValueError) as exc:
            read_atoms_csv(path)
        assert str(exc.value) == f"{path}: row 3: {FAULTS[fault][1]}"

    def test_undecodable_row_named_after_a_sound_one_or_a_bad_header(self, tmp_path):
        lines = _csv_text([UNIFORM] * 20).encode().splitlines(keepends=True)
        lines[1 + 14] = lines[1 + 14].replace(b",0.125", b",0.1\xff25", 1)
        path = tmp_path / "d.csv"
        path.write_bytes(b"".join(lines))
        offset = path.read_bytes().index(b"\xff")
        with pytest.raises(ValueError) as exc:
            read_atoms_csv(path)
        assert str(exc.value) == f"{path}: row 14: byte 0xff at offset {offset} is not UTF-8 (invalid start byte)"
        path.write_bytes(b"".join(lines).replace(b"p000", b"q000"))
        with pytest.raises(ValueError) as exc:
            read_atoms_csv(path)
        assert str(exc.value).startswith(f"{path}: bad header ")

    def test_peak_memory_below_twice_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        dists = sample_cond_indep(7, 20_000)
        write_dists_csv(path, dists)
        read_atoms_csv(path)  # first-call allocations are not the reader's
        tracemalloc.start()
        try:
            atoms = read_atoms_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 2 * size, (peak, size)
        assert atoms.tobytes() == np.array([d.atoms for d in dists]).tobytes()
