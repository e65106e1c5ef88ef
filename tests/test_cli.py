import json

import numpy as np
import pytest

from uisbench.cli import main
from uisbench.dist import (
    CondIndepParams,
    expand,
    new_joint,
    read_dists_csv,
    sample_cond_indep,
    sample_uniform,
    write_dists_csv,
)
from uisbench.oracle import EvidencePair, standard_answer

from conftest import planted_zero_atoms

FAST_CFG = {"optim": {"n_starts": 2, "max_iters": 120}}


def write_cfg(tmp_path, extra=None):
    cfg = dict(FAST_CFG)
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGen:
    def test_writes_csv_and_prints_path(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["gen", "--family", "uniform", "--n", "5", "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        assert len(read_dists_csv(out)) == 5

    def test_cond_indep_family(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["gen", "--family", "cond_indep", "--n", "10", "--seed", "1", "--out", str(out)]) == 0
        for d in read_dists_csv(out):
            assert np.all(d.atoms > 0)
            for c_mask in (d.atoms[1::2], d.atoms[0::2]):  # given C, given not-C
                pc = c_mask.sum()
                p11 = c_mask[3] / pc
                p1_ = (c_mask[2] + c_mask[3]) / pc
                p_1 = (c_mask[1] + c_mask[3]) / pc
                assert abs(p11 - p1_ * p_1) < 1e-12

    def test_default_count_is_109(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["gen", "--seed", "2", "--out", str(out)]) == 0
        assert len(read_dists_csv(out)) == 109

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--family", "uniform", "--n", "4", "--seed", "9", "--out", str(a)])
        main(["gen", "--family", "uniform", "--n", "4", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_family_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "nope", "--n", "2", "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2

    def test_bad_n_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "0", "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("n_dists", {"n_dists": 5.0}),
            ("seed", {"seed": 1.5}),
            ("jobs", {"jobs": True}),
            ("n_starts", {"optim": {"n_starts": 2.5}}),
            ("max_iters", {"optim": {"max_iters": "500"}}),
        ],
    )
    def test_non_integer_setting_named(self, tmp_path, capsys, key, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = write_cfg(tmp_path, {"n_dists": 3, "seed": 5, "family": "uniform"})
        out = tmp_path / "d.csv"
        main(["gen", "--config", cfg, "--out", str(out)])
        assert len(read_dists_csv(out)) == 3
        main(["gen", "--config", cfg, "--n", "6", "--out", str(out)])
        assert len(read_dists_csv(out)) == 6


class TestBench:
    def make_dists(self, tmp_path, n=3, seed=7):
        out = tmp_path / "d.csv"
        main(["gen", "--family", "uniform", "--n", str(n), "--seed", str(seed), "--out", str(out)])
        return out

    def test_writes_artifacts_and_prints_table(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path)
        cfg = write_cfg(tmp_path)
        code = main(["bench", "--dists", str(dists), "--seed", "3", "--out", str(tmp_path / "o"), "--config", cfg])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu" in out and "INDP" in out
        report = (tmp_path / "o" / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 3 * 5
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert set(summary) == {"LINR", "WRST", "INDP", "PRSP", "PWR"}

    def test_single_distribution_reports_but_cannot_aggregate(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path, n=1)
        cfg = write_cfg(tmp_path)
        code = main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o"), "--config", cfg])
        assert code == 1
        assert "at least 2" in capsys.readouterr().err
        report = (tmp_path / "o" / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 1 * 5  # one row per model

    def test_degenerate_distribution_excluded(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [new_joint([0.125] * 8)])
        cfg = write_cfg(tmp_path)
        code = main(["bench", "--dists", str(path), "--out", str(tmp_path / "o"), "--config", cfg])
        assert code == 1
        assert "non-degenerate" in capsys.readouterr().err

    def test_model_subset_flag(self, tmp_path):
        dists = self.make_dists(tmp_path)
        cfg = write_cfg(tmp_path)
        main([
            "bench", "--dists", str(dists), "--models", "LINR,WRST,BST",
            "--out", str(tmp_path / "o"), "--config", cfg,
        ])
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert set(summary) == {"LINR", "WRST", "BST"}
        assert summary["BST"]["mu"] == 1.0
        assert summary["WRST"]["mu"] == -1.0

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--models", "LINR,NOPE"])
        assert exc.value.code == 2
        assert "unknown model 'NOPE'; valid models: LINR,INDP,PRSP,PWR,WRST,BST" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--models", "LINR,WRST,linr", "model LINR is listed more than once"),
            ("--grid", "0.5,0.2", "grid levels must be strictly increasing"),
        ],
    )
    def test_bad_flag_value_named(self, tmp_path, capsys, flag, value, message):
        dists = self.make_dists(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), flag, value, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_one_level_grid_is_usage_error(self, tmp_path, capsys, source):
        # was fitted anyway: every distribution failed with a singular matrix and the run exited 1
        dists = self.make_dists(tmp_path)
        capsys.readouterr()
        args = ["--grid", "0.5"] if source == "flag" else ["--config", write_cfg(tmp_path, {"grid": [0.5]})]
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o")] + args)
        assert exc.value.code == 2
        assert "grid needs at least 2 levels, got (0.5,)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_hard_evidence_level_with_pwr_is_usage_error(self, tmp_path, capsys, source):
        # was fitted anyway: every distribution failed with "PWR fit failed: no start produced a finite objective"
        dists = self.make_dists(tmp_path)
        capsys.readouterr()
        args = ["--grid", "0,0.5,1"] if source == "flag" else ["--config", write_cfg(tmp_path, {"grid": [0, 0.5, 1]})]
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o")] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "grid level 0.0 cannot be used with PWR: PWR needs evidence strictly inside (0, 1)" in err
        assert not (tmp_path / "o").exists()
        without_pwr = ["--models", "LINR,WRST,INDP,PRSP", "--config", write_cfg(tmp_path)]
        assert main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o"), "--grid", "0,0.5,1"] + without_pwr) == 0

    def test_repeated_model_in_config_named(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path)
        capsys.readouterr()
        cfg = write_cfg(tmp_path, {"models": ["LINR", "WRST", "LINR"]})
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o"), "--config", cfg])
        assert exc.value.code == 2
        assert "model LINR is listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_optim_key_named(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path)
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"optim": {"fd_step": 1e-6}}))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "fd_step" in err and "max_iters" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("out", {"out": 5}),  # was a TypeError traceback
            ("models", {"models": "LINR,WRST"}),  # was split into letters: unknown model 'L'
            ("grid", {"grid": [0.25, True]}),  # was run with the levels (0.25, 1.0)
            ("config", 5),  # was "'int' object is not iterable"
            ("optim", {"optim": ["n_starts"]}),  # was "argument after ** must be a mapping, not list"
        ],
    )
    def test_mistyped_config_value_named(self, tmp_path, capsys, key, raw):
        dists = self.make_dists(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "unknown model" not in err

    def test_unwritable_out_is_error_before_the_run(self, tmp_path, capsys, monkeypatch):
        import uisbench.cli as cli

        dists = self.make_dists(tmp_path)
        out = tmp_path / "o"
        out.write_text("a file, not a directory\n")  # was a FileExistsError traceback after the whole run
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_bench", lambda *args: pytest.fail("ran the bench"))
        assert main(["bench", "--dists", str(dists), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["bench", "--dists", str(tmp_path / "missing.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_row_named(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path)
        lines = dists.read_text().splitlines()
        lines[1] = "0,bad" + lines[1][5:]
        dists.write_text("\n".join(lines) + "\n")
        assert main(["bench", "--dists", str(dists)]) == 1
        assert "row 0" in capsys.readouterr().err

    def test_failed_distribution_reported_inline(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        bad = new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])
        good = read_dists_csv(self.make_dists(tmp_path, n=2, seed=8))
        write_dists_csv(path, [bad] + good)
        cfg = write_cfg(tmp_path)
        code = main(["bench", "--dists", str(path), "--out", str(tmp_path / "o"), "--config", cfg])
        assert code == 1
        err = capsys.readouterr().err
        assert "dist 0" in err and "1 of 3" in err

    def test_custom_grid_flag(self, tmp_path):
        dists = self.make_dists(tmp_path)
        cfg = write_cfg(tmp_path)
        code = main([
            "bench", "--dists", str(dists), "--grid", "0.1,0.5,0.9",
            "--out", str(tmp_path / "o"), "--config", cfg,
        ])
        assert code == 0


class TestOracle:
    def test_known_value(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [expand(CondIndepParams(0.5, 0.8, 0.2, 0.8, 0.2))])
        assert main(["oracle", "--dists", str(path), "--e1", "1", "--e2", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0 0.941176470588"

    def test_uniform_value(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [new_joint([0.125] * 8)])
        main(["oracle", "--dists", str(path), "--e1", "0.75", "--e2", "0.25"])
        assert capsys.readouterr().out.strip() == "0 0.5"

    def test_out_of_range_evidence_is_usage_error(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [new_joint([0.125] * 8)])
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--dists", str(path), "--e1", "1.5", "--e2", "0.5"])
        assert exc.value.code == 2

    def test_empty_dists_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [])  # header only: was answered with nothing and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--dists", str(path), "--e1", "0.5", "--e2", "0.5"])
        assert exc.value.code == 2
        assert "dists must be non-empty" in capsys.readouterr().err

    def test_infeasible_evidence_named(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])])
        assert main(["oracle", "--dists", str(path), "--e1", "0.5", "--e2", "0.5"]) == 1
        assert "E1" in capsys.readouterr().err

    def test_non_convergence_named_and_later_dists_answered(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        # P(E1=1, E2=1) = 0, so the support reaches e1 + e2 <= 1 only: iterative
        # fitting approached e1 = e2 = 0.75 and never reached it
        path.write_text("id,p000,p001,p010,p011,p100,p101,p110,p111\n"
                        "0,0.2,0.2,0.1,0.1,0.2,0.2,0,0\n"
                        "1,0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125\n")
        assert main(["oracle", "--dists", str(path), "--e1", "0.75", "--e2", "0.75"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["1 0.5"]
        assert captured.err == (
            "dist 0: target P(E1)=0.75, P(E2)=0.75 unreachable: P(E1, E2) is 0 at (1, 1) on the current support\n"
        )


def _oracle_loop(dists, e1, e2):
    """``uisbench oracle``'s (stdout, stderr, exit code) from one standard_answer per distribution."""
    ev = EvidencePair(e1, e2)
    out, err = [], []
    for i, d in enumerate(dists):
        try:
            out.append(f"{i} {standard_answer(d, ev):.12g}\n")
        except ValueError as exc:
            err.append(f"dist {i}: {exc}\n")
    return "".join(out), "".join(err), 1 if err else 0


def _oracle_pairs(seed):
    """35 evidence pairs: the four hard corners, 16 half-hard pairs, 14 interior pairs and (0.001, 0.999)."""
    corners = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
    half_hard = [p for h in (0.0, 1.0) for v in (0.001, 0.3, 0.5, 0.999) for p in ((h, v), (v, h))]
    interior = [tuple(float(v) for v in pair) for pair in np.random.default_rng(seed).uniform(0.01, 0.99, (14, 2))]
    return corners + half_hard + interior + [(0.001, 0.999)]


# P(E1=0) is denormal and its (0, 1) cell empty: iterative fitting overflowed
# here and left NaN atoms at (0, 0)
DENORMAL_ROW = [1e-320, 1e-320, 0, 0, 0.25, 0.25, 0.25, 0.25]


class TestBatchedOracle:
    """``uisbench oracle`` runs its file as one batch; it prints what a loop of standard_answer would."""

    def _run(self, capsys, path, e1, e2):
        code = main(["oracle", "--dists", str(path), "--e1", repr(e1), "--e2", repr(e2)])
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_a_per_distribution_loop(self, tmp_path, capsys, seed):
        uniform, cond_indep = sample_uniform(1987 + seed, 128), sample_cond_indep(1986 + seed, 128)
        dists = [d for pair in zip(uniform, cond_indep) for d in pair] + planted_zero_atoms(40 + seed, 24)
        dists.append(new_joint(DENORMAL_ROW))
        path = tmp_path / "d.csv"
        write_dists_csv(path, dists)
        dists = read_dists_csv(path)
        errors = ""
        for e1, e2 in _oracle_pairs(seed):
            want = _oracle_loop(dists, e1, e2)
            assert self._run(capsys, path, e1, e2) == want, (e1, e2)
            errors += want[1]
        assert "P(E1) is 0" in errors and "P(E1, E2) is 0 at" in errors

    def test_nan_posterior_named_and_later_dists_answered(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [new_joint([0.125] * 8), new_joint(DENORMAL_ROW), new_joint([0.125] * 8)])
        assert self._run(capsys, path, 0.0, 0.0) == ("0 0.5\n1 0.5\n2 0.5\n", "", 0)
        out, err, code = self._run(capsys, path, 0.0, 0.5)
        assert (out, err, code) == (
            "0 0.5\n2 0.5\n", "dist 1: target P(E2)=0.5 unreachable: P(E2) is 0 on the current support\n", 1
        )


class TestReport:
    def test_resummarizes_report_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        main(["gen", "--family", "uniform", "--n", "3", "--seed", "2", "--out", str(out)])
        cfg = write_cfg(tmp_path)
        capsys.readouterr()
        main(["bench", "--dists", str(out), "--out", str(tmp_path / "o"), "--config", cfg])
        bench_out = capsys.readouterr().out
        code = main(["report", "--report", str(tmp_path / "o" / "report.csv"),
                     "--json", str(tmp_path / "s2.json")])
        assert code == 0
        assert capsys.readouterr().out == bench_out
        assert (tmp_path / "s2.json").read_bytes() == (tmp_path / "o" / "summary.json").read_bytes()

    def test_unwritable_json_is_error(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        main(["gen", "--family", "uniform", "--n", "3", "--seed", "2", "--out", str(tmp_path / "d.csv")])
        main(["bench", "--dists", str(tmp_path / "d.csv"), "--out", str(tmp_path), "--config", write_cfg(tmp_path)])
        capsys.readouterr()
        target = tmp_path / "missing" / "s.json"  # was a FileNotFoundError traceback
        assert main(["report", "--report", str(path), "--json", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err

    def test_missing_report_is_error(self, tmp_path, capsys):
        assert main(["report", "--report", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err
