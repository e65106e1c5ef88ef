import errno
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from uisbench.cli import COMMANDS, RunConfig, build_parser, main
from uisbench.dist import (
    CondIndepParams,
    JointDist,
    expand,
    read_dists_csv,
    sample_cond_indep,
    sample_uniform,
    write_dists_csv,
)
from uisbench.oracle import EvidencePair, standard_answer

from conftest import DENORMAL_ROW, planted_zero_atoms

def write_cfg(tmp_path, cfg):
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

    def test_bad_config_family_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"family": "nope"})
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", cfg, "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "\nuisbench gen: error: family must be one of ('uniform', 'cond_indep'), got 'nope'\n")
        assert not (tmp_path / "d.csv").exists()

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

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"sead": 1})
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", cfg, "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2
        assert "unknown config keys: ['sead']" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_bad_file_value_rejected_under_its_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"seed": -1})
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2
        assert "seed must be" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_config_models_checked_as_bench_checks_them(self, tmp_path, capsys):
        # gen reads no model, but rejects a list that names one twice and takes one without LINR or WRST
        cfg = write_cfg(tmp_path, {"models": ["LINR", "LINR"]})
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", cfg, "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2
        assert "error: model LINR is listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()
        cfg = write_cfg(tmp_path, {"models": ["PRSP"], "n_dists": 2})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 0
        assert len(read_dists_csv(tmp_path / "d.csv")) == 2

    def test_readme_full_config_is_every_setting(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("A full config:\n\n```json\n", 1)[1].split("```", 1)[0]
        full = json.loads(block)
        assert list(full) == [f.name for f in fields(RunConfig)]
        cfg = tmp_path / "full.json"
        cfg.write_text(block)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 0
        assert len(read_dists_csv(tmp_path / "d.csv")) == full["n_dists"]


class TestBench:
    def make_dists(self, tmp_path, n=3, seed=7):
        out = tmp_path / "d.csv"
        main(["gen", "--family", "uniform", "--n", str(n), "--seed", str(seed), "--out", str(out)])
        return out

    def test_writes_artifacts_and_prints_table(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path)
        code = main(["bench", "--dists", str(dists), "--seed", "3", "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu" in out and "INDP" in out
        report = (tmp_path / "o" / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 3 * 5
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert set(summary) == {"LINR", "WRST", "INDP", "PRSP", "PWR"}

    def test_single_distribution_reports_but_cannot_aggregate(self, tmp_path, capsys):
        dists = self.make_dists(tmp_path, n=1)
        code = main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "at least 2" in capsys.readouterr().err
        report = (tmp_path / "o" / "report.csv").read_text().splitlines()
        assert len(report) == 1 + 1 * 5  # one row per model

    def test_degenerate_distribution_excluded(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [JointDist([0.125] * 8)])
        code = main(["bench", "--dists", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "non-degenerate" in capsys.readouterr().err

    def test_model_subset_flag(self, tmp_path):
        dists = self.make_dists(tmp_path)
        main([
            "bench", "--dists", str(dists), "--models", "LINR,WRST,BST",
            "--out", str(tmp_path / "o"),
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
            ("--models", "LINR,LINR,NOPE", "model LINR is listed more than once"),  # the first fault in list order
            ("--models", "NOPE,LINR,LINR", "unknown model 'NOPE'"),
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
        without_pwr = ["--models", "LINR,WRST,INDP,PRSP"]
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

    def test_comma_in_config_model_name_named(self, tmp_path, capsys):
        # was joined with commas and split again, so three models ran
        dists = self.make_dists(tmp_path)
        capsys.readouterr()
        cfg = write_cfg(tmp_path, {"models": ["LINR", "WRST,INDP"]})
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o"), "--config", cfg])
        assert exc.value.code == 2
        assert "unknown model 'WRST,INDP'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_optim_key_named(self, tmp_path, capsys):
        # the fit budget is fixed in optim, so a config's optim object is an unknown key like any other
        dists = self.make_dists(tmp_path)
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"optim": {"n_starts": 5, "max_iters": 200}}))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("\nuisbench bench: error: unknown config keys: ['optim']\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("out", {"out": 5}),  # was a TypeError traceback
            ("models", {"models": "LINR,WRST"}),  # was split into letters: unknown model 'L'
            ("grid", {"grid": [0.25, True]}),  # was run with the levels (0.25, 1.0)
            ("config", 5),  # was "'int' object is not iterable"
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
        bad = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])
        good = read_dists_csv(self.make_dists(tmp_path, n=2, seed=8))
        write_dists_csv(path, [bad] + good)
        code = main(["bench", "--dists", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "dist 0" in err and "1 of 3" in err

    def test_custom_grid_flag(self, tmp_path):
        dists = self.make_dists(tmp_path)
        code = main([
            "bench", "--dists", str(dists), "--grid", "0.1,0.5,0.9",
            "--out", str(tmp_path / "o"),
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
        write_dists_csv(path, [JointDist([0.125] * 8)])
        main(["oracle", "--dists", str(path), "--e1", "0.75", "--e2", "0.25"])
        assert capsys.readouterr().out.strip() == "0 0.5"

    def test_out_of_range_evidence_is_usage_error(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [JointDist([0.125] * 8)])
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
        write_dists_csv(path, [JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])])
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
        dists.append(JointDist(DENORMAL_ROW))
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
        write_dists_csv(path, [JointDist([0.125] * 8), JointDist(DENORMAL_ROW), JointDist([0.125] * 8)])
        assert self._run(capsys, path, 0.0, 0.0) == ("0 0.5\n1 0.5\n2 0.5\n", "", 0)
        out, err, code = self._run(capsys, path, 0.0, 0.5)
        assert (out, err, code) == (
            "0 0.5\n2 0.5\n", "dist 1: target P(E2)=0.5 unreachable: P(E2) is 0 on the current support\n", 1
        )


class TestOracleOneWrite:
    """``uisbench oracle`` writes its answers to stdout in one write."""

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_one_infeasible_row_and_the_others_answered_in_order(self, tmp_path, capsys, monkeypatch, bad):
        dists = sample_uniform(5, 5)
        dists[bad] = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # P(E1) = 0
        path = tmp_path / "d.csv"
        write_dists_csv(path, dists)
        writes = []
        real_write = sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real_write(text))
        code = main(["oracle", "--dists", str(path), "--e1", "0.5", "--e2", "0.5"])
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == _oracle_loop(dists, 0.5, 0.5)
        assert [line.split()[0] for line in captured.out.splitlines()] == [str(i) for i in range(5) if i != bad]
        assert captured.err == f"dist {bad}: target P(E1)=0.5 unreachable: P(E1) is 0 on the current support\n"
        assert code == 1 and writes == [captured.out]


class TestReport:
    def test_resummarizes_report_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        main(["gen", "--family", "uniform", "--n", "3", "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        main(["bench", "--dists", str(out), "--out", str(tmp_path / "o")])
        bench_out = capsys.readouterr().out
        code = main(["report", "--report", str(tmp_path / "o" / "report.csv"),
                     "--json", str(tmp_path / "s2.json")])
        assert code == 0
        assert capsys.readouterr().out == bench_out
        assert (tmp_path / "s2.json").read_bytes() == (tmp_path / "o" / "summary.json").read_bytes()

    def test_unwritable_json_is_error(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        main(["gen", "--family", "uniform", "--n", "3", "--seed", "2", "--out", str(tmp_path / "d.csv")])
        main(["bench", "--dists", str(tmp_path / "d.csv"), "--out", str(tmp_path)])
        capsys.readouterr()
        target = tmp_path / "missing" / "s.json"  # was a FileNotFoundError traceback
        assert main(["report", "--report", str(path), "--json", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err

    def test_missing_report_is_error(self, tmp_path, capsys):
        assert main(["report", "--report", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, place, code", [
    ("oracle", "row 1", 1),
    ("bench", "row 1", 1),
    ("report", "row 1", 1),
    ("gen", "line 3", 2),
])
def test_undecodable_input_names_file_and_place(tmp_path, capsys, command, place, code):
    # was "error: 'utf-8' codec can't decode byte 0xff in position ...", naming no file
    dists = tmp_path / "d.csv"
    write_dists_csv(dists, sample_uniform(3, 3))
    assert main(["bench", "--dists", str(dists), "--out", str(tmp_path / "o")]) == 0
    path, flags = {
        "oracle": (dists, ["--dists", str(dists), "--e1", "0.5", "--e2", "0.5"]),
        "bench": (dists, ["--dists", str(dists), "--out", str(tmp_path / "o2")]),
        "report": (tmp_path / "o" / "report.csv", ["--report", str(tmp_path / "o" / "report.csv")]),
        "gen": (tmp_path / "cfg.json", ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "g.csv")]),
    }[command]
    if command == "gen":
        path.write_text('{\n  "seed": 1\n}\n')
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main([command, *flags])
        assert exc.value.code == 2
    else:
        assert main([command, *flags]) == 1
    offset = path.read_bytes().index(b"\xff")
    message = f"{path}: {place}: byte 0xff at offset {offset} is not UTF-8 (invalid start byte)"
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("gen", ["--n", "0"], "n_dists must be an integer >= 1, got 0"),
        ("bench", ["--models", "PRSP"], "kinds must include LINR; eta is defined relative to it"),
        ("oracle", ["--e1", "nan", "--e2", "0.5"], "--e1 must lie in [0, 1], got nan"),
    ],
)
def test_usage_error_found_after_parsing_names_the_command(tmp_path, capsys, command, args, message):
    # printed the root parser's usage and "uisbench: error: ..."
    path = tmp_path / "d.csv"
    write_dists_csv(path, [JointDist([0.125] * 8)])
    dists = [] if command == "gen" else ["--dists", str(path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *dists, *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: uisbench {command} [-h] ")
    assert err.endswith(f"\nuisbench {command}: error: {message}\n")


@pytest.mark.parametrize("command", ["gen", "bench"])
@pytest.mark.parametrize("text, place", [
    ('{"seed": 1,}', "line 1 column 12: Expecting property name enclosed in double quotes"),
    ('{\r\n  "seed": 1\r\n  "n_dists": 2\r\n}\r\n', "line 3 column 3: Expecting ',' delimiter"),
    ("", "line 1 column 1: Expecting value"),
], ids=["trailing-comma", "crlf-missing-comma", "empty"])
def test_config_that_is_not_json_names_its_path(tmp_path, capsys, command, text, place):
    # was "Expecting property name enclosed in double quotes: line 1 column 12 (char 11)", naming no file
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(text.encode())
    write_dists_csv(tmp_path / "d.csv", sample_uniform(3, 3))
    flags = {"gen": ["--out", str(tmp_path / "g.csv")], "bench": ["--dists", str(tmp_path / "d.csv")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"\nuisbench {command}: error: {cfg}: {place}\n")


def _full_parser_main(argv):
    """The reference for ``main``: the full parser parses all of argv, then the command runs."""
    args = build_parser().parse_args(argv)
    return args.func(args, args.parser)


def _outcome(run, argv, capsys):
    """The exit code, stdout and stderr of ``run(argv)``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ORACLE_ARGS = ["--dists", "d.csv", "--e1", "0.5", "--e2", "0.25"]


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["ORACLE"],
    *([name, "-h"] for name in COMMANDS),
    *([name, "--help", "--bogus"] for name in COMMANDS),
    # a missing required flag, or a flag without its value where a command has no required flag
    ["gen", "--n"],
    ["bench"],
    ["oracle", "--dists", "d.csv", "--e1", "0.5"],
    ["report"],
    ["report", "--report"],
    # a bad type= value; report's flags have none
    ["gen", "--n", "x"],
    ["gen", "--seed", "1.5"],
    ["bench", "--dists", "d.csv", "--jobs", "x"],
    ["oracle", "--dists", "d.csv", "--e1", "x", "--e2", "0.5"],
    ["oracle", "--he"],
    ["oracle", *ORACLE_ARGS, "--bogus"],
    ["oracle", "--bogus", *ORACLE_ARGS],
    ["oracle", *ORACLE_ARGS, "extra"],
    ["oracle", "--bogus"],
    ["oracle", *ORACLE_ARGS, "--e1", "2", "--bogus"],
    ["report", "--report", "r.csv", "--json", "s.json", "--bogus=1"],
    ["gen", "--family", "zzz"],
    ["bench", "--models", "FOO"],
    ["bench", "--dists", "d.csv", "--grid", "0.5,a"],
    ["--", "oracle", *ORACLE_ARGS],
    ["oracle", "--", *ORACLE_ARGS],
    # commands that run, so their output and a usage error found after parsing are compared too
    ["oracle", *ORACLE_ARGS],
    ["oracle", "--di=d.csv", "--e1=0.5", "--e2", "-0.25"],
    ["gen", "--n", "2", "--out", "g.csv"],
    ["bench", "--dists", "d.csv", "--models", "LINR,WRST", "--out", "o"],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_messages_and_exit_code_those_of_the_full_parser(tmp_path, capsys, monkeypatch, argv):
    # every help, usage and error message of a command parsed alone is the one the full parser prints
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    write_dists_csv(tmp_path / "d.csv", sample_uniform(5, 3))
    capsys.readouterr()
    expected = _outcome(_full_parser_main, argv, capsys)
    assert _outcome(main, argv, capsys) == expected


def _no_such_file(path) -> str:
    return f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{path}'"


def _bad_report_header(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b\n")
    return ["report", "--report", "bad.csv"], (
        "error: bad.csv: bad header, expected dist_id,model,epsilon,eta,clamped,degenerate,converged,"
        "iterations,start_index,param0,param1,param2,param3,param4,param5,param6\n")


def _gen_into_missing_dir(tmp_path):
    return ["gen", "--n", "2", "--out", "missing/x.csv"], (
        f"error: cannot write missing/x.csv: {_no_such_file('missing/x.csv')}\n")


def _bench_report_is_a_dir(tmp_path):
    write_dists_csv(tmp_path / "d.csv", sample_uniform(3, 2))
    (tmp_path / "o" / "report.csv").mkdir(parents=True)
    cfg = write_cfg(tmp_path, {"models": ["LINR", "WRST"]})
    return ["bench", "--dists", "d.csv", "--out", "o", "--config", cfg], (
        f"error: cannot write o/report.csv: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'o/report.csv'\n")


def _oracle_missing_dists(tmp_path):
    return ["oracle", "--dists", "missing.csv", "--e1", "0.5", "--e2", "0.5"], f"error: {_no_such_file('missing.csv')}\n"


def _oracle_short_row(tmp_path):
    write_dists_csv(tmp_path / "d.csv", [JointDist([0.125] * 8)])
    text = (tmp_path / "d.csv").read_text()
    (tmp_path / "short.csv").write_text(text[: text.rindex(",")] + "\n")
    return ["oracle", "--dists", "short.csv", "--e1", "0.5", "--e2", "0.5"], (
        "error: short.csv: row 0: expected 9 columns, got 8\n")


@pytest.mark.parametrize(
    "case", [_bad_report_header, _gen_into_missing_dir, _bench_report_is_a_dir, _oracle_missing_dists, _oracle_short_row],
    ids=["report-bad-header", "gen-out-in-missing-dir", "bench-report-is-a-dir", "oracle-missing-dists",
         "oracle-row-of-8"],
)
def test_runtime_error_named_with_exit_1(tmp_path, capsys, monkeypatch, case):
    # each an error the command catches and prints as one line, with no traceback and no stdout
    monkeypatch.chdir(tmp_path)
    args, message = case(tmp_path)
    capsys.readouterr()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""
