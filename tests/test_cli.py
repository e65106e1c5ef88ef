import json

import numpy as np
import pytest

from uisbench.cli import main
from uisbench.dist import CondIndepParams, expand, new_joint, read_dists_csv, write_dists_csv

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

    def test_infeasible_evidence_named(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        write_dists_csv(path, [new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])])
        assert main(["oracle", "--dists", str(path), "--e1", "0.5", "--e2", "0.5"]) == 1
        assert "E1" in capsys.readouterr().err

    def test_non_convergence_named_and_later_dists_answered(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        # P(E1=1, E2=1) = 0, so e1 = e2 = 0.75 is approached but never reached
        path.write_text("id,p000,p001,p010,p011,p100,p101,p110,p111\n"
                        "0,0.2,0.2,0.1,0.1,0.2,0.2,0,0\n"
                        "1,0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125\n")
        assert main(["oracle", "--dists", str(path), "--e1", "0.75", "--e2", "0.75"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["1 0.5"]
        assert captured.err.startswith("dist 0: ") and "residual" in captured.err
        assert "Traceback" not in captured.err


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

    def test_missing_report_is_error(self, tmp_path, capsys):
        assert main(["report", "--report", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err
