import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uisbench.bench import (
    _BATCH_DISTS,
    DistReport,
    EtaScore,
    ModelScore,
    SummaryRow,
    SummaryTable,
    eta,
    format_summary_table,
    read_report_csv,
    run_bench,
    summarize,
    write_report_csv,
    write_summary_json,
)
from uisbench.cli import main
from uisbench.dist import new_joint, sample_cond_indep, sample_uniform
from uisbench.models import ModelKind, ModelParams, _predict_rows
from uisbench.optim import OptimSettings, _lm, fit_batch
from uisbench.oracle import EvidenceGrid

from conftest import assert_batch_calls, counting

UNIFORM = new_joint([0.125] * 8)
ALL_KINDS = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP, ModelKind.PWR, ModelKind.BST)
FAST = OptimSettings(n_starts=2, max_iters=120)


class TestEta:
    def test_anchor_examples(self):
        assert eta(0.0, 0.1, 0.2).value == 1.0
        assert eta(0.1, 0.1, 0.2).value == 0.0
        assert eta(0.2, 0.1, 0.2).value == -1.0
        assert eta(0.05, 0.1, 0.2).value == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_flagged(self):
        s = eta(0.0, 1e-13, 0.2)
        assert s.degenerate
        assert s.value == 0.0

    def test_clamped_flagged(self):
        s = eta(1.0, 0.1, 0.15)
        assert s.clamped
        assert s.value == -1.0

    def test_tiny_denominator_floored(self):
        s = eta(0.2, 0.1, 0.1 + 1e-14)
        assert s.value == -1.0
        assert s.clamped

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="eps_x"):
            eta(-0.1, 0.1, 0.2)

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=1e-10, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=300)
    def test_always_in_range(self, eps_x, eps_linr, eps_wrst):
        s = eta(eps_x, eps_linr, eps_wrst)
        assert -1.0 <= s.value <= 1.0
        assert not s.degenerate
        if eps_x == 0.0:
            assert s.value == 1.0

    def test_value_range_enforced_by_type(self):
        with pytest.raises(ValueError):
            EtaScore(1.5)


class TestRunBench:
    def test_requires_linr_and_wrst(self):
        d = sample_uniform(60, 1)
        with pytest.raises(ValueError, match="LINR"):
            run_bench(d, kinds=(ModelKind.WRST, ModelKind.INDP))
        with pytest.raises(ValueError, match="WRST"):
            run_bench(d, kinds=(ModelKind.LINR, ModelKind.INDP))

    def test_model_listed_twice_rejected(self):
        kinds = (ModelKind.LINR, ModelKind.WRST, ModelKind.PWR, ModelKind.LINR)
        with pytest.raises(ValueError, match="model LINR is listed more than once"):
            run_bench(sample_uniform(60, 1), kinds=kinds)

    def test_requires_dists(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_bench([])

    def test_pwr_rejects_hard_evidence_levels(self):
        d = sample_uniform(59, 2)
        for levels, hard in (((0.0, 0.5), 0.0), ((0.5, 1.0), 1.0)):
            with pytest.raises(ValueError, match=f"grid level {hard} cannot be used with PWR"):
                run_bench(d, grid=EvidenceGrid(levels))
        no_pwr = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP)
        reports = run_bench(d, kinds=no_pwr, grid=EvidenceGrid((0.0, 0.5, 1.0)), settings=FAST)
        assert all(r.error is None for r in reports)

    def test_uniform_prior_is_degenerate(self):
        reports = run_bench([UNIFORM], kinds=(ModelKind.LINR, ModelKind.WRST), settings=FAST)
        assert len(reports) == 1
        r = reports[0]
        assert r.error is None
        assert r.degenerate
        assert all(s.eta.degenerate for s in r.scores)
        with pytest.raises(ValueError, match="non-degenerate"):
            summarize(reports)

    def test_anchor_models_score_exactly(self):
        reports = run_bench(sample_uniform(61, 3), kinds=ALL_KINDS, settings=FAST, seed=2)
        for r in reports:
            assert r.error is None and not r.degenerate
            by_kind = {s.kind: s for s in r.scores}
            assert by_kind[ModelKind.BST].eta.value == 1.0
            assert by_kind[ModelKind.BST].epsilon == 0.0
            assert by_kind[ModelKind.WRST].eta.value == -1.0
            assert by_kind[ModelKind.LINR].eta.value == 0.0

    def test_deterministic_and_jobs_invariant(self):
        dists = sample_uniform(62, 3)
        a = run_bench(dists, settings=FAST, seed=5)
        b = run_bench(dists, settings=FAST, seed=5)
        c = run_bench(dists, settings=FAST, seed=5, jobs=2)
        assert a == b == c

    def test_failed_distribution_recorded_not_fatal(self):
        bad = new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # P(E1)=0: grid evidence infeasible
        dists = [bad] + sample_uniform(63, 2)
        reports = run_bench(dists, settings=FAST, seed=1)
        assert reports[0].error is not None
        assert "E1" in reports[0].error
        assert reports[1].error is None and reports[2].error is None
        table = summarize(reports)
        assert table.rows[0].n_included == 2

    def test_reports_ordered_by_dist_id(self):
        reports = run_bench(sample_uniform(64, 4), settings=FAST, jobs=2)
        assert [r.dist_id for r in reports] == [0, 1, 2, 3]

    def uneven_dists(self):
        return sample_uniform(70, 6) + sample_cond_indep(71, 5)

    def test_uneven_chunks_jobs_invariant(self):
        # 11 distributions: one chunk of 11 for jobs 1, and chunks of 6+5 and 4+4+3 for jobs 2 and 3
        dists = self.uneven_dists()
        serial = run_bench(dists, settings=FAST, seed=6)
        assert [r.dist_id for r in serial] == list(range(11))
        assert all(r.error is None for r in serial)
        for jobs in (2, 3):
            assert run_bench(dists, settings=FAST, seed=6, jobs=jobs) == serial

    def test_serial_chunks_match_one_chunk(self, monkeypatch):
        import uisbench.bench as bench

        dists = self.uneven_dists()
        one_chunk = run_bench(dists, settings=FAST, seed=6)
        monkeypatch.setattr(bench, "_BATCH_DISTS", 4)  # serial chunks of 4+4+3
        assert run_bench(dists, settings=FAST, seed=6) == one_chunk

    def test_workers_capped_at_the_chunks(self, monkeypatch):
        import uisbench.bench as bench

        workers = []

        class Serial:
            """Records the requested workers and maps in this process, so no worker starts."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", Serial)
        dists = sample_uniform(74, 3)
        serial = run_bench(dists, settings=FAST, seed=2)
        assert run_bench(dists, settings=FAST, seed=2, jobs=500) == serial  # chunks of 1: three workers
        assert run_bench(dists, settings=FAST, seed=2, jobs=2) == serial  # chunks of 2+1
        assert run_bench(dists[:1], settings=FAST, seed=2, jobs=4) == serial[:1]  # one chunk: no pool
        assert workers == [3, 2]

    def test_prsp_steps_once_per_chunk(self, monkeypatch):
        import uisbench.bench as bench
        import uisbench.optim as optim

        events = []  # fit_batch calls, and the _predict_rows calls and Jacobian completions within them
        lm_args = []  # per PRSP batch, the arguments of its _lm call

        def batched(kind, *args):
            events.append((kind, "fit_batch", 0))
            return fit_batch(kind, *args)

        def recorded(model, x0, c, settings):
            if x0.shape[1] == 7:  # PRSP's batch
                lm_args.append((model, x0, c, settings))
            return _lm(model, x0, c, settings)

        monkeypatch.setattr(bench, "fit_batch", batched)
        monkeypatch.setattr(optim, "_predict_rows", counting(_predict_rows, events))
        monkeypatch.setattr(optim, "_lm", recorded)
        starts = 2 + FAST.n_starts + 16  # warm and constant start, seeded and kink starts
        for chunk, sizes in ((_BATCH_DISTS, [14]), (8, [8, 6])):  # the whole run is one chunk by default
            monkeypatch.setattr(bench, "_BATCH_DISTS", chunk)
            events.clear()
            lm_args.clear()
            run_bench(sample_uniform(72, 14), settings=FAST, seed=1)
            batches = []  # per PRSP batch, (event, rows) of its evaluations
            for kind, event, rows in list(events):  # before the reference adds its own events
                if kind is ModelKind.PRSP:
                    if event == "fit_batch":
                        batches.append([])
                    else:
                        batches[-1].append((event, rows))
            # one batch per chunk, which evaluates its rows not yet stopped once per step
            assert len(batches) == len(lm_args) == len(sizes)
            for calls, n, (model, x0, c, settings) in zip(batches, sizes, lm_args):
                assert len(x0) == n * starts
                assert_batch_calls(calls, model, x0, c, settings)

    def test_one_oracle_batch_and_one_fit_batch_per_model_per_chunk(self, monkeypatch):
        import uisbench.bench as bench

        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name if name != "fit_batch" else args[0])
                return original(*args, **kwargs)

            monkeypatch.setattr(bench, name, wrapper)

        for name in ("_batch_answers", "fit_batch", "fit", "standard_vector"):
            counted(name, getattr(bench, name))
        monkeypatch.setattr(bench, "_BATCH_DISTS", 4)
        infeasible = new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # fails in its chunk's batch, and is not redone
        run_bench(sample_uniform(76, 5) + [infeasible], kinds=ALL_KINDS, settings=FAST, seed=1)
        fitted = [k for k in ALL_KINDS if k is not ModelKind.BST]
        assert calls == ["_batch_answers"] + fitted + ["_batch_answers"] + fitted

    def test_failure_mid_chunk_leaves_the_others_alone(self):
        good = sample_uniform(73, 7)
        bad = new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # P(E1)=0: the oracle raises
        with_bad = run_bench(good[:3] + [bad] + good[4:], settings=FAST, seed=8)
        without = run_bench(good, settings=FAST, seed=8)
        assert with_bad[3].error == "InfeasibleEvidenceError: target P(E1)=0.001 unreachable: P(E1) is 0 on the current support"
        assert with_bad[:3] + with_bad[4:] == without[:3] + without[4:]


def _handmade_reports(etas, kind=ModelKind.INDP):
    reports = []
    for i, v in enumerate(etas):
        score = ModelScore(kind, 0.05, EtaScore(v), ModelParams(kind, (0.5, 0.5, 0.5, 0.5)), True)
        reports.append(DistReport(i, (score,), 0.1, 0.2))
    return reports


def _three_model_report_csv(tmp_path):
    """report.csv of three distributions, each listing LINR, WRST and INDP in that order."""
    reports = []
    for i in range(3):
        scores = (
            ModelScore(ModelKind.LINR, 0.1, EtaScore(0.0), ModelParams(ModelKind.LINR, (0.1, 0.2, 0.3)), True),
            ModelScore(ModelKind.WRST, 0.2, EtaScore(-1.0), ModelParams(ModelKind.WRST, (0.5,)), True),
            ModelScore(ModelKind.INDP, 0.05, EtaScore(0.5 + 0.1 * i), ModelParams(ModelKind.INDP, (0.5,) * 4), True),
        )
        reports.append(DistReport(i, scores, 0.1, 0.2))
    path = tmp_path / "report.csv"
    write_report_csv(path, reports)
    return path


class TestSummarize:
    def test_constant_etas_give_inf_ratio(self):
        table = summarize(_handmade_reports([1.0, 1.0, 1.0]))
        row = table.rows[0]
        assert row.mu == 1.0
        assert row.sigma == 0.0
        assert math.isinf(row.mu_over_sigma) and row.mu_over_sigma > 0

    def test_hand_arithmetic(self):
        table = summarize(_handmade_reports([0.5, -0.5]))
        row = table.rows[0]
        assert row.mu == pytest.approx(0.0, abs=1e-15)
        assert row.sigma == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert row.mu_over_sigma == pytest.approx(0.0, abs=1e-15)

    def test_needs_two_reports(self):
        with pytest.raises(ValueError, match="at least 2"):
            summarize(_handmade_reports([0.5]))

    def test_column_count_matches_models(self):
        reports = run_bench(sample_uniform(65, 2), kinds=ALL_KINDS, settings=FAST)
        assert len(summarize(reports).rows) == len(ALL_KINDS)

    def test_permutation_invariant(self):
        reports = _handmade_reports([0.9, -0.3, 0.2, 0.7, -0.8, 0.1])
        a = summarize(reports)
        b = summarize(list(reversed(reports)))
        assert a == b

    def test_degenerate_reports_excluded(self):
        good = _handmade_reports([0.5, -0.5, 0.25])
        degenerate = DistReport(
            99,
            (ModelScore(ModelKind.INDP, 0.0, EtaScore(0.0, degenerate=True), ModelParams(ModelKind.INDP, (0.5,) * 4), True),),
            1e-14,
            0.2,
        )
        table = summarize(good + [degenerate])
        assert table.rows[0].n_included == 3
        assert table.rows[0].n_degenerate == 1
        assert table.rows[0].mu == summarize(good).rows[0].mu

    def test_converged_counted_over_included(self):
        reports = _handmade_reports([0.5, -0.5, 0.25, 0.1])
        params = ModelParams(ModelKind.INDP, (0.5,) * 4)
        reports[1] = DistReport(1, (ModelScore(ModelKind.INDP, 0.05, EtaScore(-0.5), params, False),), 0.1, 0.2)
        degenerate = DistReport(
            9, (ModelScore(ModelKind.INDP, 0.0, EtaScore(0.0, degenerate=True), params, True),), 1e-14, 0.2
        )
        failed = DistReport(10, (), None, None, error="RuntimeError: no finite start")
        assert summarize(reports + [degenerate, failed]).rows[0].n_converged == 3


class TestArtifacts:
    def test_report_csv_roundtrip(self, tmp_path):
        reports = run_bench(sample_uniform(66, 3), kinds=ALL_KINDS, settings=FAST, seed=4)
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        back = read_report_csv(path)
        assert summarize(back) == summarize(reports)
        assert back == reports
        assert any(s.iterations > 0 and s.start_index > 0 for r in back for s in r.scores)

    def test_report_csv_prsp_conditionals_on_the_bounds_roundtrip(self, tmp_path):
        prsp = ModelParams(ModelKind.PRSP, (0.4, 0.3, 1.0, 0.0, 0.6, 0.0, 0.9))
        scores = (
            ModelScore(ModelKind.LINR, 0.1, EtaScore(0.0), ModelParams(ModelKind.LINR, (0.1, 0.2, 0.3)), True),
            ModelScore(ModelKind.WRST, 0.2, EtaScore(-1.0), ModelParams(ModelKind.WRST, (0.5,)), True),
            ModelScore(ModelKind.PRSP, 0.05, EtaScore(0.5), prsp, False, 500, 7),
        )
        reports = [DistReport(0, scores, 0.1, 0.2)]
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        assert path.read_text().splitlines()[-1].endswith(",0.40000000000000002,0.29999999999999999,1,0,"
                                                          "0.59999999999999998,0,0.90000000000000002")
        assert read_report_csv(path) == reports

    def test_report_csv_header_and_shape(self, tmp_path):
        reports = run_bench(sample_uniform(67, 2), settings=FAST)
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        lines = path.read_text().splitlines()
        assert lines[0] == "dist_id,model,epsilon,eta,clamped,degenerate,converged,iterations,start_index," + ",".join(
            f"param{i}" for i in range(7)
        )
        assert len(lines) == 1 + 2 * 5
        rows = {(row[0], row[1]): row for row in (line.split(",") for line in lines[1:])}
        for dist_id, report in enumerate(reports):
            for s in report.scores:
                row = rows[(str(dist_id), s.kind.value)]
                assert len(row) == 9 + 7
                assert row[7:9] == [str(s.iterations), str(s.start_index)]
                if s.kind in (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP):
                    assert row[7:9] == ["0", "0"]
                else:
                    assert int(row[7]) > 0

    def test_failed_reports_carry_no_rows(self, tmp_path):
        bad = new_joint([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])
        reports = run_bench([bad] + sample_uniform(68, 2), settings=FAST)
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        assert not any(line.startswith("0,") for line in path.read_text().splitlines()[1:])

    def test_reordered_model_rows_rejected(self, tmp_path):
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        lines[4], lines[6] = lines[6], lines[4]  # dist 1: LINR and INDP swap places
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="dist 1 lists models INDP,WRST,LINR, but dist 0 lists LINR,WRST,INDP"):
            read_report_csv(path)

    def test_gap_in_parameters_rejected(self, tmp_path):
        # an empty param0 before filled ones was skipped, shifting LINR's coefficients
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        assert row[1] == "LINR" and row[9:] == ["0.10000000000000001", "0.20000000000000001", "0.29999999999999999"] + [""] * 4
        row[9:13] = ["", "0.10000000000000001", "0.20000000000000001", "0.29999999999999999"]
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            read_report_csv(path)
        assert str(exc.value) == f"{path}: row 0: param0 is empty, but a later parameter is set"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: row.replace(",false,false,true,", ",false,false,True,"), "row 8: converged must be true or false, got 'True'"),
            (lambda row: row.replace(",false,false,true,", ",yes,false,true,"), "row 8: clamped must be true or false, got 'yes'"),
            (lambda row: row.replace(",false,false,true,", ",false,0,true,"), "row 8: degenerate must be true or false, got '0'"),
            (lambda row: row + ",", "row 8: expected 16 columns, got 17"),
            (lambda row: row + "\n", "row 9: expected 16 columns, got 0"),  # a trailing blank line
        ],
    )
    def test_malformed_row_named(self, tmp_path, capsys, edit, message):
        # a True flag was read as false, and a blank line failed with an IndexError
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        lines[-1] = edit(lines[-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            read_report_csv(path)
        assert str(exc.value) == f"{path}: {message}"
        assert main(["report", "--report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "column, text, message",
        [
            (0, "", "dist_id: invalid literal for int() with base 10: ''"),
            (1, "LINX", "model: unknown model 'LINX'; valid models: LINR,INDP,PRSP,PWR,WRST,BST"),
            (2, "", "epsilon: could not convert string to float: ''"),
            (3, "high", "eta: could not convert string to float: 'high'"),
            (7, "1.5", "iterations: invalid literal for int() with base 10: '1.5'"),
            (8, "first", "start_index: invalid literal for int() with base 10: 'first'"),
            (10, "0.2.1", "param1: could not convert string to float: '0.2.1'"),
        ],
    )
    def test_unparsable_number_names_its_field(self, tmp_path, column, text, message):
        # the message named the row alone: "row 0: could not convert string to float: ''", and an
        # unknown model read "row 0: 'LINX' is not a valid ModelKind"
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[column] = text
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            read_report_csv(path)
        assert str(exc.value) == f"{path}: row 0: {message}"

    @pytest.mark.parametrize(
        "column, text, message",
        [
            (2, "nan", "epsilon must be finite and non-negative, got nan"),
            (2, "inf", "epsilon must be finite and non-negative, got inf"),
            (2, "-0.5", "epsilon must be finite and non-negative, got -0.5"),
            (7, "-3", "iterations must be finite and non-negative, got -3"),
            (8, "-1", "start_index must be finite and non-negative, got -1"),
        ],
    )
    def test_impossible_error_or_count_named(self, tmp_path, capsys, column, text, message):
        # each was read, and report exited 0
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[column] = text
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: row 0: {message}\n"

    def test_missing_model_row_rejected_by_report_command(self, tmp_path, capsys):
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        del lines[5]  # dist 1's WRST row
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--report", str(path)]) == 1
        assert "dist 1 lists models LINR,INDP" in capsys.readouterr().err

    def test_summary_json_schema_and_sentinel(self, tmp_path):
        table = summarize(_handmade_reports([1.0, 1.0]))
        path = tmp_path / "summary.json"
        write_summary_json(path, table)
        data = json.loads(path.read_text())
        assert data["INDP"]["mu_over_sigma"] == "+inf"
        assert set(data["INDP"]) == {"mu", "sigma", "mu_over_sigma", "n_included", "n_degenerate", "n_converged"}

    def test_format_summary_table(self):
        reports = run_bench(sample_uniform(69, 2), settings=FAST)
        text = format_summary_table(summarize(reports))
        assert "LINR" in text and "mu" in text and "sigma" in text
        assert "n_included=2" in text

    def test_summary_table_keeps_wide_values_apart(self):
        # a near-zero sigma gives a mu/sigma wider than its column, next to a -inf
        rows = (
            SummaryRow(ModelKind.WRST, -1.0, 0.0, -math.inf, 3, 0, 3),
            SummaryRow(ModelKind.PRSP, 0.37, 1e-15, 370037376181768.12, 3, 0, 3),
        )
        lines = format_summary_table(SummaryTable(rows)).splitlines()
        assert lines[3].split() == ["mu/sigma", "-inf", "370037376181768.12"]
        assert lines[0].split() == ["WRST", "PRSP"]
