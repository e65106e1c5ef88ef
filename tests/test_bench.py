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

from conftest import assert_full_budget_calls, reference_lm

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

    def test_requires_dists(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_bench([])

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

    def test_uneven_chunks_jobs_invariant(self):
        # 11 distributions: chunks of 8+3, 6+5 and 4+4+3 for jobs 1, 2 and 3
        dists = sample_uniform(70, 6) + sample_cond_indep(71, 5)
        serial = run_bench(dists, settings=FAST, seed=6)
        assert [r.dist_id for r in serial] == list(range(11))
        assert all(r.error is None for r in serial)
        for jobs in (2, 3):
            assert run_bench(dists, settings=FAST, seed=6, jobs=jobs) == serial

    def test_prsp_steps_once_per_chunk(self, monkeypatch):
        import uisbench.bench as bench
        import uisbench.optim as optim

        batches = []  # per PRSP batch, (rows, with Jacobian) of each _predict_rows call
        lm_args = []  # per PRSP batch, the arguments of its _lm call

        def batched(kind, *args):
            if kind is ModelKind.PRSP:
                batches.append([])
            return fit_batch(kind, *args)

        def counted(kind, values, *args, **kwargs):
            if kind is ModelKind.PRSP:
                batches[-1].append((len(values), kwargs.get("jacobian", False)))
            return _predict_rows(kind, values, *args, **kwargs)

        def recorded(residuals, x0, settings, **kwargs):
            if kwargs.get("full_budget"):  # PRSP's batch
                lm_args.append((residuals, x0, settings, kwargs))
            return _lm(residuals, x0, settings, **kwargs)

        monkeypatch.setattr(bench, "fit_batch", batched)
        monkeypatch.setattr(optim, "_predict_rows", counted)
        monkeypatch.setattr(optim, "_lm", recorded)
        run_bench(sample_uniform(72, 14), settings=FAST, seed=1)
        seen = [list(calls) for calls in batches]  # before the reference adds its own calls
        starts = 2 + FAST.n_starts + 16  # warm and constant start, seeded and kink starts
        sizes = [min(_BATCH_DISTS, 14 - lo) for lo in range(0, 14, _BATCH_DISTS)]
        # one batch per chunk, whose residuals take the full step budget at its full size
        assert len(seen) == len(lm_args) == len(sizes)
        for calls, n, (residuals, x0, settings, kwargs) in zip(seen, sizes, lm_args):
            n_accepted = reference_lm(residuals, x0, settings, **kwargs)[4]
            assert_full_budget_calls(calls, n * starts, FAST.max_iters, n_accepted)

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
