import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uisbench.bench import (
    _BATCH_DISTS,
    DEFAULT_MODELS,
    REPORT_CSV_COLUMNS,
    _bench_chunk,
    _prsp_warm_start,
    DistReport,
    EtaScore,
    SummaryRow,
    eta,
    format_summary_table,
    read_report_csv,
    run_bench,
    summarize,
    write_report_csv,
    write_summary_json,
)
from uisbench.cli import main
from uisbench.dist import JointDist, sample_cond_indep, sample_uniform
from uisbench.models import ModelKind, ModelParams, _predict_rows
from uisbench.optim import FitResult, _lm, _polish, fit_batch
from uisbench.oracle import DEFAULT_GRID, EvidenceGrid

from conftest import assert_batch_calls, assert_polish_calls, counting

UNIFORM = JointDist([0.125] * 8)
ALL_KINDS = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP, ModelKind.PWR, ModelKind.BST)


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

    def test_worse_than_linr_never_scores_above_zero(self):
        # rounding can leave LINR's ε above WRST's, though LINR nests WRST; a positive denominator gave +1
        s = eta(0.2, math.nextafter(0.1, 1), 0.1)
        assert (s.value, s.clamped) == (-1.0, True)

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

    def test_bad_seed_or_jobs_refused_before_the_oracle_batch(self, monkeypatch):
        # seed 1.5 and True ran as seed 1, -1 raised numpy's error naming no argument, and jobs 0 and -3 ran serially
        import uisbench.bench as bench

        dists = sample_uniform(58, 2)
        serial = run_bench(dists, seed=3)
        assert run_bench(dists, seed=np.uint64(3), jobs=np.int64(1)) == serial  # numpy's integers are integers

        def no_batch(*args, **kwargs):
            raise AssertionError("the oracle batch ran")

        monkeypatch.setattr(bench, "_batch_answers", no_batch)
        for bad in (1.5, True, -1, np.int64(-1), "1", None):
            with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {re.escape(repr(bad))}$"):
                run_bench(dists, seed=bad)
        for bad in (0, -3, True, np.int64(0), 2.0, "2", None):
            with pytest.raises(ValueError, match=rf"^jobs must be a positive integer, got {re.escape(repr(bad))}$"):
                run_bench(dists, jobs=bad)

    def test_plain_string_kinds_refused_before_the_oracle_batch(self, monkeypatch):
        # ModelKind is a str enum: the strings passed the checks and died in fit_batch with an AttributeError
        import uisbench.bench as bench

        def no_batch(*args, **kwargs):
            raise AssertionError("the oracle batch ran")

        monkeypatch.setattr(bench, "_batch_answers", no_batch)
        for kinds, name in ((("LINR", "WRST", "PRSP"), "'LINR'"), ((ModelKind.LINR, ModelKind.WRST, "PRSP"), "'PRSP'")):
            with pytest.raises(ValueError, match=f"^model {name} is not a ModelKind; valid models: LINR,INDP,"):
                run_bench(sample_uniform(60, 1), kinds=kinds)

    def test_pwr_rejects_hard_evidence_levels(self):
        d = sample_uniform(59, 2)
        for levels, hard in (((0.0, 0.5), 0.0), ((0.5, 1.0), 1.0)):
            with pytest.raises(ValueError, match=f"grid level {hard} cannot be used with PWR"):
                run_bench(d, grid=EvidenceGrid(levels))
        no_pwr = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP)
        reports = run_bench(d, kinds=no_pwr, grid=EvidenceGrid((0.0, 0.5, 1.0)))
        assert all(r.error is None for r in reports)

    def test_uniform_prior_is_degenerate(self):
        reports = run_bench([UNIFORM], kinds=(ModelKind.LINR, ModelKind.WRST))
        assert len(reports) == 1
        r = reports[0]
        assert r.error is None
        assert r.degenerate
        assert all(e.degenerate for e in r.etas)
        with pytest.raises(ValueError, match="non-degenerate"):
            summarize(reports)

    def test_anchor_models_score_exactly(self):
        reports = run_bench(sample_uniform(61, 3), kinds=ALL_KINDS, seed=2)
        for r in reports:
            assert r.error is None and not r.degenerate
            by_kind = {s.kind: (s, e) for s, e in zip(r.scores, r.etas)}
            assert by_kind[ModelKind.BST][1].value == 1.0
            assert by_kind[ModelKind.BST][0].epsilon == 0.0
            assert by_kind[ModelKind.WRST][1].value == -1.0
            assert by_kind[ModelKind.LINR][1].value == 0.0

    def test_deterministic_and_jobs_invariant(self):
        dists = sample_uniform(62, 3)
        a = run_bench(dists, seed=5)
        b = run_bench(dists, seed=5)
        c = run_bench(dists, seed=5, jobs=2)
        assert a == b == c

    def test_failed_distribution_recorded_not_fatal(self):
        bad = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # P(E1)=0: grid evidence infeasible
        dists = [bad] + sample_uniform(63, 2)
        reports = run_bench(dists, seed=1)
        assert reports[0].error is not None
        assert "E1" in reports[0].error
        assert reports[1].error is None and reports[2].error is None
        rows = summarize(reports)
        assert rows[0].n_included == 2

    def test_reports_ordered_by_dist_id(self):
        reports = run_bench(sample_uniform(64, 4), jobs=2)
        assert [r.dist_id for r in reports] == [0, 1, 2, 3]

    def uneven_dists(self):
        return sample_uniform(70, 6) + sample_cond_indep(71, 5)

    def test_uneven_chunks_jobs_invariant(self, monkeypatch):
        # 11 distributions: one chunk of 11 for jobs 1, and chunks of 6+5 and 4+4+3 for jobs 2 and 3
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # so jobs 3 is not capped on a smaller host
        dists = self.uneven_dists()
        serial = run_bench(dists, seed=6)
        assert [r.dist_id for r in serial] == list(range(11))
        assert all(r.error is None for r in serial)
        for jobs in (2, 3):
            assert run_bench(dists, seed=6, jobs=jobs) == serial

    def test_serial_chunks_match_one_chunk(self, monkeypatch):
        import uisbench.bench as bench

        dists = self.uneven_dists()
        one_chunk = run_bench(dists, seed=6)
        monkeypatch.setattr(bench, "_BATCH_DISTS", 4)  # serial chunks of 4+4+3
        assert run_bench(dists, seed=6) == one_chunk

    @pytest.fixture
    def pool_workers(self, monkeypatch):
        """The workers each process pool is asked for; the pool maps in this process, so no worker starts."""
        import concurrent.futures

        workers = []

        class Serial:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Serial)
        return workers

    def test_workers_capped_at_the_chunks(self, monkeypatch, pool_workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        dists = sample_uniform(74, 3)
        serial = run_bench(dists, seed=2)
        assert run_bench(dists, seed=2, jobs=500) == serial  # 8 jobs, chunks of 1: three workers
        assert run_bench(dists, seed=2, jobs=2) == serial  # chunks of 2+1
        assert run_bench(dists[:1], seed=2, jobs=4) == serial[:1]  # one chunk: no pool
        assert pool_workers == [3, 2]

    def test_jobs_capped_at_the_cpus(self, monkeypatch, pool_workers):
        # --jobs 1000 on 109 distributions started 109 workers at once
        dists = sample_uniform(74, 3)
        serial = run_bench(dists, seed=2)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_bench(dists, seed=2, jobs=1000) == serial  # 2 jobs: chunks of 2+1
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # an unknown count: one chunk, no pool
        assert run_bench(dists, seed=2, jobs=1000) == serial
        assert pool_workers == [2]

    def test_prsp_steps_once_per_chunk(self, monkeypatch):
        import uisbench.bench as bench
        import uisbench.optim as optim

        events = []  # fit_batch calls, and the _predict_rows calls and Jacobian completions within them
        lm_args = []  # per PRSP batch, the arguments of its _lm call
        polish_iters = []  # per PRSP polish, its steps

        def batched(kind, *args):
            events.append((kind, "fit_batch", 0))
            return fit_batch(kind, *args)

        def recorded(model, x0, c, max_iters):
            if x0.shape[1] == 7:  # PRSP's batch
                lm_args.append((model, x0, c, max_iters))
            return _lm(model, x0, c, max_iters)

        def recorded_polish(model, x0, *args):
            if x0.shape[1] != 7:  # PWR's polish
                return _polish(model, x0, *args)
            events.append((ModelKind.PRSP, "polish", 0))
            out = _polish(model, x0, *args)
            polish_iters.append(out[2])
            return out

        monkeypatch.setattr(bench, "fit_batch", batched)
        monkeypatch.setattr(optim, "_predict_rows", counting(_predict_rows, events))
        monkeypatch.setattr(optim, "_lm", recorded)
        monkeypatch.setattr(optim, "_polish", recorded_polish)
        starts = 2 + optim._N_STARTS + 16  # warm and constant start, seeded and kink starts
        for chunk, sizes in ((_BATCH_DISTS, [14]), (8, [8, 6])):  # the whole run is one chunk by default
            monkeypatch.setattr(bench, "_BATCH_DISTS", chunk)
            events.clear()
            lm_args.clear()
            polish_iters.clear()
            run_bench(sample_uniform(72, 14), seed=1)
            batches = []  # per PRSP batch, (event, rows) of the search's evaluations, then of the polish's
            for kind, event, rows in list(events):  # before the reference adds its own events
                if kind is ModelKind.PRSP:
                    if event in ("fit_batch", "polish"):
                        batches.append([])
                    else:
                        batches[-1].append((event, rows))
            # one search and one polish per chunk, each evaluating its rows not yet stopped once per step
            assert len(batches) == 2 * len(lm_args) == 2 * len(polish_iters) == 2 * len(sizes)
            for calls, polish_calls, n, (model, x0, c, max_iters), iters in zip(
                    batches[::2], batches[1::2], sizes, lm_args, polish_iters):
                assert len(x0) == n * starts
                assert_batch_calls(calls, model, x0, c, max_iters)
                assert_polish_calls(polish_calls, n, iters)

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
        infeasible = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # fails in its chunk's batch, and is not redone
        run_bench(sample_uniform(76, 5) + [infeasible], kinds=ALL_KINDS, seed=1)
        assert calls == ["_batch_answers", *ALL_KINDS, "_batch_answers", *ALL_KINDS]

    def test_bst_rows_do_not_depend_on_where_bst_is_listed(self, tmp_path):
        # BST was skipped by the chunk's fit loop and spliced back in by hand
        bad = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])
        dists = sample_uniform(77, 2) + [bad] + sample_uniform(78, 1)
        others = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PWR)
        without = run_bench(dists, kinds=others, seed=3)
        bst = FitResult(ModelParams(ModelKind.BST, ()), 0.0, 0, True, 0)
        for pos in (0, 2, len(others)):
            kinds = others[:pos] + (ModelKind.BST,) + others[pos:]
            reports = run_bench(dists, kinds=kinds, seed=3)
            assert reports[2] == without[2] and reports[2].error is not None
            for r, w in zip(reports[:2] + reports[3:], without[:2] + without[3:]):
                assert r.scores[pos] == bst and r.etas[pos] == EtaScore(1.0)
                assert r.scores[:pos] + r.scores[pos + 1 :] == w.scores
            path = tmp_path / f"report{pos}.csv"
            write_report_csv(path, reports)
            bst_rows = [line for line in path.read_text().splitlines() if ",BST," in line]
            assert bst_rows == [f"{i},BST,0,1,false,false,true,0,0" + "," * 7 for i in (0, 1, 3)]

    def test_failure_mid_chunk_leaves_the_others_alone(self):
        good = sample_uniform(73, 7)
        bad = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])  # P(E1)=0: the oracle raises
        with_bad = run_bench(good[:3] + [bad] + good[4:], seed=8)
        without = run_bench(good, seed=8)
        assert with_bad[3].error == "InfeasibleEvidenceError: target P(E1)=0.001 unreachable: P(E1) is 0 on the current support"
        assert with_bad[:3] + with_bad[4:] == without[:3] + without[4:]

    def test_prsp_warm_start_fallback_shares_a_chunk(self):
        # P(C) = 0 and, with C swapped, P(C) = 1: the oracle answers both, but true_params_prsp
        # refuses them, so their PRSP rows start cold in the batch of the warm-started rows
        no_c = JointDist([0.1, 0, 0.2, 0, 0.3, 0, 0.4, 0])
        all_c = JointDist(no_c.atoms.reshape(4, 2)[:, ::-1].reshape(8))
        dists = sample_uniform(79, 3) + [no_c, all_c]
        assert [_prsp_warm_start(d) is None for d in dists] == [False] * 3 + [True] * 2
        reports = run_bench(dists, seed=4)
        assert all(r.error is None for r in reports)
        assert [r.degenerate for r in reports] == [False] * 3 + [True] * 2
        for i, d in enumerate(dists):
            # the same distribution in a chunk of its own, under its own id and so its own seed
            alone = _bench_chunk([d], i, DEFAULT_MODELS, DEFAULT_GRID, 4)[0]
            assert _fit_bits(reports[i]) == _fit_bits(alone), i


def _fit_bits(report: DistReport) -> list[tuple]:
    """Each fit of ``report`` with its floats as hex, so -0.0 and 0.0 differ."""
    return [(s.kind, [v.hex() for v in s.params.values], s.epsilon.hex(), s.iterations, s.converged, s.start_index)
            for s in report.scores]


LINR_FIT = FitResult(ModelParams(ModelKind.LINR, (0.1, 0.2, 0.3)), 0.1, 0, True, 0)
WRST_FIT = FitResult(ModelParams(ModelKind.WRST, (0.5,)), 0.2, 0, True, 0)


def _indp_fit(target_eta, converged=True):
    """An INDP fit whose ε gives ``target_eta`` against ``LINR_FIT`` and ``WRST_FIT``, to rounding.

    On either side of LINR, eta = 1 - ε / 0.1, so ε = 0.1 (1 - eta).
    """
    return FitResult(ModelParams(ModelKind.INDP, (0.5,) * 4), 0.1 * (1.0 - target_eta), 0, converged, 0)


def _handmade_reports(etas):
    """One report per η, listing an INDP fit with that η first (so it is the summary's first row), then LINR and WRST."""
    return [DistReport(i, (_indp_fit(v), LINR_FIT, WRST_FIT)) for i, v in enumerate(etas)]


def _three_model_report_csv(tmp_path):
    """report.csv of three distributions, each listing LINR, WRST and INDP in that order."""
    reports = [DistReport(i, (LINR_FIT, WRST_FIT, _indp_fit(0.5 + 0.1 * i))) for i in range(3)]
    path = tmp_path / "report.csv"
    write_report_csv(path, reports)
    return path


class TestSummarize:
    def test_constant_etas_give_inf_ratio(self):
        row = summarize(_handmade_reports([1.0, 1.0, 1.0]))[0]
        assert row.mu == 1.0
        assert row.sigma == 0.0
        assert math.isinf(row.mu_over_sigma) and row.mu_over_sigma > 0

    def test_linr_ratio_is_zero_and_the_other_anchors_keep_their_sign(self):
        # LINR's eta is 0 on every distribution, and its 0/0 read +inf
        bst = FitResult(ModelParams(ModelKind.BST, ()), 0.0, 0, True, 0)
        reports = [DistReport(i, (LINR_FIT, WRST_FIT, bst, _indp_fit(v))) for i, v in enumerate((0.5, -0.5))]
        rows = summarize(reports)
        assert [(r.kind, r.mu, r.sigma, r.mu_over_sigma) for r in rows[:3]] == [
            (ModelKind.LINR, 0.0, 0.0, 0.0),
            (ModelKind.WRST, -1.0, 0.0, -math.inf),
            (ModelKind.BST, 1.0, 0.0, math.inf),
        ]
        assert math.copysign(1.0, rows[0].mu_over_sigma) == 1.0

    def test_hand_arithmetic(self):
        row = summarize(_handmade_reports([0.5, -0.5]))[0]
        assert row.mu == pytest.approx(0.0, abs=1e-15)
        assert row.sigma == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert row.mu_over_sigma == pytest.approx(0.0, abs=1e-15)

    def test_needs_two_reports(self):
        with pytest.raises(ValueError, match="at least 2"):
            summarize(_handmade_reports([0.5]))

    def test_column_count_matches_models(self):
        reports = run_bench(sample_uniform(65, 2), kinds=ALL_KINDS)
        assert len(summarize(reports)) == len(ALL_KINDS)

    def test_permutation_invariant(self):
        reports = _handmade_reports([0.9, -0.3, 0.2, 0.7, -0.8, 0.1])
        a = summarize(reports)
        b = summarize(list(reversed(reports)))
        assert a == b

    def test_degenerate_reports_excluded(self):
        good = _handmade_reports([0.5, -0.5, 0.25])
        degenerate = DistReport(99, (_indp_fit(1.0), replace(LINR_FIT, epsilon=1e-14), WRST_FIT))
        assert degenerate.degenerate and degenerate.etas[0] == EtaScore(0.0, degenerate=True)
        rows = summarize(good + [degenerate])
        assert rows[0].n_included == 3
        assert rows[0].n_degenerate == 1
        assert rows[0].mu == summarize(good)[0].mu

    def test_models_in_another_order_named(self):
        # fits were paired by position: here LINR's mu read 0.167 and WRST's -0.667, not 0 and -1
        reports = [DistReport(0, (LINR_FIT, WRST_FIT, _indp_fit(0.5))),
                   DistReport(1, (_indp_fit(0.25), LINR_FIT, WRST_FIT)),
                   DistReport(2, (LINR_FIT, WRST_FIT, _indp_fit(-0.5)))]
        with pytest.raises(ValueError) as exc:
            summarize(reports)
        assert str(exc.value) == "dist 1 lists models INDP,LINR,WRST, but dist 0 lists LINR,WRST,INDP"
        other = DistReport(7, (LINR_FIT, WRST_FIT))  # one model fewer
        with pytest.raises(ValueError, match="^dist 7 lists models LINR,WRST, but dist 0 lists LINR,WRST,INDP$"):
            summarize([reports[0], reports[2], other])
        failed = DistReport(8, (), error="InfeasibleEvidenceError: ...")
        degenerate = DistReport(9, (replace(LINR_FIT, epsilon=1e-14), WRST_FIT))
        assert summarize([reports[0], reports[2], failed, degenerate])[0].n_included == 2  # not included

    def test_converged_counted_over_included(self):
        reports = _handmade_reports([0.5, -0.5, 0.25, 0.1])
        reports[1] = DistReport(1, (_indp_fit(-0.5, converged=False), LINR_FIT, WRST_FIT))
        degenerate = DistReport(9, (_indp_fit(1.0), replace(LINR_FIT, epsilon=1e-14), WRST_FIT))
        failed = DistReport(10, (), error="RuntimeError: no finite start")
        assert summarize(reports + [degenerate, failed])[0].n_converged == 3


class TestArtifacts:
    def test_report_csv_roundtrip(self, tmp_path):
        reports = run_bench(sample_uniform(66, 3), kinds=ALL_KINDS, seed=4)
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        back = read_report_csv(path)
        assert summarize(back) == summarize(reports)
        assert back == reports
        assert any(s.iterations > 0 and s.start_index > 0 for r in back for s in r.scores)

    def test_report_csv_prsp_conditionals_on_the_bounds_roundtrip(self, tmp_path):
        prsp = ModelParams(ModelKind.PRSP, (0.4, 0.3, 1.0, 0.0, 0.6, 0.0, 0.9))
        reports = [DistReport(0, (LINR_FIT, WRST_FIT, FitResult(prsp, 0.05, 500, False, 7)))]
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        assert path.read_text().splitlines()[-1].endswith(",0.40000000000000002,0.29999999999999999,1,0,"
                                                          "0.59999999999999998,0,0.90000000000000002")
        assert read_report_csv(path) == reports

    def test_report_csv_header_and_shape(self, tmp_path):
        reports = run_bench(sample_uniform(67, 2))
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
        bad = JointDist([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])
        reports = run_bench([bad] + sample_uniform(68, 2))
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

    def test_undecodable_byte_names_file_and_row(self, tmp_path):
        # was "'utf-8' codec can't decode byte 0xff in position ...", naming neither
        path = _three_model_report_csv(tmp_path)
        data = path.read_bytes().replace(b"\n1,WRST,", b"\n1,WRST,\xff")
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            read_report_csv(path)
        offset = data.index(b"\xff")
        assert str(exc.value) == f"{path}: row 4: byte 0xff at offset {offset} is not UTF-8 (invalid start byte)"

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_faulty_row_before_an_undecodable_one_named(self, tmp_path, capsys, line_end):
        # named row 5's byte, read in the same decoded chunk as row 1 or the header
        reports = [DistReport(i, (LINR_FIT, WRST_FIT, _indp_fit(0.5 + 0.1 * i))) for i in range(4)]
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        lines = path.read_bytes().splitlines()
        lines[1 + 1] = lines[1 + 1].replace(b",WRST,", b",xWRST,")
        lines[1 + 5] = b"\xff" + lines[1 + 5]
        models = "LINR,INDP,PRSP,PWR,WRST,BST"
        for edit, message in (
            (lambda data: data, f"row 1: model: unknown model 'xWRST'; valid models: {models}"),
            (lambda data: data.replace(b"dist_id", b"dist"), "bad header, expected " + ",".join(REPORT_CSV_COLUMNS)),
        ):
            path.write_bytes(edit(line_end.join(lines) + line_end))
            with pytest.raises(ValueError) as exc:
                read_report_csv(path)
            assert str(exc.value) == f"{path}: {message}"
            assert main(["report", "--report", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {path}: {message}\n"

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

    @pytest.mark.parametrize(
        "row_no, column, text, message",
        [
            (8, 3, "0.75", "row 8: eta is 0.75, but the epsilons of dist 2 give 0.7000000000000001"),
            (8, 4, "true", "row 8: clamped is true, but the epsilons of dist 2 give false"),
            (8, 5, "true", "row 8: degenerate is true, but the epsilons of dist 2 give false"),
            (8, 2, "0.025", "row 8: eta is 0.7000000000000001, but the epsilons of dist 2 give 0.7500000000000001"),
            # LINR's own eta stays 0, and WRST's -1: the INDP row's is the one that moves
            (6, 2, "0.125", "row 8: eta is 0.7000000000000001, but the epsilons of dist 2 give 0.76"),
        ],
        ids=["eta", "clamped", "degenerate", "own-epsilon", "linr-epsilon"],
    )
    def test_eta_not_from_epsilon_named(self, tmp_path, capsys, row_no, column, text, message):
        # eta, clamped and degenerate were read as written, and nothing checked them against epsilon
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        row = lines[1 + row_no].split(",")
        row[column] = text
        lines[1 + row_no] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            read_report_csv(path)
        assert str(exc.value) == f"{path}: {message}"
        assert main(["report", "--report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("kind, line_nos", [(ModelKind.LINR, (1, 4, 7)), (ModelKind.WRST, (2, 5, 8))])
    def test_distribution_without_linr_or_wrst_named(self, tmp_path, capsys, kind, line_nos):
        # every distribution lacks the row, so their model lists agree
        path = _three_model_report_csv(tmp_path)
        lines = [line for i, line in enumerate(path.read_text().splitlines()) if i not in line_nos]
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: dist 0: kinds must include {kind.value}; eta is defined relative to it"
        with pytest.raises(ValueError) as exc:
            read_report_csv(path)
        assert str(exc.value) == message
        assert main(["report", "--report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "scores, message",
        [
            ((WRST_FIT, _indp_fit(0.5)), "dist 3: kinds must include LINR; eta is defined relative to it"),
            ((LINR_FIT, _indp_fit(0.5)), "dist 3: kinds must include WRST; eta is defined relative to it"),
            ((LINR_FIT, WRST_FIT, _indp_fit(0.5), _indp_fit(0.2)), "dist 3: model INDP is listed more than once"),
            ((LINR_FIT, WRST_FIT, LINR_FIT), "dist 3: model LINR is listed more than once"),
        ],
        ids=["no-linr", "no-wrst", "indp-twice", "linr-twice"],
    )
    def test_report_without_linr_or_wrst_or_with_a_model_twice_named(self, scores, message):
        # a missing LINR raised a bare KeyError, and a model listed twice was accepted
        with pytest.raises(ValueError) as exc:
            DistReport(3, scores)
        assert str(exc.value) == message
        # the same rule and words as run_bench's check of its arguments
        with pytest.raises(ValueError) as bench_exc:
            run_bench(sample_uniform(60, 1), kinds=tuple(s.kind for s in scores))
        assert f"dist 3: {bench_exc.value}" == message

    def test_model_listed_twice_rejected_by_report_command(self, tmp_path, capsys):
        # report exited 0, printed two INDP columns and wrote one INDP key to the JSON
        path = _three_model_report_csv(tmp_path)
        lines = path.read_text().splitlines()
        lines = [row for line in lines for row in ([line, line] if ",INDP," in line else [line])]
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: dist 0: model INDP is listed more than once"
        with pytest.raises(ValueError) as exc:
            read_report_csv(path)
        assert str(exc.value) == message
        assert main(["report", "--report", str(path), "--json", str(tmp_path / "summary.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "summary.json").exists()

    def test_failed_report_has_no_etas(self):
        failed = DistReport(4, (), error="InfeasibleEvidenceError: ...")
        assert failed.etas == () and not failed.degenerate

    @pytest.mark.parametrize("scores", [(_indp_fit(0.5),), (LINR_FIT, WRST_FIT)], ids=["no-anchors", "anchors"])
    def test_failed_report_with_fits_rejected(self, scores):
        # the first raised a bare KeyError; the second was accepted, and its fits were dropped from the artifacts
        with pytest.raises(ValueError) as exc:
            DistReport(3, scores, error="boom")
        assert str(exc.value) == "dist 3: failed with 'boom', but holds fits"

    def test_eta_computed_once_per_fit(self, tmp_path, monkeypatch):
        import uisbench.bench as bench

        calls = []

        def counted(*args):
            calls.append(args)
            return eta(*args)

        monkeypatch.setattr(bench, "eta", counted)
        reports = _handmade_reports([0.5, -0.5, 0.25])
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        summarize(reports)
        assert len(calls) == 9  # three reports of three fits
        summarize(read_report_csv(path))
        assert len(calls) == 18

    def test_summary_json_schema_and_sentinel(self, tmp_path):
        rows = summarize(_handmade_reports([1.0, 1.0]))
        path = tmp_path / "summary.json"
        write_summary_json(path, rows)
        data = json.loads(path.read_text())
        assert data["INDP"]["mu_over_sigma"] == "+inf"
        assert set(data["INDP"]) == {"mu", "sigma", "mu_over_sigma", "n_included", "n_degenerate", "n_converged"}

    def test_summary_json_bytes(self, tmp_path):
        # keys in SummaryRow's order after kind, and an infinite ratio spelled with its sign
        rows = (
            SummaryRow(ModelKind.WRST, -1.0, 0.0, -math.inf, 3, 1, 2),
            SummaryRow(ModelKind.BST, 1.0, 0.0, math.inf, 3, 1, 3),
            SummaryRow(ModelKind.PRSP, 0.125, 0.5, 0.25, 3, 1, 0),
        )
        path = tmp_path / "summary.json"
        write_summary_json(path, rows)
        body = ",\n".join(
            f'  "{name}": {{\n    "mu": {mu},\n    "sigma": {sigma},\n    "mu_over_sigma": {ratio},\n'
            f'    "n_included": 3,\n    "n_degenerate": 1,\n    "n_converged": {conv}\n  }}'
            for name, mu, sigma, ratio, conv in (("WRST", "-1.0", "0.0", '"-inf"', 2), ("BST", "1.0", "0.0", '"+inf"', 3),
                                                 ("PRSP", "0.125", "0.5", "0.25", 0)))
        assert path.read_bytes() == ("{\n" + body + "\n}\n").encode()

    def test_format_summary_table(self):
        reports = run_bench(sample_uniform(69, 2))
        text = format_summary_table(summarize(reports))
        assert "LINR" in text and "mu" in text and "sigma" in text
        assert "n_included=2" in text

    def test_summary_table_keeps_wide_values_apart(self):
        # a near-zero sigma gives a mu/sigma wider than its column, next to a -inf
        rows = (
            SummaryRow(ModelKind.WRST, -1.0, 0.0, -math.inf, 3, 0, 3),
            SummaryRow(ModelKind.PRSP, 0.37, 1e-15, 370037376181768.12, 3, 0, 3),
        )
        lines = format_summary_table(rows).splitlines()
        assert lines[3].split() == ["mu/sigma", "-inf", "370037376181768.12"]
        assert lines[0].split() == ["WRST", "PRSP"]
