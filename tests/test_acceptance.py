"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The two 109-distribution runs use the default grid and
optimizer settings and are shared across criteria through module-scoped
fixtures.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from uisbench.bench import run_bench, summarize, write_report_csv, write_summary_json
from uisbench.cli import main
from uisbench.dist import JointDist, condition_c, marginal, sample_cond_indep, sample_uniform
from uisbench.models import ModelKind, predict, true_params_indp, true_params_prsp
from uisbench.optim import fit, objective
from uisbench.oracle import DEFAULT_GRID, EvidencePair, mce_update, standard_answer, standard_vector

import conftest
from conftest import sample_marginal_indep

BENCH_KINDS = (
    ModelKind.LINR,
    ModelKind.WRST,
    ModelKind.INDP,
    ModelKind.PRSP,
    ModelKind.PWR,
    ModelKind.BST,
)


def _criterion(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.acceptance_lines.append(line)
    print(f"\n[acceptance] {line}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def uniform_run():
    dists = sample_uniform(1987, 109)
    t0 = time.perf_counter()
    reports = run_bench(dists, kinds=BENCH_KINDS, seed=11)
    elapsed = time.perf_counter() - t0
    return dists, reports, elapsed


@pytest.fixture(scope="module")
def cond_indep_run():
    dists = sample_cond_indep(1986, 109)
    t0 = time.perf_counter()
    reports = run_bench(dists, kinds=BENCH_KINDS, seed=13)
    elapsed = time.perf_counter() - t0
    return dists, reports, elapsed


def _mean_eta(reports, kind):
    table = summarize(reports)
    return next(row.mu for row in table.rows if row.kind is kind)


def test_criterion_1_oracle_equals_conditioning_at_corners():
    t0 = time.perf_counter()
    worst = 0.0
    for d in sample_uniform(555, 200):
        for e1 in (0.0, 1.0):
            for e2 in (0.0, 1.0):
                diff = abs(standard_answer(d, EvidencePair(e1, e2)) - condition_c(d, e1 == 1.0, e2 == 1.0))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _criterion(1, ok, f"max |oracle - conditioning| = {worst:.2e} over 800 corners in {elapsed:.2f}s")


def test_criterion_2_ipf_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(556)
    levels = DEFAULT_GRID.levels
    worst_marginal = 0.0
    worst_order = 0.0
    cases = 0
    for d in sample_uniform(557, 200):
        for _ in range(5):
            ev = EvidencePair(levels[rng.integers(5)], levels[rng.integers(5)])
            post = mce_update(d, ev)
            worst_marginal = max(
                worst_marginal,
                abs(marginal(post, "E1") - ev.e1),
                abs(marginal(post, "E2") - ev.e2),
            )
            # the constraints in the other order: E1 and E2 swapped in the prior
            # and the targets, and the posterior swapped back
            swapped = mce_update(JointDist(d.atoms.reshape(2, 2, 2).swapaxes(0, 1).reshape(8)), EvidencePair(ev.e2, ev.e1))
            swapped_back = swapped.atoms.reshape(2, 2, 2).swapaxes(0, 1).reshape(8)
            worst_order = max(worst_order, float(np.max(np.abs(post.atoms - swapped_back))))
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 1000 and worst_marginal <= 1e-12 and worst_order < 1e-9 and elapsed < 10.0
    _criterion(
        2,
        ok,
        f"{cases} cases: max marginal residual {worst_marginal:.2e}, "
        f"max order disagreement {worst_order:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_indp_exactness_under_marginal_independence():
    t0 = time.perf_counter()
    worst_true = 0.0
    worst_fit = 0.0
    for d in sample_marginal_indep(558, 100):
        sv = standard_vector(d)
        params = true_params_indp(d)
        worst_true = max(worst_true, objective(params, sv))
        result = fit(ModelKind.INDP, sv, seed=21, warm_start=params)
        worst_fit = max(worst_fit, result.epsilon)
    elapsed = time.perf_counter() - t0
    ok = worst_true < 1e-8 and worst_fit <= 1e-6 and elapsed < 60.0
    _criterion(
        3,
        ok,
        f"objective at true params <= {worst_true:.2e}, fitted eps <= {worst_fit:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_prsp_corner_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for d in sample_cond_indep(559, 100):
        params = true_params_prsp(d)
        for e1 in (0.0, 1.0):
            for e2 in (0.0, 1.0):
                want = condition_c(d, e1 == 1.0, e2 == 1.0)
                worst = max(worst, abs(predict(params, EvidencePair(e1, e2)) - want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _criterion(4, ok, f"max corner error {worst:.2e} over 400 corners in {elapsed:.2f}s")


def test_criterion_5_nesting_and_eta_anchors(uniform_run, cond_indep_run):
    checked = 0
    ok = True
    detail = ""
    for _, reports, _ in (uniform_run, cond_indep_run):
        for r in reports:
            assert r.error is None, f"unexpected failure: {r.error}"
            by_kind = {s.kind: s for s in r.scores}
            for kind in (ModelKind.LINR, ModelKind.PWR, ModelKind.INDP, ModelKind.PRSP):
                if by_kind[kind].epsilon > r.eps_wrst + 1e-6:
                    ok, detail = False, f"dist {r.dist_id}: eps_{kind.value} > eps_WRST + 1e-6"
            for s in r.scores:
                if not (-1.0 <= s.eta.value <= 1.0):
                    ok, detail = False, f"dist {r.dist_id}: eta out of range"
            if not r.degenerate:
                if by_kind[ModelKind.BST].eta.value != 1.0:
                    ok, detail = False, f"dist {r.dist_id}: eta(BST) != +1"
                if by_kind[ModelKind.WRST].eta.value != -1.0:
                    ok, detail = False, f"dist {r.dist_id}: eta(WRST) != -1"
                if by_kind[ModelKind.LINR].eta.value != 0.0:
                    ok, detail = False, f"dist {r.dist_id}: eta(LINR) != 0"
            checked += 1
    _criterion(5, ok, detail or f"nesting bound and eta anchors hold on {checked} fitted distributions")


def test_criterion_6_linr_matches_closed_form(uniform_run):
    dists, reports, _ = uniform_run
    t0 = time.perf_counter()
    worst = 0.0
    for d, r in list(zip(dists, reports))[:100]:
        sv = standard_vector(d)
        # least squares by numpy's SVD-based solver, not the normal equations fit_batch solves
        design = np.array([[ev.e1, ev.e2, 1.0] for ev, _ in sv])
        c = np.array([v for _, v in sv])
        coeffs = np.linalg.lstsq(design, c, rcond=None)[0]
        ols_eps = float(np.sqrt(np.mean((design @ coeffs - c) ** 2)))
        fitted = next(s.epsilon for s in r.scores if s.kind is ModelKind.LINR)
        worst = max(worst, abs(fitted - ols_eps))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    _criterion(6, ok, f"max |fitted - closed form| = {worst:.2e} over 100 distributions ({elapsed:.1f}s)")


def test_criterion_7_uniform_family_reproduction(uniform_run):
    _, reports, elapsed = uniform_run
    mu_indp = _mean_eta(reports, ModelKind.INDP)
    mu_prsp = _mean_eta(reports, ModelKind.PRSP)
    mu_pwr = _mean_eta(reports, ModelKind.PWR)
    ok = (
        mu_indp >= 0.70
        and -0.20 < mu_prsp < 0.35
        and mu_pwr < 0.0
        and mu_indp > mu_prsp > mu_pwr
        and elapsed < 600.0
    )
    _criterion(
        7,
        ok,
        f"109 uniform dists: mean eta INDP={mu_indp:.4f}, PRSP={mu_prsp:.4f}, "
        f"PWR={mu_pwr:.4f} in {elapsed:.0f}s",
    )


def test_criterion_8_cond_indep_family_reproduction(cond_indep_run):
    _, reports, elapsed = cond_indep_run
    mu_indp = _mean_eta(reports, ModelKind.INDP)
    mu_prsp = _mean_eta(reports, ModelKind.PRSP)
    ok = mu_indp >= 0.80 and mu_prsp > 0.0 and mu_indp > mu_prsp and elapsed < 600.0
    _criterion(
        8,
        ok,
        f"109 cond-indep dists: mean eta INDP={mu_indp:.4f}, PRSP={mu_prsp:.4f} in {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optim": {"n_starts": 2, "max_iters": 120}}))

    gen_a = tmp_path / "a.csv"
    gen_b = tmp_path / "b.csv"
    for out in (gen_a, gen_b):
        assert main(["gen", "--family", "cond_indep", "--n", "4", "--seed", "3", "--out", str(out)]) == 0
    gen_same = gen_a.read_bytes() == gen_b.read_bytes()

    outs = []
    for name, jobs in (("o1", "1"), ("o2", "2"), ("o3", "1")):
        code = main([
            "bench", "--dists", str(gen_a), "--seed", "5", "--jobs", jobs,
            "--out", str(tmp_path / name), "--config", str(cfg),
        ])
        assert code == 0
        outs.append(
            (
                (tmp_path / name / "report.csv").read_bytes(),
                (tmp_path / name / "summary.json").read_bytes(),
            )
        )
    bench_same = outs[0] == outs[1] == outs[2]

    ok = gen_same and bench_same
    _criterion(
        9,
        ok,
        "gen reruns and bench reruns (jobs=1,2) produce byte-identical CSV/JSON artifacts",
    )


# sha256 of report.csv and summary.json of the two acceptance runs (BENCH_KINDS, default settings)
ARTIFACT_SHA256 = {
    "uniform": {
        "report.csv": "a8279de4055fb6ecb445e85907e8281c528a22282bd9e2a510c13109a2be2798",
        "summary.json": "0c71e172a6f3f209035c560546f241789bd1068c613359664cd0b30339a1979c",
    },
    "cond_indep": {
        "report.csv": "215966f82fb29bdac6babbacb451352aad2aadf268868dcdfac30917fbc3d547",
        "summary.json": "15a76e92a5699c111e4e9961f390e2ab63d5d37714fddbae51f9c31e1fbc625c",
    },
}


def test_acceptance_artifacts_unchanged(uniform_run, cond_indep_run, tmp_path):
    """The acceptance runs' ``report.csv`` and ``summary.json`` are byte-identical to the recorded ones.

    A speed-up must leave every score to the bit. A change that moves scores
    on purpose updates ``ARTIFACT_SHA256`` and records its per-distribution ε
    comparison with the previous artifacts in CHANGES.md.
    """
    for name, (_, reports, _) in (("uniform", uniform_run), ("cond_indep", cond_indep_run)):
        write_report_csv(tmp_path / "report.csv", reports)
        write_summary_json(tmp_path / "summary.json", summarize(reports))
        for artifact, digest in ARTIFACT_SHA256[name].items():
            assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest, f"{name} {artifact}"
