"""PRSP's fitted ε on fourteen bench runs, and the ratchet file that records them.

The runs are the two acceptance runs (``uniform`` at gen seed 1987, bench
seed 11; ``cond_indep`` at gen seed 1986, bench seed 13) and six held-out
runs per family, at each acceptance gen seed plus 100,000·j for j = 1…6 with
the same bench seeds: 14 runs of 109 distributions, default grid and
settings. ``test_optim.py::test_prsp_no_worse_than_the_ratchet`` fails when
any PRSP ε rises above its entry by more than 1e-9.

Run from the repository root to rewrite the file from the current code::

    PYTHONPATH=src python tests/prsp_ratchet.py

An entry may only go down, when a change finds a lower minimum: raising one
loosens the check.
"""

from __future__ import annotations

import csv
from pathlib import Path

from uisbench.bench import run_bench
from uisbench.dist import sample_cond_indep, sample_uniform
from uisbench.models import ModelKind

RATCHET_CSV = Path(__file__).with_name("prsp_eps_ratchet.csv")
N_DISTS = 109
SAMPLERS = {"uniform": sample_uniform, "cond_indep": sample_cond_indep}
# (family, gen seed, bench seed); j = 0 is the acceptance run
RUNS = tuple((family, gen + 100_000 * j, bench)
             for family, gen, bench in (("uniform", 1987, 11), ("cond_indep", 1986, 13))
             for j in range(7))


def prsp_epsilons(family: str, gen_seed: int, bench_seed: int) -> list[float]:
    """PRSP's ε on each distribution of one run, as ``uisbench bench`` fits it."""
    reports = run_bench(SAMPLERS[family](gen_seed, N_DISTS), kinds=(ModelKind.LINR, ModelKind.WRST, ModelKind.PRSP),
                        seed=bench_seed)
    return [report.scores[2].epsilon for report in reports]


def read_ratchet(path=RATCHET_CSV) -> dict[tuple[str, int, int], list[float]]:
    """The recorded ε per run, in distribution order."""
    runs: dict[tuple[str, int, int], list[float]] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            eps = runs.setdefault((row["family"], int(row["gen_seed"]), int(row["bench_seed"])), [])
            assert int(row["dist_id"]) == len(eps), f"{path}: rows out of order at {row}"
            eps.append(float(row["epsilon"]))
    return runs


def main() -> None:
    with open(RATCHET_CSV, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("family", "gen_seed", "bench_seed", "dist_id", "epsilon"))
        for run in RUNS:
            for i, eps in enumerate(prsp_epsilons(*run)):
                writer.writerow((*run, i, f"{eps:.17g}"))


if __name__ == "__main__":
    main()
