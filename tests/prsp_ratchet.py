"""PRSP's fitted ε on fourteen bench runs, and the ratchet file that records them.

The runs are the two acceptance runs (``uniform`` at gen seed 1987, bench
seed 11; ``cond_indep`` at gen seed 1986, bench seed 13) and six held-out
runs per family, at each acceptance gen seed plus 100,000·j for j = 1…6 with
the same bench seeds: 14 runs of 109 distributions on the default grid.
``test_optim.py::test_prsp_no_worse_than_the_ratchet`` fails when
any PRSP ε rises above its entry by more than 1e-9.

Run from the repository root to compare the current code with the file,
without rewriting it; it exits 1 if any fit is above its entry::

    PYTHONPATH=src python tests/prsp_ratchet.py --check

Its first line is the fit budget it ran at, ``optim._N_STARTS`` (PRSP's
random starts) and ``optim._MAX_ITERS``, so a run with an edited constant is
labelled. Per run it prints the fits above and below their entry by more
than 1e-9, the largest rise and drop (``none`` where no fit moved that way),
and two lines of PRSP's Levenberg–Marquardt work: the search's row-steps
(the steps tried, summed over its starts) and the starts that reach
``max_iters``, then the polish's steps (summed over its rows, one per
distribution) and the rows that reach ``max_iters``. Without ``--check`` it
rewrites the file from the current code, keeping each entry that is lower
than the current ε, and prints each entry it lowers.

An entry may only go down, when a change finds a lower minimum: raising one
loosens the check. An entry is the ε the fit reached when it was
recorded, not the minimum, so the ratchet bounds regressions and says
nothing of the gap to the minimum. Variants of the search have found PRSP ε
up to 1.06e-3 below the entries of held-out uniform run gen seed 301987 and
5.9e-4 below those of 101987.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import uisbench.optim as optim
from uisbench.bench import run_bench
from uisbench.cli import SAMPLERS
from uisbench.models import ModelKind

RATCHET_CSV = Path(__file__).with_name("prsp_eps_ratchet.csv")
N_DISTS = 109
TOL = 1e-9
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


@contextmanager
def counted_lm():
    """Wraps ``optim._lm`` and ``optim._polish`` while open.

    The yielded dict sums the search's row-steps and its starts that reach
    ``max_iters``, and the polish's steps and its rows that reach ``max_iters``.
    """
    keys = {"_lm": ("row_steps", "at_max_iters"), "_polish": ("polish_steps", "polish_at_max_iters")}
    counts = dict.fromkeys(sum(keys.values(), ()), 0)
    originals = {name: getattr(optim, name) for name in keys}

    def counted(name):
        def wrapper(*args):
            out = originals[name](*args)
            iters, max_iters = out[2], args[-1]
            steps, at_max = keys[name]
            counts[steps] += int(iters.sum())
            counts[at_max] += int(np.count_nonzero(iters == max_iters))
            return out

        return wrapper

    for name in keys:
        setattr(optim, name, counted(name))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(optim, name, fn)


def work_lines(counts: dict[str, int]) -> tuple[str, str]:
    """The search's and the polish's figures in ``counted_lm``'s counts, one line each."""
    return (f"search: {counts['row_steps']:,} row-steps, {counts['at_max_iters']} starts at max_iters",
            f"polish: {counts['polish_steps']:,} steps, {counts['polish_at_max_iters']} rows at max_iters")


def budget_line() -> str:
    """The fit budget a run uses, as the scripts print it first: PRSP's random starts per fit, and the step cap of
    each start of PRSP's search and of each row of the polish, PRSP's and PWR's (a PWR fit is its polish alone)."""
    return f"budget: {optim._N_STARTS} random starts per PRSP fit, {optim._MAX_ITERS} steps per start and per polish row"


def largest(diff: np.ndarray) -> str:
    """The largest positive entry of ``diff`` and its index, or ``none`` if no entry is positive."""
    i = int(np.argmax(diff))
    return f"{diff[i]:.3g} (dist {i})" if diff[i] > 0.0 else "none"


def check() -> int:
    """Print each run's comparison with the file; 1 if any fit is above its entry by more than ``TOL``."""
    recorded = read_ratchet(RATCHET_CSV)
    print(budget_line())
    n_above = 0
    for run in RUNS:
        with counted_lm() as counts:  # the runs fit LINR, WRST and PRSP, so every _lm and _polish call is PRSP's
            diff = np.array(prsp_epsilons(*run)) - recorded[run]
        above, below = np.flatnonzero(diff > TOL), np.flatnonzero(diff < -TOL)
        n_above += above.size
        print(f"{run[0]} gen {run[1]} bench {run[2]}: {above.size} above, {below.size} below; "
              f"largest rise {largest(diff)}, largest drop {largest(-diff)}")
        for line in work_lines(counts):
            print(f"  {line}")
        for name, ids in (("above", above), ("below", below)):
            if ids.size:
                print(f"  {name}: " + ", ".join(f"dist {i} {diff[i]:+.3g}" for i in ids))
    print(f"{n_above} fits above their entry by more than {TOL:g}")
    return 1 if n_above else 0


def write() -> None:
    """Rewrite the file with the lower of each entry and the current ε, printing each entry that goes down."""
    recorded = read_ratchet(RATCHET_CSV)
    rows = []
    for run in RUNS:
        current = prsp_epsilons(*run)
        for i, (entry, eps) in enumerate(zip(recorded.get(run, current), current)):
            if eps < entry:
                print(f"{run[0]} gen {run[1]} bench {run[2]} dist {i}: {entry:.17g} -> {eps:.17g}")
            rows.append((*run, i, f"{min(entry, eps):.17g}"))
    with open(RATCHET_CSV, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("family", "gen_seed", "bench_seed", "dist_id", "epsilon"))
        writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the file instead of rewriting it")
    if parser.parse_args(argv).check:
        return check()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
