"""Best-of-N wall times of the oracle's entry points and of a bench run's layers, in milliseconds.

Prints one line each for ``standard_vector`` on the default grid, a single
``standard_answer``, an in-process ``uisbench oracle`` call on a
256-distribution file, the call's argument parsing (the parser of ``oracle``
alone, as the call builds it), ``read_atoms_csv`` on that file (the call's
read) and,
for each acceptance run (``uniform`` at gen seed 1987, bench seed 11;
``cond_indep`` at gen seed 1986, bench seed 13; 109 distributions on the
default grid and default models, one ``bench`` chunk):

* the oracle batch (109 x 25), as the chunk asks for it;
* ``fit_batch`` of each default model on the run's answer matrix, with the
  seeds and, for PRSP, the warm starts that ``bench`` passes;
* the whole ``run_bench`` call;
* PRSP's Levenberg–Marquardt work, in two lines: the search's row-steps
  (the steps tried, summed over its starts) and the starts that reach
  ``max_iters``, then the polish's steps (summed over its rows, one per
  distribution) and the rows that reach ``max_iters``.

The first line is the fit budget the run used (``optim._N_STARTS`` and
``optim._MAX_ITERS``). Run from the repository root::

    PYTHONPATH=src python tests/timing.py [--repeat 7]

Each figure is the best of ``--repeat`` rounds, each the mean of as many
calls as fill about 0.2 s (one call for the fits that take longer). At the
default the script takes about a minute on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import io
import tempfile
import timeit
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from uisbench import cli
from uisbench.bench import DEFAULT_MODELS, _derived_seed, _prsp_warm_start, run_bench
from uisbench.dist import read_atoms_csv, sample_cond_indep, sample_uniform, write_dists_csv
from uisbench.models import ModelKind
from uisbench.optim import fit_batch
from uisbench.oracle import DEFAULT_GRID, EvidencePair, _batch_answers, standard_answer, standard_vector

from prsp_ratchet import N_DISTS, RUNS, budget_line, counted_lm, work_lines

ACCEPTANCE_RUNS = tuple(run for run in RUNS if run[1] in (1987, 1986))


def best_ms(fn, repeat: int) -> float:
    """The best over ``repeat`` rounds of the mean time of one call of ``fn``, in ms."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=max(1, number))) / max(1, number) * 1e3


def positive_int(text: str) -> int:
    """``--repeat``'s type: an integer of at least 1, since ``best_ms`` takes the best of that many rounds."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def acceptance_rows(family: str, gen_seed: int, bench_seed: int) -> tuple[list, list[str]]:
    """The timed calls of one acceptance run, and the lines of PRSP's search and polish work."""
    dists = cli.SAMPLERS[family](gen_seed, N_DISTS)
    atoms = [d.atoms for d in dists]
    targets, errors = _batch_answers(atoms, DEFAULT_GRID.evidence)
    assert not any(errors), f"{family}: the acceptance run has a failing distribution"
    seeds = [_derived_seed(bench_seed, i) for i in range(len(dists))]
    prsp_warm = [_prsp_warm_start(d) for d in dists]

    def fit_call(kind):
        warm = prsp_warm if kind is ModelKind.PRSP else [None] * len(dists)
        return lambda: fit_batch(kind, DEFAULT_GRID.e1, DEFAULT_GRID.e2, targets, seeds, warm)

    rows = [(f"{family}: oracle batch (109 x 25)", lambda: _batch_answers(atoms, DEFAULT_GRID.evidence))]
    rows += [(f"{family}: fit_batch {kind.value}", fit_call(kind)) for kind in DEFAULT_MODELS]
    rows.append((f"{family}: run_bench", lambda: run_bench(dists, seed=bench_seed)))
    with counted_lm() as counts:
        fit_call(ModelKind.PRSP)()
    return rows, [f"{family}: PRSP {line}" for line in work_lines(counts)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=positive_int, default=7, help="rounds per figure; the best is printed")
    args = parser.parse_args()
    print(budget_line())

    d = sample_uniform(1987, 1)[0]
    ev = EvidencePair(0.3, 0.7)
    rows = [
        ("standard_vector, default grid", lambda: standard_vector(d)),
        ("standard_answer, one pair", lambda: standard_answer(d, ev)),
    ]
    works = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dists.csv"
        dists = sample_uniform(1987, 128) + sample_cond_indep(1986, 128)
        write_dists_csv(path, [x for pair in zip(dists[:128], dists[128:]) for x in pair])
        argv = ["oracle", "--dists", str(path), "--e1", "0.3", "--e2", "0.7"]

        def oracle_call():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0

        rows.append(("uisbench oracle, 256 distributions, in process", oracle_call))
        rows.append(("uisbench oracle, argument parsing", lambda: cli._parse_argv(argv)))
        rows.append(("read_atoms_csv, 256 distributions", lambda: read_atoms_csv(path)))
        for run in ACCEPTANCE_RUNS:
            run_rows, work = acceptance_rows(*run)
            rows += run_rows
            works += work
        for name, fn in rows:
            print(f"{name:50s} {best_ms(fn, args.repeat):10.3f} ms")
    for work in works:
        print(work)


if __name__ == "__main__":
    main()
