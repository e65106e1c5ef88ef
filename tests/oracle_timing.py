"""Best-of-N wall times of the oracle's entry points, in milliseconds.

Prints one line each for ``standard_vector`` on the default grid, a single
``standard_answer``, the oracle batch of each acceptance run (``uniform`` at
gen seed 1987 and ``cond_indep`` at gen seed 1986, 109 distributions at the
25 grid pairs, as one ``bench`` chunk asks for it) and an in-process
``uisbench oracle`` call on a 256-distribution file. Run from the repository
root::

    PYTHONPATH=src python tests/oracle_timing.py [--repeat 7]

Each figure is the best of ``--repeat`` rounds, each the mean of as many
calls as fill about 0.2 s.
"""

from __future__ import annotations

import argparse
import io
import tempfile
import timeit
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from uisbench import cli
from uisbench.dist import sample_cond_indep, sample_uniform, write_dists_csv
from uisbench.oracle import DEFAULT_GRID, EvidencePair, _batch_answers, standard_answer, standard_vector


def best_ms(fn, repeat: int) -> float:
    """The best over ``repeat`` rounds of the mean time of one call of ``fn``, in ms."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeat, number=max(1, number))) / max(1, number) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds per figure; the best is printed")
    args = parser.parse_args()

    d = sample_uniform(1987, 1)[0]
    ev = EvidencePair(0.3, 0.7)
    rows = [
        ("standard_vector, default grid", lambda: standard_vector(d)),
        ("standard_answer, one pair", lambda: standard_answer(d, ev)),
    ]
    for family, sample, seed in (("uniform", sample_uniform, 1987), ("cond_indep", sample_cond_indep, 1986)):
        chunk = sample(seed, 109)
        rows.append((f"acceptance oracle batch, {family} (109 x 25)",
                     lambda chunk=chunk: _batch_answers([x.atoms for x in chunk], DEFAULT_GRID.e1, DEFAULT_GRID.e2)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dists.csv"
        dists = sample_uniform(1987, 128) + sample_cond_indep(1986, 128)
        write_dists_csv(path, [x for pair in zip(dists[:128], dists[128:]) for x in pair])
        argv = ["oracle", "--dists", str(path), "--e1", "0.3", "--e2", "0.7"]

        def oracle_call():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0

        rows.append(("uisbench oracle, 256 distributions, in process", oracle_call))
        for name, fn in rows:
            print(f"{name:50s} {best_ms(fn, args.repeat):8.3f} ms")


if __name__ == "__main__":
    main()
