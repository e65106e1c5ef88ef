"""Write ``BENCH_<pr>.json`` at the repository root: the measured state of the checkout.

Run from the repository root, with the number of the pull request the file
records::

    PYTHONPATH=src python tests/bench_file.py <pr>

The file holds, under these keys:

* ``perfbench``: per workload, the last JSON line of
  ``python3 perfbench/run.py --workload W --seed 0 --seconds 10 --trace 0``,
  the four run one after the other, each as a subprocess;
* ``timing``: ``tests/timing.py --repeat 3``, its figures in ms by line and
  its other lines, the fit budget and PRSP's Levenberg–Marquardt work;
* ``tier1``: the Tier-1 suite's outcome counts and its wall time in seconds;
* ``quality``: per acceptance run (``uniform`` at gen seed 1987, bench seed
  11; ``cond_indep`` at gen seed 1986, bench seed 13; 109 distributions, the
  default grid and models) and model, mean ε and mean η over the
  distributions the summary includes, and how many of those fits converged;
* ``host``: CPU model, vCPU count, numpy version and the OpenBLAS core.

The Tier-1 counts, the quality fields and the work lines are exact: a second
run on the same host writes them again digit for digit. The perfbench lines
and the times are measurements. The script takes about three minutes on a
2-vCPU VM.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from uisbench.bench import run_bench, summarize
from uisbench.cli import SAMPLERS

from prsp_ratchet import N_DISTS
from timing import ACCEPTANCE_RUNS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("uniform_bench", "cond_indep_bench", "oracle_grid", "oracle_point")


def run(argv: list[str]) -> str:
    """The stdout of ``argv`` run at the repository root with ``src`` on the path; fails if it fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.stdout


def perfbench() -> dict:
    return {w: json.loads(run(["python3", "perfbench/run.py", "--workload", w, "--seed", "0", "--seconds", "10",
                               "--trace", "0"]).splitlines()[-1]) for w in WORKLOADS}


def timing() -> dict:
    figures, lines = {}, []
    for line in run([sys.executable, "tests/timing.py", "--repeat", "3"]).splitlines():
        if m := re.fullmatch(r"(.*?)\s+([0-9.]+) ms", line):
            figures[m[1]] = float(m[2])
        else:
            lines.append(line)
    return {"ms": figures, "lines": lines}


def tier1() -> dict:
    """The outcome counts of the Tier-1 suite, from pytest's last line, and its wall time."""
    t0 = time.perf_counter()
    out = run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    wall = time.perf_counter() - t0
    counts = {outcome: int(n) for n, outcome in re.findall(r"(\d+) (\w+)", out.splitlines()[-1])}
    return {"counts": counts, "wall_s": round(wall, 1)}


def quality() -> dict:
    """Per acceptance run and model: mean ε and mean η over the included distributions, and the converged
    count."""
    out = {}
    for family, gen_seed, bench_seed in ACCEPTANCE_RUNS:
        reports = run_bench(SAMPLERS[family](gen_seed, N_DISTS), seed=bench_seed)
        included = [r for r in reports if r.error is None and not r.degenerate]
        models = {}
        for pos, row in enumerate(summarize(reports)):
            eps = np.sort([r.scores[pos].epsilon for r in included])  # sorted, as summarize sorts the etas
            models[row.kind.value] = {"eps_mean": float(np.mean(eps)), "eta_mean": row.mu,
                                      "converged": row.n_converged, "included": row.n_included}
        out[f"{family} {gen_seed}/{bench_seed}"] = models
    return out


def openblas_core() -> str | None:
    """The core type numpy's bundled OpenBLAS runs its kernels for, or None if it cannot be read."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def host() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = re.findall(r"^model name\s*: (.*)$", cpuinfo.read_text(), re.M) if cpuinfo.exists() else []
    return {"cpu": models[0] if models else platform.processor(), "vcpus": os.cpu_count(),
            "numpy": np.__version__, "openblas_core": openblas_core(), "python": platform.python_version()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number of the pull request the file records")
    args = parser.parse_args()
    bench = {"pr": args.pr, "perfbench": perfbench(), "timing": timing(), "tier1": tier1(), "quality": quality(),
             "host": host()}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
