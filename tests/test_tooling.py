import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_PY = PERFBENCH / "run.py"


def _feeds_keys() -> list[str]:
    """The keys of ``FEEDS`` in perfbench/run.py, read from its source without importing it."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "FEEDS" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no FEEDS assignment in {RUN_PY}")


def test_every_traced_attribute_exists():
    # perfbench's tracer wraps each FEEDS key; a key that no longer resolves
    # turns the metrics it feeds into null in a traced run, which still exits 0
    keys = _feeds_keys()
    assert keys
    for key in keys:
        module, attr = key.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), key


def test_every_program_name_perfbench_uses_exists():
    # perfbench reaches the program as ``uis``, the uisbench package with its
    # cli module imported; a name that no longer resolves fails a workload
    # with an AttributeError, or an except clause that names it
    uis = importlib.import_module("uisbench")
    importlib.import_module("uisbench.cli")
    names = set()
    for path in (RUN_PY, PERFBENCH / "checks.py"):
        names |= {(path.name, dotted) for dotted in re.findall(r"\buis((?:\.\w+)+)", path.read_text())}
    assert ("run.py", ".oracle.ConvergenceError") in names
    for file, dotted in sorted(names):
        obj = uis
        for part in dotted.split(".")[1:]:
            assert hasattr(obj, part), f"{file}: uis{dotted}"
            obj = getattr(obj, part)


def test_every_exported_name_exists():
    # a name left in __all__ after its definition is deleted fails only on
    # ``from module import *``, which nothing else runs
    package = importlib.import_module("uisbench")
    stems = sorted(path.stem for path in Path(package.__file__).parent.glob("*.py"))
    # __main__ runs the command line when imported
    modules = [package] + [importlib.import_module(f"uisbench.{stem}") for stem in stems if not stem.startswith("__")]
    assert len(modules) == 7 and all(hasattr(module, "__all__") for module in modules[1:])
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_no_multiprocessing():
    # only a bench run with more than one worker needs a process pool; the
    # import of multiprocessing it brings costs every other command
    code = "import sys, uisbench, uisbench.cli; print('multiprocessing' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["uisbench", "uisbench.cli"])
def test_module_entry_point_runs_the_command_line(module, tmp_path):
    # python -m uisbench runs __main__.py, and python -m uisbench.cli the cli module's own guard
    from uisbench.cli import main

    src = Path(__file__).resolve().parent.parent / "src"
    args = ["gen", "--n", "2", "--seed", "1", "--out"]
    out = tmp_path / "module.csv"
    run = subprocess.run([sys.executable, "-m", module, *args, str(out)], cwd=src, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, f"{out}\n"), run.stderr
    assert main([*args, str(tmp_path / "main.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_ratchet_check_counts_prsp_row_steps(monkeypatch):
    # tests/prsp_ratchet.py --check reports PRSP's work through this wrapper of optim._lm and optim._polish
    import uisbench.optim as optim
    from prsp_ratchet import budget_line, counted_lm, work_lines
    from uisbench.dist import sample_uniform
    from uisbench.models import ModelKind
    from uisbench.oracle import DEFAULT_GRID, _batch_answers

    lm, polish = optim._lm, optim._polish
    targets = _batch_answers([d.atoms for d in sample_uniform(5, 2)], DEFAULT_GRID.evidence)[0]
    monkeypatch.setattr(optim, "_N_STARTS", 2)
    monkeypatch.setattr(optim, "_MAX_ITERS", 1)
    with counted_lm() as counts:
        optim.fit_batch(ModelKind.PRSP, DEFAULT_GRID.e1, DEFAULT_GRID.e2, targets, [1, 2], [None, None])
    assert optim._lm is lm and optim._polish is polish
    starts = 2 * (1 + 2 + 16)  # per distribution the constant, seeded and kink starts, each stepping once
    # then one polish row per distribution, stepping once
    assert counts == {"row_steps": starts, "at_max_iters": starts, "polish_steps": 2, "polish_at_max_iters": 2}
    assert work_lines(counts) == ("search: 38 row-steps, 38 starts at max_iters", "polish: 2 steps, 2 rows at max_iters")
    assert budget_line() == "budget: 2 random starts per PRSP fit, 1 steps per start and per polish row"


def test_ratchet_rewrite_only_lowers_entries(tmp_path, monkeypatch, capsys):
    # the rewrite overwrote every entry with the current ε, so it could raise one and loosen the check
    import prsp_ratchet

    runs = (("uniform", 1, 2), ("cond_indep", 3, 4))
    path = tmp_path / "ratchet.csv"
    path.write_text("family,gen_seed,bench_seed,dist_id,epsilon\n"
                    "uniform,1,2,0,0.5\nuniform,1,2,1,0.25\ncond_indep,3,4,0,0.125\n")
    current = {runs[0]: [0.75, 0.125], runs[1]: [0.125]}
    monkeypatch.setattr(prsp_ratchet, "RATCHET_CSV", path)
    monkeypatch.setattr(prsp_ratchet, "RUNS", runs)
    monkeypatch.setattr(prsp_ratchet, "prsp_epsilons", lambda *run: current[run])
    prsp_ratchet.write()
    assert prsp_ratchet.read_ratchet(path) == {runs[0]: [0.5, 0.125], runs[1]: [0.125]}
    assert capsys.readouterr().out == "uniform gen 1 bench 2 dist 1: 0.25 -> 0.125\n"


def test_ratchet_check_names_no_entry_for_a_direction_none_moved(tmp_path, monkeypatch, capsys):
    # with no fit below its entry, check printed "largest drop -0 (dist 0)"
    import prsp_ratchet

    runs = (("uniform", 1, 2), ("cond_indep", 3, 4))
    path = tmp_path / "ratchet.csv"
    path.write_text("family,gen_seed,bench_seed,dist_id,epsilon\n"
                    "uniform,1,2,0,0.5\nuniform,1,2,1,0.25\ncond_indep,3,4,0,0.125\ncond_indep,3,4,1,0.5\n")
    current = {runs[0]: [0.5, 0.25], runs[1]: [0.25, 0.25]}
    monkeypatch.setattr(prsp_ratchet, "RATCHET_CSV", path)
    monkeypatch.setattr(prsp_ratchet, "RUNS", runs)
    monkeypatch.setattr(prsp_ratchet, "prsp_epsilons", lambda *run: current[run])
    assert prsp_ratchet.check() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "budget: 5 random starts per PRSP fit, 200 steps per start and per polish row"  # labels the run
    assert lines[1] == "uniform gen 1 bench 2: 0 above, 0 below; largest rise none, largest drop none"
    assert lines[4] == "cond_indep gen 3 bench 4: 1 above, 1 below; largest rise 0.125 (dist 0), largest drop 0.25 (dist 1)"
    assert lines[7:] == ["  above: dist 0 +0.125", "  below: dist 1 -0.25", "1 fits above their entry by more than 1e-09"]


def test_timing_rejects_a_repeat_below_one(monkeypatch, capsys):
    # --repeat 0 built both acceptance runs, then died in best_ms on min() of no rounds
    import timing

    for value in ("0", "-1"):
        monkeypatch.setattr(sys, "argv", ["timing.py", "--repeat", value])
        with pytest.raises(SystemExit) as exc:
            timing.main()
        assert exc.value.code == 2
        assert f"argument --repeat: must be at least 1, got {value}" in capsys.readouterr().err
