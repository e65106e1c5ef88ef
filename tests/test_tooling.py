import ast
import importlib
import re
from pathlib import Path

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
