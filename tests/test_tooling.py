import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
