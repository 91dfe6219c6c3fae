"""The benchmark tracer wraps package functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    targets = child._targets()
    assert targets
    for module, path, *_ in targets:
        owner = importlib.import_module(f"covercount.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"covercount.{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"covercount.{module}.{path}"
