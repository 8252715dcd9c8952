"""The benchmark's tracer wraps gcope functions by name; each must exist.

A missing name makes `Tracer.install` raise inside the benchmark worker, so
the benchmark run fails. This check catches it in the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).parent.parent / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name", tracer.TRACED)
def test_traced_name_resolves_to_callable(name):
    mod_name, *path = name.split(".")
    obj = importlib.import_module(f"gcope.{mod_name}")
    for part in path:
        assert hasattr(obj, part), f"{name}: no attribute {part!r}"
        obj = getattr(obj, part)
    assert callable(obj), name
