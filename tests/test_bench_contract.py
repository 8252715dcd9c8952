"""The benchmark calls gcope by name; each name and keyword it uses must exist.

A missing traced name makes `Tracer.install` raise inside the benchmark
worker, and a renamed function or keyword in `bench/workloads.py` fails the
episode, so the benchmark run fails. These checks catch both in the test
suite instead.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"
sys.path.insert(0, str(BENCH))   # the benchmark's modules import each other by name

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", tracer.TRACED)
def test_traced_name_resolves_to_callable(name):
    mod_name, *path = name.split(".")
    obj = importlib.import_module(f"gcope.{mod_name}")
    for part in path:
        assert hasattr(obj, part), f"{name}: no attribute {part!r}"
        obj = getattr(obj, part)
    assert callable(obj), name


def _module_handles(tree) -> dict:
    """Handle name -> gcope module, from `h = module("m")` and
    `h1, h2 = (module(m) for m in ("m1", "m2"))` in the workloads."""
    handles = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        target, value = node.targets[0], node.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "module":
            handles[target.id] = value.args[0].value
        elif (isinstance(value, ast.GeneratorExp)
              and getattr(value.elt.func, "id", None) == "module"):
            names = [e.id for e in target.elts]
            handles.update(zip(names, (e.value for e in value.generators[0].iter.elts)))
    return handles


WORKLOADS = ast.parse((BENCH / "workloads.py").read_text())
HANDLES = _module_handles(WORKLOADS)


def _uses(node_type):
    """(node, gcope module, attribute) for each `handle.attribute` node of a
    type (`ast.Attribute`, or `ast.Call` of such an attribute)."""
    for node in ast.walk(WORKLOADS):
        if not isinstance(node, node_type):
            continue
        attr = node.func if node_type is ast.Call else node
        if (isinstance(attr, ast.Attribute) and isinstance(attr.value, ast.Name)
                and attr.value.id in HANDLES):
            mod = importlib.import_module(f"gcope.{HANDLES[attr.value.id]}")
            yield node, mod, attr.attr


def test_workloads_bind_every_module_handle():
    assert {"gs", "pj", "am", "pt", "nn", "ck", "tr", "ad", "errors"} <= set(HANDLES)


def test_workload_attributes_resolve():
    missing = [f"{mod.__name__}.{attr} (line {node.lineno})"
               for node, mod, attr in _uses(ast.Attribute) if not hasattr(mod, attr)]
    assert not missing


def test_workload_call_arguments_bind():
    unbound = []
    for call, mod, attr in _uses(ast.Call):
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        try:
            inspect.signature(getattr(mod, attr)).bind_partial(
                *[None] * len(call.args), **{k.arg: None for k in call.keywords})
        except TypeError as e:
            unbound.append(f"{mod.__name__}.{attr} (line {call.lineno}): {e}")
    assert not unbound


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_exercises_its_layers(name, tmp_path, monkeypatch):
    """`bench/run.py --trace 1` fails a workload whose traced run leaves a
    function it `exercises` uncalled or calls one it `controls`, for example
    when a caller imports a traced function under another name. Episode 0 on
    60-node inputs with at most 2 operations shows the same coverage."""
    monkeypatch.setattr(workloads, "NODES", 60)
    w = workloads.WORKLOADS[name]
    w = dataclasses.replace(w, planned_ops=min(2, w.planned_ops))
    t = tracer.Tracer()
    t.install()
    try:
        ep = w.run_episode(w, str(tmp_path), 0, 0, None, t)
    finally:
        t.uninstall()
    assert not ep.errors
    calls = {f: t.calls[f] for f in w.exercises + w.controls}
    assert not [f for f in w.exercises if calls[f] == 0], calls
    assert not [f for f in w.controls if calls[f] != 0], calls


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_correctness_checks(name, tmp_path, monkeypatch):
    """`bench/run.py` exits 1 when a correctness check fails: few-shot accuracy
    not above chance by `ACCURACY_MARGIN`, a non-finite loss, or a replay that
    does not reproduce its plan episode bit for bit. Episode 0 of seed 0 and
    one replay of it run those checks. Transfer runs on the benchmark's own
    inputs, for which its accuracy margin is sized; pretraining on 60-node
    sources."""
    w = workloads.WORKLOADS[name]
    if w.run_episode is workloads.run_pretrain_episode:
        monkeypatch.setattr(workloads, "NODES", 60)
    first = w.run_episode(w, str(tmp_path), 0, 0, None, None)
    replay = w.run_episode(w, str(tmp_path), 0, 0, None, None)
    assert first.complete, first.errors
    assert not first.checks + replay.checks + workloads.check_replay(replay, first)
