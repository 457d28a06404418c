"""The benchmark's trace hooks still name functions that exist.

``perfbench/layers.py`` wraps co2fuse functions by dotted name, and a name
that no longer resolves silently loses that layer's metrics. This test loads
the hook table (without installing any hook) and resolves every target with
the benchmark's own lookup, so that renaming a hooked function fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# hook targets known to be gone; each hook also names a function that exists
KNOWN_ABSENT = {"co2fuse.interpolate.PointSet.k_nearest_fullscan"}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracer = _load("tracer", monkeypatch)
    layers = _load("layers", monkeypatch)
    return tracer, layers


def test_every_hook_resolves_a_target(bench):
    tracer, layers = bench
    absent = set()
    for hook in layers.HOOKS:
        missing = {t for t in hook.targets if tracer._resolve(t) is None}
        assert missing != set(hook.targets), f"hook {hook.key}: no target resolves"
        absent |= missing
    assert absent <= KNOWN_ABSENT, f"hook targets that no longer exist: {absent - KNOWN_ABSENT}"
