"""The benchmark's tracer wraps package callables by name; every name must resolve."""

import importlib.util
import sys
from pathlib import Path

import isoreduce

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    # read bench/ without leaving a bytecode cache behind in it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(path: str):
    obj = isoreduce
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve_on_the_package(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    paths = [path for path, _ in tracer.LAYER_SPANS]
    paths += [f"{owner}.{attr}" for owner, attr, _ in tracer.EXACT_OPS]
    assert paths
    for path in paths:
        assert callable(_lookup(path)), path
