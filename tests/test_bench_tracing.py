"""The traced bench run wraps tempocut functions by their qualified names."""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    # Tracer.__enter__ raises AttributeError on a name that a refactor
    # moved or renamed; catch that here rather than in a --trace 1 run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"tempocut.{module_name}")
        assert callable(getattr(module, attr, None)), name
