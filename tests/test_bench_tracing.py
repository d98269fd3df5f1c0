"""The traced bench run wraps tempocut functions by their qualified names."""

import importlib
import importlib.util
import pathlib
import sys
from fractions import Fraction

from tempocut import DeltaRemoval, greedy_maxflow_delta, removal_footprint
from tempocut.linegraph import build_line_graph, node_disjoint_maxflow
from tempocut.simulate import FailureModel, SimConfig, run_simulation

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves(monkeypatch):
    # Tracer.__enter__ raises AttributeError on a name that a refactor
    # moved or renamed; catch that here rather than in a --trace 1 run
    tracing = _tracing(monkeypatch)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"tempocut.{module_name}")
        assert callable(getattr(module, attr, None)), name


def test_every_measure_reads_a_real_result(monkeypatch, relay):
    # each MEASURES entry reads fields off its traced function's result;
    # a result type that loses one would break a --trace 1 run
    tracing = _tracing(monkeypatch)
    results = {
        "tvg.removal_footprint": (
            removal_footprint(relay, DeltaRemoval("e1", 1, 2)),
            {"contacts": 2}),
        "linegraph.build_line_graph": (
            build_line_graph(relay, "s", "d"), {"arcs": 7, "nodes": 6}),
        "linegraph.node_disjoint_maxflow": (
            node_disjoint_maxflow(build_line_graph(relay, "s", "d")),
            {"value": Fraction(2)}),
        "maxflow.greedy_maxflow_delta": (
            greedy_maxflow_delta(relay, "s", "d", 1), {"journeys": 2}),
        "simulate.run_simulation": (
            run_simulation(SimConfig(relay, 3, 1, 1, 5, FailureModel(0.0, 0))),
            {"packets": 5}),
    }
    assert set(tracing.MEASURES) == set(results)
    assert set(tracing.MEASURES) <= set(tracing.TRACED)
    for name, measure in tracing.MEASURES.items():
        result, counts = results[name]
        assert measure(result) == counts, name
