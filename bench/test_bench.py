"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

import stats
from tracing import Span, Totals, Tracer, self_times

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("n, expected", [
    (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))
    got = stats.tail(samples)
    if expected is None:
        assert got is None
    else:
        pct, value = got
        assert pct == expected
        assert sum(1 for x in samples if x > value) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert stats.percentile(samples, 900) == 9
    assert stats.percentile(samples, 500) == 5
    assert stats.percentile(samples, 1000) == 10


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, -1, "op", None, False),
        Span("a", 1.0, 4.0, 0, "op", None, False),
        Span("a.inner", 2.0, 3.0, 1, "op", None, False),
        Span("b", 5.0, 6.5, 0, "op", None, False),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 4.0, -1, "op", None, False),
        Span("a", 1.0, 3.0, 0, "op", None, False),
        Span("b", 2.0, 5.0, 0, "op", None, False),  # overlaps a, ends late
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.core defines work(); pkg.user imported it by name."""
    pkg = types.ModuleType("pkg")
    core = types.ModuleType("pkg.core")
    user = types.ModuleType("pkg.user")

    def work(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    core.work = work
    user.work = work
    user.twice = lambda x: user.work(user.work(x))
    pkg.work = work
    for name, mod in (("pkg", pkg), ("pkg.core", core), ("pkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, core, user, work


def test_tracer_wraps_every_holder_and_restores(fake_package):
    pkg, core, user, work = fake_package
    tracer = Tracer(names=("core.work",), package="pkg")
    with tracer:
        assert core.work is not work and user.work is core.work
        assert pkg.work is core.work
        assert user.twice(3) == 12
    assert core.work is work and user.work is work and pkg.work is work
    assert tracer.totals.calls["core.work"] == 2


def test_tracer_counts_and_reraises_exceptions(fake_package):
    _, core, _, work = fake_package
    tracer = Tracer(names=("core.work",), package="pkg")
    with pytest.raises(ValueError, match="negative"):
        with tracer:
            core.work(-1)
    assert core.work is work
    assert tracer.totals.raised["core.work"] == 1
    assert tracer.totals.calls["core.work"] == 1


def _tree(*rows):
    return [Span(name, start, end, parent, "op", counts, False)
            for name, start, end, parent, counts in rows]


def test_fold_derives_shortcut_and_plan_counts():
    totals = Totals()
    totals.fold(_tree(
        ("maxflow.exact_maxflow_delta", 0, 10, -1, None),
        ("linegraph.node_disjoint_maxflow", 1, 2, 0, {"value": 3}),
        ("maxflow.greedy_maxflow_delta", 3, 4, 0, {"journeys": 3})))
    totals.fold(_tree(
        ("maxflow.exact_maxflow_delta", 0, 10, -1, None),
        ("linegraph.node_disjoint_maxflow", 1, 2, 0, {"value": 3}),
        ("maxflow.greedy_maxflow_delta", 3, 4, 0, {"journeys": 2})))
    totals.fold(_tree(
        ("simulate.run_simulation", 0, 10, -1, {"packets": 5}),
        ("maxflow.greedy_maxflow_delta", 1, 2, 0, {"journeys": 1}),
        ("linegraph.min_hop_path", 3, 4, 1, None)))
    assert (totals.shortcut_base, totals.shortcut_hits) == (2, 1)
    assert totals.planned == 1
    assert totals.counts["maxflow.greedy_maxflow_delta"]["journeys"] == 6
    assert totals.calls["maxflow.exact_maxflow_delta"] == 2


def test_scaled_divides_by_the_median_reference_around_each_op():
    import worker

    nominal = worker.REF_NOMINAL_S
    # refs[i] precedes op i; the last one follows the last op.
    refs = [nominal] * 3 + [2 * nominal] * 3
    got = worker.scaled([1.0] * 5, refs)
    # op 0 sees refs 0..2, op 2 refs 0..4, op 3 refs 1..5, op 4 refs 2..5.
    assert got == pytest.approx([1.0, 1.0, 1.0, 0.5, 0.5])
    assert worker.scaled([3.0], [nominal, nominal]) == pytest.approx([3.0])


def test_spec_lists_every_reported_metric():
    import worker

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = worker.layer_metrics(Totals(), Totals())
    layers.update({"trace.ops": 1, "trace.overhead_pct": 0.0})
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    assert spec["paths"] == ["bench"]
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == set(worker.workloads.WORKLOADS)
