"""Instance generators: random graphs, the hard family, path-packing inputs."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (InstanceTooLargeError, WeightedDigraph, bledp_exact,
                      bledp_expand, exact_maxflow_delta, exact_mincut_delta,
                      gen_counterexample, gen_random_tvg,
                      gen_random_weighted_digraph, validate_graph)
from tempocut import generators, traces


def test_random_tvg_is_seed_determined():
    a = gen_random_tvg(8, 10, 0.5, 42)
    b = gen_random_tvg(8, 10, 0.5, 42)
    assert a == b and a.dumps() == b.dumps()
    assert gen_random_tvg(8, 10, 0.5, 43) != a


def test_random_tvg_keeps_its_draws_up_to_the_contact_budget(monkeypatch):
    # the draws stop one contact past the budget: a budget of exactly the
    # graph's contacts draws the same graph, and one less refuses
    g = gen_random_tvg(3, 60, 0.3, 7)
    monkeypatch.setattr(traces, "MAX_WINDOW_CONTACTS", g.contact_count)
    assert gen_random_tvg(3, 60, 0.3, 7).dumps() == g.dumps()
    monkeypatch.setattr(traces, "MAX_WINDOW_CONTACTS", g.contact_count - 1)
    with pytest.raises(InstanceTooLargeError,
                       match=f"more than {g.contact_count - 1} contacts"):
        gen_random_tvg(3, 60, 0.3, 7)


def test_random_tvg_counts_its_slot_draws_before_the_first(monkeypatch):
    # 6 edges x 60 slots; with p > 0 no more than the contact budget lets
    # the scan make, (budget + 1) / p
    g = gen_random_tvg(3, 60, 0.0, 7)
    monkeypatch.setattr(generators, "MAX_SLOT_DRAWS", 360)
    assert gen_random_tvg(3, 60, 0.0, 7).dumps() == g.dumps()
    monkeypatch.setattr(generators, "MAX_SLOT_DRAWS", 359)
    with pytest.raises(InstanceTooLargeError,
                       match="360 slot draws, more than 359"):
        gen_random_tvg(3, 60, 0.0, 7)
    monkeypatch.setattr(traces, "MAX_WINDOW_CONTACTS", 9)
    monkeypatch.setattr(generators, "MAX_SLOT_DRAWS", 20)
    with pytest.raises(InstanceTooLargeError, match="more than 9 contacts"):
        gen_random_tvg(3, 60, 0.5, 7)
    monkeypatch.setattr(generators, "MAX_SLOT_DRAWS", 19)
    with pytest.raises(InstanceTooLargeError,
                       match="20 slot draws, more than 19"):
        gen_random_tvg(3, 60, 0.5, 7)


def test_random_tvg_shape():
    g = gen_random_tvg(6, 5, 1.0, 0)
    # preferential attachment: 1 seed pair + 2 per later node, both directions
    assert len(g.edges) == 2 * (1 + 2 * 4)
    assert g.contact_count == len(g.edges) * 5
    assert gen_random_tvg(6, 5, 0.0, 0).contact_count == 0
    assert validate_graph(g).ok


@given(st.integers(2, 12), st.integers(1, 8), st.integers(0, 999))
@settings(max_examples=40)
def test_random_tvg_always_valid(nodes, horizon, seed):
    g = gen_random_tvg(nodes, horizon, 0.4, seed)
    assert validate_graph(g).ok
    assert len(g.nodes) == nodes and g.horizon == horizon


def test_random_tvg_rejects_bad_parameters():
    with pytest.raises(ValueError, match="at least 2"):
        gen_random_tvg(1, 5, 0.5, 0)
    with pytest.raises(ValueError, match="horizon"):
        gen_random_tvg(3, 0, 0.5, 0)
    with pytest.raises(ValueError, match="probability"):
        gen_random_tvg(3, 5, 1.5, 0)


def test_hard_family_sizes():
    # sizes, terminals and the sha256 of each rung's dumps()
    pins = {
        1: (2, 1, 1, "d1", "ad2e8fe99327c6f1f389d83b14a5d245"
                           "56a7fa7378e5dca7e3be4b6fddf82fee"),
        2: (6, 9, 7, "d2", "8c895f634e6b82c4575f6e6a3b87de7b"
                           "bd9923d2eede12ccdbe116e739b03bac"),
        3: (14, 26, 15, "d3", "257be2c47c800ef5151a5a033408269b"
                              "ba748130e11fb59859eceaab51a71233"),
    }
    for k, pin in pins.items():
        g, s, d = gen_counterexample(k)
        assert s == "s"
        assert (len(g.nodes), g.contact_count, g.horizon, d,
                hashlib.sha256(g.dumps().encode()).hexdigest()) == pin


def test_hard_family_runs_no_exact_search(replace_everywhere):
    # the ladder is data; verify.suite_gapfamily runs the oracles on it
    def refuse(g, s, d, delta):
        raise AssertionError(f"exact search {s}->{d} at delta {delta}")

    for oracle in (exact_maxflow_delta, exact_mincut_delta):
        replace_everywhere(oracle, refuse)
    for k in (1, 2, 3):
        gen_counterexample(k)


def test_hard_family_bounds():
    with pytest.raises(ValueError, match="k"):
        gen_counterexample(0)
    with pytest.raises(ValueError, match="k"):
        gen_counterexample(4)


def test_weighted_digraph_validation():
    with pytest.raises(ValueError, match="longer than the bound"):
        WeightedDigraph.from_json_dict({
            "nodes": ["a", "b"], "arcs": [{"from": "a", "to": "b", "len": 9}],
            "s": "a", "d": "b", "L": 2})
    with pytest.raises(ValueError, match="isolated node"):
        WeightedDigraph.from_json_dict({
            "nodes": ["a", "b", "c"],
            "arcs": [{"from": "a", "to": "b", "len": 1}],
            "s": "a", "d": "b", "L": 2})
    with pytest.raises(ValueError, match="arc b->b is a self-loop"):
        WeightedDigraph.from_json_dict({
            "nodes": ["a", "b"], "arcs": [{"from": "a", "to": "b", "len": 1},
                                          {"from": "b", "to": "b", "len": 2}],
            "s": "a", "d": "b", "L": 2})
    with pytest.raises(ValueError, match="terminals"):
        WeightedDigraph.from_json_dict({
            "nodes": ["a", "b"], "arcs": [{"from": "a", "to": "b", "len": 1}],
            "s": "a", "d": "zz", "L": 2})
    with pytest.raises(ValueError, match="node 'a' listed more than once"):
        WeightedDigraph.from_json_dict({
            "nodes": ["a", "b", "a"],
            "arcs": [{"from": "a", "to": "b", "len": 1}],
            "s": "a", "d": "b", "L": 2})
    with pytest.raises(ValueError, match="node 'a' listed more than once"):
        bledp_expand(WeightedDigraph(("a", "b", "a"), (("a", "b", 1),),
                                     "a", "b", 2))


def test_weighted_digraph_roundtrip():
    wd = gen_random_weighted_digraph(seed=3)
    again = WeightedDigraph.loads(wd.dumps())
    assert again == wd
    assert json.loads(wd.dumps())["L"] == wd.bound


@given(st.integers(0, 2000))
@settings(max_examples=60)
def test_random_weighted_digraph_is_well_formed(seed):
    wd = gen_random_weighted_digraph(6, 10, 5, seed)
    assert wd.problems() == []
    assert len({(u, v) for u, v, _ in wd.arcs}) == len(wd.arcs)
    assert gen_random_weighted_digraph(6, 10, 5, seed) == wd


def test_expansion_of_single_long_arc():
    wd = WeightedDigraph(("v1", "v2"), (("v1", "v2", 3),), "v1", "v2", 3)
    g = bledp_expand(wd)
    assert g.horizon == 3
    assert len(g.nodes) == 4  # two originals plus two chain nodes
    assert len(g.edges) == 3
    for e in g.edges:
        assert g.active[e.eid] == (1, 2, 3)
    assert bledp_exact(wd) == 1
    assert exact_maxflow_delta(g, "v1", "v2", 3).count == 1


def test_expansion_rejects_parallel_unit_arcs():
    wd = WeightedDigraph(("v1", "v2"),
                         (("v1", "v2", 1), ("v1", "v2", 1)),
                         "v1", "v2", 2)
    with pytest.raises(ValueError):
        bledp_expand(wd)


def test_two_disjoint_routes_pack():
    wd = WeightedDigraph(
        ("v1", "a", "v2"),
        (("v1", "a", 1), ("a", "v2", 1), ("v1", "v2", 2)),
        "v1", "v2", 2)
    assert bledp_exact(wd) == 2
    g = bledp_expand(wd)
    assert exact_maxflow_delta(g, "v1", "v2", 2).count == 2


def test_reduction_preserves_packing_number():
    for seed in range(10):
        wd = gen_random_weighted_digraph(5, 8, 4, 4000 + seed)
        g = bledp_expand(wd)
        assert bledp_exact(wd) == exact_maxflow_delta(
            g, wd.s, wd.d, wd.bound).count


def test_bledp_exact_past_its_path_budget_is_too_large():
    # the complete 9-node digraph has 13,700 simple v1->v9 paths, none of
    # them longer than 8 unit arcs
    nodes = tuple(f"v{i}" for i in range(1, 10))
    wd = WeightedDigraph(nodes, tuple((u, v, 1) for u in nodes
                                      for v in nodes if u != v),
                         "v1", "v9", 8)
    assert len(list(generators._simple_bounded_paths(wd))) == 13_700
    with pytest.raises(InstanceTooLargeError,
                       match="more than 4000 candidate paths"):
        bledp_exact(wd)


def test_bledp_exact_refuses_before_listing_every_path():
    # The complete 12-node digraph has about 9.9 million simple v1->v12
    # paths; listing them all before the budget check runs out of a 1 GB
    # address space, so the child process runs under that limit.
    src = os.path.dirname(os.path.dirname(os.path.abspath(generators.__file__)))
    child = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from tempocut import InstanceTooLargeError, WeightedDigraph, "
        "bledp_exact\n"
        "nodes = tuple(f'v{i}' for i in range(1, 13))\n"
        "wd = WeightedDigraph(nodes, tuple((u, v, 1) for u in nodes\n"
        "                                  for v in nodes if u != v),\n"
        "                     'v1', 'v12', 11)\n"
        "try:\n"
        "    bledp_exact(wd)\n"
        "except InstanceTooLargeError as e:\n"
        "    print(e)\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "instance too large for exact oracle: more than 4000 candidate "
           "paths\n", "")


def test_reduction_preserves_packing_when_paths_share_arcs():
    """Denser digraphs, where the packing is below the path count, so
    bledp_exact's conflict loop runs: some paths share an arc."""
    shared = 0
    for seed in range(30):
        wd = gen_random_weighted_digraph(6, 20, 5, seed)
        want = bledp_exact(wd)
        g = bledp_expand(wd)
        assert exact_maxflow_delta(g, wd.s, wd.d, wd.bound).count == want
        shared += want < len(list(generators._simple_bounded_paths(wd)))
    assert shared, "no instance has paths that share an arc"
