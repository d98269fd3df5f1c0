"""Instance generators: random graphs, the hard family, path-packing inputs."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (WeightedDigraph, bledp_exact, bledp_expand,
                      exact_maxflow_delta, exact_mincut_delta,
                      gen_counterexample, gen_random_tvg,
                      gen_random_weighted_digraph, validate_graph)
from tempocut import generators, verify


def test_random_tvg_is_seed_determined():
    a = gen_random_tvg(8, 10, 0.5, 42)
    b = gen_random_tvg(8, 10, 0.5, 42)
    assert a == b and a.dumps() == b.dumps()
    assert gen_random_tvg(8, 10, 0.5, 43) != a


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
    g1, _, _ = gen_counterexample(1)
    assert (len(g1.nodes), g1.contact_count, g1.horizon) == (2, 1, 1)
    g2, _, _ = gen_counterexample(2)
    assert (len(g2.nodes), g2.contact_count, g2.horizon) == (6, 9, 7)
    g3, _, _ = gen_counterexample(3)
    assert (len(g3.nodes), g3.contact_count, g3.horizon) == (14, 26, 15)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("delta", [2, 3])
def test_hard_family_separates_flow_from_cut(k, delta):
    g, s, d = gen_counterexample(k)
    assert exact_maxflow_delta(g, s, d, delta).count == 1
    assert exact_mincut_delta(g, s, d, delta).count == k


def test_gapfamily_suite_reports_the_ladder_self_check(monkeypatch):
    # gen_counterexample checks both oracles itself; the suite reports it
    assert verify.suite_gapfamily().summary() == "gapfamily: 6 checks, all ok"
    real = generators.exact_mincut_delta

    def one_short(g, s, d, delta):
        cut = real(g, s, d, delta)
        return dataclasses.replace(cut, removals=cut.removals[1:])

    monkeypatch.setattr(generators, "exact_mincut_delta", one_short)
    res = verify.suite_gapfamily()
    assert (res.checked, len(res.failures)) == (6, 3)
    assert res.failures[1].startswith("k=2: ladder k=2 failed self-check")


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
