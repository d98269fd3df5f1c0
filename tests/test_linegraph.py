"""Contact expansion and the node-capacitated flow engine under it."""

import dataclasses
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (Contact, DeltaRemoval, Journey, TimeVaryingGraph,
                      build_line_graph, exact_maxflow_delta,
                      gen_counterexample, gen_random_tvg, is_valid_journey,
                      min_hop_path, node_disjoint_maxflow, reachable,
                      set_weights, time_expanded_maxflow, weighted_mincut_1)
from tempocut import verify
from tempocut.linegraph import (DST, SRC, _scaled_caps, _time_expanded_flow,
                                _time_expanded_network)
from tempocut.mincut import _approximations
from tempocut.tvg import _contact_id, _contacts_of, contacts
from reference import apply_removals, enumerate_journeys

graphs = st.builds(
    gen_random_tvg,
    node_count=st.integers(2, 5),
    horizon=st.integers(1, 5),
    p=st.floats(0.1, 0.8),
    seed=st.integers(0, 10**6),
)


def _count_source_sink_paths(succ):
    @lru_cache(maxsize=None)
    def walk(v):
        if v == DST:
            return 1
        return sum(walk(w) for w in succ[v])

    return walk(SRC)


def test_expansion_shape(relay):
    lg = build_line_graph(relay, "s", "d")
    assert lg.node_count == 6
    assert lg.arc_count == 7
    assert lg.contact_list == (
        Contact("e1", 1), Contact("e1", 2), Contact("e2", 2), Contact("e2", 3))
    assert lg.succ == ((2, 3), (), (4, 5), (5,), (1,), (1,))


@given(graphs)
@settings(max_examples=60)
def test_paths_correspond_to_journeys(g):
    s, d = g.nodes[0], g.nodes[-1]
    lg = build_line_graph(g, s, d)
    assert _count_source_sink_paths(lg.succ) == len(
        enumerate_journeys(g, s, d, cap=500_000))


def _line_graph_min_hop(lg, dead=None):
    """The min-hop search as a BFS over the line graph: FIFO order,
    first-discovery parents, and nodes flagged in `dead` (indexed like the
    node space) never entered. The reference for min_hop_path."""
    if dead is None:
        parent = [-1] * lg.node_count
    else:
        # -2 reads as already discovered, so dead nodes are never entered
        parent = [-2 if x else -1 for x in dead]
    parent[SRC] = SRC
    frontier = [SRC]
    while frontier and parent[DST] == -1:
        nxt = []
        for u in frontier:
            for v in lg.succ[u]:
                if parent[v] == -1:
                    parent[v] = u
                    if v == DST:
                        break
                    nxt.append(v)
            if parent[DST] != -1:
                break
        frontier = nxt
    if parent[DST] == -1:
        return None
    hops = []
    node = parent[DST]
    while node != SRC:
        hops.append(lg.contact_list[node - 2])
        node = parent[node]
    hops.reverse()
    return Journey(tuple(hops))


def _searches_agree(g, s, d, rng):
    """min_hop_path equals the line-graph BFS on one pair, unmasked and
    under seeded random dead masks; line-graph node i + 2 is contact id i.
    Returns how many of the searches found a journey."""
    lg = build_line_graph(g, s, d)
    n = len(lg.contact_list)
    masks = [None] + [[rng.random() < p for _ in range(n)]
                      for p in (0.1, 0.1, 0.3, 0.3, 0.5)]
    found = 0
    for dead in masks:
        want = _line_graph_min_hop(
            lg, None if dead is None else [False, False] + dead)
        assert min_hop_path(g, s, d, dead) == want, (s, d, dead)
        found += want is not None
    return found


def test_min_hop_path_matches_the_line_graph_search():
    rng = random.Random(12)
    searches = found = 0
    for seed in range(100):  # the medium corpus
        found += _searches_agree(gen_random_tvg(10, 12, 0.5, seed), "n1",
                                 "n10", rng)
        searches += 6
    for seed in range(30):  # every ordered pair: terminals anywhere
        g = gen_random_tvg(8, 10, 0.5, seed)
        for s in g.nodes:
            for d in g.nodes:
                if s != d:
                    found += _searches_agree(g, s, d, rng)
                    searches += 6
    for k in (1, 2, 3):
        g, s, d = gen_counterexample(k)
        found += _searches_agree(g, s, d, rng)
        searches += 6
    assert searches == 10_698
    assert searches // 2 < found < searches


@given(graphs, st.integers(0, 10**6))
@settings(max_examples=80)
def test_min_hop_path_matches_the_line_graph_search_on_any_graph(g, seed):
    rng = random.Random(seed)
    for s in g.nodes:
        for d in g.nodes:
            if s != d:
                _searches_agree(g, s, d, rng)


def test_min_hop_path_relay(relay):
    j = min_hop_path(relay, "s", "d")
    assert j.hops == (Contact("e1", 1), Contact("e2", 2))
    dead = [False] * relay.contact_count
    dead[0] = True  # e1@1
    assert min_hop_path(relay, "s", "d", dead).hops == (
        Contact("e1", 2), Contact("e2", 3))
    dead[1] = True  # e1@2
    assert min_hop_path(relay, "s", "d", dead) is None


@given(graphs, st.integers(0, 10**6))
@settings(max_examples=60)
def test_dead_mask_acts_like_deleted_contacts(g, seed):
    rng = random.Random(seed)
    s, d = g.nodes[0], g.nodes[-1]
    gone = {c for c in contacts(g) if rng.random() < 0.4}
    dead = [c in gone for c in contacts(g)]
    rest = apply_removals(g, [DeltaRemoval(e, t, 1) for e, t in gone])
    assert min_hop_path(g, s, d, dead) == min_hop_path(rest, s, d)


def test_min_hop_path_none_when_disconnected():
    g = TimeVaryingGraph(["s", "a", "d"], [("s", "a", [1])], 2)
    assert min_hop_path(g, "s", "d") is None


def _check_walks(g, s, d, walks):
    """The walks are valid s->d journeys, each ending at its first arrival
    at d, and no two share a contact."""
    hops = [c for j in walks for c in j.hops]
    assert len(hops) == len(set(hops))  # contact-disjoint
    for j in walks:
        assert is_valid_journey(g, j, s, d), j
        assert all(g.edge(e).dst != d for e, _ in j.hops[:-1]), j


def test_unit_flow_relay(relay):
    lg = build_line_graph(relay, "s", "d")
    res = node_disjoint_maxflow(lg)
    assert res.value == Fraction(2)
    assert set(res.cut) == {Contact("e1", 1), Contact("e1", 2)}
    walks = exact_maxflow_delta(relay, "s", "d", 1).journeys
    assert len(walks) == 2
    _check_walks(relay, "s", "d", walks)


def test_weighted_flow_scales(relay):
    lg = build_line_graph(relay, "s", "d")
    half = {c: Fraction(1, 2) for c in lg.contact_list}
    res = node_disjoint_maxflow(lg, weights=half)
    assert res.value == Fraction(1)
    assert sum(half[c] for c in res.cut) == Fraction(1)


@given(graphs)
@settings(max_examples=40)
def test_unit_flow_value_equals_cut_size(g):
    s, d = g.nodes[0], g.nodes[-1]
    res = node_disjoint_maxflow(build_line_graph(g, s, d))
    assert res.value == len(res.cut) == exact_maxflow_delta(g, s, d, 1).count


@given(graphs)
@settings(max_examples=80)
def test_unit_flow_walks_match_the_line_graph(g):
    """On every ordered pair: as many walks as the line graph's unit max
    flow, each a valid journey ending at its first arrival at d, no two
    sharing a contact."""
    for s in g.nodes:
        for d in g.nodes:
            if s != d:
                walks = exact_maxflow_delta(g, s, d, 1).journeys
                unit = node_disjoint_maxflow(build_line_graph(g, s, d))
                assert len(walks) == unit.value, (s, d)
                _check_walks(g, s, d, walks)


def _split_graph(nx, g, s, d):
    """The node-split contact expansion as a networkx DiGraph, written from
    g: contact c becomes an in-half/out-half pair joined by a capacitated
    arc; uncapacitated arcs join the source terminal to contacts leaving
    s, each contact to the later contacts leaving its head, and contacts
    into d to the destination terminal."""
    clist = contacts(g)
    net = nx.DiGraph()
    net.add_nodes_from(["src", "dst"])
    for c in clist:
        e = g.edge(c.edge)
        net.add_edge(("in", c), ("out", c))
        if e.src == s:
            net.add_edge("src", ("in", c))
        if e.dst == d:
            net.add_edge(("out", c), "dst")
        for c2 in clist:
            if g.edge(c2.edge).src == e.dst and c2.slot > c.slot:
                net.add_edge(("out", c), ("in", c2))
    return net


def test_weighted_flow_cut_and_value_against_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(160):
        g = gen_random_tvg(3 + seed % 6, 2 + seed % 9, 0.2 + seed % 7 / 10,
                           seed)
        s, d = g.nodes[0], g.nodes[-1]
        lg = build_line_graph(g, s, d)
        net = _split_graph(nx, g, s, d)
        for delta in range(1, 6):
            weights = set_weights(g, delta)
            # networkx gets the weights scaled to integers
            scale = math.lcm(*(w.denominator for w in weights.values()))
            for c, w in weights.items():
                net[("in", c)][("out", c)]["capacity"] = int(w * scale)
            want = nx.maximum_flow_value(net, "src", "dst")
            for res in (node_disjoint_maxflow(lg, weights=weights),
                        time_expanded_maxflow(g, s, d, weights=weights)):
                assert sum(weights[c] for c in res.cut) == res.value
                assert not reachable(g, s, d, banned=frozenset(res.cut))
                assert res.value * scale == want


def _engines_agree(g, s, d, weightings=(None,)):
    """Both max flows on one pair under each weighting: equal value and
    equal cut tuple. Returns how many of the values are nonzero."""
    lg = build_line_graph(g, s, d)
    nonzero = 0
    for weights in weightings:
        want = node_disjoint_maxflow(lg, weights=weights)
        got = time_expanded_maxflow(g, s, d, weights=weights)
        assert (got.value, got.cut) == (want.value, want.cut), (s, d, weights)
        nonzero += got.value > 0
    return nonzero


def _weightings(g):
    """Unit weights, then set_weights at delta 2, 3 and 5."""
    return [None] + [set_weights(g, delta) for delta in (2, 3, 5)]


def test_time_expanded_flow_matches_the_line_graph():
    cases = nonzero = 0
    # the medium corpus
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        ws = _weightings(g)
        cases += len(ws)
        nonzero += _engines_agree(g, "n1", "n10", ws)
    # every ordered pair, so terminals sit anywhere in the graph
    for seed in range(5):
        g = gen_random_tvg(8, 10, 0.5, seed)
        ws = _weightings(g)
        for s in g.nodes:
            for d in g.nodes:
                if s != d:
                    cases += len(ws)
                    nonzero += _engines_agree(g, s, d, ws)
    for k in (1, 2, 3):
        g, s, d = gen_counterexample(k)
        ws = _weightings(g)
        cases += len(ws)
        nonzero += _engines_agree(g, s, d, ws)
    assert cases == 1_532
    assert nonzero > cases // 2


@given(graphs, st.integers(1, 6), st.booleans())
@settings(max_examples=80)
def test_time_expanded_flow_matches_the_line_graph_on_any_graph(g, delta,
                                                                 unit):
    w = None if unit else set_weights(g, delta)
    for s in g.nodes:
        for d in g.nodes:
            if s != d:
                _engines_agree(g, s, d, [w])


def test_time_expanded_flow_rejects_what_the_line_graph_rejects(relay):
    # bad pairs: test_tvg.py::test_every_pair_query_rejects_a_bad_pair
    weights = dict.fromkeys(contacts(relay), Fraction(1, 2))
    for bad in (0, Fraction(-1, 3)):
        weights[Contact("e2", 3)] = bad
        for flow in (lambda: time_expanded_maxflow(relay, "s", "d", weights),
                     lambda: node_disjoint_maxflow(
                         build_line_graph(relay, "s", "d"), weights),
                     lambda: weighted_mincut_1(relay, weights, "s", "d")):
            with pytest.raises(ValueError, match="nonpositive weight"):
                flow()


def test_time_expanded_flow_relay(relay):
    res = time_expanded_maxflow(relay, "s", "d")
    assert res.value == 2
    assert res.cut == (Contact("e1", 1), Contact("e1", 2))
    # a source with no departures, and a head with no later departure
    g = TimeVaryingGraph(["s", "a", "d"], [("s", "a", [2]), ("a", "d", [1]),
                                           ("d", "s", [])], 2)
    for s, d in (("s", "d"), ("d", "a")):
        assert _engines_agree(g, s, d) == 0


def test_time_expanded_network_has_one_node_per_arrival_event():
    # a departs at 1 before its first arrival (2), and departs on two
    # edges at 3 and at 5; d's departure is never reached
    g = TimeVaryingGraph(["s", "a", "b", "d"], [
        ("s", "a", [2, 4]), ("a", "d", [1, 3, 5]), ("a", "b", [3, 5]),
        ("b", "d", [4, 6]), ("s", "b", [1]), ("d", "a", [2])], 6)
    size, waits, arcs = _time_expanded_network(g, "s", "d")
    # hubs: s's first departure; a at 3 and 5; b at 4 and 6
    assert size == 2 + 1 + 2 + 2
    assert len(waits) == 3  # SRC -> s, a@3 -> a@5, b@4 -> b@6
    # every contact but a->d@1 and d->a@2, whose hubs are dropped
    clist = contacts(g)
    assert sorted(clist[i] for i, _, _ in arcs) == sorted(
        set(clist) - {Contact("e2", 1), Contact("e6", 2)})
    ws = [None] + [set_weights(g, delta) for delta in (2, 3)]
    for s in g.nodes:
        for d in g.nodes:
            if s != d:
                _engines_agree(g, s, d, ws)
    assert time_expanded_maxflow(g, "s", "d").value == 3


def test_time_expanded_network_size_is_pinned():
    # the medium corpus, n1->n10: one node per arrival event gives 8,007
    # nodes and 23,046 arcs in all, where one hub per departure gave
    # 20,690 and 38,294
    nodes = arcs = 0
    for seed in range(100):
        size, waits, contact_arcs = _time_expanded_network(
            gen_random_tvg(10, 12, 0.5, seed), "n1", "n10")
        nodes += size
        arcs += len(waits) + len(contact_arcs)
    assert (nodes, arcs) == (8_007, 23_046)


def _enumerated_family(g, s, d):
    """Contact-disjoint journeys taken in enumeration order, revisits
    included; each arrives at d only at its end, as the network's paths
    do."""
    used: set[int] = set()
    family = []
    for j in enumerate_journeys(g, s, d):
        ids = [_contact_id(g, c) for c in j.hops]
        if all(g.edge(e).dst != d for e, _ in j.hops[:-1]) and \
                used.isdisjoint(ids):
            used.update(ids)
            family.append(tuple(ids))
    return family


def _warm_start_agrees(g, s, d, delta, families):
    """_time_expanded_flow from each family equals it from zero flow, with
    unit capacities and with the rounded cut's at delta; from each family
    the unit flow's walks are still contact-disjoint journeys. Returns
    (value, journeys in the families that revisit a node)."""
    revisits = 0
    unit = [1] * g.contact_count
    for caps in (unit, _scaled_caps(contacts(g), set_weights(g, delta))[1]):
        want = _time_expanded_flow(g, s, d, caps)[:2]
        for family in families:
            value, cut, walks = _time_expanded_flow(g, s, d, caps, family)
            assert (value, cut) == want, (s, d, delta, family)
            if caps is unit:
                _check_walks(g, s, d, [Journey(tuple(_contacts_of(g, ids)))
                                       for ids in walks()])
    clist = contacts(g)
    for family in families:
        for ids in family:
            heads = {g.edge(clist[i].edge).dst for i in ids}
            revisits += len(heads | {s}) <= len(ids)
    return want[0], revisits


def test_warm_started_flow_keeps_value_and_cut():
    """The greedy's family on the medium corpus at delta 1, 2, 3 and 5;
    on small graphs, every ordered pair with the greedy's family and an
    enumerated one, so pairs with no journey and journeys that come back
    to a node at a later slot are covered."""
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        for delta in (1, 2, 3, 5):
            _warm_start_agrees(g, "n1", "n10", delta,
                               [_approximations(g, "n1", "n10", delta)[2]])
    empty = revisits = 0
    for seed in range(40):
        g = gen_random_tvg(3 + seed % 4, 3 + seed % 5, 0.5, seed)
        for s in g.nodes:
            for d in g.nodes:
                if s != d:
                    delta = 1 + seed % 3
                    value, back = _warm_start_agrees(g, s, d, delta, [
                        _approximations(g, s, d, delta)[2],
                        _enumerated_family(g, s, d)])
                    empty += value == 0
                    revisits += back
    assert empty and revisits, (empty, revisits)


@given(graphs, st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_warm_started_flow_keeps_value_and_cut_on_any_graph(g, delta):
    for s in g.nodes:
        for d in g.nodes:
            if s != d:
                _warm_start_agrees(g, s, d, delta, [
                    _approximations(g, s, d, delta)[2],
                    _enumerated_family(g, s, d)])


def test_engines_suite_compares_the_two_max_flows(monkeypatch):
    res = verify.suite_engines(6)
    assert res.passed and res.checked == 48, res.summary()

    def drop_last_cut_contact(g, s, d, weights=None):
        got = time_expanded_maxflow(g, s, d, weights)
        return dataclasses.replace(got, cut=got.cut[:-1])

    monkeypatch.setattr(verify, "time_expanded_maxflow", drop_last_cut_contact)
    res = verify.suite_engines(6)
    assert res.failures and all("cut differs" in f for f in res.failures)

    def one_more_unit(g, s, d, weights=None):
        got = time_expanded_maxflow(g, s, d, weights)
        return dataclasses.replace(got, value=got.value + 1)

    monkeypatch.setattr(verify, "time_expanded_maxflow", one_more_unit)
    assert verify.suite_engines(1).summary() == (
        "engines: 8/8 FAILED: seed 1200 n1->n8 unit: value 13 != line graph "
        "12; seed 1200 n1->n8 delta 2: value 8 != line graph 7; seed 1200 "
        "n1->n8 delta 3: value 16/3 != line graph 13/3; seed 1200 n1->n8 "
        "delta 5: value 23/6 != line graph 17/6; seed 1200 n8->n1 unit: value "
        "12 != line graph 11 (+3 more)")
