"""Model layer: construction, validation, journeys, removals, interference."""

import json
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (Contact, DeltaRemoval, InstanceTooLargeError, Journey,
                      TimeVaryingGraph, analyze_exact, check_analysis,
                      contacts, exact_maxflow_delta, exact_mincut_delta,
                      gen_random_tvg, greedy_maxflow_delta, interferes,
                      is_valid_journey, load_tvg, minweight_mincut_delta,
                      reachable, removal_footprint, save_tvg,
                      survivability_bounds, time_expanded_maxflow,
                      validate_graph, verify_cut)
from tempocut.linegraph import build_line_graph, min_hop_path
from tempocut.tvg import (_contacts_reaching, _min_hop_surviving,
                          _run_table, interfering_contacts)
from reference import apply_removals, enumerate_journeys

graphs = st.builds(
    gen_random_tvg,
    node_count=st.integers(2, 6),
    horizon=st.integers(1, 6),
    p=st.floats(0.1, 0.9),
    seed=st.integers(0, 10**6),
)


@st.composite
def graphs_with_removals(draw):
    g = draw(graphs)
    eids = [e.eid for e in g.edges]
    removal = st.builds(
        DeltaRemoval,
        edge=st.sampled_from(eids),
        head=st.integers(1, g.horizon),
        delta=st.integers(1, 4),
    )
    return g, draw(st.lists(removal, max_size=6))


@st.composite
def graphs_with_banned(draw):
    g = draw(graphs)
    s, d = draw(st.lists(st.sampled_from(g.nodes), min_size=2, max_size=2,
                         unique=True))
    cs = contacts(g)
    keep = draw(st.lists(st.booleans(), min_size=len(cs), max_size=len(cs)))
    return g, s, d, frozenset(c for c, k in zip(cs, keep) if k)


def test_edge_ids_follow_declaration_order(relay):
    assert [e.eid for e in relay.edges] == ["e1", "e2"]
    assert relay.edge("e1").src == "s"
    assert relay.edge("e1").dst == "a"
    assert relay.edge("e2").dst == "d"


def test_contact_listing_is_deterministic(relay):
    assert contacts(relay) == [
        Contact("e1", 1), Contact("e1", 2), Contact("e2", 2), Contact("e2", 3),
    ]
    assert relay.contact_count == 4


def test_constructor_normalizes_slots():
    g = TimeVaryingGraph(["a", "b"], [("a", "b", [3, 1, 3, 1])], 5)
    assert g.active["e1"] == (1, 3)


def test_validate_flags_duplicate_edge():
    g = TimeVaryingGraph(["a", "b"], [("a", "b", [1]), ("a", "b", [2])], 3)
    assert validate_graph(g) == ["e2: duplicate edge 'a'->'b'"]


def test_validate_flags_unknown_endpoint_and_bad_slot():
    g = TimeVaryingGraph(["a"], [("a", "ghost", [0, 1, 9])], 3)
    violations = validate_graph(g)
    assert any("not in node set" in v for v in violations)
    assert any("outside 1..3" in v for v in violations)


@pytest.mark.parametrize("slots", [[], [2], [1, 3], [0, 2], [2, 5],
                                   [0, 2, 4], [5, -1, 0, 4, 1]])
def test_validate_flags_every_slot_outside_the_horizon(slots):
    g = TimeVaryingGraph(["a", "b"], [("a", "b", slots)], 3)
    assert validate_graph(g) == [
        f"e1: active slot {t} outside 1..3" for t in sorted(slots)
        if not 1 <= t <= 3]


def test_validate_flags_repeated_node_and_self_loop():
    g = TimeVaryingGraph(["a", "b", "a", "a"], [("a", "a", [1]),
                                                ("a", "b", [1])], 3)
    assert g.nodes == ("a", "b", "a", "a")
    assert validate_graph(g) == ["node 'a' listed more than once",
                                 "node 'a' listed more than once",
                                 "e1: self-loop 'a'->'a'"]


def test_loads_rejects_invalid_document():
    with pytest.raises(ValueError, match="malformed graph document"):
        TimeVaryingGraph.loads('{"nodes": ["a"]}')
    with pytest.raises(ValueError, match="invalid graph"):
        TimeVaryingGraph.loads(
            '{"T": 2, "nodes": ["a", "b"],'
            ' "edges": [{"from": "a", "to": "b", "active": [7]}]}')


@given(graphs)
def test_json_roundtrip(g):
    assert g.dumps() == json.dumps(g.to_json_dict(), indent=2) + "\n"
    assert TimeVaryingGraph.loads(g.dumps()) == g


_ODD_NAMES = ['say "hi"', "back\\slash", "bell\x07", "Zürich", "東京"]


@pytest.mark.parametrize("g", [
    *(gen_random_tvg(n, t, 0.5, seed)
      for n, t, seed in [(2, 1, 0), (4, 5, 1), (10, 12, 7), (20, 40, 3)]),
    TimeVaryingGraph([], [], 3),
    TimeVaryingGraph(["a", "b"], [], 3),
    TimeVaryingGraph(["a", "b"], [("a", "b", []), ("b", "a", [2, 1])], 3),
    TimeVaryingGraph(_ODD_NAMES, [(_ODD_NAMES[0], _ODD_NAMES[3], [1]),
                                  (_ODD_NAMES[4], _ODD_NAMES[2], [])], 2),
], ids=["random-2x1", "random-4x5", "random-10x12", "random-20x40",
        "no-nodes", "no-edges", "no-slots", "odd-names"])
def test_dumps_is_indented_json_of_the_document(g):
    assert g.dumps() == json.dumps(g.to_json_dict(), indent=2) + "\n"
    assert TimeVaryingGraph.loads(g.dumps()) == g


def test_save_tvg_writes_dumps_and_load_tvg_reads_it_back(tmp_path, relay):
    path = tmp_path / "relay.json"
    save_tvg(relay, str(path))
    assert path.read_bytes() == relay.dumps().encode()
    assert load_tvg(str(path)) == relay


def test_enumerate_journeys_relay(relay):
    js = enumerate_journeys(relay, "s", "d")
    assert [j.to_json_obj() for j in js] == [
        [["e1", 1], ["e2", 2]],
        [["e1", 1], ["e2", 3]],
        [["e1", 2], ["e2", 3]],
    ]


def test_enumerate_journeys_allows_revisits():
    # s->a, back to s, then out again later
    g = TimeVaryingGraph(
        ["s", "a", "d"],
        [("s", "a", [1, 3]), ("a", "s", [2]), ("a", "d", [4])],
        4,
    )
    js = enumerate_journeys(g, "s", "d")
    assert len(js) == 3
    assert max(len(j.hops) for j in js) == 4  # the loop journey


def test_enumerate_journeys_cap(relay):
    with pytest.raises(InstanceTooLargeError, match="journeys"):
        enumerate_journeys(relay, "s", "d", cap=2)


def test_journey_requires_hops():
    with pytest.raises(ValueError, match="at least one hop"):
        Journey(())


def test_is_valid_journey_rejects_bad_chains(relay):
    good = Journey((Contact("e1", 1), Contact("e2", 2)))
    assert is_valid_journey(relay, good, "s", "d")
    # slots must strictly increase
    assert not is_valid_journey(
        relay, Journey((Contact("e1", 2), Contact("e2", 2))), "s", "d")
    # inactive slot
    assert not is_valid_journey(
        relay, Journey((Contact("e1", 3), )), "s", "a")
    # wrong terminal
    assert not is_valid_journey(relay, good, "s", "a")
    # chain must be spatially connected
    assert not is_valid_journey(
        relay, Journey((Contact("e2", 2), )), "s", "d")


@given(graphs)
@settings(max_examples=60)
def test_enumeration_agrees_with_reachability(g):
    s, d = g.nodes[0], g.nodes[-1]
    js = enumerate_journeys(g, s, d, cap=200_000)
    assert bool(js) == reachable(g, s, d)
    for j in js[:50]:
        assert is_valid_journey(g, j, s, d)


@given(graphs_with_banned())
@settings(max_examples=200, deadline=None)
def test_reachable_agrees_with_enumeration_under_bans(case):
    g, s, d, banned = case
    js = enumerate_journeys(g, s, d, cap=200_000)
    assert reachable(g, s, d, banned) == any(
        banned.isdisjoint(j.hops) for j in js)
    assert reachable(g, s, d) == reachable(g, s, d, frozenset()) == bool(js)


PAIR_QUERIES = {
    "reachable": reachable,
    "verify_cut": lambda g, s, d: verify_cut(g, [], s, d),
    "enumerate_journeys": enumerate_journeys,
    "build_line_graph": build_line_graph,
    "min_hop_path": min_hop_path,
    "time_expanded_maxflow": time_expanded_maxflow,
    "greedy_maxflow_delta": lambda g, s, d: greedy_maxflow_delta(g, s, d, 2),
    "exact_maxflow_delta": lambda g, s, d: exact_maxflow_delta(g, s, d, 2),
    "minweight_mincut_delta":
        lambda g, s, d: minweight_mincut_delta(g, s, d, 2),
    "exact_mincut_delta": lambda g, s, d: exact_mincut_delta(g, s, d, 2),
    "analyze_exact": lambda g, s, d: analyze_exact(g, s, d, 2),
    "survivability_bounds":
        lambda g, s, d: survivability_bounds(g, s, d, 1, 2),
    "check_analysis": lambda g, s, d: check_analysis(g, s, d, 2, {}),
}


@pytest.mark.parametrize("query", PAIR_QUERIES.values(), ids=list(PAIR_QUERIES))
def test_every_pair_query_rejects_a_bad_pair(relay, query):
    for s, d, message in (("s", "zz", "unknown node 'zz'"),
                          ("zz", "d", "unknown node 'zz'"),
                          ("s", "s", "source and destination must differ")):
        with pytest.raises(ValueError, match=message):
            query(relay, s, d)


def test_reachable_respects_banned_contacts(relay):
    assert reachable(relay, "s", "d")
    assert not reachable(
        relay, "s", "d",
        banned=frozenset({Contact("e1", 1), Contact("e1", 2)}))
    assert reachable(relay, "s", "d", banned=frozenset({Contact("e1", 1)}))


def test_reachable_builds_the_contact_index_but_no_arcs(no_line_graph):
    g = gen_random_tvg(12, 20, 0.5, 3)
    assert g._contact_ix is None
    assert reachable(g, "n1", "n12")
    assert g._contact_ix is not None
    assert g == TimeVaryingGraph.loads(g.dumps())


def test_kept_index_takes_no_part_in_equality_or_hashing():
    for seed in range(5):
        g = gen_random_tvg(8, 10, 0.5, seed)
        _run_table(g, 2)  # builds the contact index and keeps a run table
        copy = TimeVaryingGraph.loads(g.dumps())
        assert g._contact_ix.runs and copy._contact_ix is None
        assert g == copy and hash(g) == hash(copy)


def _reaching_by_definition(g, d):
    """Per contact, True iff it is into d or some later contact leaving
    its head reaches d."""
    memo = {}

    def reaches(c):
        if c not in memo:
            head = g.edge(c.edge).dst
            memo[c] = head == d or any(
                reaches(Contact(e.eid, t)) for e in g.edges if e.src == head
                for t in g.active[e.eid] if t > c.slot)
        return memo[c]

    return [reaches(c) for c in contacts(g)]


@given(graphs)
@settings(max_examples=60)
def test_contacts_reaching_is_the_suffix_definition(g):
    for d in g.nodes:
        assert _contacts_reaching(g, d) == _reaching_by_definition(g, d)


def test_removal_footprint_window(relay):
    assert removal_footprint(relay, DeltaRemoval("e1", 1, 2)) == [
        Contact("e1", 1), Contact("e1", 2)]
    assert removal_footprint(relay, DeltaRemoval("e1", 2, 2)) == [
        Contact("e1", 2)]
    assert removal_footprint(relay, DeltaRemoval("e2", 9, 3)) == []
    # a head before slot 1, and a window past the horizon (3)
    assert removal_footprint(relay, DeltaRemoval("e1", -1, 3)) == [
        Contact("e1", 1)]
    assert removal_footprint(relay, DeltaRemoval("e1", -2, 2)) == []
    assert removal_footprint(relay, DeltaRemoval("e2", 3, 5)) == [
        Contact("e2", 3)]
    with pytest.raises(ValueError, match="positive"):
        removal_footprint(relay, DeltaRemoval("e1", 1, 0))
    with pytest.raises(ValueError, match="unknown edge"):
        removal_footprint(relay, DeltaRemoval("zz", 1, 1))


@given(graphs_with_removals())
@settings(max_examples=60)
def test_apply_removals_order_insensitive(case):
    g, removals = case
    forward = apply_removals(g, removals)
    backward = apply_removals(g, list(reversed(removals)))
    assert forward == backward
    dead = set()
    for r in removals:
        dead.update(removal_footprint(g, r))
    assert set(contacts(forward)) == set(contacts(g)) - dead


def test_interferes_is_per_edge_and_windowed():
    a = Journey((Contact("e1", 1), Contact("e2", 5)))
    b = Journey((Contact("e1", 2), Contact("e3", 5)))
    assert not interferes(a, b, 1)  # delta=1 means only identical contacts clash
    assert interferes(a, b, 2)
    assert interferes(a, a, 1)
    c = Journey((Contact("e4", 1), Contact("e5", 5)))
    assert not interferes(a, c, 10)
    with pytest.raises(ValueError, match="positive"):
        interferes(a, b, 0)


def test_interfering_contacts_relay(relay):
    j = Journey((Contact("e1", 1), Contact("e2", 2)))
    assert set(interfering_contacts(relay, j, 2)) == {
        Contact("e1", 1), Contact("e1", 2), Contact("e2", 2), Contact("e2", 3)}
    assert set(interfering_contacts(relay, j, 1)) == set(j.hops)


def _sorting_search(g, s, d, banned):
    """_min_hop_surviving as first written: banned contacts as a set, and
    each expansion collects the earliest usable contact per out-edge and
    sorts them by (slot, edge order)."""
    best_slot = {}
    parent = {}

    def out_contacts(node, after):
        found = []
        for e in (f for f in g.edges if f.src == node):
            slots = g.active[e.eid]
            for k in range(bisect_right(slots, after), len(slots)):
                c = Contact(e.eid, slots[k])
                if c not in banned:
                    found.append(c)
                    break  # earliest usable slot on e dominates later ones
        found.sort(key=lambda c: (c.slot, g.edge_index(c.edge)))
        return found

    frontier = []
    for c in out_contacts(s, 0):
        parent[c] = None
        best_slot[c.edge] = c.slot
        frontier.append(c)

    while frontier:
        nxt = []
        for c in frontier:
            if g.edge(c.edge).dst == d:
                hops = [c]
                cur = parent[c]
                while cur is not None:
                    hops.append(cur)
                    cur = parent[cur]
                hops.reverse()
                return Journey(tuple(hops))
        for c in frontier:
            for c2 in out_contacts(g.edge(c.edge).dst, c.slot):
                known = best_slot.get(c2.edge)
                if known is not None and known <= c2.slot:
                    continue
                parent[c2] = c
                best_slot[c2.edge] = c2.slot
                nxt.append(c2)
        nxt.sort(key=lambda c: (c.slot, g.edge_index(c.edge)))
        frontier = nxt
    return None


def test_indexed_search_returns_the_sorting_search_journey():
    """Same journey, not just the same reachability, on 6,600 seeded cases.

    Each graph gains a node with no edges ("iso"), and the first node keeps
    its edges but loses every contact, so some sources and destinations
    have no contacts at all."""
    cases = found = 0
    for seed in range(600):
        rng = random.Random(seed)
        base = gen_random_tvg(rng.randint(3, 11), rng.randint(1, 12),
                              rng.uniform(0.1, 0.9), seed)
        g = TimeVaryingGraph(
            base.nodes + ("iso",),
            [(e.src, e.dst, [] if e.src == base.nodes[0] else base.active[e.eid])
             for e in base.edges],
            base.horizon) if seed % 3 == 0 else base
        ids = contacts(g)
        for _ in range(11):
            s, d = rng.sample(g.nodes, 2)
            q = rng.choice((0.0, 0.1, 0.3, 0.6))
            banned = frozenset(c for c in ids if rng.random() < q)
            want = _sorting_search(g, s, d, banned)
            got = _min_hop_surviving(g, s, d, [c in banned for c in ids])
            if got is not None:  # contact ids, which index contacts(g)
                got = Journey(tuple(ids[i] for i in got))
            assert got == want, (seed, s, d, sorted(banned))
            foreign = banned | {Contact("e999", 1), Contact(g.edges[0].eid, 99)}
            assert reachable(g, s, d, foreign) == (want is not None)
            cases += 1
            found += want is not None
    assert cases == 6600 and 1000 < found < 6000


def _canonical_heads(g, c, delta):
    """Slots heading the delta-removals on c.edge that take out c,
    restricted to active slots: those in (c.slot - delta, c.slot]."""
    slots = g.active[c.edge]
    return list(slots[bisect_right(slots, c.slot - delta):
                      bisect_right(slots, c.slot)])


def _run_table_agrees(g, delta):
    """Every id's runs against bisect and filter references: heads
    back[i]..i, footprint range(i, reach[i]) and interference run
    range(back[i], reach[i])."""
    back, reach = _run_table(g, delta)
    clist = contacts(g)
    ids = {c: i for i, c in enumerate(clist)}.__getitem__
    assert len(back) == len(reach) == len(clist)
    assert _run_table(g, delta) is _run_table(g, delta)  # kept per delta
    for i, c in enumerate(clist):
        heads = clist[back[i]:i + 1]
        assert {h.edge for h in heads} == {c.edge}, (delta, c)
        assert [h.slot for h in heads] == _canonical_heads(g, c, delta)
        footprint = removal_footprint(g, DeltaRemoval(c.edge, c.slot, delta))
        assert list(range(i, reach[i])) == list(map(ids, footprint)), c
        near = interfering_contacts(g, Journey((c,)), delta)
        assert list(range(back[i], reach[i])) == list(map(ids, near)), c


def test_run_table_matches_the_bisect_references():
    """Every fourth graph of the medium corpus at delta 1..T+1 (delta > T
    included); the references cost O(edges) per id."""
    for seed in range(0, 100, 4):
        g = gen_random_tvg(10, 12, 0.5, seed)
        for delta in range(1, g.horizon + 2):
            _run_table_agrees(g, delta)
    with pytest.raises(ValueError, match="positive"):
        _run_table(g, 0)


@given(graphs)
@settings(max_examples=80, deadline=None)
def test_run_table_matches_the_bisect_references_on_any_graph(g):
    for delta in range(1, g.horizon + 2):
        _run_table_agrees(g, delta)
