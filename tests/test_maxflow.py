"""Journey packing: greedy approximation and the exact oracle."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (Contact, DeltaRemoval, InstanceTooLargeError,
                      analyze_exact, check_analysis, delta_cover, discretize,
                      exact_maxflow_delta, exact_mincut_delta, gen_random_tvg,
                      greedy_bound_certificate, greedy_maxflow_delta,
                      interferes, is_valid_journey, Journey,
                      minweight_mincut_delta, parse_contact_trace,
                      set_weights, survivability_bounds)
from tempocut import maxflow
from tempocut.experiments import star_core_trace
from tempocut.linegraph import (build_line_graph, min_hop_path,
                                node_disjoint_maxflow)
from tempocut.maxflow import _closed_masks, _drop_dominated, _journey_tree
from tempocut.tvg import contacts, interfering_contacts
from reference import apply_removals, enumerate_journeys

graphs = st.builds(
    gen_random_tvg,
    node_count=st.integers(2, 6),
    horizon=st.integers(1, 6),
    p=st.floats(0.1, 0.8),
    seed=st.integers(0, 10**6),
)

deltas = st.integers(1, 4)


def _brute_pack(g, s, d, delta):
    """Reference optimum: exhaustive packing over ALL journeys, revisits
    included. Only usable on tiny instances."""
    js = enumerate_journeys(g, s, d, cap=100_000)
    m = len(js)
    if m > 26:
        return None
    conflict = [0] * m
    for i in range(m):
        for k in range(i + 1, m):
            if interferes(js[i], js[k], delta):
                conflict[i] |= 1 << k
                conflict[k] |= 1 << i
    best = 0

    def walk(start, banned, size):
        nonlocal best
        if size > best:
            best = size
        for k in range(start, m):
            if not (banned >> k) & 1:
                walk(k + 1, banned | conflict[k], size + 1)

    walk(0, 0, 0)
    return best


def _rebuilding_greedy(g, s, d, delta):
    """The greedy as first written: a min-hop search over a freshly built
    shrunken graph every round, no dead mask."""
    work = g
    found = []
    while True:
        j = min_hop_path(work, s, d)
        if j is None:
            return tuple(found)
        found.append(j)
        gone = interfering_contacts(work, j, delta)
        work = apply_removals(work, [DeltaRemoval(e, t, 1) for e, t in gone])


def test_greedy_matches_rebuilding_reference():
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        for delta in (1, 2, 3, 4):
            assert greedy_maxflow_delta(g, "n1", "n10", delta).journeys == \
                _rebuilding_greedy(g, "n1", "n10", delta)
    g = discretize(parse_contact_trace(star_core_trace(60)), 0, 60)
    for s in g.nodes:
        for d in g.nodes:
            if s != d:
                for delta in range(1, 21):
                    assert greedy_maxflow_delta(g, s, d, delta).journeys == \
                        _rebuilding_greedy(g, s, d, delta)


def _tree_candidates(g, s, d, delta=2):
    """The journey tree's candidates as contact-id tuples, and their closed
    masks at delta."""
    tree, closed = _journey_tree(g, s, d, delta, 100_000)
    return [tree.hops(k) for k in range(len(tree.leaf))], closed


def _simple_journey_objects(g, s, d):
    """The journey tree's candidates as Journeys, ids mapped through
    contacts(g)."""
    clist = contacts(g)
    return [Journey(tuple(clist[i] for i in ids))
            for ids in _tree_candidates(g, s, d)[0]]


def test_simple_journeys_are_the_node_simple_enumerated_ones():
    """The oracle's journey tree lists exactly the node-simple journeys of
    the independent enumerator, and of the reference walk over g, in the
    same order. The medium corpus's 10 nodes and density run at horizon 8:
    at its horizon 12 the enumerator, revisits included, takes about two
    minutes."""
    cases = [(gen_random_tvg(10, 8, 0.5, seed), "n1", "n10")
             for seed in range(100)]
    for seed in range(1500):
        g = gen_random_tvg(2 + seed % 6, 1 + seed % 8, 0.1 + seed % 9 / 10,
                           seed)
        cases.append((g, g.nodes[0], g.nodes[-1]))
    for g, s, d in cases:
        simple = []
        for j in enumerate_journeys(g, s, d, cap=100_000):
            nodes = [s] + [g.edge(c.edge).dst for c in j.hops]
            if len(set(nodes)) == len(nodes):
                simple.append(j)
        assert _simple_journey_objects(g, s, d) == simple
        assert _node_simple_journeys(g, s, d) == simple


def _node_simple_journeys(g, s, d):
    """Every node-simple s->d journey, written from g alone: depth-first in
    (slot, edge order), skipping contacts whose head is already on the walk,
    and ending each journey at its first contact into d."""
    order = {e.eid: k for k, e in enumerate(g.edges)}
    found = []
    walk = []
    on_walk = {s}

    def extend(node, after):
        leaving = sorted(((t, e) for e in g.edges if e.src == node
                          for t in g.active[e.eid] if t > after),
                         key=lambda te: (te[0], order[te[1].eid]))
        for t, e in leaving:
            if e.dst in on_walk:
                continue
            walk.append(Contact(e.eid, t))
            if e.dst == d:
                found.append(Journey(tuple(walk)))
            else:
                on_walk.add(e.dst)
                extend(e.dst, t)
                on_walk.discard(e.dst)
            walk.pop()

    extend(s, 0)
    return found


def test_simple_journeys_on_the_medium_corpus():
    """The oracle's journey tree lists the node-simple journeys of the
    medium corpus itself, horizon 12, in the order of a reference that
    drops revisits while walking g."""
    total = most = 0
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        want = _node_simple_journeys(g, "n1", "n10")
        assert _simple_journey_objects(g, "n1", "n10") == want, seed
        total += len(want)
        most = max(most, len(want))
    assert (total, most) == (58_873, 2_099)


def _conflict_masks(g, journeys, delta):
    """conflict[i] = bitmask of journeys interfering with journey i (i excluded).

    The reference: the exact flow's conflict masks as first written, from
    Journeys, per edge and slot."""
    m = len(journeys)
    users = {}  # edge -> slot -> user bitmask
    for i, j in enumerate(journeys):
        bit = 1 << i
        for e, t in j.hops:
            users.setdefault(e, {}).setdefault(t, 0)
            users[e][t] |= bit

    window = {}
    for e, per_slot in users.items():
        slots = sorted(per_slot)
        win = {}
        for t in slots:
            mask = 0
            for t2 in slots:
                if abs(t2 - t) < delta:
                    mask |= per_slot[t2]
            win[t] = mask
        window[e] = win

    conflict = [0] * m
    for i, j in enumerate(journeys):
        mask = 0
        for e, t in j.hops:
            mask |= window[e][t]
        conflict[i] = mask & ~(1 << i)
    return conflict


def _drop_dominated_in_popcount_order(conflict):
    """The reference domination pass as first written, over open conflict
    masks: every live journey in popcount order tests all its live
    neighbours, and twins keep the lower index."""
    m = len(conflict)
    closed = [conflict[i] | (1 << i) for i in range(m)]
    alive = (1 << m) - 1
    for i in sorted(range(m), key=lambda v: closed[v].bit_count()):
        if not (alive >> i) & 1:
            continue
        ci = closed[i]
        cand = conflict[i] & alive
        while cand:
            b = cand & -cand
            cand ^= b
            j = b.bit_length() - 1
            if ci & ~closed[j] == 0 and (ci != closed[j] or i < j):
                alive &= ~b
    out = []
    while alive:
        b = alive & -alive
        alive ^= b
        out.append(b.bit_length() - 1)
    return out


def _closed_class_survivors(closed):
    """The survivors by definition: the lowest index of each closed class
    whose set has no strict subset among the others'."""
    return [v for v, c in enumerate(closed)
            if closed.index(c) == v
            and not any(o != c and o & ~c == 0 for o in closed)]


def test_domination_matches_the_reference_on_the_medium_corpus():
    """The journey tree's masks and _closed_masks over its candidates equal
    the reference's over Journeys, and the twin-merging pass keeps the
    survivors of the reference pass: same indices, same order."""
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        journeys = _simple_journey_objects(g, "n1", "n10")
        for delta in (2, 3, 5):
            conflict = _conflict_masks(g, journeys, delta)
            cands, closed = _tree_candidates(g, "n1", "n10", delta)
            assert closed == [c | (1 << k) for k, c in enumerate(conflict)]
            assert _closed_masks(g, cands, delta) == closed, (seed, delta)
            assert _drop_dominated(closed) == \
                _drop_dominated_in_popcount_order(conflict), (seed, delta)


@st.composite
def conflict_graphs(draw):
    """Random symmetric conflict graphs (open masks), some vertices cloned
    with or without the arc to their original, so twins of both kinds and
    strict dominations occur."""
    m = draw(st.integers(0, 14))
    conflict = [0] * m
    for i in range(m):
        for k in range(i + 1, m):
            if draw(st.booleans()):
                conflict[i] |= 1 << k
                conflict[k] |= 1 << i
    for _ in range(draw(st.integers(0, 6)) if m else 0):
        v = draw(st.integers(0, len(conflict) - 1))
        new = len(conflict)
        nbrs = conflict[v]
        if draw(st.booleans()):
            nbrs |= 1 << v
        conflict.append(nbrs)
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            conflict[b.bit_length() - 1] |= 1 << new
    return conflict


@st.composite
def nested_and_sparse_conflict_graphs(draw):
    """A threshold graph, whose vertices each join all or none of those
    before them, so closed masks nest in chains and one survivor dominates
    class after class; beside it a cycle, where no class dominates another
    and each is tested against several survivors inside it; a few chords
    between the two; vertices relabelled at random."""
    m = draw(st.integers(2, 40))
    edges = set()
    split = draw(st.integers(0, m))
    for v in range(split):
        if draw(st.booleans()):
            edges.update((u, v) for u in range(v))
    ring = range(split, m)
    if len(ring) > 2:
        edges.update(zip(ring, [*ring[1:], ring[0]]))
    for _ in range(draw(st.integers(0, 3))):
        edges.add(tuple(draw(st.lists(st.integers(0, m - 1), min_size=2,
                                      max_size=2, unique=True))))
    label = draw(st.permutations(range(m)))
    conflict = [0] * m
    for u, v in edges:
        conflict[label[u]] |= 1 << label[v]
        conflict[label[v]] |= 1 << label[u]
    return conflict


@given(st.one_of(conflict_graphs(), nested_and_sparse_conflict_graphs()))
@settings(max_examples=600, deadline=None)
def test_domination_pass_is_the_closed_class_definition(conflict):
    closed = [c | (1 << k) for k, c in enumerate(conflict)]
    got = _drop_dominated(closed)
    assert got == _drop_dominated_in_popcount_order(conflict)
    assert got == _closed_class_survivors(closed)


def _check_closed_masks(g, s, d, deltas, rows=1):
    """The journey tree's closed masks equal _closed_masks over its
    candidates, and every rows-th of them holds exactly the candidates
    whose Journeys interfere with its own, itself included."""
    journeys = _simple_journey_objects(g, s, d)
    for delta in deltas:
        cands, closed = _tree_candidates(g, s, d, delta)
        assert closed == _closed_masks(g, cands, delta), delta
        for k in range(0, len(journeys), rows):
            want = sum(1 << i for i, ji in enumerate(journeys)
                       if i == k or interferes(journeys[k], ji, delta))
            assert closed[k] == want, (delta, k)


@given(graphs, st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_closed_masks_are_pairwise_interference(g, delta):
    _check_closed_masks(g, g.nodes[0], g.nodes[-1], [delta])


def test_closed_masks_are_pairwise_interference_on_the_medium_corpus():
    for seed in (5, 11, 14, 18):
        _check_closed_masks(gen_random_tvg(10, 12, 0.5, seed), "n1", "n10",
                            (2, 3, 5))


def test_closed_masks_are_pairwise_interference_on_long_same_edge_runs():
    """Three nodes over 400 slots: about 2,800 candidates of one or two
    hops, a contact used by up to 80 of them, so the tree's range ORs and
    the windows run over wide masks. Every 40th row is checked pairwise."""
    for seed in range(3):
        _check_closed_masks(gen_random_tvg(3, 400, 0.2, seed), "n1", "n3",
                            (2, 3, 5), rows=40)


def test_journey_cap_trips_at_the_candidate_count():
    """Medium instance 11 at delta 2: the greedy's 4 journeys fall short of
    MaxFlow_1 = 6, so the search enumerates its 53 candidates to prove them
    optimal."""
    g = gen_random_tvg(10, 12, 0.5, 11)
    with pytest.raises(InstanceTooLargeError,
                       match="^instance too large for exact oracle: more "
                             "than 52 candidate journeys$"):
        exact_maxflow_delta(g, "n1", "n10", 2, cap=52)
    assert exact_maxflow_delta(g, "n1", "n10", 2, cap=53).count == 4
    # the tree itself, at a cap of its candidate count and one below
    cases = [(gen_random_tvg(10, 12, 0.5, seed), "n1", "n10")
             for seed in (11, 18)]
    cases.append((gen_random_tvg(3, 400, 0.2, 0), "n1", "n3"))
    for g, s, d in cases:
        m = len(_journey_tree(g, s, d, 2, 100_000)[0].leaf)
        assert len(_journey_tree(g, s, d, 2, m)[0].leaf) == m
        with pytest.raises(InstanceTooLargeError,
                           match=f"^instance too large for exact oracle: "
                                 f"more than {m - 1} candidate journeys$"):
            _journey_tree(g, s, d, 2, m - 1)


def test_exact_flow_at_delta_1_skips_the_greedy_and_the_ceiling(
        relay, monkeypatch):
    """At delta = 1 the answer is the unit max flow's decomposition, which
    reads neither the greedy incumbent nor the MaxFlow_1 ceiling."""
    def refuse(*args, **kwargs):
        raise AssertionError("bound computed at delta = 1")

    monkeypatch.setattr(maxflow, "greedy_maxflow_delta", refuse)
    monkeypatch.setattr(maxflow, "time_expanded_maxflow", refuse)
    assert exact_maxflow_delta(relay, "s", "d", 1).count == 2
    with pytest.raises(AssertionError, match="bound computed"):
        exact_maxflow_delta(relay, "s", "d", 2)


def test_greedy_at_80_nodes_is_pinned():
    """A scale rung: 80 nodes, T = 100, 15,709 contacts. The greedy's
    min-hop searches walk the contact index, so this takes well under a
    second; the pin is the greedy's output when it searched the line graph."""
    g = gen_random_tvg(80, 100, 0.5, 0)
    res = greedy_maxflow_delta(g, "n1", "n80", 3)
    assert (g.contact_count, res.count) == (15_709, 49)
    digest = hashlib.sha256(repr(res.journeys).encode()).hexdigest()
    assert digest.startswith("ef0b86f7780e5e8b")


def test_time_expanded_unit_flow_journeys_are_pinned():
    """At delta = 1 the exact flow's journeys are the walks of the unit max
    flow on the time-expanded network, which depend on the network's arc
    order. Each count is the line graph's unit max flow. Pinned over the
    medium corpus and every ordered pair of five small graphs."""
    h = hashlib.sha256()
    pairs = [(gen_random_tvg(10, 12, 0.5, seed), "n1", "n10")
             for seed in range(100)]
    for seed in range(5):
        g = gen_random_tvg(8, 10, 0.5, seed)
        pairs += [(g, s, d) for s in g.nodes for d in g.nodes if s != d]
    for g, s, d in pairs:
        res = exact_maxflow_delta(g, s, d, 1)
        assert res.count == node_disjoint_maxflow(
            build_line_graph(g, s, d)).value, (s, d)
        h.update(repr(res.journeys).encode())
    assert h.hexdigest().startswith("81a1401e029998ce")


def test_exact_flow_on_the_medium_corpus_is_pinned():
    """The exact flow's journeys, as analyze_exact reports them, over the
    whole medium corpus at delta 2, 3 and 5. In 44 of these 300 calls the
    greedy falls short of the exact cut, so candidates are enumerated, and
    the domination pass and the branch and bound run."""
    h = hashlib.sha256()
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        for delta in (2, 3, 5):
            h.update(repr(analyze_exact(g, "n1", "n10", delta).flow.journeys)
                     .encode())
    assert h.hexdigest().startswith("77e9df00b7323c86")


def test_relay_flow_values(relay):
    assert exact_maxflow_delta(relay, "s", "d", 1).count == 2
    assert exact_maxflow_delta(relay, "s", "d", 2).count == 1
    assert exact_maxflow_delta(relay, "s", "d", 3).count == 1
    assert greedy_maxflow_delta(relay, "s", "d", 1).count == 2
    assert greedy_maxflow_delta(relay, "s", "d", 2).count == 1


def test_greedy_takes_min_hop_first(relay):
    first = greedy_maxflow_delta(relay, "s", "d", 1).journeys[0]
    assert first.hops == (Contact("e1", 1), Contact("e2", 2))


def test_flow_result_shape(relay):
    res = exact_maxflow_delta(relay, "s", "d", 2)
    obj = res.to_json_dict()
    assert obj["delta"] == 2 and obj["count"] == 1 and obj["exact"] is True
    assert obj["journeys"] == [[["e1", 1], ["e2", 2]]]
    assert obj["count"] == len(obj["journeys"])


_HOP = Journey((Contact("e1", 1),))


@pytest.mark.parametrize("query", [
    pytest.param(lambda g: greedy_maxflow_delta(g, "s", "d", 0),
                 id="greedy_maxflow_delta"),
    pytest.param(lambda g: exact_maxflow_delta(g, "s", "d", 0),
                 id="exact_maxflow_delta"),
    pytest.param(lambda g: minweight_mincut_delta(g, "s", "d", 0),
                 id="minweight_mincut_delta"),
    pytest.param(lambda g: exact_mincut_delta(g, "s", "d", 0),
                 id="exact_mincut_delta"),
    pytest.param(lambda g: analyze_exact(g, "s", "d", 0), id="analyze_exact"),
    pytest.param(lambda g: survivability_bounds(g, "s", "d", 1, 0),
                 id="survivability_bounds"),
    pytest.param(lambda g: set_weights(g, 0), id="set_weights"),
    pytest.param(lambda g: delta_cover(contacts(g), 0), id="delta_cover"),
    pytest.param(lambda g: interferes(_HOP, _HOP, 0), id="interferes"),
    pytest.param(lambda g: interfering_contacts(g, _HOP, 0),
                 id="interfering_contacts"),
    pytest.param(lambda g: greedy_bound_certificate(1, 1, 2, 3, 0),
                 id="greedy_bound_certificate"),
    pytest.param(lambda g: check_analysis(g, "s", "d", 0, {}),
                 id="check_analysis"),
])
def test_every_delta_query_says_delta_must_be_positive(relay, query):
    # every public query that takes a delta refuses one below 1 with the
    # one message tvg._check_delta writes
    with pytest.raises(ValueError, match="^delta must be positive$"):
        query(relay)


@given(graphs, deltas)
@settings(max_examples=60, deadline=None)
def test_greedy_output_is_feasible(g, delta):
    s, d = g.nodes[0], g.nodes[-1]
    res = greedy_maxflow_delta(g, s, d, delta)
    assert res.exact is False
    for j in res.journeys:
        assert is_valid_journey(g, j, s, d)
    for i in range(res.count):
        for k in range(i + 1, res.count):
            assert not interferes(res.journeys[i], res.journeys[k], delta)


def test_exact_matches_brute_force():
    checked = 0
    for seed in range(25):
        g = gen_random_tvg(4, 4, 0.5, seed)
        for delta in (1, 2, 3):
            opt = _brute_pack(g, "n1", "n4", delta)
            if opt is None:
                continue
            res = exact_maxflow_delta(g, "n1", "n4", delta)
            assert res.count == opt
            assert res.exact is True
            for i in range(res.count):
                assert is_valid_journey(g, res.journeys[i], "n1", "n4")
                for k in range(i + 1, res.count):
                    assert not interferes(res.journeys[i], res.journeys[k],
                                          delta)
            checked += 1
    assert checked >= 50


def test_exact_anti_monotone_in_delta():
    for seed in range(15):
        g = gen_random_tvg(5, 5, 0.5, 100 + seed)
        counts = [exact_maxflow_delta(g, "n1", "n5", delta).count
                  for delta in (1, 2, 3, 5)]
        assert counts == sorted(counts, reverse=True)


def test_exact_dominates_greedy_and_unit_flow_dominates_exact():
    for seed in range(15):
        g = gen_random_tvg(5, 5, 0.6, 200 + seed)
        bound = int(node_disjoint_maxflow(build_line_graph(g, "n1", "n5")).value)
        for delta in (2, 3):
            greedy = greedy_maxflow_delta(g, "n1", "n5", delta).count
            exact = exact_maxflow_delta(g, "n1", "n5", delta).count
            assert greedy <= exact <= bound


def test_exact_respects_journey_cap(relay):
    with pytest.raises(InstanceTooLargeError, match="journeys"):
        exact_maxflow_delta(relay, "s", "d", 2, cap=1)


def test_certificate_arithmetic():
    # bound at delta=2, T=10, 4 edges: 3*sqrt(4*6)+2 = 16.69...
    assert greedy_bound_certificate(1, 3, 4, 10, 2)
    assert greedy_bound_certificate(0, 5, 1, 1, 1)
    assert not greedy_bound_certificate(4, 3, 4, 10, 2)  # alg above opt
    assert not greedy_bound_certificate(1, 900, 4, 10, 2)
    with pytest.raises(ValueError, match="positive"):
        greedy_bound_certificate(1, 1, 4, 10, 0)
