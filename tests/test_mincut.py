"""Disruption number: weighted relaxation, rounding, exact oracle, verdicts."""

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (Contact, DeltaRemoval, InstanceTooLargeError,
                      TimeVaryingGraph, analyze_exact, check_analysis,
                      contacts, delta_cover, exact_maxflow_delta,
                      exact_mincut_delta, gen_counterexample, gen_random_tvg,
                      greedy_maxflow_delta, Journey, sandwich_check,
                      minweight_mincut_delta, set_weights,
                      survivability_bounds, verify_cut, weighted_mincut_1)
from tempocut import mincut, verify
from tempocut.simulate import sweep
from tempocut.linegraph import build_line_graph, node_disjoint_maxflow
from tempocut.mincut import (DEFAULT_HEAD_CAP, CutResult, _exact_cut_search,
                             _window_sizes)
from tempocut.tvg import (_contact_id, _contacts_of, _footprint_ids,
                          _min_hop_surviving, _run_table, interfering_contacts)
from reference import enumerate_journeys
from test_tvg import _canonical_heads, graphs

contact_sets = st.lists(
    st.builds(Contact,
              edge=st.sampled_from(["e1", "e2"]),
              slot=st.integers(1, 12)),
    min_size=1, max_size=12).map(lambda cs: sorted(set(cs)))


def _brute_cover_size(contact_set, delta):
    """Reference minimum: try every candidate-head combination. Heads may
    sit anywhere, but anchoring at a covered slot is never worse."""
    todo = set(contact_set)
    candidates = sorted({(c.edge, c.slot) for c in contact_set})
    for k in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            covered = set()
            for edge, head in combo:
                covered.update(
                    c for c in todo
                    if c.edge == edge and head <= c.slot <= head + delta - 1)
            if covered == todo:
                return k
    raise AssertionError("unreachable")


def _check_cover_is_optimal(contact_set, delta):
    """delta_cover's removals cover every contact, and no cover is smaller."""
    cover = delta_cover(contact_set, delta)
    assert all(any(r.edge == c.edge and r.head <= c.slot < r.head + delta
                   for r in cover) for c in contact_set)
    assert len(cover) == _brute_cover_size(contact_set, delta)


def _brute_mincut(g, s, d, delta):
    """Reference optimum by exhausting head combinations; tiny inputs only.

    A combination cuts the pair iff every enumerated journey has a hop in
    the slots one of its removals covers, so no cut search is involved."""
    journeys = enumerate_journeys(g, s, d)
    if not journeys:
        return 0
    candidates = [DeltaRemoval(e.eid, h, delta)
                  for e in g.edges for h in g.active[e.eid]]

    def hit(j, combo):
        return any(r.edge == e and r.head <= t < r.head + r.delta
                   for e, t in j.hops for r in combo)

    for k in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            if all(hit(j, combo) for j in journeys):
                return k
    return len(candidates)


def test_relay_cut_values(relay):
    one = exact_mincut_delta(relay, "s", "d", 1)
    assert one.count == 2 and one.exact
    assert verify_cut(relay, one, "s", "d")
    two = exact_mincut_delta(relay, "s", "d", 2)
    assert two.count == 1 and two.exact
    assert verify_cut(relay, two, "s", "d")
    assert exact_mincut_delta(relay, "s", "d", 3).count == 1


def test_set_weights_relay(relay):
    w1 = set_weights(relay, 1)
    assert all(v == 1 for v in w1.values())
    w2 = set_weights(relay, 2)
    assert set(w2) == set(contacts(relay))
    assert all(v == Fraction(1, 2) for v in w2.values())


def _weights_by_definition(g, delta):
    """1 / the most same-edge contacts a delta-removal through the contact
    takes out, trying every integer head in [t - delta + 1, t]."""
    w = {}
    for e in g.edges:
        slots = g.active[e.eid]
        for t in slots:
            best = max(sum(h <= u < h + delta for u in slots)
                       for h in range(t - delta + 1, t + 1))
            w[Contact(e.eid, t)] = Fraction(1, best)
    return w


def _weights_agree(g, delta):
    """set_weights equals the definition, and the per-id window sizes the
    rounded cut scales by are its denominators, in contact-id order."""
    w = set_weights(g, delta)
    assert w == _weights_by_definition(g, delta)
    assert _window_sizes(g, delta) == [v.denominator for v in w.values()]


def test_set_weights_matches_the_definition():
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        for delta in range(1, 9):
            _weights_agree(g, delta)


@given(graphs, st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_set_weights_matches_the_definition_on_any_graph(g, delta):
    _weights_agree(g, delta)


def test_rounded_cut_is_the_line_graph_weighted_cut():
    # minweight_mincut_delta scales capacities by contact id; its weight
    # and removals are those of the line graph's flow on set_weights
    for seed in range(100):
        g = gen_random_tvg(10, 12, 0.5, seed)
        lg = build_line_graph(g, "n1", "n10")
        for delta in (1, 2, 3, 5):
            want = node_disjoint_maxflow(lg, weights=set_weights(g, delta))
            got = minweight_mincut_delta(g, "n1", "n10", delta)
            assert got.weight_lower_bound == want.value, (seed, delta)
            assert got.removals == delta_cover(want.cut, delta), (seed, delta)


def test_weighted_mincut_1_relay(relay):
    value, cut = weighted_mincut_1(relay, set_weights(relay, 1), "s", "d")
    assert value == Fraction(2) and len(cut) == 2
    value2, _ = weighted_mincut_1(relay, set_weights(relay, 2), "s", "d")
    assert value2 == Fraction(1)


def test_delta_cover_pinned():
    # (edge, head) order, edge ids compared as strings: e10 before e2
    cs = [Contact("e2", 3), Contact("e1", 6), Contact("e10", 2),
          Contact("e1", 1), Contact("e1", 5)]
    assert delta_cover(cs, 3) == (
        DeltaRemoval("e1", 1, 3), DeltaRemoval("e1", 5, 3),
        DeltaRemoval("e10", 2, 3), DeltaRemoval("e2", 3, 3))
    assert delta_cover([], 2) == ()
    with pytest.raises(ValueError, match="positive"):
        delta_cover(cs, 0)


@given(contact_sets, st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_delta_cover_is_optimal(cs, delta):
    _check_cover_is_optimal(cs, delta)


def test_sandwich_relay(relay):
    w = set_weights(relay, 2)
    assert sandwich_check([Contact("e1", 1), Contact("e1", 2)], w, 2)


def test_verify_cut_accepts_result_or_iterable(relay):
    assert verify_cut(relay, [DeltaRemoval("e1", 1, 2)], "s", "d")
    assert not verify_cut(relay, [DeltaRemoval("e1", 1, 1)], "s", "d")
    assert verify_cut(relay, exact_mincut_delta(relay, "s", "d", 1), "s", "d")
    assert not verify_cut(relay, [], "s", "d")


def test_verify_cut_rejects_bad_input(relay):
    with pytest.raises(ValueError, match="unknown edge 'zz'"):
        verify_cut(relay, [DeltaRemoval("zz", 1, 1)], "s", "d")
    with pytest.raises(ValueError, match="duration must be positive"):
        verify_cut(relay, [DeltaRemoval("e1", 1, 2), DeltaRemoval("e1", 2, 0)],
                   "s", "d")
    with pytest.raises(ValueError, match="unknown node 'zz'"):
        verify_cut(relay, [DeltaRemoval("e1", 1, 2)], "s", "zz")


def test_minweight_cut_certificates(relay):
    res = minweight_mincut_delta(relay, "s", "d", 2)
    assert res.count == 1
    assert res.exact is False
    assert res.weight_lower_bound == Fraction(1)
    assert verify_cut(relay, res, "s", "d")
    obj = res.to_json_dict()
    assert obj["weight_lower_bound"] == "1"
    assert obj["removals"] == [{"edge": "e1", "head": 1}]


def test_exact_matches_brute_force():
    for seed in range(12):
        g = gen_random_tvg(4, 4, 0.5, 500 + seed)
        for delta in (1, 2):
            opt = _brute_mincut(g, "n1", "n4", delta)
            res = exact_mincut_delta(g, "n1", "n4", delta)
            assert res.count == opt
            assert res.exact is True
            if res.count:
                assert verify_cut(g, res, "n1", "n4")


def test_exact_matches_brute_force_where_branches_overlap():
    """Instances whose search stacks removals with overlapping footprints
    on one edge; backtracking one of them must not revive contacts the
    other still takes out (clearing a flag on pop gives a cut one too big
    on all four at delta 2 or 3)."""
    for seed in (13, 16, 142, 173):
        g = gen_random_tvg(4, 5, 0.5, seed)
        for delta in (2, 3):
            res = exact_mincut_delta(g, "n1", "n4", delta)
            assert res.count == _brute_mincut(g, "n1", "n4", delta)
            assert verify_cut(g, res, "n1", "n4")


def test_exact_cut_keeps_the_min_hop_tie_break():
    """The cut the search prints depends on which surviving journey it
    branches on; another min-hop tie-break gives e36@5, e36@6, e38@6 here."""
    g = gen_random_tvg(11, 10, 0.5, 53)
    res = exact_mincut_delta(g, "n1", "n11", 5)
    assert res.removals == (DeltaRemoval("e36", 6, 5), DeltaRemoval("e38", 6, 5),
                            DeltaRemoval("e8", 1, 5))


def _unpruned_cut_search(g, s, d, delta, rounded, family, head_cap):
    """_exact_cut_search before the peel: every branch runs until its
    removals are spent or its pair is cut. Of the family only its size is
    read, as a floor on the depth."""
    upper = rounded.count
    head_budget = sum(len(g.active[e.eid]) for e in g.edges)
    if head_budget > head_cap:
        raise InstanceTooLargeError(
            f"instance too large for exact oracle: more than {head_cap} removal heads")

    # dead[i] counts the chosen removals that take out contact i; a count,
    # not a flag, since removals on one edge can overlap
    dead = [0] * g.contact_count
    clist = contacts(g)

    def search(k: int, chosen: list[DeltaRemoval],
               forbidden: frozenset[DeltaRemoval]) -> tuple[DeltaRemoval, ...] | None:
        j = _min_hop_surviving(g, s, d, dead)
        if j is None:
            return tuple(chosen)
        if len(chosen) == k:
            return None
        candidates: list[DeltaRemoval] = []
        seen: set[DeltaRemoval] = set()
        for c in map(clist.__getitem__, j):
            for h in _canonical_heads(g, c, delta):
                r = DeltaRemoval(c.edge, h, delta)
                if r not in seen and r not in forbidden:
                    seen.add(r)
                    candidates.append(r)
        blocked = set(forbidden)
        for r in candidates:
            ids = _footprint_ids(g, r)
            for i in ids:
                dead[i] += 1
            chosen.append(r)
            got = search(k, chosen, frozenset(blocked))
            chosen.pop()
            for i in ids:
                dead[i] -= 1
            if got is not None:
                return got
            blocked.add(r)
        return None

    floor = max(len(family), ceil(rounded.weight_lower_bound), 1)
    for k in range(floor, upper):
        got = search(k, [], frozenset())
        if got is not None:
            break
    else:
        got = rounded.removals
    removals = tuple(sorted(got, key=lambda r: (r.edge, r.head)))
    return CutResult(removals, delta, exact=True,
                     weight_lower_bound=rounded.weight_lower_bound)


def _count_searches(monkeypatch, module):
    """Count the surviving-journey searches `module` makes from now on:
    _min_hop_surviving, the one search _exact_cut_search calls."""
    calls = [0]
    inner = module._min_hop_surviving

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, "_min_hop_surviving", counted)
    return calls


def test_peel_keeps_every_cut_of_the_unpruned_search(monkeypatch):
    """The peel drops only branches that hold no cut, so the pruned search
    returns the unpruned one's result, removals included, on every input,
    whether each depth's root starts from no family, from the greedy
    family or from that family reversed; and on the medium corpus at delta
    2 and 3, started from the greedy family, it needs under a fifth of the
    surviving-journey searches. The counterexample ladder has flow below
    cut, where the peel finds fewest journeys."""
    medium = [(gen_random_tvg(10, 12, 0.5, seed), "n1", "n10")
              for seed in range(100)]
    cases = [(gen_random_tvg(11, 10, 0.5, seed), "n1", "n11")
             for seed in range(40, 70)]
    cases += [gen_counterexample(k) for k in (1, 2, 3)]
    pruned = _count_searches(monkeypatch, mincut)
    unpruned = _count_searches(monkeypatch, sys.modules[__name__])
    spent = [0, 0]  # pruned, unpruned; medium corpus at delta 2 and 3
    for i, (g, s, d) in enumerate(medium + cases):
        for delta in (1, 2, 3, 5):
            greedy, rounded, family = mincut._approximations(g, s, d, delta)
            assert rounded == minweight_mincut_delta(g, s, d, delta)
            assert [Journey(tuple(_contacts_of(g, ids))) for ids in family] \
                == list(greedy.journeys)
            before = unpruned[0]
            want = _unpruned_cut_search(g, s, d, delta, rounded, family,
                                        DEFAULT_HEAD_CAP)
            spent_unpruned = unpruned[0] - before
            for root in ([], family[::-1]):
                assert _exact_cut_search(g, s, d, delta, rounded, root,
                                         DEFAULT_HEAD_CAP) == want, (i, delta)
            before = pruned[0]
            assert _exact_cut_search(g, s, d, delta, rounded, family,
                                     DEFAULT_HEAD_CAP) == want, (i, delta)
            if i < len(medium) and delta in (2, 3):
                spent[0] += pruned[0] - before
                spent[1] += spent_unpruned
    assert spent[0] > 0 and spent[1] > 0, spent
    assert 5 * spent[0] < spent[1], spent


def test_exact_cut_of_a_disconnected_pair_keeps_its_weight_bound():
    """No journey (s->a only at slot 2, a->d only at slot 1): the exact cut
    is the rounded cut's empty one, weight bound included, as the rounded
    cut and every connected exact cut print it."""
    g = TimeVaryingGraph(("s", "a", "d"), [("s", "a", (2,)), ("a", "d", (1,))],
                         2)
    for delta in (1, 2, 3):
        rounded = minweight_mincut_delta(g, "s", "d", delta)
        want = CutResult((), delta, exact=True, weight_lower_bound=Fraction(0))
        assert rounded == dataclasses.replace(want, exact=False)
        assert exact_mincut_delta(g, "s", "d", delta) == want
        assert analyze_exact(g, "s", "d", delta).cut == want
        assert _unpruned_cut_search(g, "s", "d", delta, rounded, [],
                                    DEFAULT_HEAD_CAP) == want
        assert want.to_json_dict()["weight_lower_bound"] == "0"


def test_exact_cut_at_scale_is_pinned():
    """Count and removals of exact_mincut_delta on 20-node graphs of 40 and
    60 slots (1.5k and 2.2k contacts, above the default head cap), where
    the peel's carried family changes most of the pruning and where
    starting each depth from the greedy family moves the search time most
    (40 slots, seed 0, delta 3); removals as a sha-256 prefix of
    "edge@head" joined by spaces."""
    pins = {
        (40, 0, 2): (25, "abc3d63e67448cb2"), (40, 0, 3): (19, "127ddedb96e1c21e"),
        (40, 1, 2): (26, "6f27add047dfc6fd"), (40, 1, 3): (18, "b1565189c7ffda49"),
        (40, 2, 2): (23, "32aef9a09a7410a1"), (40, 2, 3): (18, "fa819d34b3e2f408"),
        (60, 0, 2): (40, "829eb0cf114ca55f"), (60, 0, 3): (30, "d9c397b85935aba2"),
        (60, 0, 5): (19, "3b32ff6999226213"), (60, 1, 2): (39, "ba071a38b42bc34b"),
        (60, 1, 3): (28, "f61ea72fdcf01810"), (60, 1, 5): (20, "384e7a95c1423885"),
    }
    for (horizon, seed, delta), (count, digest) in pins.items():
        g = gen_random_tvg(20, horizon, 0.5, seed)
        res = exact_mincut_delta(g, "n1", "n20", delta,
                                 head_cap=g.contact_count)
        text = " ".join(f"{r.edge}@{r.head}" for r in res.removals)
        assert (res.count, hashlib.sha256(text.encode()).hexdigest()[:16]) \
            == (count, digest), (horizon, seed, delta)


def test_interference_ids_are_the_interfering_contacts():
    """The ids the greedy and the peel mask for a journey, the run-table
    runs of its hops, are those of tvg.interfering_contacts, on greedy
    journeys and on enumerated ones: windows reaching below slot 1, delta
    above the horizon, and journeys using one edge twice (their windows
    overlap) included."""
    below = beyond = twice = 0
    for seed in range(80):
        rng = random.Random(seed)
        g = gen_random_tvg(rng.randint(3, 6), rng.randint(1, 7),
                           rng.uniform(0.2, 0.7), seed)
        s, d = g.nodes[0], g.nodes[-1]
        walks = enumerate_journeys(g, s, d)
        for delta in range(1, 6):
            back, reach = _run_table(g, delta)
            greedy = greedy_maxflow_delta(g, s, d, delta).journeys
            for j in walks + list(greedy):
                want = {_contact_id(g, c)
                        for c in interfering_contacts(g, j, delta)}
                got = [x for c in j.hops
                       for x in range(back[_contact_id(g, c)],
                                      reach[_contact_id(g, c)])]
                assert set(got) == want, (seed, delta, j)
                below += j.hops[0].slot < delta
                beyond += delta > g.horizon
                twice += len({e for e, _ in j.hops}) < len(j.hops)
    assert below and beyond and twice, (below, beyond, twice)


def test_rounded_cut_stays_within_delta_factor():
    cases = [(gen_random_tvg(5, 6, 0.5, 700 + seed), "n5", (2, 3))
             for seed in range(12)]
    # delta above 30 was once rejected; the 1/K weights are exact Fractions
    cases += [(gen_random_tvg(6, 60, 0.3, seed), "n6", (31, 45))
              for seed in range(3)]
    for g, d, deltas in cases:
        for delta in deltas:
            approx = minweight_mincut_delta(g, "n1", d, delta)
            exact = exact_mincut_delta(g, "n1", d, delta)
            assert exact.count <= approx.count <= delta * max(exact.count, 1)
            assert ceil(approx.weight_lower_bound) <= exact.count
            assert verify_cut(g, approx, "n1", d)


def test_cut_capped_flow_matches_the_standalone_oracles():
    # analyze_exact caps the packing search with the exact cut instead of
    # MaxFlow_1 and reuses one greedy; both flows must come out journey for
    # journey as the standalone oracles give them. The counterexample ladder
    # has flow < cut, so there the search still runs to its proof.
    cases = [(gen_random_tvg(10, 12, 0.5, seed), "n1", "n10")
             for seed in range(40)]
    cases += [(gen_random_tvg(11, 10, 0.5, seed), "n1", "n11")
              for seed in range(40, 70)]
    cases += [gen_counterexample(k) for k in (1, 2, 3)]
    short = below = 0
    for g, s, d in cases:
        for delta in (2, 3, 5):
            res = analyze_exact(g, s, d, delta)
            assert res.flow == exact_maxflow_delta(g, s, d, delta)
            assert res.greedy == greedy_maxflow_delta(g, s, d, delta)
            short += res.greedy.count < res.cut.count
            below += res.flow.count < res.cut.count
    # 38 runs enumerate journeys; 6 of them (the ladder at k = 2, 3) prove
    # a flow below the cut
    assert (short, below) == (38, 6)


def test_hot_paths_build_no_line_graph(request):
    """The greedy, analyze_exact at delta 1, 2 and 3 (greedy meeting the
    cut, and falling short so that journeys are enumerated), the delta = 1
    exact flow and the simulator answer as before with build_line_graph
    made to raise."""
    medium = [gen_random_tvg(10, 12, 0.5, seed) for seed in (0, 1, 19)]
    arena = gen_random_tvg(8, 10, 0.5, 11)

    def answers():
        out = [greedy_maxflow_delta(g, "n1", "n10", delta)
               for g in medium for delta in (1, 2, 3)]
        out += [analyze_exact(g, "n1", "n10", delta)
                for g in medium for delta in (1, 2, 3)]
        out += [exact_maxflow_delta(g, "n1", "n10", 1) for g in medium]
        out.append(sweep(arena, [1, 2], [1, 2, 3], [10], 100, 0.08, 3, 5))
        return out

    want = answers()
    runs = want[9:18]
    assert any(r.greedy.count == r.cut.count for r in runs)
    assert any(r.greedy.count < r.flow.count for r in runs)
    refused = request.getfixturevalue("no_line_graph")
    with pytest.raises(refused):  # the guard reaches the reference suite
        verify.suite_engines(1)
    assert answers() == want


def test_unit_flow_at_80_nodes_builds_no_line_graph(no_line_graph):
    """80 nodes, T = 100, 15,709 contacts: the line graph would have about
    3M arcs. The delta = 1 exact flow and analyze_exact answer on the
    time-expanded network, well under a second."""
    g = gen_random_tvg(80, 100, 0.5, 0)
    res = exact_maxflow_delta(g, "n1", "n80", 1)
    assert res.count == 100 and res.exact
    exact = analyze_exact(g, "n1", "n80", 1)
    assert (exact.flow, exact.cut.count) == (res, 100)
    assert check_analysis(g, "n1", "n80", 1, exact.to_json_dict()) == []


def test_exact_respects_head_cap():
    """The head cap binds only where the search runs: on m0 at delta 3
    (greedy 5 < rounded 6), not where the greedy count or the weight
    bound already meets the rounded cut, as on m0 at delta 1 and 2 and on
    40 x 60 (4,580 contacts, over the default cap) at delta 1, 2 and 3."""
    g = gen_random_tvg(10, 12, 0.5, 0)
    with pytest.raises(InstanceTooLargeError, match="^instance too large for "
                       "exact oracle: more than 50 removal heads$"):
        exact_mincut_delta(g, "n1", "n10", 3, head_cap=50)
    assert exact_mincut_delta(g, "n1", "n10", 3, head_cap=200).count == 5
    for delta, count in ((1, 9), (2, 7)):
        res = exact_mincut_delta(g, "n1", "n10", delta, head_cap=1)
        assert (res.exact, res.count) == (True, count)
    g = gen_random_tvg(40, 60, 0.5, 0)
    assert g.contact_count > DEFAULT_HEAD_CAP
    for delta, count in ((1, 57), (2, 38), (3, 28)):
        res = analyze_exact(g, "n1", "n40", delta)
        assert (res.cut.count, res.flow.count) == (count, count)


def test_survivability_verdicts(relay):
    v = survivability_bounds(relay, "s", "d", 1, 1, exact=True)
    assert v.verdict == "survivable" and v.lower == v.upper == 2
    assert survivability_bounds(relay, "s", "d", 2, 1,
                                exact=True).verdict == "not-survivable"
    assert survivability_bounds(relay, "s", "d", 1, 2,
                                exact=True).verdict == "not-survivable"
    assert survivability_bounds(relay, "s", "d", 0, 2,
                                exact=True).verdict == "survivable"
    with pytest.raises(ValueError, match="nonnegative"):
        survivability_bounds(relay, "s", "d", -1, 1)


def test_approximate_verdict_never_contradicts_exact():
    for seed in range(10):
        g = gen_random_tvg(5, 6, 0.5, 900 + seed)
        for delta in (1, 2, 3):
            truth = survivability_bounds(g, "n1", "n5", 1, delta, exact=True)
            quick = survivability_bounds(g, "n1", "n5", 1, delta)
            assert quick.lower <= truth.lower
            assert quick.upper >= truth.upper
            if quick.verdict != "unknown":
                assert quick.verdict == truth.verdict


def _set(*path):
    """An edit setting doc[path[0]]...[path[-2]] to path[-1]."""
    *keys, value = path

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


_UNREADABLE_TYPE = ("unreadable analysis: TypeError('counts, deltas, slots "
                    "and heads must be integers, edges and weight bounds "
                    "strings')")


@pytest.mark.parametrize("edit, problems", [
    (lambda doc: None, []),
    (lambda doc: doc["mincut"]["removals"].pop(0),
     ["mincut count 2 but 1 listed",
      "the removals leave the pair connected"]),
    (_set("maxflow", "journeys", 0, -1, 1, 14),
     ["journey 0 is not a journey from s to d2"]),
    (lambda doc: doc["maxflow"]["journeys"].append(
        doc["maxflow"]["journeys"][0]),
     ["maxflow count 1 but 2 listed", "journeys 0 and 1 interfere"]),
    (_set("mincut", "count", 3),
     ["mincut count 3 but 2 listed", "cut 3 above rounded 2",
      "certificates: cut optimal 2, answer 3"]),
    (_set("mincut", "delta", 3), ["mincut delta 3, not 2"]),
    (_set("certificates", "flow", "greedy", 2),
     ["greedy 2 above flow 1",
      "certificates: within_ratio True, recomputed False"]),
    (_set("certificates", "flow", "within_ratio", False),
     ["certificates: within_ratio False, recomputed True"]),
    (_set("certificates", "cut", "within_delta_factor", False),
     ["certificates: within_delta_factor is not true"]),
    (_set("certificates", "cut", "weight_lower_bound", "3"),
     ["weight bound 3 rounds up above cut 2",
      "certificates: weight bound 3, answer 3/2"]),
    (_set("certificates", "cut", "weight_lower_bound", "1/2"),
     ["rounded 2 above delta * weight bound 1",
      "certificates: weight bound 1/2, answer 3/2"]),
    (_set("maxflow", "exact", False), ["maxflow is not marked exact"]),
    (_set("mincut", "removals", 0, "edge", "e99"),
     ["unreadable analysis: ValueError(\"unknown edge 'e99'\")"]),
    (lambda doc: doc["certificates"]["cut"].pop("rounded"),
     ["unreadable analysis: KeyError('rounded')"]),
    (_set("mincut", "removals", 0, "head", "1"), [_UNREADABLE_TYPE]),
    (_set("maxflow", "count", True), [_UNREADABLE_TYPE]),
    (_set("maxflow", "count", 3),
     ["maxflow count 3 but 1 listed", "flow 3 above cut 2",
      "certificates: flow optimal 1, answer 3"]),
    (_set("certificates", "cut", "rounded", 5),
     ["rounded 5 above delta * cut 4",
      "rounded 5 above delta * weight bound 3"]),
], ids=["sound", "dropped-removal", "hop-past-horizon", "repeated-journey",
        "count-off-by-one", "wrong-delta", "greedy-above-flow",
        "false-ratio-certificate", "false-delta-certificate",
        "raised-weight-bound", "lowered-weight-bound", "not-exact",
        "unknown-edge", "missing-field", "head-str", "count-bool",
        "flow-above-cut", "rounded-above-delta-cut"])
def test_check_analysis_pins_the_problems_of_each_edit(edit, problems):
    # analyze --exact's report on the k = 2 ladder at delta 2: flow 1 and
    # cut 2, rounded 2, weight bound 3/2; its one journey ends at e8@7 = T
    g, s, d = gen_counterexample(2)
    doc = json.loads(json.dumps(analyze_exact(g, s, d, 2).to_json_dict()))
    edit(doc)
    assert check_analysis(g, s, d, 2, doc) == problems


def test_exact_analysis_hands_out_a_fresh_document_each_time():
    # editing one printed document must not edit the analysis behind it
    g, s, d = gen_counterexample(2)
    res = analyze_exact(g, s, d, 2)
    doc = res.to_json_dict()
    want = json.loads(json.dumps(doc))
    doc["certificates"]["flow"]["greedy"] = 9
    doc["certificates"]["cut"]["optimal"] = 9
    res.certificates["flow"]["within_ratio"] = False
    assert res.to_json_dict() == want
    assert res.certificates["flow"] == {"greedy": 1, "optimal": 1,
                                        "within_ratio": True}


def test_certificates_suite_reports_the_first_problem(monkeypatch):
    assert verify.suite_certificates(4).summary() == \
        "certificates: 8 checks, all ok"
    monkeypatch.setattr(verify, "check_analysis", lambda g, s, d, delta, doc: [
        f"{s}->{d} cut {doc['mincut']['count']}", "second"])
    assert verify.suite_certificates(2).summary() == (
        "certificates: 4/4 FAILED: seed 600 delta 2: n1->n8 cut 8; seed 600 "
        "delta 3: n1->n8 cut 4; seed 601 delta 2: n1->n9 cut 8; seed 601 "
        "delta 3: n1->n9 cut 6")
