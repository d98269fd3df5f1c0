"""Trace-driven loss simulation: failure sampling, routing, pairing."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import tempocut.simulate
from tempocut import (DeltaRemoval, FailureModel, SimConfig, TimeVaryingGraph,
                      djr_route, gen_random_tvg, greedy_maxflow_delta,
                      interferes, journeys_delivered, run_simulation,
                      sample_failures, sweep, sweep_to_csv)
from tempocut.simulate import (_carve_window, _derive_seed, _draw_pair,
                               _index_copies, _sample_onsets, _walk,
                               packets_to_jsonl)


def _arena(seed=0):
    return gen_random_tvg(8, 20, 0.5, seed)


def test_failure_model_validation():
    with pytest.raises(ValueError, match="probability"):
        FailureModel(1.5, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        FailureModel(0.5, -1)


def test_sim_config_validation(relay):
    ok = dict(graph=relay, deadline=3, n=1, delta=1, packet_count=5,
              failures=FailureModel(0.1, 2))
    SimConfig(**ok)
    with pytest.raises(ValueError, match="copy"):
        SimConfig(**{**ok, "n": 0})
    with pytest.raises(ValueError, match="delta"):
        SimConfig(**{**ok, "delta": 4})
    with pytest.raises(ValueError, match="deadline"):
        SimConfig(**{**ok, "deadline": 9})
    with pytest.raises(ValueError, match="packet_count"):
        SimConfig(**{**ok, "packet_count": 0})
    # the deadline is checked before the delta that must fit inside it
    with pytest.raises(ValueError,
                       match=r"^deadline must lie in \[1, graph horizon\]$"):
        SimConfig(**{**ok, "deadline": 0})


@pytest.mark.parametrize("nodes", [(), ("a",)], ids=["no-node", "one-node"])
def test_sim_config_needs_two_nodes(nodes):
    # one node leaves no pair to draw (the destination redraw would never
    # end) and none leaves not even a source
    g = TimeVaryingGraph(nodes, [], 3)
    with pytest.raises(ValueError,
                       match=f"at least two nodes .*, got {len(nodes)}$"):
        SimConfig(g, 3, 1, 1, 5, FailureModel(0.1, 2))


def test_pair_draw_matches_randrange():
    # _draw_pair inlines rng.randrange(n); the stream must match draw for
    # draw, at powers of two (no redraw) and just past them (most redraws)
    for n in range(2, 18):
        for seed in range(30):
            ours, ref = random.Random(seed), random.Random(seed)
            src = ref.randrange(n)
            dst = ref.randrange(n)
            while dst == src:
                dst = ref.randrange(n)
            assert _draw_pair(ours, n) == (src, dst)
            assert ours.getstate() == ref.getstate()


def test_reseeded_generator_matches_a_fresh_one():
    # run_simulation reseeds one generator per packet instead of building
    # random.Random(seed); both must start the same stream
    rng = random.Random()
    for seed in [0, 1, 7, 2**32 - 1, 2**32, _derive_seed(5, 3),
                 _derive_seed(0, 2499), 2**64 - 1]:
        rng.random()  # leave state behind that the reseed must wipe
        rng.seed(seed)
        fresh = random.Random(seed)
        assert rng.getstate() == fresh.getstate()
        assert [rng.getrandbits(4) for _ in range(50)] == \
            [fresh.getrandbits(4) for _ in range(50)]
        assert rng.random() == fresh.random()


def test_derive_seed_spreads():
    seen = {_derive_seed(7, i) for i in range(1000)}
    assert len(seen) == 1000
    assert _derive_seed(7, 3) == _derive_seed(7, 3)
    assert _derive_seed(7, 3) != _derive_seed(8, 3)


def test_sample_failures_edge_cases():
    g = _arena()
    assert sample_failures(g, FailureModel(0.0, 5)) == []
    assert sample_failures(g, FailureModel(1.0, 0)) == []
    out = sample_failures(g, FailureModel(0.3, 4, seed=11))
    assert out == sample_failures(g, FailureModel(0.3, 4, seed=11))
    assert out
    for r in out:
        assert g.has_edge(r.edge)
        assert 1 <= r.head <= g.horizon
        assert 1 <= r.delta <= 4


def test_saturated_failures_scan_every_slot():
    g = _arena()
    out = sample_failures(g, FailureModel(1.0, 1, seed=2))
    per_edge = {}
    for r in out:
        assert r.delta == 1
        per_edge.setdefault(r.edge, []).append(r.head)
    for heads in per_edge.values():
        assert heads == sorted(set(heads))
    # at p=1 every slot draws a duration; about half the {0,1} draws stick
    total = len(g.edges) * g.horizon
    assert 0.3 * total < len(out) < 0.7 * total


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("d_max", [0, 1, 10])
def test_fused_check_matches_the_full_draw(p, d_max):
    # one failure walk serves every point of a lockstep run: it draws only
    # up to the last edge any copy uses and stops once every copy of every
    # point is dead. From the same stream each point must get what the plain
    # pair gives, journeys_delivered over _sample_onsets' full draw on its own
    # window, whether its plan walks alone or with plans from other windows,
    # deltas and copy counts (repeats included)
    outcomes = set()
    empty = 0
    for seed in range(4):
        g = gen_random_tvg(8, 12, 0.3, seed)
        for deadline in (12, 7):  # the whole horizon, and carved windows
            wrap = 13 - deadline
            windows = [_carve_window(g, start, deadline)
                       for start in sorted({1, 1 + 3 * seed % wrap, wrap})]
            pairs = random.Random(seed)
            for _ in range(12):
                s, d = pairs.sample(g.nodes, 2)
                points = [(w, greedy_maxflow_delta(w, s, d, delta).journeys, n)
                          for w in windows
                          for delta in sorted({1, pairs.randint(1, 3)})
                          for n in (1, 2, 3, 2)]
                empty += sum(not plan for _, plan, _ in points)
                stream = pairs.getrandbits(64)
                drawn = {w: _sample_onsets(w, p, d_max, random.Random(stream))
                         for w in windows}
                full = [journeys_delivered(w, plan[:n], drawn[w])
                        for w, plan, n in points]
                checks = [([point], [want])
                          for point, want in zip(points, full)]
                for group, want in checks + [(points, full)]:
                    index = _index_copies(g, [(plan, n)
                                              for _, plan, n in group])
                    got = _walk(index, deadline, p, d_max,
                                random.Random(stream))
                    assert [(a is not None, a) for a in got] == want
                outcomes.update(ok for ok, _ in full)
    assert empty > 0
    if 0.0 < p < 1.0 and d_max > 0:
        assert outcomes == {True, False}


def test_journeys_delivered_rejects_bad_removals(relay):
    js = djr_route(relay, "s", "d", 2, 1)
    with pytest.raises(ValueError, match="duration must be positive"):
        journeys_delivered(relay, js, [DeltaRemoval("e1", 1, 0)])
    with pytest.raises(ValueError, match="unknown edge 'zz'"):
        journeys_delivered(relay, js, [DeltaRemoval("e2", 5, 1),
                                       DeltaRemoval("zz", 1, 1)])
    with pytest.raises(ValueError, match="unknown edge"):
        journeys_delivered(relay, [], [DeltaRemoval("zz", 1, 1)])


def test_seed_stream_is_pinned():
    # Digests of outputs from the first release of the simulator (c11's
    # `gen random --nodes 8 --t 10 --seed 11` graph). Any change to the
    # draw order, the failure sampling or the delivery rule moves them.
    g = gen_random_tvg(8, 10, 0.5, 11)
    csv = (sweep_to_csv(sweep(g, [1, 2], [1, 2, 3, 4], [10, 6], 300, 0.08,
                              3, 5))
           + sweep_to_csv(sweep(g, [1, 2], [2], [10], 300, 0.08, 0, 5)))
    rep = run_simulation(SimConfig(g, 6, 2, 2, 300,
                                   FailureModel(0.08, 3, seed=5), seed=5))
    assert hashlib.sha256(csv.encode()).hexdigest() == \
        "c093175bdd4cf0e1d4cd702cea4832d9198db803a2ef0d6279ab54c5951971ef"
    assert hashlib.sha256(packets_to_jsonl(rep).encode()).hexdigest() == \
        "fa386c8c49ade996b589889219b847d455b018cff07275659dd75891ab70e3e0"


def test_djr_route_family(relay):
    js = djr_route(relay, "s", "d", 2, 1)
    assert len(js) == 2
    assert not interferes(js[0], js[1], 1)
    assert djr_route(relay, "s", "d", 5, 2) == djr_route(relay, "s", "d", 1, 2)
    with pytest.raises(ValueError, match="copy"):
        djr_route(relay, "s", "d", 0, 1)


def test_journeys_delivered(relay):
    js = djr_route(relay, "s", "d", 2, 1)
    ok, arrival = journeys_delivered(relay, js, [])
    assert ok and arrival == 2
    # kill only the first journey's relay hop
    ok, arrival = journeys_delivered(relay, js, [DeltaRemoval("e2", 2, 1)])
    assert ok and arrival == 3
    ok, arrival = journeys_delivered(relay, js, [DeltaRemoval("e1", 1, 2)])
    assert not ok and arrival is None


def test_zero_failure_run_delivers_everything():
    g = _arena()
    cfg = SimConfig(g, 10, 1, 2, 200, FailureModel(0.0, 5), seed=1)
    rep = run_simulation(cfg)
    delivered = [r for r in rep.packets if r.delivered]
    assert rep.loss_rate == 0.0 or all(
        r.copies == 0 for r in rep.packets if not r.delivered)
    for r in delivered:
        assert 1 <= r.arrival <= 10
    assert len(rep.packets) == 200


def test_runs_are_reproducible():
    g = _arena(3)
    cfg = SimConfig(g, 8, 2, 2, 150, FailureModel(0.1, 4, seed=5), seed=5)
    a, b = run_simulation(cfg), run_simulation(cfg)
    assert a == b
    assert packets_to_jsonl(a) == packets_to_jsonl(b)


def test_run_simulation_draws_failures_from_the_config_seed():
    # FailureModel.seed feeds sample_failures only; run_simulation derives
    # every packet's stream from SimConfig.seed
    g = _arena(3)
    a, b = (run_simulation(SimConfig(g, 8, 2, 2, 150,
                                     FailureModel(0.1, 4, seed=fseed), seed=5))
            for fseed in (5, 77))
    assert a == b
    assert 0.0 < a.loss_rate < 1.0


def test_more_journeys_never_lose_a_delivered_packet():
    g = _arena(4)
    for seed in range(30):
        journeys = djr_route(g, g.nodes[0], g.nodes[-1], 3, 2)
        failures = sample_failures(g, FailureModel(0.2, 4, seed=seed))
        ok = [journeys_delivered(g, journeys[:n], failures)[0]
              for n in range(len(journeys) + 1)]
        assert ok == sorted(ok)  # once delivered, stays delivered


def test_extra_copies_never_hurt_a_packet():
    # deadline == horizon pins every window to the whole graph, so the
    # n=1 and n=2 runs see identical packets and failures
    g = gen_random_tvg(8, 8, 0.5, 4)
    fm = FailureModel(0.15, 5, seed=9)
    one = run_simulation(SimConfig(g, 8, 1, 2, 300, fm, seed=9))
    two = run_simulation(SimConfig(g, 8, 2, 2, 300, fm, seed=9))
    for r1, r2 in zip(one.packets, two.packets):
        assert (r1.src, r1.dst) == (r2.src, r2.dst)
        if r1.delivered:
            assert r2.delivered
    assert two.loss_rate <= one.loss_rate


def test_sweep_layout_and_determinism():
    g = _arena(5)
    reports = sweep(g, [1, 2], [1, 2, 3], [8], 60, 0.1, 3, seed=2)
    assert [(r.n, r.delta) for r in reports] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    csv = sweep_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,delta,deadline,p,d_max,seed,packets,loss_rate"
    assert len(lines) == 7
    assert csv == sweep_to_csv(sweep(g, [1, 2], [1, 2, 3], [8], 60, 0.1, 3,
                                     seed=2))
    for r in reports:
        assert 0.0 <= r.loss_rate <= 1.0


@pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("d_max", [0, 3])
def test_sweep_equals_separate_runs(p, d_max):
    # sweep runs the points of a deadline in lockstep, one failure walk per
    # packet; each report must be the point's own run_simulation, record
    # for record. Deadlines below the horizon let the windows drift apart
    # between points, n repeats, and the sparse graph leaves pairs unrouted
    g = gen_random_tvg(8, 12, 0.25, 6)
    ns, deltas, deadlines = [1, 2, 1], [1, 3], [12, 7, 5]
    reports = sweep(g, ns, deltas, deadlines, 120, p, d_max, 4)
    alone = [run_simulation(SimConfig(g, deadline, n, delta, 120,
                                      FailureModel(p, d_max), seed=seed))
             for n in ns for delta in deltas for deadline in deadlines
             for seed in [_derive_seed(4, deadline)]]
    assert reports == alone
    assert any(r.copies == 0 for rep in reports for r in rep.packets)
    # points whose outcomes differ at a deadline below the horizon move
    # their clocks apart, and with them their windows
    arrivals = {tuple(r.arrival for r in rep.packets)
                for rep in reports if rep.deadline == 7}
    assert len(arrivals) > 1


def test_sweep_rejects_a_bad_point_before_any_plan(monkeypatch):
    # every point is validated in row order before the first packet runs,
    # and the first bad row names the error
    def no_plan(*args):
        raise AssertionError("planned before the last point was validated")

    monkeypatch.setattr(tempocut.simulate, "greedy_maxflow_delta", no_plan)
    g = _arena()
    t = g.horizon
    with pytest.raises(ValueError, match="^need at least one copy"):
        sweep(g, [2, 1, 0], [1], [t], 50, 0.1, 3, 1)
    with pytest.raises(ValueError, match=r"^deadline must lie in \[1, graph"):
        sweep(g, [1, 2], [1, 99], [t, t + 1], 50, 0.1, 3, 1)
    with pytest.raises(ValueError, match=r"^delta must lie in \[1, deadline"):
        sweep(g, [1], [1, 2, 99], [t], 50, 0.1, 3, 1)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_loss_rate_matches_records(seed):
    g = _arena(seed % 7)
    cfg = SimConfig(g, 6, 1, 1, 40, FailureModel(0.3, 3, seed=seed), seed=seed)
    rep = run_simulation(cfg)
    lost = sum(1 for r in rep.packets if not r.delivered)
    assert rep.loss_rate == lost / 40
