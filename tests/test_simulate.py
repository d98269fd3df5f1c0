"""Trace-driven loss simulation: failure sampling, routing, pairing."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (Contact, DeltaRemoval, FailureModel, SimConfig,
                      TimeVaryingGraph, djr_route, gen_random_tvg, interferes,
                      journeys_delivered, removal_footprint, run_simulation,
                      sample_failures, sweep, sweep_to_csv)
from tempocut.simulate import (_carve_window, _derive_seed, _draw_pair,
                               _fused_delivered, _plan_hops, _sample_onsets,
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


def _reference_sample_onsets(g, p, d_max, rng):
    """The sampler as first written, durations via rng.randint."""
    failures = []
    if p <= 0.0:
        return failures
    horizon = g.horizon
    log_q = math.log1p(-p) if p < 1.0 else None
    for e in g.edges:
        slot = 1
        while slot <= horizon:
            if log_q is not None:
                gap = int(math.log(1.0 - rng.random()) / log_q)
                slot += gap
                if slot > horizon:
                    break
            dur = rng.randint(0, d_max)
            if dur > 0:
                failures.append(DeltaRemoval(e.eid, slot, dur))
            slot += 1
    return failures


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("d_max", [0, 1, 10])
def test_sample_onsets_matches_randint_reference(p, d_max):
    for seed in range(5):
        g = _arena(seed)
        ours, ref = random.Random(seed), random.Random(seed)
        assert _sample_onsets(g, p, d_max, ours) == \
            _reference_sample_onsets(g, p, d_max, ref)
        assert ours.getstate() == ref.getstate()


def _reference_delivered(g, journeys, failures):
    """Delivery check through the union of the failures' footprints."""
    banned = set()
    for r in failures:
        banned.update(removal_footprint(g, r))
    arrival = None
    for j in journeys:
        if any(hop in banned for hop in j.hops):
            continue
        if arrival is None or j.arrival < arrival:
            arrival = j.arrival
    return arrival is not None, arrival


def test_journeys_delivered_matches_footprint_reference():
    rng = random.Random(17)
    checked = 0
    for seed in range(40):
        g = _arena(seed % 7)
        s, d = rng.sample(g.nodes, 2)
        journeys = djr_route(g, s, d, 3, rng.randint(1, 3))
        fm = FailureModel(rng.choice([0.05, 0.2, 0.5]), rng.randint(1, 6),
                          seed=seed)
        failures = sample_failures(g, fm)
        # removals that start before slot 1 or run past the horizon
        failures += [DeltaRemoval(e.eid, rng.randint(-3, g.horizon + 3),
                                  rng.randint(1, 8))
                     for e in rng.sample(g.edges, min(3, len(g.edges)))]
        for n in range(len(journeys) + 1):
            assert journeys_delivered(g, journeys[:n], failures) == \
                _reference_delivered(g, journeys[:n], failures)
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("d_max", [0, 1, 10])
def test_fused_check_matches_the_full_draw(p, d_max):
    # run_simulation's fused check draws only up to the last planned edge
    # and stops once every copy is dead; from the same stream it must give
    # what journeys_delivered gives over every sampled failure
    outcomes = set()
    empty = 0
    for seed in range(4):
        g = gen_random_tvg(8, 12, 0.3, seed)
        for deadline in (12, 7):  # the whole horizon, and a carved window
            window = _carve_window(g, 1 + 3 * seed % (13 - deadline),
                                   deadline)
            pairs = random.Random(seed)
            for _ in range(12):
                s, d = pairs.sample(window.nodes, 2)
                plan = djr_route(window, s, d, 3, pairs.randint(1, 3))
                empty += not plan
                for n in (1, 2, 3):
                    stream = pairs.getrandbits(64)
                    fused = _fused_delivered(window,
                                             _plan_hops(window, plan[:n]),
                                             p, d_max, random.Random(stream))
                    full = journeys_delivered(
                        window, plan[:n],
                        _sample_onsets(window, p, d_max,
                                       random.Random(stream)))
                    assert fused == full
                    outcomes.add(fused[0])
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


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_loss_rate_matches_records(seed):
    g = _arena(seed % 7)
    cfg = SimConfig(g, 6, 1, 1, 40, FailureModel(0.3, 3, seed=seed), seed=seed)
    rep = run_simulation(cfg)
    lost = sum(1 for r in rep.packets if not r.delivered)
    assert rep.loss_rate == lost / 40
