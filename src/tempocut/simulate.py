"""Trace-driven failure simulation for disjoint-journey routing.

Packets are generated back to back between random pairs; each packet gets
a deadline-length window of the trace, up to n greedily-computed
delta-disjoint journeys on the failure-free window (the router never sees
the failures), and is delivered iff at least one copy dodges every
sampled failure. Loss rates come out of deterministic per-packet seed
streams, so every sweep is exactly reproducible.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .maxflow import greedy_maxflow_delta
from .tvg import DeltaRemoval, Journey, TimeVaryingGraph

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio increment


def _derive_seed(master: int, *coords: int) -> int:
    h = (master ^ _MIX) & 0xFFFFFFFFFFFFFFFF
    for c in coords:
        h ^= (c + _MIX + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class FailureModel:
    """Onsets per (edge, slot) with probability p, lasting 0..d_max slots.
    seed feeds sample_failures only; run_simulation never reads it and
    draws each packet's failures from the stream SimConfig.seed derives."""
    p: float
    d_max: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a probability")
        if self.d_max < 0:
            raise ValueError("d_max must be nonnegative")


@dataclass(frozen=True)
class SimConfig:
    graph: TimeVaryingGraph
    deadline: int
    n: int
    delta: int
    packet_count: int
    failures: FailureModel
    seed: int = 0

    def __post_init__(self):
        if len(self.graph.nodes) < 2:
            raise ValueError("simulation needs a graph of at least two nodes "
                             "to draw packet pairs from, got "
                             f"{len(self.graph.nodes)}")
        if self.n < 1:
            raise ValueError("need at least one copy per packet")
        if not 1 <= self.deadline <= self.graph.horizon:
            raise ValueError("deadline must lie in [1, graph horizon]")
        if not 1 <= self.delta <= self.deadline:
            raise ValueError("delta must lie in [1, deadline]")
        if self.packet_count < 1:
            raise ValueError("packet_count must be positive")


class PacketRecord(NamedTuple):
    index: int
    src: str
    dst: str
    copies: int
    delivered: bool
    arrival: int | None  # window-relative slot


@dataclass(frozen=True)
class SimReport:
    n: int
    delta: int
    deadline: int
    p: float
    d_max: int
    seed: int
    packets: tuple[PacketRecord, ...]

    @property
    def loss_rate(self) -> float:
        lost = sum(1 for r in self.packets if not r.delivered)
        return lost / len(self.packets)


def _onsets(g: TimeVaryingGraph, p: float, d_max: int, rng: random.Random,
            edge_count: int) -> Iterator[tuple[int, int, int]]:
    """Failure onsets on the first edge_count edges of g, in g.edges order,
    as (edge position, slot, duration) for every nonzero duration.

    An onset strikes each (edge, slot) with probability p and lasts
    uniformly 0..d_max slots; zero-duration onsets draw from the stream
    but have no footprint and are not yielded. Gaps between onsets are
    sampled geometrically, which is distribution-identical to a per-slot
    scan. Durations are drawn exactly as rng.randint(0, d_max) draws them
    (getrandbits of the range's bit length, redrawn until in range), so
    the stream matches draw for draw, d_max = 0 included. The draws of an
    edge never depend on later edges, so stopping early leaves every
    yielded onset as a full scan would give it.

    This is the one full-draw definition: sample_failures draws through
    it, and _fused_delivered repeats its draws inline, which the tests
    check against it draw for draw.
    """
    if p <= 0.0:
        return
    horizon = g.horizon
    log_q = math.log1p(-p) if p < 1.0 else None
    random_, getrandbits, log = rng.random, rng.getrandbits, math.log
    span = d_max + 1
    bits = span.bit_length()
    for pos in range(edge_count):
        slot = 1
        while slot <= horizon:
            if log_q is not None:
                gap = int(log(1.0 - random_()) / log_q)
                slot += gap
                if slot > horizon:
                    break
            dur = getrandbits(bits)
            while dur >= span:
                dur = getrandbits(bits)
            if dur > 0:
                yield pos, slot, dur
            slot += 1


def _sample_onsets(g: TimeVaryingGraph, p: float, d_max: int,
                   rng: random.Random) -> list[DeltaRemoval]:
    """Every failure onset on g (see _onsets), as removals."""
    edges = g.edges
    return [DeltaRemoval(edges[pos].eid, slot, dur)
            for pos, slot, dur in _onsets(g, p, d_max, rng, len(edges))]


def sample_failures(g: TimeVaryingGraph, fm: FailureModel) -> list[DeltaRemoval]:
    return _sample_onsets(g, fm.p, fm.d_max, random.Random(fm.seed))


def djr_route(g: TimeVaryingGraph, s: str, d: str, n: int,
              delta: int) -> list[Journey]:
    """Up to n pairwise delta-disjoint journeys on the failure-free graph
    (supply-limited: fewer if the greedy finds fewer)."""
    if n < 1:
        raise ValueError("need at least one copy")
    found = greedy_maxflow_delta(g, s, d, delta).journeys
    return list(found[:n])


def journeys_delivered(g: TimeVaryingGraph, journeys,
                       failures) -> tuple[bool, int | None]:
    """(delivered, earliest arrival among surviving journeys).

    A journey is lost when a hop (e, t) lies in [head, head+delta-1] of a
    failure on e. The failures are grouped into those intervals per edge
    and only the journeys' hops are tested; no footprint is built. For a
    hop that is a contact of g, as every routed journey's hops are, the
    interval test is exactly membership in the failure's removal_footprint.
    """
    down: dict[str, list[tuple[int, int]]] = {}
    for edge, head, dur in failures:
        if dur < 1:
            raise ValueError("removal duration must be positive")
        spans = down.get(edge)
        if spans is None:
            if not g.has_edge(edge):
                raise ValueError(f"unknown edge {edge!r}")
            spans = down[edge] = []
        spans.append((head, head + dur - 1))
    arrival = None
    for j in journeys:
        if any(lo <= t <= hi for e, t in j.hops for lo, hi in down.get(e, ())):
            continue
        if arrival is None or j.arrival < arrival:
            arrival = j.arrival
    return arrival is not None, arrival


def _carve_window(g: TimeVaryingGraph, start: int,
                  deadline: int) -> TimeVaryingGraph:
    """Deadline-length slice [start, start+deadline-1], rebased to slot 1."""
    end = start + deadline - 1
    edges = []
    for e in g.edges:
        slots = [t - start + 1 for t in g.active[e.eid] if start <= t <= end]
        edges.append((e.src, e.dst, slots))
    return TimeVaryingGraph(g.nodes, edges, deadline)


class _PlanHops(NamedTuple):
    """A packet's planned copies, indexed for the fused failure check."""

    arrivals: tuple[int, ...]  # per copy
    hops: tuple[tuple[tuple[int, int], ...], ...]  # edge pos -> (slot, copy)


def _plan_hops(g: TimeVaryingGraph, journeys) -> _PlanHops:
    """Index the journeys' hops by edge position, up to the last planned
    edge; failures beyond it cannot touch a copy."""
    by_pos: dict[int, list[tuple[int, int]]] = {}
    for copy, j in enumerate(journeys):
        for e, t in j.hops:
            by_pos.setdefault(g.edge_index(e), []).append((t, copy))
    edge_count = max(by_pos, default=-1) + 1
    hops = tuple(tuple(by_pos.get(pos, ())) for pos in range(edge_count))
    return _PlanHops(tuple(j.arrival for j in journeys), hops)


def _fused_delivered(g: TimeVaryingGraph, plan: _PlanHops, p: float,
                     d_max: int, rng: random.Random) -> tuple[bool, int | None]:
    """journeys_delivered(g, journeys, _sample_onsets(g, p, d_max, rng)),
    drawing only what can change the answer.

    The draws are _onsets's, made inline (no generator, no onset tuple)
    edge by edge up to the last planned edge; an onset is tested only on
    an edge that carries planned hops. The draws stop once every copy is
    dead, and a packet with no copy draws nothing. The skipped draws all
    come after the ones taken, so the outcome is the same.
    """
    arrivals = plan.arrivals
    if not arrivals:
        return False, None
    if p <= 0.0:
        return True, min(arrivals)
    alive = [True] * len(arrivals)
    left = len(alive)
    horizon = g.horizon
    log_q = math.log1p(-p) if p < 1.0 else None
    random_, getrandbits, log = rng.random, rng.getrandbits, math.log
    span = d_max + 1
    bits = span.bit_length()
    for edge_hops in plan.hops:
        slot = 1
        while slot <= horizon:
            if log_q is not None:
                slot += int(log(1.0 - random_()) / log_q)
                if slot > horizon:
                    break
            dur = getrandbits(bits)
            while dur >= span:
                dur = getrandbits(bits)
            if dur and edge_hops:
                end = slot + dur
                for t, copy in edge_hops:
                    if slot <= t < end and alive[copy]:
                        alive[copy] = False
                        left -= 1
                        if not left:
                            return False, None
            slot += 1
    return True, min(a for a, up in zip(arrivals, alive) if up)


def _draw_pair(rng: random.Random, count: int) -> tuple[int, int]:
    """Two distinct indices below count, drawn as rng.randrange(count)
    draws them (getrandbits of count's bit length, redrawn until below
    count), the second redrawn while it equals the first."""
    getrandbits = rng.getrandbits
    bits = count.bit_length()
    src = getrandbits(bits)
    while src >= count:
        src = getrandbits(bits)
    dst = getrandbits(bits)
    while dst >= count or dst == src:
        dst = getrandbits(bits)
    return src, dst


def run_simulation(cfg: SimConfig, _plan_cache: dict | None = None) -> SimReport:
    """Sequential packet loop per the back-to-back traffic model.

    Each packet is generated the slot after the previous one delivers or
    expires; its window start cycles over the trace (wrapping so every
    window fits the horizon whole; when deadline == horizon every packet
    sees the whole graph and sweep points share workloads exactly).
    Per packet a stream seeded from cfg.seed and the packet index (never
    cfg.failures.seed) draws src, dst, then failures, in that order; the
    order is load-bearing for reproducibility. The run keeps one generator
    and reseeds it per packet, which for an int seed gives the state a
    fresh random.Random(seed) would; the pair is drawn as randrange draws
    it (_draw_pair). Routing is memoized per (window start, pair) since
    the failure-free plan never changes. A sweep passes a shared plan
    cache: plans depend on delta but not n.

    Failures are drawn and tested in one inline pass (_fused_delivered),
    which skips the draws after the last edge, in g.edges order, that a
    planned copy uses, and those after every copy is dead; a packet with
    no copy draws none. The packet's stream is never read after its
    failures, so the skipped draws are its last: the stream and every
    outcome are those of journeys_delivered over all sampled failures.
    """
    g = cfg.graph
    wrap = g.horizon - cfg.deadline + 1
    nodes = list(g.nodes)
    windows: dict[int, TimeVaryingGraph] = {}
    plans = _plan_cache if _plan_cache is not None else {}
    indexed: dict[tuple, _PlanHops] = {}  # plan key -> its first n copies
    records: list[PacketRecord] = []
    clock = 1
    rng = random.Random()
    for idx in range(cfg.packet_count):
        rng.seed(_derive_seed(cfg.seed, idx))
        a, b = _draw_pair(rng, len(nodes))
        src, dst = nodes[a], nodes[b]
        start = (clock - 1) % wrap + 1
        if start not in windows:
            windows[start] = _carve_window(g, start, cfg.deadline)
        window = windows[start]
        key = (cfg.deadline, cfg.delta, start, src, dst)
        plan = indexed.get(key)
        if plan is None:
            if key not in plans:
                plans[key] = greedy_maxflow_delta(window, src, dst,
                                                  cfg.delta).journeys
            plan = indexed[key] = _plan_hops(window, plans[key][:cfg.n])
        delivered, arrival = _fused_delivered(
            window, plan, cfg.failures.p, cfg.failures.d_max, rng)
        records.append(PacketRecord(idx, src, dst, len(plan.arrivals),
                                    delivered, arrival))
        if delivered:
            clock = start + arrival  # the slot after the successful last hop
        else:
            clock = start + cfg.deadline  # expiry
    return SimReport(cfg.n, cfg.delta, cfg.deadline, cfg.failures.p,
                     cfg.failures.d_max, cfg.seed, tuple(records))


def sweep(g: TimeVaryingGraph, ns, deltas, deadlines, packet_count: int,
          p: float, d_max: int, seed: int) -> list[SimReport]:
    """Cross-product of (n, delta, deadline) in deterministic row order.

    Points at the same deadline share a derived seed, so packets draw the
    same pair and failure streams; when deadline == horizon the windows
    coincide too and comparing loss across n or delta compares identical
    traffic, not fresh noise.
    """
    reports = []
    plan_cache: dict = {}
    for n in ns:
        for delta in deltas:
            for deadline in deadlines:
                point_seed = _derive_seed(seed, deadline)
                cfg = SimConfig(g, deadline, n, delta, packet_count,
                                FailureModel(p, d_max, point_seed),
                                seed=point_seed)
                reports.append(run_simulation(cfg, _plan_cache=plan_cache))
    return reports


def sweep_to_csv(reports) -> str:
    lines = ["n,delta,deadline,p,d_max,seed,packets,loss_rate"]
    for r in reports:
        lines.append(f"{r.n},{r.delta},{r.deadline},{r.p},{r.d_max},"
                     f"{r.seed},{len(r.packets)},{r.loss_rate:.6f}")
    return "\n".join(lines) + "\n"


def packets_to_jsonl(report: SimReport) -> str:
    lines = []
    for rec in report.packets:
        lines.append(json.dumps({
            "index": rec.index, "src": rec.src, "dst": rec.dst,
            "copies": rec.copies, "delivered": rec.delivered,
            "arrival": rec.arrival,
        }))
    return "\n".join(lines) + ("\n" if lines else "")
