"""Trace-driven failure simulation for disjoint-journey routing.

Packets are generated back to back between random pairs; each packet gets
a deadline-length window of the trace, up to n greedily-computed
delta-disjoint journeys on the failure-free window (the router never sees
the failures), and is delivered iff at least one copy dodges every
sampled failure. Loss rates come out of deterministic per-packet seed
streams, so every sweep is exactly reproducible.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .maxflow import greedy_maxflow_delta
from .tvg import (Contact, DeltaRemoval, Journey, TimeVaryingGraph,
                  removal_footprint)

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


def _sample_onsets(g: TimeVaryingGraph, p: float, d_max: int,
                   rng: random.Random) -> list[DeltaRemoval]:
    """Every failure onset on g, edge by edge in g.edges order, as a
    removal for every nonzero duration.

    An onset strikes each (edge, slot) with probability p and lasts
    rng.randint(0, d_max) slots; zero-duration onsets draw from the stream
    but have no footprint and are not kept. Gaps between onsets are
    sampled geometrically, which is distribution-identical to a per-slot
    scan. An edge's draws never depend on later edges, so a walk that
    stops early has drawn the onsets a full scan gives. This is the
    full-draw definition: sample_failures draws through it, and _walk
    repeats its draws inline, which the tests check draw for draw."""
    out: list[DeltaRemoval] = []
    if p <= 0.0:
        return out
    log_q = math.log1p(-p) if p < 1.0 else None
    for e in g.edges:
        slot = 1
        while slot <= g.horizon:
            if log_q is not None:
                slot += int(math.log(1.0 - rng.random()) / log_q)
                if slot > g.horizon:
                    break
            dur = rng.randint(0, d_max)
            if dur > 0:
                out.append(DeltaRemoval(e.eid, slot, dur))
            slot += 1
    return out


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


def journeys_delivered(g: TimeVaryingGraph, journeys: Iterable[Journey],
                       failures: Iterable[DeltaRemoval]
                       ) -> tuple[bool, int | None]:
    """(delivered, earliest arrival among surviving journeys), for
    journeys of g: a journey is lost iff one of its hops lies in some
    failure's removal_footprint."""
    dead: set[Contact] = set()
    for r in failures:
        dead.update(removal_footprint(g, r))
    arrival = min((j.arrival for j in journeys if dead.isdisjoint(j.hops)),
                  default=None)
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


class _Walk(NamedTuple):
    """One packet's copies at every point of a lockstep run, indexed for
    the failure walk. Points sending the same plan share its copies."""

    arrivals: tuple[int, ...]  # per copy
    hops: tuple[tuple[tuple[int, int], ...], ...]  # edge pos -> (slot, copy)
    spans: tuple[range, ...]  # per point: the copies it sends
    best: tuple[int | None, ...]  # per point: its arrival if no copy fails


def _index_copies(g: TimeVaryingGraph, plans) -> _Walk:
    """Index every point's copies, given per point as (plan, n): it sends
    the plan's first n journeys. Hops go by edge position, up to the last
    planned edge; failures beyond it cannot touch a copy."""
    need: dict[tuple[Journey, ...], int] = {}
    for plan, n in plans:
        need[plan] = max(need.get(plan, 0), min(n, len(plan)))
    first, arrivals, by_pos = {}, [], {}
    for plan, count in need.items():
        first[plan] = len(arrivals)
        for copy, j in enumerate(plan[:count], len(arrivals)):
            for e, t in j.hops:
                by_pos.setdefault(g.edge_index(e), []).append((t, copy))
            arrivals.append(j.arrival)
    spans = tuple(range(first[plan], first[plan] + min(n, len(plan)))
                  for plan, n in plans)
    hops = tuple(tuple(by_pos.get(pos, ()))
                 for pos in range(max(by_pos, default=-1) + 1))
    return _Walk(tuple(arrivals), hops, spans,
                 tuple(min(arrivals[s.start:s.stop], default=None)
                       for s in spans))


def _walk(w: _Walk, horizon: int, p: float, d_max: int,
          rng: random.Random) -> tuple[int | None, ...]:
    """Per point, the earliest arrival of a copy that dodges the failures
    rng draws next, or None: journeys_delivered over _sample_onsets(window,
    p, d_max, rng). The simulator's one hot loop, so both are inlined: a
    duration is drawn as rng.randint(0, d_max) draws it (getrandbits of
    the range's bit length, redrawn until in range), and an onset kills
    the copies with a hop on its edge in [slot, slot + duration), which for
    hops that are contacts is footprint membership. The draws go edge by
    edge up to the last edge a copy uses; they stop once every copy of
    every point is dead, and no copy or p = 0 draws nothing. The skipped
    draws all come after the ones taken, so no answer changes."""
    copies = len(w.arrivals)
    if not copies or p <= 0.0:
        return w.best
    alive = [True] * copies
    left = copies
    log_q = math.log1p(-p) if p < 1.0 else None
    random_, getrandbits, log = rng.random, rng.getrandbits, math.log
    span = d_max + 1
    bits = span.bit_length()
    for edge_hops in w.hops:
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
                            return (None,) * len(w.spans)
            slot += 1
    if left == copies:
        return w.best
    return tuple(min((w.arrivals[c] for c in s if alive[c]), default=None)
                 for s in w.spans)


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


def _lockstep(points: list[SimConfig]) -> list[SimReport]:
    """run_simulation of points that differ only in n and delta. A packet
    draws one pair and one set of failures for all of them, whatever their
    window starts; each point keeps its own clock, plans and records."""
    head = points[0]
    g, deadline = head.graph, head.deadline
    p, d_max = head.failures.p, head.failures.d_max
    wrap = g.horizon - deadline + 1
    nodes = list(g.nodes)
    window = functools.cache(lambda start: _carve_window(g, start, deadline))

    @functools.cache
    def plan(start: int, delta: int, src: str, dst: str):
        return greedy_maxflow_delta(window(start), src, dst, delta).journeys

    # room for every pair at one set of window starts
    @functools.lru_cache(maxsize=len(nodes) * (len(nodes) - 1))
    def walk(src: str, dst: str, starts: tuple[int, ...]) -> _Walk:
        return _index_copies(g, [(plan(start, cfg.delta, src, dst), cfg.n)
                                 for cfg, start in zip(points, starts)])

    records: list[list[PacketRecord]] = [[] for _ in points]
    clocks = [1] * len(points)
    rng = random.Random()
    for idx in range(head.packet_count):
        rng.seed(_derive_seed(head.seed, idx))
        a, b = _draw_pair(rng, len(nodes))
        src, dst = nodes[a], nodes[b]
        starts = tuple((clock - 1) % wrap + 1 for clock in clocks)
        w = walk(src, dst, starts)
        for i, arrival in enumerate(_walk(w, deadline, p, d_max, rng)):
            records[i].append(PacketRecord(idx, src, dst, len(w.spans[i]),
                                           arrival is not None, arrival))
            # the slot after the successful last hop, or expiry
            clocks[i] = starts[i] + (deadline if arrival is None else arrival)
    return [SimReport(cfg.n, cfg.delta, deadline, p, d_max, head.seed,
                      tuple(recs)) for cfg, recs in zip(points, records)]


def run_simulation(cfg: SimConfig) -> SimReport:
    """Sequential packet loop per the back-to-back traffic model, run as a
    _lockstep of one point. Each packet is generated the slot after the
    previous one delivers or expires; its window start cycles over the
    trace (wrapping so every window fits the horizon whole). Per packet one
    reseeded generator (the state a fresh random.Random gives) on a seed
    from cfg.seed and the packet index (never cfg.failures.seed) draws src,
    dst as randrange would, then failures, in that order. _walk stops the
    failure draws once no copy can change, and the stream is never read
    after them, so every outcome is journeys_delivered's over the whole
    _sample_onsets draw of the packet's window."""
    return _lockstep([cfg])[0]


def sweep(g: TimeVaryingGraph, ns, deltas, deadlines, packet_count: int,
          p: float, d_max: int, seed: int) -> list[SimReport]:
    """Cross-product of (n, delta, deadline) in deterministic row order,
    every point validated before any packet runs. Points at the same
    deadline share a derived seed, so packets draw the same pair and
    failure streams (when deadline == horizon the windows coincide too, so
    loss across n or delta compares identical traffic, not fresh noise).
    They run in lockstep, one failure walk per packet for all of them, and
    each report is its point's run_simulation."""
    points = [SimConfig(g, deadline, n, delta, packet_count,
                        FailureModel(p, d_max, _derive_seed(seed, deadline)),
                        seed=_derive_seed(seed, deadline))
              for n in ns for delta in deltas for deadline in deadlines]
    reports: dict[int, SimReport] = {}
    for deadline in dict.fromkeys(cfg.deadline for cfg in points):
        rows = [r for r, cfg in enumerate(points) if cfg.deadline == deadline]
        reports.update(zip(rows, _lockstep([points[r] for r in rows])))
    return [reports[r] for r in range(len(points))]


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
