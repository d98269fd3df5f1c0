"""Static expansion of a time-varying graph for one source/destination pair.

Each contact becomes a node; an arc joins two contact nodes exactly when
traversing them back to back is time-feasible. s->d journeys of the original
graph then correspond one to one with s->d paths here, which turns journey
questions into static path questions: min-hop journeys come from BFS and
1-slot-disjoint packing comes from node-capacitated max flow. Only the
terminals depend on the pair, so the contact nodes and their arcs are built
once per graph and shared by all of its line graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .tvg import (Contact, Journey, TimeVaryingGraph, _check_nodes,
                  _contact_index, contacts)

SRC = 0  # node index of the source terminal
DST = 1  # node index of the destination terminal


@dataclass(frozen=True)
class LineGraph:
    """Contact expansion; node 0 is the source terminal, node 1 the destination."""

    graph: TimeVaryingGraph
    s: str
    d: str
    contact_list: tuple[Contact, ...]  # interior node i+2 <-> contact_list[i]
    succ: tuple[tuple[int, ...], ...]  # adjacency, indices into the node space

    @property
    def node_count(self) -> int:
        return len(self.contact_list) + 2

    @property
    def arc_count(self) -> int:
        return sum(len(a) for a in self.succ)

    def contact_of(self, node: int) -> Contact:
        return self.contact_list[node - 2]


@dataclass(frozen=True)
class NodeCutResult:
    value: Fraction
    cut: tuple[Contact, ...]
    paths: tuple[tuple[Contact, ...], ...]  # populated for all-ones weights


class _ContactCore(NamedTuple):
    """The pair-independent part of every line graph of one graph."""

    contact_list: tuple[Contact, ...]
    succ: tuple[tuple[int, ...], ...]  # contact arcs, no DST; 0, 1 empty
    into: dict[str, tuple[int, ...]]  # node -> contacts arriving at it


def _contact_core(g: TimeVaryingGraph) -> _ContactCore:
    """Build g's contact core once and keep it on g, which is immutable.

    Contact i of g's contact index is line-graph node i + 2; its arcs go to
    the suffix of its head's presorted start list that departs after it.
    """
    core = g._line_core
    if core is not None:
        return core
    ix = _contact_index(g)
    starts = {n: tuple(i + 2 for i in ids) for n, ids in ix.starts.items()}
    succ = [(), ()]
    into: dict[str, list[int]] = {}
    for i, head in enumerate(ix.head):
        succ.append(starts[head][ix.after[i]:] if head in starts else ())
        into.setdefault(head, []).append(i + 2)
    core = _ContactCore(tuple(contacts(g)), tuple(succ),
                        {n: tuple(v) for n, v in into.items()})
    g._line_core = core
    return core


def build_line_graph(g: TimeVaryingGraph, s: str, d: str) -> LineGraph:
    """Expand every contact of g into a node, terminals s and d included.

    The pair-independent part (contacts and contact-to-contact arcs) is
    built once per graph and kept on it; each call only attaches the
    terminals: the source terminal's arcs go to the contacts leaving s, in
    the contact index's (slot, edge order), and DST goes first on every
    contact arriving at d. So the successor lists are exactly those of a
    from-scratch expansion, in the same order.
    """
    if s == d:
        raise ValueError("source and destination must differ")
    _check_nodes(g, s, d)
    core = _contact_core(g)
    succ = list(core.succ)
    succ[SRC] = tuple(i + 2 for i in _contact_index(g).starts.get(s, ()))
    for v in core.into.get(d, ()):
        succ[v] = (DST,) + succ[v]
    return LineGraph(g, s, d, core.contact_list, tuple(succ))


def min_hop_path(lg: LineGraph,
                 dead: Sequence[bool] | None = None) -> Journey | None:
    """Fewest-hop s->d journey, ties broken by smallest (slot, edge order).

    Successor lists are already sorted that way, so plain FIFO BFS with
    first-discovery parents realizes the tie-break. Nodes flagged in the
    optional `dead` mask (indexed like the node space) are never entered,
    which finds the same journey as a line graph built without them.
    """
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
    hops: list[Contact] = []
    node = parent[DST]
    while node != SRC:
        hops.append(lg.contact_of(node))
        node = parent[node]
    hops.reverse()
    return Journey(tuple(hops))


def node_disjoint_maxflow(lg: LineGraph,
                          weights: Mapping[Contact, Fraction | int] | None = None
                          ) -> NodeCutResult:
    """Max flow with per-contact node capacities; terminals are uncapacitated.

    Weights default to 1 on every contact. All weights are scaled to integers
    (they are rationals with small denominators), so values and the returned
    cut are exact. Each round augments along the path a BFS over the
    residual capacities finds. The last, failed search marks exactly the
    nodes the source still reaches; the cut is every contact whose in-half
    it marked and whose out-half it did not, which is the min cut closest to
    the source and so unique. When every weight is 1 the flow decomposes
    into that many internally node-disjoint paths, which are returned as
    contact sequences.
    """
    ws: list[Fraction | int] = []
    for c in lg.contact_list:
        w = weights[c] if weights is not None else 1
        if w <= 0:
            raise ValueError(f"nonpositive weight for contact {c}")
        ws.append(w)
    unit = all(w == 1 for w in ws)
    scale = lcm(*(w.denominator for w in ws)) if ws else 1
    caps = [w.numerator * (scale // w.denominator) for w in ws]

    # node split: contact i, line-graph node v = i + 2, becomes in-half
    # 2 + 2i = 2v - 2 and out-half 3 + 2i = 2v - 1; the terminals keep
    # single nodes SRC and DST
    size = 2 + 2 * len(caps)
    graph: list[list[int]] = [[] for _ in range(size)]  # arc ids per node
    arc_to: list[int] = []
    res: list[int] = []  # residual capacity; arc a ^ 1 reverses arc a

    def add_arc(u: int, v: int, cap: int) -> None:
        graph[u].append(len(arc_to))
        arc_to.append(v)
        res.append(cap)
        graph[v].append(len(arc_to))
        arc_to.append(u)
        res.append(0)

    total = sum(caps) + 1  # effectively infinite
    for i, cap in enumerate(caps):
        add_arc(2 + 2 * i, 3 + 2 * i, cap)
    for v in lg.succ[SRC]:
        add_arc(SRC, 2 * v - 2, total)
    for u in range(2, lg.node_count):
        for v in lg.succ[u]:
            add_arc(2 * u - 1, DST if v == DST else 2 * v - 2, total)

    value = 0
    while True:
        pred = [-1] * size  # arc id used to reach each node
        pred[SRC] = -2
        queue = [SRC]
        for u in queue:
            for a in graph[u]:
                v = arc_to[a]
                if pred[v] == -1 and res[a] > 0:
                    pred[v] = a
                    queue.append(v)
            if pred[DST] != -1:
                break
        if pred[DST] == -1:
            break
        path = []
        v = DST
        while v != SRC:
            path.append(pred[v])
            v = arc_to[pred[v] ^ 1]
        pushed = min(res[a] for a in path)
        for a in path:
            res[a] -= pushed
            res[a ^ 1] += pushed
        value += pushed

    cut = tuple(c for i, c in enumerate(lg.contact_list)
                if pred[2 + 2 * i] != -1 and pred[3 + 2 * i] == -1)
    paths = _decompose_unit_paths(lg, graph, arc_to, res, value) if unit else ()
    return NodeCutResult(value=Fraction(value, scale), cut=cut, paths=paths)


def _decompose_unit_paths(lg, graph, arc_to, res, value):
    """Walk unit flow from the source into node-disjoint contact paths.

    A forward arc carries flow while its reverse arc has residual capacity;
    walking it takes that unit back, so no arc is walked twice.
    """
    paths = []
    for _ in range(value):
        path: list[Contact] = []
        node = SRC
        while node != DST:
            for a in graph[node]:
                if a % 2 == 0 and res[a ^ 1] > 0:
                    res[a ^ 1] -= 1
                    node = arc_to[a]
                    break
            else:
                raise AssertionError("flow decomposition ran dry")
            if node >= 2 and node % 2 == 0:  # an in-half: record its contact
                path.append(lg.contact_list[(node - 2) // 2])
        paths.append(tuple(path))
    return tuple(paths)
