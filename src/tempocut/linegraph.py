"""Static expansions of a time-varying graph for one source/destination pair.

The line graph makes each contact a node and joins two exactly when
traversing them back to back is time-feasible, so s->d journeys are its
s->d paths. It has O(contacts^2) arcs, so no answer builds it:
build_line_graph and node_disjoint_maxflow are the reference that tempocut
verify and the tests compare against, built from g alone, not from the
contact index that what they check is built on. min_hop_path runs its BFS
without building it, on the contact index; its core, _min_hop_ids,
returns the contact ids the greedy keeps.

The time-expanded network (_time_expanded_network) has O(contacts) arcs
and the line graph's min contact cuts, so it serves every max flow through
_time_expanded_flow: time_expanded_maxflow, the rounded cut and the
delta = 1 exact flow. Both networks run one residual builder (_residual)
and one augmenting loop (_augment). Each query on a pair checks it with
tvg._check_pair.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

from .tvg import (Contact, Journey, TimeVaryingGraph, _check_pair,
                  _contact_index, _contacts_of, _path_to)

SRC = 0  # node index of the source terminal
DST = 1  # node index of the destination terminal


@dataclass(frozen=True)
class LineGraph:
    """Contact expansion; node 0 is the source terminal, node 1 the destination."""

    contact_list: tuple[Contact, ...]  # interior node i+2 <-> contact_list[i]
    succ: tuple[tuple[int, ...], ...]  # adjacency, indices into the node space

    @property
    def node_count(self) -> int:
        return len(self.contact_list) + 2

    @property
    def arc_count(self) -> int:
        return sum(len(a) for a in self.succ)


@dataclass(frozen=True)
class NodeCutResult:
    value: Fraction
    cut: tuple[Contact, ...]


def build_line_graph(g: TimeVaryingGraph, s: str, d: str) -> LineGraph:
    """Expand every contact of g into a node, terminals s and d included.

    Contacts go in contacts(g) order, contact i as node i + 2. The source
    terminal's arcs go to the contacts leaving s, a contact's arcs to the
    contacts leaving its head at a later slot, with DST first when its head
    is d; each list runs in (slot, edge order). Built from g alone, on every
    call, sharing nothing with the contact index that the time-expanded
    network and the searches it checks are built on: O(contacts^2) arcs.
    """
    _check_pair(g, s, d)
    clist = tuple(Contact(e.eid, t) for e in g.edges for t in g.active[e.eid])
    leaving: dict[str, list[tuple[int, int]]] = {}  # node -> (slot, node no.)
    for v, (eid, t) in enumerate(clist, 2):
        leaving.setdefault(g.edge(eid).src, []).append((t, v))
    for out in leaving.values():
        out.sort()  # (slot, edge order), as node numbers follow edge order
    succ = [tuple(v for _, v in leaving.get(s, ())), ()]
    for eid, t in clist:
        head = g.edge(eid).dst
        arcs = tuple(v for u, v in leaving.get(head, ()) if u > t)
        succ.append((DST,) + arcs if head == d else arcs)
    return LineGraph(clist, tuple(succ))


def min_hop_path(g: TimeVaryingGraph, s: str, d: str,
                 dead: Sequence[object] | None = None) -> Journey | None:
    """Fewest-hop s->d journey, ties broken by smallest (slot, edge order).

    The line graph's BFS (_min_hop_ids), run on g's contact index.
    Contacts whose `dead` entry (indexed by contact id) is truthy are never
    entered, which finds the same journey as a graph without them.
    """
    _check_pair(g, s, d)
    if dead is None:
        parent = [-1] * g.contact_count
    else:
        parent = [-2 if x else -1 for x in dead]
    ids = _min_hop_ids(g, s, d, parent)
    return None if ids is None else Journey(tuple(_contacts_of(g, ids)))


def _min_hop_ids(g: TimeVaryingGraph, s: str, d: str,
                 parent: list[int]) -> tuple[int, ...] | None:
    """min_hop_path's journey as contact ids, for a pair already checked.

    `parent` holds -1 per contact id, or -2 for a dead contact, which
    reads as already discovered and so is never entered; the search fills
    in the parents. FIFO order, first-discovery parents, the contacts
    leaving s as sources. A contact's successors are the suffix of its
    head's presorted start list that departs after it, so the tie-break
    comes for free. The line graph's BFS answers with the first contact
    into d in the first frontier that holds one; frontiers are in
    discovery order and the ones before held none, so that is the first
    contact into d discovered, and the search stops there. Once a suffix
    of a start list has been scanned, every contact in it is discovered or
    dead; lo[h] keeps the lowest position of h's start list scanned so
    far, and each expansion scans only the positions below it. So every
    contact is scanned once, and the parents are the line graph's.
    """
    ix = _contact_index(g)
    starts, after, head = ix.starts, ix.after, ix.head
    frontier = []
    for c in starts.get(s, ()):
        if parent[c] == -1:
            parent[c] = c  # a root is its own parent
            if head[c] == d:
                return _path_to(parent, c)
            frontier.append(c)
    lo = {s: 0}
    while frontier:
        nxt = []
        for u in frontier:
            h, k = head[u], after[u]
            leaving = starts.get(h, ())
            top = lo.get(h, len(leaving))
            if k < top:
                for c in leaving[k:top]:
                    if parent[c] == -1:
                        parent[c] = u
                        if head[c] == d:
                            return _path_to(parent, c)
                        nxt.append(c)
                lo[h] = k
        frontier = nxt
    return None


def node_disjoint_maxflow(lg: LineGraph,
                          weights: Mapping[Contact, Fraction | int] | None = None
                          ) -> NodeCutResult:
    """Max flow with per-contact node capacities; terminals are uncapacitated.

    Weights default to 1 on every contact and are scaled to integers (see
    _scaled_caps), so values and the returned cut are exact. The last,
    failed augmenting search marks exactly the nodes the source still
    reaches; the cut is every contact whose in-half it marked and whose
    out-half it did not, which is the min cut closest to the source and so
    unique.
    """
    scale, caps = _scaled_caps(lg.contact_list, weights)

    # node split: contact i, line-graph node v = i + 2, becomes in-half
    # 2 + 2i = 2v - 2 and out-half 3 + 2i = 2v - 1; the terminals keep
    # single nodes SRC and DST
    total = sum(caps) + 1  # effectively infinite
    net = _residual(2 + 2 * len(caps), chain(
        ((2 + 2 * i, 3 + 2 * i) for i in range(len(caps))),
        ((SRC, 2 * v - 2) for v in lg.succ[SRC]),
        ((2 * u - 1, DST if v == DST else 2 * v - 2)
         for u in range(2, lg.node_count) for v in lg.succ[u])),
        caps + [total] * lg.arc_count)
    value, pred = _augment(*net)
    cut = tuple(c for i, c in enumerate(lg.contact_list)
                if pred[2 + 2 * i] != -1 and pred[3 + 2 * i] == -1)
    return NodeCutResult(value=Fraction(value, scale), cut=cut)


def time_expanded_maxflow(g: TimeVaryingGraph, s: str, d: str,
                          weights: Mapping[Contact, Fraction | int] | None = None
                          ) -> NodeCutResult:
    """node_disjoint_maxflow's value and cut on a network with O(contacts) arcs.

    The network is _time_expanded_network(g, s, d); contact arcs carry the
    scaled weights (see _scaled_caps). s->d paths are the journeys that
    stop at their first arrival at d, so the contact cuts are the line
    graph's. The cut is every contact whose tail node the last, failed
    augmenting search reached and whose arc head it did not, in contacts(g)
    order. The source-closest min cut is unique, so it equals
    node_disjoint_maxflow's on build_line_graph(g, s, d).
    """
    clist = _contact_index(g).contacts
    scale, caps = _scaled_caps(clist, weights)
    value, cut, _ = _time_expanded_flow(g, s, d, caps)
    return NodeCutResult(value=Fraction(value, scale),
                         cut=tuple(clist[i] for i in cut))


def _time_expanded_flow(g: TimeVaryingGraph, s: str, d: str,
                        caps: Sequence[int],
                        family: Sequence[Sequence[int]] = ()
                        ) -> tuple[int, list[int],
                                   Callable[[], list[tuple[int, ...]]]]:
    """(max flow value, source-closest min cut as contact ids in id order,
    walks) on _time_expanded_network(g, s, d), contact id i carrying
    caps[i].

    `family` holds pairwise contact-disjoint s->d journeys as contact-id
    tuples (the greedy's). Each is pushed first along SRC, the waiting
    chain to each hop's tail and the hop's arc, by the path's smallest
    residual capacity. That is the journey's smallest capacity: no earlier
    journey used its hops, and no waiting arc binds, its flow staying
    below the sum of the capacities. Then the augmenting loop runs from
    that flow. A max flow has one value, and the last, failed search in
    the residual of any max flow reaches exactly the source side of the
    source-closest min cut, so the family changes neither, only the
    number of augmenting searches.

    walks() splits this flow into `value` SRC->DST walks (contact-id
    tuples), each leaving a node by its first arc still carrying flow and
    taking one unit off it: contact arcs are the hops, waiting arcs keep
    time order. The network is acyclic, so each walk is a journey ending at
    its first arrival at d; with unit capacities no two share a contact.
    """
    size, waits, arcs = _time_expanded_network(g, s, d)
    total = sum(caps) + 1  # effectively infinite
    net = _residual(size, waits + [(u, v) for _, u, v in arcs],
                    [total] * len(waits) + [caps[i] for i, _, _ in arcs])
    graph, arc_to, res = net
    value = 0
    if family:
        # waiting arc k is arc 2k; contact arc k, in contact-id order, is
        # arc 2 (len(waits) + k)
        wait_arc = {u: 2 * k for k, (u, _) in enumerate(waits)}
        for ids in family:
            path = []
            node = SRC
            for i in ids:
                a = 2 * (len(waits) + bisect_left(arcs, (i,)))
                while node != arc_to[a ^ 1]:  # wait for the hop's tail
                    path.append(wait_arc[node])
                    node = arc_to[path[-1]]
                path.append(a)
                node = arc_to[a]
            value += _push(res, path)
    more, pred = _augment(*net)
    value += more

    def walks() -> list[tuple[int, ...]]:
        flow = res[1::2]  # flow[k]: the units arc 2k carries
        first = len(waits)  # arc 2k, k >= first, is arcs[k - first]
        found = []
        for _ in range(value):
            ids, node = [], SRC
            while node != DST:
                k = next(a // 2 for a in graph[node]
                         if a % 2 == 0 and flow[a // 2])
                flow[k] -= 1
                if k >= first:
                    ids.append(arcs[k - first][0])
                node = arc_to[2 * k]
            found.append(tuple(ids))
        return found

    return value, [i for i, u, v in arcs
                   if pred[u] != -1 and pred[v] == -1], walks


def _time_expanded_network(g: TimeVaryingGraph, s: str, d: str
                           ) -> tuple[int, list[tuple[int, int]],
                                      list[tuple[int, int, int]]]:
    """(node count, uncapacitated arcs, contact arcs (id, tail, head) in id
    order) of the time-expanded network for s->d: one node per arrival
    event.

    Contact i arrives at its head and can go on by the first contact
    leaving the head after it, starts[head][after[i]]: its arc enters that
    departure's hub, or DST when the head is d, and is dropped when the
    head offers no later departure. SRC enters the first departure of s.
    Hubs, one per departure in the contact index's (slot, edge order), are
    chained per node by uncapacitated waiting arcs; only the entered ones
    become nodes, numbered from 2. A hub that no arc enters takes the node
    of the entered hub before it, and the hubs before a node's first
    entered one are dropped with their contact arcs.

    The merge keeps the value and the source-closest min cut of the
    network with every hub. There, a hub whose only in-arc is the waiting
    arc from the hub before it is reached by the last, failed augmenting
    search iff that hub is: one way along the infinite arc; the other
    because it is reached along that arc or back along an out-arc carrying
    flow, and that flow came in along the waiting arc, whose reverse leads
    back. So the cut closest to the source keeps each such pair on one
    side. Contracting a pair removes only cuts that split it, so the
    minimum stays, and so does the cut closest to the source. Dropped hubs
    are never reached and carry no flow, so their arcs cross no cut. A
    node entered only by arcs of dropped hubs stays, never reached.
    """
    _check_pair(g, s, d)
    ix = _contact_index(g)
    starts, after, head = ix.starts, ix.after, ix.head
    n = len(head)
    # nxt[i]: the departure contact i's arc enters, n for DST, -1 if none
    nxt = [-1] * n
    entered = [False] * n
    if starts.get(s):
        entered[starts[s][0]] = True
    for i, (h, k) in enumerate(zip(head, after)):
        if h == d:
            nxt[i] = n
        else:
            leaving = starts.get(h, ())
            if k < len(leaving):
                nxt[i] = leaving[k]
                entered[leaving[k]] = True
    node = [-1] * n + [DST]  # id -> network node of its hub, -1 if dropped
    waits: list[tuple[int, int]] = []
    size = 2
    for ids in starts.values():
        cur = -1
        for i in ids:
            if entered[i]:
                if cur != -1:
                    waits.append((cur, size))
                cur = size
                size += 1
            node[i] = cur
    if starts.get(s):
        waits.append((SRC, node[starts[s][0]]))
    arcs = [(i, node[i], node[j]) for i, j in enumerate(nxt)
            if j != -1 and node[i] != -1]
    return size, waits, arcs


def _scaled_caps(clist: Sequence[Contact],
                 weights: Mapping[Contact, Fraction | int] | None
                 ) -> tuple[int, list[int]]:
    """(scale, integer capacities) for the contacts in order.

    Weights default to 1; they are rationals with small denominators, so
    scaling by the lcm of their denominators makes every one an integer.
    """
    if weights is None:
        return 1, [1] * len(clist)
    ws = [weights[c] for c in clist]
    scale = lcm(*(w.denominator for w in ws))
    caps = [w.numerator * (scale // w.denominator) for w in ws]
    for c, cap in zip(clist, caps):
        if cap <= 0:  # denominators are positive
            raise ValueError(f"nonpositive weight for contact {c}")
    return scale, caps


def _residual(size: int, ends: Iterable[tuple[int, int]],
              caps: Sequence[int]
              ) -> tuple[list[list[int]], list[int], list[int]]:
    """(per-node arc ids, arc heads, residual capacities) of a network on
    `size` nodes. The k-th of `ends` is arc k's (tail, head) and caps[k]
    its capacity. Arc k becomes arc id 2k and its reverse, of capacity 0,
    arc id 2k + 1, so arc a ^ 1 reverses arc a. The capacities go in by one
    slice assignment, not arc by arc."""
    graph: list[list[int]] = [[] for _ in range(size)]
    arc_to: list[int] = []
    a = 0
    for u, v in ends:
        graph[u].append(a)
        graph[v].append(a + 1)
        arc_to += v, u
        a += 2
    res = [0] * a
    res[::2] = caps  # raises unless there is one cap per arc
    return graph, arc_to, res


def _augment(graph: list[list[int]], arc_to: list[int], res: list[int]
             ) -> tuple[int, list[int]]:
    """Push SRC->DST flow along BFS paths until none is left (Edmonds-Karp).

    Returns the flow value and the last, failed search's arc into each
    node: -1 marks exactly the nodes the source no longer reaches.
    """
    value = 0
    while True:
        pred = [-1] * len(graph)  # arc id used to reach each node
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
            return value, pred
        path = []
        v = DST
        while v != SRC:
            path.append(pred[v])
            v = arc_to[pred[v] ^ 1]
        value += _push(res, path)


def _push(res: list[int], path: list[int]) -> int:
    """Push the path's smallest residual capacity along its arcs; returns
    that amount."""
    pushed = min(res[a] for a in path)
    for a in path:
        res[a] -= pushed
        res[a ^ 1] += pushed
    return pushed

