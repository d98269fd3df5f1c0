"""Discrete time-varying graph model.

A TimeVaryingGraph is a digraph whose edges are only usable during given
time slots of a horizon 1..T. Traversing an edge takes exactly one slot,
so a journey is a chain of contacts (edge, slot) with strictly increasing
slots. A delta-removal knocks an edge out for delta consecutive slots.

This module holds the model types and the operations everything else is
built on: validation, the one size-budget, delta and pair checks
(_check_budget, _check_delta, _check_pair), contacts, journey checks,
removal footprints, interference, and _min_hop_surviving, the min-hop
search behind reachable, verify_cut and the exact cut search.

Each graph keeps a contact index, built on first use (_contact_index):
integer contact ids in contacts(g) order, per node the ids leaving it
presorted by (slot, edge order), and per delta a run table (_run_table)
whose id ranges are interference runs, canonical removal heads and removal
footprints. The searches, the greedy and the networks work on ids, and
Contact, Journey and DeltaRemoval objects are built only for what is
reported; mincut._approximations turns the greedy's Journeys back into ids
once, to start the rounded cut's max flow and the exact cut search.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple, Sequence


class InstanceTooLargeError(RuntimeError):
    """Raised when an exact oracle would exceed its configured budget."""


def _check_budget(count: int, limit: int, what: str, unit: str) -> None:
    """The one form of a counted size budget: count units of what, more
    than limit, raises InstanceTooLargeError naming both."""
    if count > limit:
        raise InstanceTooLargeError(
            f"{what} too large: {count} {unit}, more than {limit}")


class Contact(NamedTuple):
    """One activation of an edge in one time slot."""

    edge: str
    slot: int


class DeltaRemoval(NamedTuple):
    """A transient failure: `edge` is unusable during [head, head+delta)."""

    edge: str
    head: int
    delta: int  # positive duration in slots


class EdgeDef(NamedTuple):
    eid: str
    src: str
    dst: str


@dataclass(frozen=True)
class Journey:
    """A time-respecting path: hops chain spatially, slots strictly increase."""

    hops: tuple[Contact, ...]

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a journey has at least one hop")

    @property
    def arrival(self) -> int:
        return self.hops[-1].slot

    def to_json_obj(self) -> list[list]:
        return [[h.edge, h.slot] for h in self.hops]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


class TimeVaryingGraph:
    """Immutable time-varying digraph.

    Edge ids are assigned "e1".."eN" in declaration order; that order also
    fixes the deterministic contact ordering used everywhere downstream.
    The constructor normalizes active slot lists (sorted, deduplicated) but
    does not reject invalid data, repeated node names included; use
    validate_graph / from_json_dict for that. contact_count is counted once
    here. _contact_ix holds the contact index (see _contact_index), built
    on first use, outside equality, hashing and serialization.
    """

    __slots__ = ("horizon", "nodes", "edges", "active", "contact_count",
                 "_index", "_node_set", "_contact_ix")

    def __init__(self, nodes: Iterable[str],
                 edges: Iterable[tuple[str, str, Iterable[int]]],
                 horizon: int):
        self.nodes: tuple[str, ...] = tuple(str(n) for n in nodes)
        self._node_set = frozenset(self.nodes)
        self.horizon = int(horizon)

        defs: list[EdgeDef] = []
        active: dict[str, tuple[int, ...]] = {}
        for i, (src, dst, slots) in enumerate(edges):
            eid = f"e{i + 1}"
            defs.append(EdgeDef(eid, str(src), str(dst)))
            active[eid] = tuple(sorted(set(map(int, slots))))
        self.edges: tuple[EdgeDef, ...] = tuple(defs)
        self.active: dict[str, tuple[int, ...]] = active
        self.contact_count = sum(map(len, active.values()))

        self._index = {e.eid: i for i, e in enumerate(defs)}
        self._contact_ix = None

    # -- lookups ---------------------------------------------------------

    def edge(self, eid: str) -> EdgeDef:
        return self.edges[self._index[eid]]

    def has_edge(self, eid: str) -> bool:
        return eid in self._index

    def edge_index(self, eid: str) -> int:
        return self._index[eid]

    # -- equality (used heavily by tests) --------------------------------

    def _key(self):
        return (self.horizon, self.nodes, self.edges,
                tuple(self.active[e.eid] for e in self.edges))

    def __eq__(self, other):
        return isinstance(other, TimeVaryingGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"TimeVaryingGraph({len(self.nodes)} nodes, "
                f"{len(self.edges)} edges, {self.contact_count} contacts, "
                f"T={self.horizon})")

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "T": self.horizon,
            "nodes": list(self.nodes),
            "edges": [
                {"from": e.src, "to": e.dst, "active": list(self.active[e.eid])}
                for e in self.edges
            ],
        }

    def dumps(self) -> str:
        """json.dumps(self.to_json_dict(), indent=2) + "\\n", without the
        pure-Python encoder that json.dumps runs under any indent."""
        def block(items, pad):  # JSON texts as an indented JSON list
            body = (",\n  " + pad).join(items)
            return f"[\n  {pad}{body}\n{pad}]" if body else "[]"
        enc, slots, six = json.dumps, self.active, " " * 6
        edges = (f'{{\n{six}"from": {enc(e.src)},\n{six}"to": {enc(e.dst)},\n'
                 f'{six}"active": {block(map(str, slots[e.eid]), six)}\n    }}'
                 for e in self.edges)
        return (f'{{\n  "T": {self.horizon},\n  "nodes": '
                f'{block(map(enc, self.nodes), "  ")},\n'
                f'  "edges": {block(edges, "  ")}\n}}\n')

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TimeVaryingGraph":
        """Build from the document format; rejects invalid graphs."""
        try:
            horizon, nodes, edges = obj["T"], obj["nodes"], obj["edges"]
            raw_edges = [(e["from"], e["to"], e["active"]) for e in edges]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph document: {exc}") from exc
        # type(...) is int: JSON true and false are not slots
        if not (isinstance(nodes, list) and isinstance(edges, list)
                and type(horizon) is int
                and all(isinstance(n, str) for n in nodes)
                and all(type(u) is type(v) is str and isinstance(a, list)
                        for u, v, a in raw_edges)
                and set(map(type, chain.from_iterable(
                    a for *_, a in raw_edges))) <= {int}):
            raise ValueError("malformed graph document: nodes, edges and "
                             "active must be lists, T and slots integers, "
                             "node names and endpoints strings")
        g = cls(nodes, raw_edges, horizon)
        report = validate_graph(g)
        if not report.ok:
            raise ValueError("invalid graph: " + "; ".join(report.violations))
        return g

    @classmethod
    def loads(cls, text: str) -> "TimeVaryingGraph":
        try:
            return cls.from_json_dict(json.loads(text))
        except RecursionError as exc:  # nested deeper than json parses
            raise ValueError(f"malformed graph document: {exc}") from None


def load_tvg(path: str) -> TimeVaryingGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return TimeVaryingGraph.loads(fh.read())


def save_tvg(g: TimeVaryingGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(g.dumps())


# -- operations ------------------------------------------------------------


def validate_graph(g: TimeVaryingGraph) -> ValidationReport:
    """Check structural invariants; returns a report rather than raising."""
    violations: list[str] = []
    if g.horizon < 1:
        violations.append(f"horizon must be a positive integer, got {g.horizon}")
    if len(g._node_set) != len(g.nodes):
        seen: set[str] = set()
        for n in g.nodes:
            if n in seen:
                violations.append(f"node {n!r} listed more than once")
            seen.add(n)
    pairs: set[tuple[str, str]] = set()
    for e in g.edges:
        if e.src == e.dst:
            violations.append(f"{e.eid}: self-loop {e.src!r}->{e.dst!r}")
        if e.src not in g._node_set:
            violations.append(f"{e.eid}: endpoint {e.src!r} not in node set")
        if e.dst not in g._node_set:
            violations.append(f"{e.eid}: endpoint {e.dst!r} not in node set")
        if (e.src, e.dst) in pairs:
            violations.append(f"{e.eid}: duplicate edge {e.src!r}->{e.dst!r}")
        pairs.add((e.src, e.dst))
        slots = g.active[e.eid]  # sorted by the constructor: check the ends
        if slots and not 1 <= slots[0] <= slots[-1] <= g.horizon:
            violations.extend(f"{e.eid}: active slot {t} outside 1..{g.horizon}"
                              for t in slots if not 1 <= t <= g.horizon)
    return ValidationReport(ok=not violations, violations=tuple(violations))


def contacts(g: TimeVaryingGraph) -> list[Contact]:
    """All contacts in deterministic (edge declaration, slot) order."""
    return list(_contact_index(g).contacts)


@dataclass(slots=True)
class _ContactIndex:
    """Integer contact ids of one graph; pair-independent, linear in size.

    Ids follow (edge declaration, slot) order, contacts(g)'s, so the
    contacts of edge e are the ids first[e], first[e] + 1, ... in slot
    order, and on one edge a smaller id is an earlier slot. The contacts
    tuple, for callers that need every contact, is built on first use and
    kept; callers that report a few ids build those alone (_contacts_of).
    runs holds the run table of each delta asked for (_run_table).
    """

    starts: dict[str, tuple[int, ...]]  # node -> ids leaving it, (slot, edge order)
    after: list[int]  # id -> where starts[its head] departs after its slot
    slot: list[int]  # id -> slot
    edge_pos: list[int]  # id -> position of its edge in g.edges
    head: list[str]  # id -> node the contact arrives at
    rank: list[int]  # id -> position in (slot, edge order) over all ids
    first: dict[str, int]  # edge id -> id of its first contact, edge order
    _contacts: tuple[Contact, ...] | None = None
    runs: dict[int, tuple[list[int], list[int]]] = field(default_factory=dict)

    @property
    def contacts(self) -> tuple[Contact, ...]:
        """id -> contact."""
        if self._contacts is None:
            eids = tuple(self.first)
            self._contacts = tuple(map(Contact, map(eids.__getitem__,
                                                    self.edge_pos), self.slot))
        return self._contacts


def _contact_index(g: TimeVaryingGraph) -> _ContactIndex:
    """Build g's contact index once and keep it on g, which is immutable."""
    ix = g._contact_ix
    if ix is not None:
        return ix
    slot: list[int] = []
    edge_pos: list[int] = []
    head: list[str] = []
    first: dict[str, int] = {}
    by_start: dict[str, list[int]] = {}
    for k, e in enumerate(g.edges):
        first[e.eid] = len(slot)
        leaving = by_start.setdefault(e.src, [])
        for t in g.active[e.eid]:
            leaving.append(len(slot))
            slot.append(t)
            edge_pos.append(k)
            head.append(e.dst)
    # ids run in edge order, so a stable sort by slot gives (slot, edge order)
    by_slot = slot.__getitem__
    rank = [0] * len(slot)
    for r, i in enumerate(sorted(range(len(slot)), key=by_slot)):
        rank[i] = r
    starts = {n: tuple(sorted(ids, key=by_slot)) for n, ids in by_start.items()}
    start_slots = {n: [slot[i] for i in ids] for n, ids in starts.items()}
    after = [bisect_right(start_slots[h], t) if h in starts else 0
             for h, t in zip(head, slot)]
    ix = _ContactIndex(starts, after, slot, edge_pos, head, rank, first)
    g._contact_ix = ix
    return ix


def _contacts_of(g: TimeVaryingGraph, ids: Iterable[int]) -> list[Contact]:
    """The contacts with the given ids, in that order."""
    ix = _contact_index(g)
    return [Contact(g.edges[ix.edge_pos[i]].eid, ix.slot[i]) for i in ids]


def _contact_id(g: TimeVaryingGraph, c: Contact) -> int | None:
    """c's id in g's contact index, or None if c is not a contact of g."""
    edge, t = c
    slots = g.active.get(edge)
    if slots is None:
        return None
    k = bisect_left(slots, t)
    if k == len(slots) or slots[k] != t:
        return None
    return _contact_index(g).first[edge] + k


def _footprint_ids(g: TimeVaryingGraph, r: DeltaRemoval) -> range:
    """Ids of the contacts r takes out: one edge, so one run of ids. For
    any removal; one headed at a contact is a run-table range."""
    slots = g.active[r.edge]
    base = _contact_index(g).first[r.edge]
    return range(base + bisect_left(slots, r.head),
                 base + bisect_right(slots, r.head + r.delta - 1))


def _run_table(g: TimeVaryingGraph,
               delta: int) -> tuple[list[int], list[int]]:
    """(back, reach) for delta, built once per delta on g's contact index.

    For contact id i on edge e at slot t, back[i] is the first id of e
    with slot > t - delta and reach[i] is one past the last id of e with
    slot < t + delta. On one edge ids order like slots, so:
    - range(back[i], reach[i]) is i's interference run, the contacts a
      journey delta-disjoint from one using i may not use;
    - back[i]..i are the heads of the delta-removals that take i out,
      restricted to active slots (sliding a head right onto the first
      active slot only grows its footprint);
    - range(h, reach[h]) is the footprint of the removal headed at h.
    Removal windows may run past the horizon, so delta > T is fine.
    """
    _check_delta(delta)
    ix = _contact_index(g)
    table = ix.runs.get(delta)
    if table is not None:
        return table
    slot = ix.slot
    back: list[int] = []
    reach: list[int] = []
    for e in g.edges:  # two pointers over the ids of e
        lo = b = r = ix.first[e.eid]
        hi = lo + len(g.active[e.eid])
        for t in slot[lo:hi]:
            while slot[b] <= t - delta:
                b += 1
            while r < hi and slot[r] < t + delta:
                r += 1
            back.append(b)
            reach.append(r)
    table = ix.runs[delta] = (back, reach)
    return table


def is_valid_journey(g: TimeVaryingGraph, j: Journey, s: str, d: str) -> bool:
    """True iff j is a feasible s->d journey of g (never raises)."""
    prev_slot = 0
    prev_node = s
    for edge_id, t in j.hops:
        if not g.has_edge(edge_id):
            return False
        e = g.edge(edge_id)
        if e.src != prev_node:
            return False
        if t <= prev_slot or t > g.horizon:
            return False
        if t not in g.active[edge_id]:
            return False
        prev_slot = t
        prev_node = e.dst
    return prev_node == d


def removal_footprint(g: TimeVaryingGraph, r: DeltaRemoval) -> list[Contact]:
    """Contacts of r.edge disabled by r: active slots in [head, head+delta)."""
    _check_removal(g, r)
    return _contacts_of(g, _footprint_ids(g, r))


def _check_removal(g: TimeVaryingGraph, r: DeltaRemoval) -> None:
    if r.delta < 1:
        raise ValueError("removal duration must be positive")
    if not g.has_edge(r.edge):
        raise ValueError(f"unknown edge {r.edge!r}")


def _check_delta(delta: int) -> None:
    """The one rule every delta query starts from: removals last at least
    one slot."""
    if delta < 1:
        raise ValueError("delta must be positive")


def _check_pair(g: TimeVaryingGraph, s: str, d: str) -> None:
    """The one rule every pair query starts from: s and d are two distinct
    nodes of g."""
    if s == d:
        raise ValueError("source and destination must differ")
    for n in (s, d):
        if n not in g._node_set:
            raise ValueError(f"unknown node {n!r}")


def reachable(g: TimeVaryingGraph, s: str, d: str,
              banned: frozenset[Contact] | None = None) -> bool:
    """True iff some s->d journey avoids every banned contact.

    `banned` contacts are treated as inactive (ones that are not contacts
    of g are ignored), without rebuilding the graph.
    """
    _check_pair(g, s, d)
    dead = [False] * g.contact_count
    for c in banned or ():
        i = _contact_id(g, c)
        if i is not None:
            dead[i] = True
    return _min_hop_surviving(g, s, d, dead) is not None


def _min_hop_surviving(g: TimeVaryingGraph, s: str, d: str,
                       dead: Sequence[int]) -> tuple[int, ...] | None:
    """Min-hop journey avoiding the contacts whose `dead` entry is nonzero,
    as a tuple of contact ids, or None. `dead` is indexed by contact id
    (see _contact_index).

    BFS over contact states, level by level in (slot, edge order); the
    first level holding a contact into d returns its first such contact.
    A contact on edge e is only worth expanding if its slot beats the
    earliest slot already expanded on e (an earlier slot at an
    earlier-or-same level dominates: same edge, more room to continue),
    which keeps the state space near-linear. On one edge ids order like
    slots, so the test compares ids. Expanding a contact walks the
    presorted suffix of its head's start list that departs after it; the
    dominance test alone keeps the first live contact of each edge there.
    Once a suffix has been scanned, each contact in it is dead or has
    best[e] at most its id, so a rescan would enter nothing: lo[h] keeps
    the lowest position of h's start list scanned so far, and each
    expansion scans only the positions below it.
    """
    ix = _contact_index(g)
    starts, after, slot = ix.starts, ix.after, ix.slot
    edge_pos, head = ix.edge_pos, ix.head
    best = [len(slot)] * len(g.edges)  # earliest expanded id, per edge
    parent: dict[int, int] = {}

    frontier: list[int] = []
    for c in starts.get(s, ()):
        e = edge_pos[c]
        # a slot below 1 starts no journey (see is_valid_journey), and no
        # later expansion reaches one, so s's whole list counts as scanned
        if not dead[c] and best[e] > c and slot[c] > 0:
            best[e] = c
            parent[c] = -1
            frontier.append(c)
    lo = {s: 0}

    while frontier:
        for c in frontier:
            if head[c] == d:
                hops = []
                while c != -1:
                    hops.append(c)
                    c = parent[c]
                return tuple(reversed(hops))
        nxt: list[int] = []
        for c in frontier:
            h, k = head[c], after[c]
            leaving = starts.get(h, ())
            top = lo.get(h, len(leaving))
            if k >= top:
                continue
            for c2 in leaving[k:top]:
                if dead[c2]:
                    continue
                e = edge_pos[c2]
                if best[e] <= c2:
                    continue
                best[e] = c2
                parent[c2] = c
                nxt.append(c2)
            lo[h] = k
        nxt.sort(key=ix.rank.__getitem__)
        frontier = nxt
    return None


def _contacts_reaching(g: TimeVaryingGraph, d: str) -> list[bool]:
    """Per contact id: True iff d is reachable from it by some journey
    suffix."""
    # scan contacts by decreasing slot; latest[v] = latest slot at which
    # leaving v can still make it to d
    ix = _contact_index(g)
    slot, head, edge_pos = ix.slot, ix.head, ix.edge_pos
    latest: dict[str, int] = {d: g.horizon + 1}
    good = [False] * len(slot)
    for i in sorted(range(len(slot)), key=slot.__getitem__, reverse=True):
        t = slot[i]
        if head[i] in latest and latest[head[i]] > t:
            good[i] = True
            tail = g.edges[edge_pos[i]].src
            if tail not in latest or latest[tail] < t:
                latest[tail] = t
    return good


def interferes(j1: Journey, j2: Journey, delta: int) -> bool:
    """True iff the journeys use a common edge within delta slots."""
    _check_delta(delta)
    slots_by_edge: dict[str, list[int]] = {}
    for e, t in j1.hops:
        slots_by_edge.setdefault(e, []).append(t)
    for e, t in j2.hops:
        for t1 in slots_by_edge.get(e, ()):
            if abs(t - t1) < delta:
                return True
    return False


def interfering_contacts(g: TimeVaryingGraph, j: Journey,
                         delta: int) -> list[Contact]:
    """Contacts of g within delta slots of some same-edge hop of j.

    Includes j's own hops. These are exactly the contacts another journey
    may not use if it is to stay delta-disjoint from j.
    """
    _check_delta(delta)
    hop_slots: dict[str, list[int]] = {}
    for e, t in j.hops:
        if g.has_edge(e):
            hop_slots.setdefault(e, []).append(t)
    out: list[Contact] = []
    for e in g.edges:
        slots = hop_slots.get(e.eid)
        if not slots:
            continue
        for t in g.active[e.eid]:
            if any(abs(t - th) < delta for th in slots):
                out.append(Contact(e.eid, t))
    return out
