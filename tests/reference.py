"""Brute-force references that only the tests compare against.

enumerate_journeys lists every journey on g itself, revisits included,
to check the searches and oracles that walk the contact index.
apply_removals builds the residual graph that the library never builds:
its queries ban removed contacts by mask instead.
"""

from bisect import bisect_right
from typing import Iterable

from tempocut.tvg import (Contact, DeltaRemoval, InstanceTooLargeError,
                          Journey, TimeVaryingGraph, _check_pair,
                          _contact_index, _contacts_reaching,
                          removal_footprint)


def apply_removals(g: TimeVaryingGraph,
                   removals: Iterable[DeltaRemoval]) -> TimeVaryingGraph:
    """Residual graph with every removal footprint deleted. Order-insensitive."""
    dead: dict[str, set[int]] = {}
    for r in removals:
        for c in removal_footprint(g, r):
            dead.setdefault(c.edge, set()).add(c.slot)
    new_edges = []
    for e in g.edges:
        gone = dead.get(e.eid, ())
        slots = [t for t in g.active[e.eid] if t not in gone]
        new_edges.append((e.src, e.dst, slots))
    return TimeVaryingGraph(g.nodes, new_edges, g.horizon)


def enumerate_journeys(g: TimeVaryingGraph, s: str, d: str,
                       cap: int = 50_000) -> list[Journey]:
    """Every valid s->d journey, depth-first in (slot, edge) order.

    Journeys may revisit nodes and edges at later slots; termination comes
    from the strictly increasing slots. Raises InstanceTooLargeError as soon
    as the count would exceed cap.
    """
    _check_pair(g, s, d)
    if cap < 1:
        raise ValueError("cap must be positive")

    # contacts that can still reach d, ignoring revisit structure: sound prune
    can_reach = {c for c, ok in zip(_contact_index(g).contacts,
                                    _contacts_reaching(g, d)) if ok}

    results: list[Journey] = []
    stack: list[Contact] = []

    def successors(node: str, after: int) -> list[Contact]:
        succ = []
        for e in (f for f in g.edges if f.src == node):
            slots = g.active[e.eid]
            for k in range(bisect_right(slots, after), len(slots)):
                succ.append(Contact(e.eid, slots[k]))
        succ.sort(key=lambda c: (c.slot, g.edge_index(c.edge)))
        return succ

    def walk(node: str, after: int) -> None:
        for c in successors(node, after):
            if c not in can_reach:
                continue
            e = g.edge(c.edge)
            stack.append(c)
            if e.dst == d:
                if len(results) >= cap:
                    raise InstanceTooLargeError(
                        f"instance too large for exact oracle: more than {cap} journeys")
                results.append(Journey(tuple(stack)))
            walk(e.dst, c.slot)
            stack.pop()

    walk(s, 0)
    return results
