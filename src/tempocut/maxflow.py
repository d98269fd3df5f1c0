"""Maximum sets of delta-disjoint journeys.

Two journeys are delta-disjoint when they never use the same edge within
delta slots of each other. greedy_maxflow_delta peels min-hop journeys off
the graph and blanks out everything that interferes with them; it is
fast, order-deterministic, and carries a provable worst-case certificate
(greedy_bound_certificate). exact_maxflow_delta is the desk-scale oracle:
maximum independent set over the journey conflict graph, branch and bound
seeded with the greedy incumbent and stopped at a ceiling on the optimum:
MaxFlow_1 on its own, the exact cut inside mincut.analyze_exact. At
delta = 1 its answer is the unit max flow's path decomposition instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linegraph import (build_line_graph, min_hop_path, node_disjoint_maxflow,
                        time_expanded_maxflow)
from .tvg import (Contact, InstanceTooLargeError, Journey, TimeVaryingGraph,
                  _contact_index, _contacts_reaching, _interference_ids,
                  contacts)

DEFAULT_JOURNEY_CAP = 25_000


@dataclass(frozen=True)
class FlowResult:
    journeys: tuple[Journey, ...]
    delta: int
    exact: bool

    @property
    def count(self) -> int:
        return len(self.journeys)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "count": self.count,
            "exact": self.exact,
            "journeys": [j.to_json_obj() for j in self.journeys],
        }


def greedy_maxflow_delta(g: TimeVaryingGraph, s: str, d: str,
                         delta: int) -> FlowResult:
    """Iteratively take the min-hop journey, then delete all contacts that
    interfere with it; stop when the pair disconnects.

    Deleted contacts are marked in one dead mask over contact ids, which
    the min-hop search never enters, so each round finds the journey a
    search over the shrunken graph would. Output journeys are pairwise
    delta-disjoint and valid in the original graph.
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    dead = [False] * g.contact_count
    found: list[Journey] = []
    while True:
        j = min_hop_path(g, s, d, dead)
        if j is None:
            break
        found.append(j)
        for ids in _interference_ids(g, j, delta):
            for i in ids:
                dead[i] = True
    return FlowResult(tuple(found), delta, exact=False)


def _simple_journeys(g: TimeVaryingGraph, s: str, d: str,
                     cap: int) -> list[Journey]:
    """All node-simple s->d journeys, depth-first in (slot, edge) order.

    Walks the contact index: the contacts leaving s, then from each
    contact the presorted suffix of its head's start list that departs
    after it, which is that order. A journey ends at its first contact
    into d.

    Sufficient for the oracle: splicing loops out of any journey yields a
    node-simple journey over a subset of its contacts, so an optimal
    delta-disjoint family always exists among these.
    """
    ix = _contact_index(g)
    starts, after, head = ix.starts, ix.after, ix.head
    clist = contacts(g)
    can_reach = _contacts_reaching(g, d)
    live = [c in can_reach for c in clist]
    results: list[Journey] = []
    stack: list[Contact] = []
    visited = {s}

    def walk(ids) -> None:
        for i in ids:
            h = head[i]
            if h in visited or not live[i]:
                continue
            stack.append(clist[i])
            if h == d:
                if len(results) >= cap:
                    raise InstanceTooLargeError(
                        f"instance too large for exact oracle: more than {cap} candidate journeys")
                results.append(Journey(tuple(stack)))
            else:
                # a live contact not into d has a later departure at its head
                visited.add(h)
                walk(starts[h][after[i]:])
                visited.discard(h)
            stack.pop()

    walk(starts.get(s, ()))
    return results


def _conflict_masks(g: TimeVaryingGraph, journeys: list[Journey],
                    delta: int) -> list[int]:
    """conflict[i] = bitmask of journeys interfering with journey i (i excluded)."""
    m = len(journeys)
    users: dict[str, dict[int, int]] = {}  # edge -> slot -> user bitmask
    for i, j in enumerate(journeys):
        bit = 1 << i
        for e, t in j.hops:
            users.setdefault(e, {}).setdefault(t, 0)
            users[e][t] |= bit

    window: dict[str, dict[int, int]] = {}
    for e, per_slot in users.items():
        slots = sorted(per_slot)
        win: dict[int, int] = {}
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


def _drop_dominated(conflict: list[int]) -> list[int]:
    """Prune journeys that can never beat a sibling in a maximum packing.

    If journey i's closed conflict neighborhood is a subset of j's, any
    packing using j can swap j for i, so j is dropped. A dominated j must
    itself conflict with its dominator, hence only neighbors get the subset
    test and the whole pass costs about one pass over the conflict arcs.
    Survivors are returned in index order; ties keep the lower index, so the
    result is deterministic.
    """
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


def exact_maxflow_delta(g: TimeVaryingGraph, s: str, d: str, delta: int,
                        cap: int = DEFAULT_JOURNEY_CAP) -> FlowResult:
    """Maximum-cardinality pairwise delta-disjoint journey set (exact).

    Runs _exact_flow_search with the greedy as its incumbent and MaxFlow_1,
    which dominates every MaxFlow_delta, as its ceiling; only that value is
    needed, so it comes from the sparser time-expanded network.
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    ceiling = int(time_expanded_maxflow(g, s, d).value)
    greedy = greedy_maxflow_delta(g, s, d, delta)
    return _exact_flow_search(g, s, d, delta, greedy, ceiling, cap)


def _exact_flow_search(g: TimeVaryingGraph, s: str, d: str, delta: int,
                       greedy: FlowResult, ceiling: int,
                       cap: int) -> FlowResult:
    """exact_maxflow_delta's search, given the greedy family and a ceiling
    on the optimum. delta = 1 reduces to unit-weight node-disjoint max flow
    on the line graph, whose path decomposition (in Edmonds-Karp's
    augmenting order) is an optimal 1-disjoint family. At delta >= 2 it
    enumerates candidate journeys and runs branch and bound over the
    conflict graph, greedy incumbent first; the reported set comes out in
    enumeration order, so results are reproducible. The incumbent is only
    ever replaced by a larger family, so stopping at the first family that
    reaches a valid ceiling returns what the full search would: the family
    found does not depend on the ceiling, only the time taken to prove it.
    A greedy family that already reaches the ceiling is returned without
    enumerating anything.
    """
    if delta == 1:
        flow = node_disjoint_maxflow(build_line_graph(g, s, d))
        return FlowResult(tuple(Journey(p) for p in flow.paths), delta,
                          exact=True)
    if greedy.count >= ceiling:
        return FlowResult(greedy.journeys, delta, exact=True)
    enum_journeys = _simple_journeys(g, s, d, cap)
    if not enum_journeys:
        return FlowResult((), delta, exact=True)
    raw = _conflict_masks(g, enum_journeys, delta)

    keep = _drop_dominated(raw)
    keep_mask = 0
    for v in keep:
        keep_mask |= 1 << v

    # survivors reordered most-conflicting first: the greedy clique
    # partitions bounding the search get markedly tighter that way
    order0 = sorted(keep, key=lambda v: -(raw[v] & keep_mask).bit_count())
    conflict = _conflict_masks(g, [enum_journeys[v] for v in order0], delta)

    best_journeys = greedy.journeys
    best = greedy.count
    chosen: list[int] = []

    def extend(alive: int, size: int) -> bool:
        """Max independent set in the conflict graph, depth-first.

        A greedy partition of the alive set into cliques (groups of pairwise
        interfering journeys) bounds any packing by the clique count, and
        trying vertices in reverse partition order makes that bound tighten
        monotonically along the loop. Returns True to stop early once the
        ceiling is reached.
        """
        nonlocal best, best_journeys
        order: list[int] = []
        limit: list[int] = []
        cliques = 0
        uncol = alive
        while uncol:
            cliques += 1
            q = uncol
            while q:
                b = q & -q
                v = b.bit_length() - 1
                uncol ^= b
                order.append(v)
                limit.append(size + cliques)
                q = (q ^ b) & conflict[v]
        for i in range(len(order) - 1, -1, -1):
            if limit[i] <= best:
                return False
            v = order[i]
            bit = 1 << v
            chosen.append(v)
            if size + 1 > best:
                best = size + 1
                best_journeys = tuple(
                    enum_journeys[u] for u in sorted(order0[w] for w in chosen))
                if best >= ceiling:
                    chosen.pop()
                    return True
            if extend(alive & ~conflict[v] & ~bit, size + 1):
                chosen.pop()
                return True
            chosen.pop()
            alive &= ~bit
        return False

    extend((1 << len(order0)) - 1, 0)
    return FlowResult(best_journeys, delta, exact=True)


def greedy_bound_certificate(alg_count: int, opt_count: int, edge_count: int,
                             horizon: int, delta: int) -> bool:
    """Worst-case guarantee check for the greedy: opt within the proven ratio.

    Certifies alg <= opt <= (3*sqrt(|E|*(T/delta+1)) + 2) * max(alg, 1).
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    if alg_count > opt_count:
        return False
    ratio = 3.0 * math.sqrt(edge_count * (horizon / delta + 1.0)) + 2.0
    return opt_count <= ratio * max(alg_count, 1)
