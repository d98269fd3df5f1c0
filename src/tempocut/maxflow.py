"""Maximum sets of delta-disjoint journeys.

Two journeys are delta-disjoint when they never use the same edge within
delta slots of each other. greedy_maxflow_delta peels min-hop journeys off
the graph and blanks out everything that interferes with them; it is
fast, order-deterministic, and carries a provable worst-case certificate
(greedy_bound_certificate). exact_maxflow_delta is the desk-scale oracle:
maximum independent set over the conflict graph of candidate journeys,
kept as contact-id tuples with conflict bitmasks built per contact id
until one family is reported; branch and bound seeded with the greedy
incumbent, stopped at a ceiling on the optimum: MaxFlow_1 on its own, the
exact cut inside mincut.analyze_exact. At delta = 1 its answer is the unit
max flow's path decomposition instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable

from .linegraph import (_check_pair, _min_hop_ids, build_line_graph,
                        node_disjoint_maxflow, time_expanded_maxflow)
from .tvg import (InstanceTooLargeError, Journey, TimeVaryingGraph,
                  _contact_index, _contacts_of, _contacts_reaching,
                  _run_table)

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

    The family is kept as contact-id tuples. The contacts interfering with
    hop i, its run in the delta run table (tvg._run_table), are marked dead
    in one template of the min-hop search's parent array
    (linegraph._min_hop_ids). Each round searches a copy and never enters
    a dead contact, so it finds the journey a search over the shrunken
    graph would. Journeys are built once, for the result; they are
    pairwise delta-disjoint and valid in the original graph.
    """
    back, reach = _run_table(g, delta)
    _check_pair(g, s, d)
    blank = [-1] * g.contact_count  # -2 marks a dead contact
    found: list[tuple[int, ...]] = []
    while (ids := _min_hop_ids(g, s, d, blank[:])) is not None:
        found.append(ids)
        for i in ids:
            for x in range(back[i], reach[i]):
                blank[x] = -2
    return FlowResult(tuple(Journey(tuple(_contacts_of(g, ids)))
                            for ids in found), delta, exact=False)


def _simple_journeys(g: TimeVaryingGraph, s: str, d: str,
                     cap: int) -> list[tuple[int, ...]]:
    """All node-simple s->d journeys, as tuples of contact ids.

    Walks the contact index: the contacts leaving s, then from each
    contact the presorted suffix of its head's start list that departs
    after it, which is depth-first (slot, edge) order. A journey ends at
    its first contact into d.

    Sufficient for the oracle: splicing loops out of any journey yields a
    node-simple journey over a subset of its contacts, so an optimal
    delta-disjoint family always exists among these.
    """
    ix = _contact_index(g)
    starts, after, head = ix.starts, ix.after, ix.head
    live = _contacts_reaching(g, d)
    results: list[tuple[int, ...]] = []
    stack: list[int] = []
    visited = {s}

    def walk(ids) -> None:
        for i in ids:
            h = head[i]
            if h in visited or not live[i]:
                continue
            stack.append(i)
            if h == d:
                if len(results) >= cap:
                    raise InstanceTooLargeError(
                        f"instance too large for exact oracle: more than {cap} candidate journeys")
                results.append(tuple(stack))
            else:
                # a live contact not into d has a later departure at its head
                visited.add(h)
                walk(starts[h][after[i]:])
                visited.discard(h)
            stack.pop()

    walk(starts.get(s, ()))
    return results


def _closed_masks(g: TimeVaryingGraph, cands: list[tuple[int, ...]],
                  delta: int) -> list[int]:
    """closed[k] = bitmask of the cands (contact-id tuples) interfering with
    cands[k], k included. Each used contact id ORs the masks of the
    candidates using its interference run (same edge, within delta slots)
    into a window; each candidate ORs its hops' windows."""
    users = [0] * g.contact_count
    for k, ids in enumerate(cands):
        for i in ids:
            users[i] |= 1 << k
    back, reach = _run_table(g, delta)
    window = [0] * len(users)
    for i, u in enumerate(users):
        if u:
            window[i] = reduce(or_, users[back[i]:reach[i]])
    return [reduce(or_, map(window.__getitem__, ids)) for ids in cands]


def _drop_dominated(closed: list[int]) -> list[int]:
    """Prune journeys that can never beat a sibling in a maximum packing,
    given their closed conflict neighborhoods; survivors in index order.

    If i's closed neighborhood is a subset of j's, any packing using j can
    swap j for i, so j is dropped. The survivors are the lowest index of
    each closed class (twins: equal sets) that has no strict subset among
    the others, whatever the order of processing: below a class with a
    strict subset lies a minimal one, whose lowest index is never dropped
    and drops it. So twins are merged first, then the classes go in
    popcount order. Each live one tests only live neighbours not yet
    taken: a dominated set holds its dominator, and a taken one is no larger.
    """
    first: dict[int, int] = {}
    for v, c in enumerate(closed):
        first.setdefault(c, v)
    pending = sum(1 << v for v in first.values())
    out = []
    for i in sorted(first.values(), key=lambda v: closed[v].bit_count()):
        bit = 1 << i
        if not pending & bit:
            continue
        pending ^= bit
        out.append(i)
        ci = closed[i]
        cand = ci & pending
        while cand:
            b = cand & -cand
            cand ^= b
            if ci & ~closed[b.bit_length() - 1] == 0:
                pending ^= b
    return sorted(out)


def exact_maxflow_delta(g: TimeVaryingGraph, s: str, d: str, delta: int,
                        cap: int = DEFAULT_JOURNEY_CAP) -> FlowResult:
    """Maximum-cardinality pairwise delta-disjoint journey set (exact).

    Runs _exact_flow_search with the greedy as its incumbent and MaxFlow_1,
    which dominates every MaxFlow_delta, from the sparser time-expanded
    network as its ceiling; both only where the search reads them.
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    return _exact_flow_search(g, s, d, delta, lambda: (
        greedy_maxflow_delta(g, s, d, delta),
        int(time_expanded_maxflow(g, s, d).value)), cap)


def _exact_flow_search(g: TimeVaryingGraph, s: str, d: str, delta: int,
                       bounds: Callable[[], tuple[FlowResult, int]],
                       cap: int) -> FlowResult:
    """exact_maxflow_delta's search, given bounds() -> (the greedy family,
    a ceiling on the optimum), called only at delta >= 2. delta = 1
    reduces to unit-weight node-disjoint max flow on the line graph, whose
    path decomposition (in Edmonds-Karp's augmenting order) is an optimal
    1-disjoint family. At delta >= 2 it enumerates candidate journeys as
    contact-id tuples, masks their conflicts per contact id, drops
    dominated ones and runs branch and bound over the survivors, greedy
    incumbent first; only the family it reports becomes Journeys, in
    enumeration order. The incumbent is only ever replaced by a larger
    family, so stopping at the first family that reaches a valid ceiling
    returns what the full search would: the family found does not depend
    on the ceiling, only the time taken to prove it. A greedy family that
    already reaches the ceiling is returned without enumerating anything.
    """
    if delta == 1:
        flow = node_disjoint_maxflow(build_line_graph(g, s, d))
        return FlowResult(tuple(Journey(p) for p in flow.paths), delta,
                          exact=True)
    greedy, ceiling = bounds()
    if greedy.count >= ceiling:
        return FlowResult(greedy.journeys, delta, exact=True)
    cands = _simple_journeys(g, s, d, cap)
    closed = _closed_masks(g, cands, delta)

    keep = _drop_dominated(closed)
    keep_mask = sum(1 << v for v in keep)

    # survivors reordered most-conflicting first: the greedy clique
    # partitions bounding the search get markedly tighter that way
    order0 = sorted(keep, key=lambda v: -(closed[v] & keep_mask).bit_count())
    conflict = [c & ~(1 << k) for k, c in enumerate(
        _closed_masks(g, [cands[v] for v in order0], delta))]

    best = greedy.count
    best_ids: list[int] = []
    chosen: list[int] = []

    def extend(alive: int, size: int) -> bool:
        """Max independent set in the conflict graph, depth-first.

        A greedy partition of the alive set into cliques (groups of pairwise
        interfering journeys) bounds any packing by the clique count, and
        trying vertices in reverse partition order makes that bound tighten
        monotonically along the loop. Returns True to stop early once the
        ceiling is reached.
        """
        nonlocal best, best_ids
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
                best_ids = sorted(order0[w] for w in chosen)
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
    found = tuple(Journey(tuple(_contacts_of(g, cands[u]))) for u in best_ids)
    return FlowResult(found or greedy.journeys, delta, exact=True)


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
