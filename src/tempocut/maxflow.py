"""Maximum sets of delta-disjoint journeys.

Two journeys are delta-disjoint when they never use the same edge within
delta slots of each other. greedy_maxflow_delta peels min-hop journeys off
the graph and blanks out everything that interferes with them; it is
fast, order-deterministic, and carries a provable worst-case certificate
(greedy_bound_certificate). exact_maxflow_delta is the desk-scale oracle:
a maximum independent set over the conflict graph of candidate journeys,
listed as a tree of contact ids with their conflict bitmasks
(_journey_tree), thinned by domination (_drop_dominated), then branch and
bound from the greedy incumbent up to a ceiling on the optimum: MaxFlow_1
on its own, the exact cut inside mincut.analyze_exact. At delta = 1 its
answer is the time-expanded unit max flow's walks instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, NamedTuple

from .linegraph import _min_hop_ids, _time_expanded_flow, time_expanded_maxflow
from .tvg import (Journey, TimeVaryingGraph, _check_cap, _check_delta,
                  _check_pair, _contact_index, _contacts_of,
                  _contacts_reaching, _run_table)

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


class _JourneyTree(NamedTuple):
    """_journey_tree's candidates as their depth-first tree, in preorder:
    one node per journey prefix that some candidate extends. Node n ends
    with hop contact[n] and extends the prefix of node up[n] (-1: the
    empty prefix); candidate k is the prefix of node leaf[k]."""
    contact: list[int]
    up: list[int]
    leaf: list[int]

    def hops(self, k: int) -> tuple[int, ...]:
        """Candidate k as a tuple of contact ids."""
        out = []
        n = self.leaf[k]
        while n >= 0:
            out.append(self.contact[n])
            n = self.up[n]
        return tuple(reversed(out))


def _journey_tree(g: TimeVaryingGraph, s: str, d: str, delta: int,
                  cap: int) -> tuple[_JourneyTree, list[int]]:
    """All node-simple s->d journeys, the candidates, and their closed
    conflict masks, in one depth-first pass: (the tree, closed), closed[k]
    the bitmask of the candidates interfering with candidate k, k
    included, as _closed_masks gives it from the candidates' hops.

    Walks the contact index: the contacts leaving s, then from each
    contact the presorted suffix of its head's start list that departs
    after it, which is depth-first (slot, edge) order. A journey ends at
    its first contact into d. Each contact's live successors, those from
    which d stays reachable, are listed once; a node no candidate extends
    is dropped on the way back up.

    Sufficient for the oracle: splicing loops out of any journey yields a
    node-simple journey over a subset of its contacts, so an optimal
    delta-disjoint family always exists among these.

    The candidates below a tree node form one index range, so users[i],
    the bitmask of the candidates using contact i, takes one range per
    node ending with hop i instead of one bit per candidate and hop. Each
    used contact's window ORs the users of its interference run (same
    edge, within delta slots); a node's mask is its parent's OR its last
    hop's window, and a candidate's closed mask is its leaf's.
    """
    ix = _contact_index(g)
    starts, after, head = ix.starts, ix.after, ix.head
    live = _contacts_reaching(g, d)
    tree = _JourneyTree([], [], [])
    contact, up, leaf = tree
    users = [0] * g.contact_count
    succ: dict[int, list[int]] = {}
    visited = {s}

    def walk(ids: list[int], parent: int) -> None:
        for i in ids:
            h = head[i]
            if h in visited:
                continue
            n = len(contact)
            contact.append(i)
            up.append(parent)
            k = len(leaf)
            if h == d:
                _check_cap(k + 1, cap, "candidate journeys")
                leaf.append(n)
                users[i] |= 1 << k
                continue
            nxt = succ.get(i)
            if nxt is None:
                # a live contact not into d has a later departure at its head
                nxt = succ[i] = [c for c in starts[h][after[i]:] if live[c]]
            visited.add(h)
            walk(nxt, n)
            visited.discard(h)
            if len(leaf) == k:  # no candidate below: its subtree is gone too
                contact.pop()
                up.pop()
            else:
                users[i] |= (1 << len(leaf)) - (1 << k)

    walk([c for c in starts.get(s, ()) if live[c]], -1)
    window = _windows(g, users, delta)
    # in preorder the last node t - 1 hops deep is the parent of a node t
    # hops deep, so path[t] holds the mask of the current t-hop prefix
    depth = [0] * (len(contact) + 1)  # depth[-1] stays 0, the root's
    path = [0] * (len(g.nodes) + 1)
    closed = []
    for n, i in enumerate(contact):
        t = depth[n] = depth[up[n]] + 1
        path[t] = path[t - 1] | window[i]
        if head[i] == d:
            closed.append(path[t])
    return tree, closed


def _windows(g: TimeVaryingGraph, users: list[int], delta: int) -> list[int]:
    """Per contact id i with users, the OR of the users of i's interference
    run; users[x] is the bitmask of the journeys using contact x."""
    back, reach = _run_table(g, delta)
    window = [0] * len(users)
    for i, u in enumerate(users):
        if u:
            window[i] = reduce(or_, users[back[i]:reach[i]])
    return window


def _closed_masks(g: TimeVaryingGraph, cands: list[tuple[int, ...]],
                  delta: int) -> list[int]:
    """closed[k] = bitmask of the cands (contact-id tuples) interfering with
    cands[k], k included: the OR of the windows of its hops."""
    users = [0] * g.contact_count
    for k, ids in enumerate(cands):
        for i in ids:
            users[i] |= 1 << k
    window = _windows(g, users, delta)
    return [reduce(or_, map(window.__getitem__, ids)) for ids in cands]


def _drop_dominated(closed: list[int]) -> list[int]:
    """Prune journeys that can never beat a sibling in a maximum packing,
    given their closed conflict neighborhoods; survivors in index order.

    If i's closed neighborhood is a subset of j's, any packing using j can
    swap j for i, so j is dropped. The survivors are the lowest index of
    each closed class (twins: equal sets) that has no strict subset among
    the others. So twins are merged first, then the classes go in popcount
    order, and a class c is tested only against the survivors kept so far
    whose own bit is in c, the last dominator found first. Below a class
    with a strict subset lies a minimal one: never dropped, of lower
    popcount, so kept before c is tested, and holding its own bit, so in c.
    """
    first: dict[int, int] = {}
    for v, c in enumerate(closed):
        first.setdefault(c, v)
    kept = 0  # one bit per survivor
    last = -1  # the last dominator found; -1 is a subset of no class
    for i in sorted(first.values(), key=lambda v: closed[v].bit_count()):
        c = closed[i]
        if last | c == c:
            continue
        inside = bin(c & kept)[:1:-1]  # bit j at position j
        j = inside.find("1")
        while j >= 0 and closed[j] | c != c:
            j = inside.find("1", j + 1)
        if j >= 0:
            last = closed[j]
        else:
            kept |= 1 << i
    return [j for j, b in enumerate(bin(kept)[:1:-1]) if b == "1"]


def exact_maxflow_delta(g: TimeVaryingGraph, s: str, d: str, delta: int,
                        cap: int = DEFAULT_JOURNEY_CAP) -> FlowResult:
    """Maximum-cardinality pairwise delta-disjoint journey set (exact).

    Runs _exact_flow_search with the greedy as its incumbent and MaxFlow_1,
    which dominates every MaxFlow_delta, from the sparser time-expanded
    network as its ceiling; both only where the search reads them. A delta
    below 1 is refused by the greedy's run table (tvg._run_table).
    """
    return _exact_flow_search(g, s, d, delta, lambda: (
        greedy_maxflow_delta(g, s, d, delta),
        int(time_expanded_maxflow(g, s, d).value)), cap)


def _exact_flow_search(g: TimeVaryingGraph, s: str, d: str, delta: int,
                       bounds: Callable[[], tuple[FlowResult, int]],
                       cap: int) -> FlowResult:
    """exact_maxflow_delta's search, given bounds() -> (the greedy family, a
    ceiling on the optimum), called only at delta >= 2. At delta = 1 the
    answer is the time-expanded unit max flow's walks
    (linegraph._time_expanded_flow). At delta >= 2 it enumerates the
    candidate journeys with their closed conflict masks in one pass
    (_journey_tree), drops dominated ones and runs branch and bound over the
    survivors, greedy incumbent first. Only the survivors' hops are rebuilt,
    as contact-id tuples whose conflicts _closed_masks builds afresh in the
    search's order, and only the family it reports becomes Journeys, in
    enumeration order. The incumbent is only ever replaced by a larger
    family, so stopping at the first family that reaches a valid ceiling
    returns what the full search would: the family found does not depend on
    the ceiling, only the time taken to prove it. A greedy family that
    already reaches the ceiling is returned without enumerating anything.
    """
    if delta == 1:
        _, _, walks = _time_expanded_flow(g, s, d, [1] * g.contact_count)
        return FlowResult(tuple(Journey(tuple(_contacts_of(g, ids)))
                                for ids in walks()), delta, exact=True)
    greedy, ceiling = bounds()
    if greedy.count >= ceiling:
        return FlowResult(greedy.journeys, delta, exact=True)
    tree, closed = _journey_tree(g, s, d, delta, cap)

    keep = _drop_dominated(closed)
    keep_mask = sum(1 << v for v in keep)

    # survivors reordered most-conflicting first: the greedy clique
    # partitions bounding the search get markedly tighter that way
    order0 = sorted(keep, key=lambda v: -(closed[v] & keep_mask).bit_count())
    cands = {v: tree.hops(v) for v in order0}
    conflict = [c & ~(1 << k) for k, c in enumerate(
        _closed_masks(g, list(cands.values()), delta))]

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
    _check_delta(delta)
    if alg_count > opt_count:
        return False
    ratio = 3.0 * math.sqrt(edge_count * (horizon / delta + 1.0)) + 2.0
    return opt_count <= ratio * max(alg_count, 1)
