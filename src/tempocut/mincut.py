"""Minimum delta-removal disruption.

A delta-removal knocks one edge out for delta consecutive slots. The
disruption number is the fewest removals that disconnect a pair. The
approximation weights each contact by the reciprocal of the densest
same-edge delta-window through it (set_weights), solves the weighted
contact cut as a max flow over the time-expanded network, started from the
greedy family where it is at hand (_approximations), and rounds the cut to
removals with a per-edge stabbing cover (delta_cover). exact_mincut_delta
is the desk-scale oracle: iterative deepening over canonical removal heads
on contact ids, from the larger of the greedy count and the rounded-up
weight up to the rounded cut, every node pruned by the greedy bound
(_exact_cut_search). analyze_exact computes the four answers for one pair
with their certificates, each once; ExactAnalysis.to_json_dict is what
`analyze --exact` prints of them, and verify.check_analysis checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, lcm

from .linegraph import _time_expanded_flow, time_expanded_maxflow
from .maxflow import (DEFAULT_JOURNEY_CAP, FlowResult, _exact_flow_search,
                      greedy_bound_certificate, greedy_maxflow_delta)
from .tvg import (Contact, DeltaRemoval, TimeVaryingGraph, _check_cap,
                  _check_delta, _check_pair, _check_removal, _contact_id,
                  _contact_index, _contacts_of, _footprint_ids,
                  _min_hop_surviving, _run_table)

DEFAULT_HEAD_CAP = 2000

WeightMap = dict[Contact, Fraction]


@dataclass(frozen=True)
class CutResult:
    removals: tuple[DeltaRemoval, ...]
    delta: int
    exact: bool
    weight_lower_bound: Fraction

    @property
    def count(self) -> int:
        return len(self.removals)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "count": self.count,
            "exact": self.exact,
            "removals": [{"edge": r.edge, "head": r.head} for r in self.removals],
            "weight_lower_bound": str(self.weight_lower_bound),
        }


def set_weights(g: TimeVaryingGraph, delta: int) -> WeightMap:
    """Per-contact weight 1/K, K = most same-edge contacts any single
    delta-removal covering this contact can take out (_window_sizes)."""
    unit = cache(lambda k: Fraction(1, k))  # one 1/K per distinct K
    return dict(zip(_contact_index(g).contacts,
                    map(unit, _window_sizes(g, delta))))


def _window_sizes(g: TimeVaryingGraph, delta: int) -> list[int]:
    """Per contact id, the most same-edge contacts any single delta-removal
    covering the contact can take out: set_weights' K. The densest removal
    through contact i is headed at one of ids back[i]..i and takes out
    range(h, reach[h]) (tvg._run_table)."""
    back, reach = _run_table(g, delta)
    size = [r - h for h, r in enumerate(reach)]
    return [max(size[b:i + 1]) for i, b in enumerate(back)]


def weighted_mincut_1(g: TimeVaryingGraph, weights: WeightMap, s: str,
                      d: str) -> tuple[Fraction, tuple[Contact, ...]]:
    """Minimum-weight contact set whose deletion disconnects s from d.

    Exact for single-contact deletions: a max flow over the time-expanded
    network (linegraph.time_expanded_maxflow), whose s->d paths are the
    journeys, so its min cuts are the minimum contact cuts. Returns (total
    weight, cut contacts), the cut being the unique min cut closest to s.
    """
    res = time_expanded_maxflow(g, s, d, weights=weights)
    return res.value, res.cut


def delta_cover(contact_set, delta: int) -> tuple[DeltaRemoval, ...]:
    """Smallest set of delta-removals covering the given contacts, in (edge,
    head) order.

    Independent per edge; greedy stabbing (anchor a window at each leftmost
    uncovered slot) is optimal for points on a line.
    """
    _check_delta(delta)
    by_edge: dict[str, list[int]] = {}
    for c in contact_set:
        by_edge.setdefault(c.edge, []).append(c.slot)
    removals: list[DeltaRemoval] = []
    for e in sorted(by_edge):
        slots = sorted(set(by_edge[e]))
        i = 0
        while i < len(slots):
            head = slots[i]
            removals.append(DeltaRemoval(e, head, delta))
            limit = head + delta - 1
            while i < len(slots) and slots[i] <= limit:
                i += 1
    return tuple(removals)


def sandwich_check(contact_set, weights: WeightMap, delta: int) -> bool:
    """Sandwich telling the rounding step is sane:
    sum of weights <= cover size <= delta * sum of weights."""
    total = sum((weights[c] for c in contact_set), Fraction(0))
    k = len(delta_cover(contact_set, delta))
    return total <= k <= delta * total


def verify_cut(g: TimeVaryingGraph, cut, s: str, d: str) -> bool:
    """True iff the removals (a CutResult or any iterable of DeltaRemoval)
    leave d unreachable from s."""
    removals = cut.removals if isinstance(cut, CutResult) else cut
    dead = [False] * g.contact_count
    for r in removals:
        _check_removal(g, r)
        for i in _footprint_ids(g, r):
            dead[i] = True
    _check_pair(g, s, d)
    return _min_hop_surviving(g, s, d, dead) is None


def minweight_mincut_delta(g: TimeVaryingGraph, s: str, d: str,
                           delta: int) -> CutResult:
    """Approximate disruption set: weighted contact cut, rounded to
    delta-removals. Guaranteed within a factor delta of optimal, and the
    weight of the cut is itself a lower bound on the optimum."""
    return _rounded_cut(g, s, d, delta, [])


def _rounded_cut(g: TimeVaryingGraph, s: str, d: str, delta: int,
                 family: list[tuple[int, ...]]) -> CutResult:
    """minweight_mincut_delta, its max flow started from `family`, pairwise
    delta-disjoint s->d journeys as contact-id tuples, so contact-disjoint
    ones (linegraph._time_expanded_flow: same value, same cut)."""
    # weighted_mincut_1 on set_weights(g, delta), with capacities scale / K
    # per contact id, scale being the lcm of the window sizes K
    sizes = _window_sizes(g, delta)
    scale = lcm(*set(sizes))
    flow, cut, _ = _time_expanded_flow(g, s, d,
                                       [scale // k for k in sizes], family)
    removals = delta_cover(_contacts_of(g, cut), delta)
    if not verify_cut(g, removals, s, d):
        raise AssertionError("rounded cut failed to disconnect; this is a bug")
    return CutResult(removals, delta, exact=False,
                     weight_lower_bound=Fraction(flow, scale))


def _approximations(g: TimeVaryingGraph, s: str, d: str, delta: int
                    ) -> tuple[FlowResult, CutResult, list[tuple[int, ...]]]:
    """greedy_maxflow_delta and minweight_mincut_delta for one pair, the
    rounded cut's max flow started from the greedy family, and that family
    as contact-id tuples, for the exact cut search to start from too."""
    greedy = greedy_maxflow_delta(g, s, d, delta)
    family = [tuple(_contact_id(g, c) for c in j.hops)
              for j in greedy.journeys]
    return greedy, _rounded_cut(g, s, d, delta, family), family


def exact_mincut_delta(g: TimeVaryingGraph, s: str, d: str, delta: int,
                       head_cap: int = DEFAULT_HEAD_CAP) -> CutResult:
    """Exact minimum number of delta-removals disconnecting s from d.

    Iterative deepening on the removal count, from the greedy journey
    count (a removal hits at most one journey of a delta-disjoint family)
    or the rounded cut's weight rounded up (a removal's footprint weighs
    at most 1), whichever is larger, below the rounded cut, which is the
    fallback. At each depth: branch on the canonical removals hitting a
    min-hop surviving journey, banning a head a node has tried from its
    later branches. Before branching with b removals left, peel pairwise
    delta-disjoint journeys off the residual: those the parent peeled that
    the branch's removal missed (at the root the greedy's), then min-hop
    ones; with b + 1 of them no b removals hit them all, and the branch is
    dropped.
    """
    _, rounded, family = _approximations(g, s, d, delta)
    return _exact_cut_search(g, s, d, delta, rounded, family, head_cap)


def _exact_cut_search(g: TimeVaryingGraph, s: str, d: str, delta: int,
                      rounded: CutResult, family: list[tuple[int, ...]],
                      head_cap: int) -> CutResult:
    """exact_mincut_delta's search, given the rounded cut and a family of
    pairwise delta-disjoint s->d journeys as contact-id tuples, the
    greedy's in every caller. Every depth below the optimum fails, so the
    cut found does not depend on the floor, only the time taken to find
    it. Each depth's root peels from
    the family, which survives there since nothing is removed yet. The
    peel drops only branches that hold no cut, whatever heads they ban
    and whichever journeys it starts from, and leaves the depth-first
    order of the rest alone, so the family too changes the time, not the
    cut found. The head cap is checked only when the floor is below the
    rounded cut: at the floor the rounded cut is already proven optimal,
    an empty one (no journey) included, which keeps its weight bound.

    A removal is its head's contact id h, taking out range(h, reach[h]);
    the heads that take out contact i are back[i]..i (tvg._run_table).
    Each node passes its children the family it peeled. A child removal
    with footprint F grew the dead mask by F alone, so the members F does
    not hit still survive, pairwise delta-disjoint; with more of them than
    removals left the child is dropped before any search. A node raises
    banned[h] once it has tried head h, skips banned heads (a head that
    two hops share is tried once) and lowers its own before returning
    None, so banned holds the heads tried on the current branch.
    """
    upper = rounded.count
    floor = max(len(family), ceil(rounded.weight_lower_bound), 1)
    if floor < upper:
        _check_cap(g.contact_count, head_cap, "removal heads")

    back, reach = _run_table(g, delta)
    # dead[i] counts the chosen removals and peel masks that take out
    # contact i; a count, not a flag, since they can overlap
    dead = [0] * g.contact_count
    banned = [0] * g.contact_count

    def mask(ids: tuple[int, ...], step: int) -> None:
        """Add step to dead over the interference runs of ids' hops."""
        for i in ids:
            for x in range(back[i], reach[i]):
                dead[x] += step

    def peel(j: tuple[int, ...], carried: list[tuple[int, ...]],
             budget: int) -> list[tuple[int, ...]]:
        """Pairwise delta-disjoint surviving journeys, at most budget + 1:
        the carried ones, then j if it interferes with none of them, then
        min-hop journeys found once the earlier ones' interference runs
        are masked. If there are budget + 1, no budget removals hit them
        all."""
        family = list(carried)
        for f in family:
            mask(f, 1)
        f = j if not any(dead[i] for i in j) else _min_hop_surviving(
            g, s, d, dead)
        while f is not None and len(family) < budget:
            family.append(f)
            mask(f, 1)
            f = _min_hop_surviving(g, s, d, dead)
        for m in family:
            mask(m, -1)
        if f is not None:
            family.append(f)
        return family

    def search(k: int, chosen: list[int],
               carried: list[tuple[int, ...]]) -> list[int] | None:
        budget = k - len(chosen)
        if len(carried) > budget:  # they survive; no budget removals cut them
            return None
        j = _min_hop_surviving(g, s, d, dead)
        if j is None:
            return list(chosen)
        if budget == 0:
            return None
        family = peel(j, carried, budget)
        if len(family) > budget:
            return None
        tried: list[int] = []
        for i in j:
            for h in range(back[i], i + 1):
                if banned[h]:  # tried here or by an ancestor
                    continue
                end = reach[h]
                for x in range(h, end):
                    dead[x] += 1
                chosen.append(h)
                got = search(k, chosen, [f for f in family
                                         if not any(h <= c < end for c in f)])
                chosen.pop()
                for x in range(h, end):
                    dead[x] -= 1
                if got is not None:
                    return got
                banned[h] += 1
                tried.append(h)
        for h in tried:
            banned[h] -= 1
        return None

    for k in range(floor, upper):
        heads = search(k, [], family)
        if heads is not None:
            got = [DeltaRemoval(e, t, delta)
                   for e, t in _contacts_of(g, heads)]
            break
    else:
        got = rounded.removals
    removals = tuple(sorted(got, key=lambda r: (r.edge, r.head)))
    return CutResult(removals, delta, exact=True,
                     weight_lower_bound=rounded.weight_lower_bound)


@dataclass(frozen=True)
class ExactAnalysis:
    """The four answers for one (g, s, d, delta), each computed once, and
    whether the greedy is within its proven ratio of the exact flow."""
    greedy: FlowResult
    flow: FlowResult
    rounded: CutResult
    cut: CutResult
    within_ratio: bool

    @property
    def certificates(self) -> dict:
        """The certificates block `analyze --exact` prints, built afresh."""
        rounded, cut = self.rounded, self.cut
        return {"flow": {"greedy": self.greedy.count,
                         "optimal": self.flow.count,
                         "within_ratio": self.within_ratio},
                "cut": {"rounded": rounded.count, "optimal": cut.count,
                        "within_delta_factor":
                            rounded.count <= cut.delta * cut.count,
                        "weight_lower_bound":
                            str(rounded.weight_lower_bound)}}

    def to_json_dict(self) -> dict:
        """The blocks `analyze --exact` prints; see verify.check_analysis."""
        return {"maxflow": self.flow.to_json_dict(),
                "mincut": self.cut.to_json_dict(),
                "certificates": self.certificates}


def analyze_exact(g: TimeVaryingGraph, s: str, d: str, delta: int,
                  cap: int = DEFAULT_JOURNEY_CAP,
                  head_cap: int = DEFAULT_HEAD_CAP) -> ExactAnalysis:
    """Greedy and exact flow, rounded and exact cut, with certificates.

    The same steps at every delta: the greedy and the rounded cut, then the
    exact cut search floored by the greedy count, then the exact flow with
    the greedy as its incumbent and the exact cut as its ceiling (weak
    duality: a removal hits at most one journey of a delta-disjoint
    family). So an exceeded head cap is reported before an exceeded journey
    cap, and the journey cap binds only when the greedy falls short of the
    cut and candidate journeys are enumerated, and the head cap only when
    the greedy and the weight bound fall short of the rounded cut. At
    delta = 1 the exact flow is the time-expanded unit max flow's
    decomposition into journeys (see _exact_flow_search).
    """
    greedy, rounded, family = _approximations(g, s, d, delta)
    cut = _exact_cut_search(g, s, d, delta, rounded, family, head_cap)
    flow = _exact_flow_search(g, s, d, delta, lambda: (greedy, cut.count), cap)
    return ExactAnalysis(greedy, flow, rounded, cut, greedy_bound_certificate(
        greedy.count, flow.count, len(g.edges), g.horizon, delta))


@dataclass(frozen=True)
class SurvivabilityVerdict:
    n: int
    delta: int
    verdict: str  # "survivable" | "not-survivable" | "unknown"
    lower: int
    upper: int
    exact: bool

    def to_json_dict(self) -> dict:
        return {"n": self.n, "delta": self.delta, "verdict": self.verdict,
                "lower": self.lower, "upper": self.upper, "exact": self.exact}


def survivability_bounds(g: TimeVaryingGraph, s: str, d: str, n: int,
                         delta: int, exact: bool = False,
                         head_cap: int = DEFAULT_HEAD_CAP
                         ) -> SurvivabilityVerdict:
    """Can the pair ride out any n simultaneous delta-removals?

    Survivable iff the disruption number exceeds n. The greedy journey
    count bounds it from below and the rounded cut from above, and the gap
    in between stays 'unknown'. With exact=True the exact cut search,
    within head_cap removal heads, refines the rounded cut into the
    disruption number itself, which then is both bounds.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    greedy, cut, family = _approximations(g, s, d, delta)
    lower = greedy.count
    if exact:
        cut = _exact_cut_search(g, s, d, delta, cut, family, head_cap)
        lower = cut.count
    if lower > n:
        verdict = "survivable"
    elif cut.count <= n:
        verdict = "not-survivable"
    else:
        verdict = "unknown"
    return SurvivabilityVerdict(n, delta, verdict, lower, cut.count, exact)
