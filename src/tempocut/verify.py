"""Self-contained invariant suites, the release gate behind `tempocut verify`,
and check_analysis, the one definition of a sound `analyze --exact` answer.

Each suite hammers one identity the library upholds (flow/cut equality at
unit spacing, the duality chain, the rounding sandwich, exact analyses
passing check_analysis, the bounded-path reduction, the gap family, the two
max-flow engines agreeing) on seeded instances, with per-instance failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil

from . import generators as gens
from .linegraph import (build_line_graph, node_disjoint_maxflow,
                        time_expanded_maxflow)
from .maxflow import exact_maxflow_delta, greedy_bound_certificate
from .mincut import (analyze_exact, exact_mincut_delta, sandwich_check,
                     set_weights, verify_cut, weighted_mincut_1)
from .tvg import (Contact, DeltaRemoval, Journey, TimeVaryingGraph,
                  _check_delta, _check_pair, interferes, is_valid_journey)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return f"{self.name}: {self.checked} checks, all ok"
        head = "; ".join(self.failures[:5])
        more = "" if len(self.failures) <= 5 else f" (+{len(self.failures) - 5} more)"
        return f"{self.name}: {len(self.failures)}/{self.checked} FAILED: {head}{more}"


def _corpus(count: int, seed0: int = 0):
    """Seeded random instances in the desk-scale regime, endpoints oldest
    and newest node (farthest apart in attachment order)."""
    for i in range(count):
        nn = 8 + i % 5
        g = gens.gen_random_tvg(nn, 10, 0.5, seed0 + i)
        yield g, "n1", f"n{nn}", seed0 + i


def suite_menger1(count: int = 200, seed: int = 0) -> SuiteResult:
    """Exact flow equals exact cut at unit spacing, and both are exact."""
    failures = []
    for g, s, d, sd in _corpus(count, seed):
        flow = exact_maxflow_delta(g, s, d, 1)
        cut = exact_mincut_delta(g, s, d, 1)
        if not (flow.exact and cut.exact):
            failures.append(f"seed {sd}: answer not exact")
        elif flow.count != cut.count:
            failures.append(f"seed {sd}: flow {flow.count} != cut {cut.count}")
    return SuiteResult("menger1", count, tuple(failures))


def suite_duality(count: int = 40, deltas=(1, 2, 3, 5), seed: int = 0) -> SuiteResult:
    """Flow never exceeds cut at any spacing (weak duality), and the cut
    never exceeds the unit max flow (a minimum contact cut, one removal per
    contact, is a delta-cut), so the cut is a ceiling on the flow no looser
    than MaxFlow_1. MaxFlow_1 comes from the line-graph engine, so the
    ceiling is checked against a reference the cut pipeline does not use."""
    failures = []
    for g, s, d, sd in _corpus(count, seed):
        unit = int(node_disjoint_maxflow(build_line_graph(g, s, d)).value)
        for delta in deltas:
            a = exact_maxflow_delta(g, s, d, delta).count
            b = exact_mincut_delta(g, s, d, delta).count
            if a > b:
                failures.append(f"seed {sd} delta {delta}: flow {a} > cut {b}")
            elif b > unit:
                failures.append(
                    f"seed {sd} delta {delta}: cut {b} > unit max flow {unit}")
    return SuiteResult("duality", count * len(deltas), tuple(failures))


def suite_gapfamily() -> SuiteResult:
    """Ladder instances certify cut/flow ratios 1, 2, 3 at spacings 2 and 3:
    each has one delta-disjoint journey and disruption number k."""
    failures = []
    for k in (1, 2, 3):
        g, s, d = gens.gen_counterexample(k)
        for delta in (2, 3):
            flow = exact_maxflow_delta(g, s, d, delta).count
            cut = exact_mincut_delta(g, s, d, delta).count
            if (flow, cut) != (1, k):
                failures.append(f"k={k} delta={delta}: flow {flow}, "
                                f"cut {cut}, wanted (1, {k})")
    return SuiteResult("gapfamily", 6, tuple(failures))


def suite_sandwich(count: int = 60, deltas=(2, 3, 5), seed: int = 300) -> SuiteResult:
    """Cover-size sandwich on real disconnecting contact sets."""
    failures = []
    for g, s, d, sd in _corpus(count, seed):
        for delta in deltas:
            w = set_weights(g, delta)
            _, cut = weighted_mincut_1(g, w, s, d)
            if not sandwich_check(cut, w, delta):
                failures.append(f"seed {sd} delta {delta}: sandwich violated")
    return SuiteResult("sandwich", count * len(deltas), tuple(failures))


def check_analysis(g: TimeVaryingGraph, s: str, d: str, delta: int,
                   doc: dict) -> list[str]:
    """Every problem, in a fixed order, with `doc`'s maxflow, mincut and
    certificates blocks as `analyze --exact` prints them for (g, s, d,
    delta); [] when they are sound. Valid, pairwise delta-disjoint s -> d
    journeys and removals that cut the pair prove both counts where they
    meet (weak duality); the other checks tie the greedy, rounded cut,
    weight bound and certificates to them. A document it cannot read (a
    missing key, a wrong type, a removal on an edge g lacks) gives one
    `unreadable ...` problem."""
    _check_pair(g, s, d)
    _check_delta(delta)
    try:
        flow, cut = doc["maxflow"], doc["mincut"]
        fcert, ccert = doc["certificates"]["flow"], doc["certificates"]["cut"]
        journeys = [Journey(tuple(Contact(e, t) for e, t in hops))
                    for hops in flow["journeys"]]
        heads = [(r["edge"], r["head"]) for r in cut["removals"]]
        removals = [DeltaRemoval(e, h, delta) for e, h in heads]
        f, c, greedy, rounded = (flow["count"], cut["count"],
                                 fcert["greedy"], ccert["rounded"])
        items = [h for j in journeys for h in j.hops] + heads
        ints = [f, c, greedy, rounded, flow["delta"], cut["delta"],
                fcert["optimal"], ccert["optimal"], *(t for _, t in items)]
        strs = [ccert["weight_lower_bound"], cut["weight_lower_bound"],
                *(e for e, _ in items)]
        if {*map(type, ints)} - {int} or {*map(type, strs)} - {str}:
            raise TypeError("counts, deltas, slots and heads must be "
                            "integers, edges and weight bounds strings")
        bound, cut_bound = map(Fraction, strs[:2])
        disconnected = verify_cut(g, removals, s, d)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable analysis: {exc!r}"]
    bad = next((i for i, j in enumerate(journeys)
                if not is_valid_journey(g, j, s, d)), None)
    clash = next((f"{a} and {b}" for (a, x), (b, y) in combinations(
        enumerate(journeys), 2) if interferes(x, y, delta)), None)
    ratio = greedy_bound_certificate(greedy, f, len(g.edges), g.horizon, delta)
    blocks = (("maxflow", flow), ("mincut", cut))
    chain = [("greedy", greedy), ("flow", f), ("cut", c),
             ("rounded", rounded), ("delta * cut", delta * c)]
    checks = [
        *((b["exact"] is True, f"{n} is not marked exact") for n, b in blocks),
        *((b["delta"] == delta, f"{n} delta {b['delta']}, not {delta}")
          for n, b in blocks),
        (f == len(journeys), f"maxflow count {f} but {len(journeys)} listed"),
        (c == len(removals), f"mincut count {c} but {len(removals)} listed"),
        (bad is None, f"journey {bad} is not a journey from {s} to {d}"),
        (clash is None, f"journeys {clash} interfere"),
        (disconnected, "the removals leave the pair connected"),
        *((x <= y, f"{a} {x} above {b} {y}")
          for (a, x), (b, y) in zip(chain, chain[1:])),
        (rounded <= delta * bound,
         f"rounded {rounded} above delta * weight bound {delta * bound}"),
        (ceil(bound) <= c, f"weight bound {bound} rounds up above cut {c}"),
        *((got == want, f"certificates: {name} {got}, answer {want}")
          for name, got, want in (("flow optimal", fcert["optimal"], f),
                                  ("cut optimal", ccert["optimal"], c),
                                  ("weight bound", bound, cut_bound))),
        (ccert["within_delta_factor"] is True,
         "certificates: within_delta_factor is not true"),
        (fcert["within_ratio"] is True and ratio,
         f"certificates: within_ratio {fcert['within_ratio']}, "
         f"recomputed {ratio}")]
    return [message for ok, message in checks if not ok]


def suite_certificates(count: int = 40, deltas=(2, 3), seed: int = 600) -> SuiteResult:
    """check_analysis passes the exact analysis of every cell."""
    failures = []
    for g, s, d, sd in _corpus(count, seed):
        for delta in deltas:
            doc = analyze_exact(g, s, d, delta).to_json_dict()
            problems = check_analysis(g, s, d, delta, doc)
            if problems:
                failures.append(f"seed {sd} delta {delta}: {problems[0]}")
    return SuiteResult("certificates", count * len(deltas), tuple(failures))


def suite_reduction(count: int = 30, seed: int = 900) -> SuiteResult:
    """Bounded-length arc-disjoint path packing agrees with the expansion's
    journey packing at spacing equal to the length budget."""
    failures = []
    for i in range(count):
        wd = gens.gen_random_weighted_digraph(seed=seed + i)
        want = gens.bledp_exact(wd)
        g = gens.bledp_expand(wd)
        got = exact_maxflow_delta(g, wd.s, wd.d, wd.bound).count
        if got != want:
            failures.append(f"seed {seed + i}: packing {want} vs expansion {got}")
    return SuiteResult("reduction", count, tuple(failures))


def suite_engines(count: int = 60, deltas=(2, 3, 5), seed: int = 1200) -> SuiteResult:
    """The time-expanded max flow behind the rounded cut and the MaxFlow_1
    ceiling gives the line graph's flow value and the same source-closest
    min cut, with unit weights and with set_weights at each delta, on both
    directions of each pair."""
    failures = []
    checked = 0
    for g, s, d, sd in _corpus(count, seed):
        weightings = [("unit", None)] + [
            (f"delta {delta}", set_weights(g, delta)) for delta in deltas]
        for a, b in ((s, d), (d, s)):
            lg = build_line_graph(g, a, b)
            for label, w in weightings:
                checked += 1
                want = node_disjoint_maxflow(lg, weights=w)
                got = time_expanded_maxflow(g, a, b, weights=w)
                if got.value != want.value:
                    failures.append(f"seed {sd} {a}->{b} {label}: value "
                                    f"{got.value} != line graph {want.value}")
                elif got.cut != want.cut:
                    failures.append(f"seed {sd} {a}->{b} {label}: cut differs "
                                    f"from the line graph's")
    return SuiteResult("engines", checked, tuple(failures))


SUITES = {
    "menger1": suite_menger1,
    "duality": suite_duality,
    "gapfamily": suite_gapfamily,
    "sandwich": suite_sandwich,
    "certificates": suite_certificates,
    "reduction": suite_reduction,
    "engines": suite_engines,
}


def run_suites(names=None) -> list[SuiteResult]:
    picked = list(SUITES) if names is None else list(names)
    results = []
    for name in picked:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r} (have: {', '.join(SUITES)})")
        results.append(SUITES[name]())
    return results
