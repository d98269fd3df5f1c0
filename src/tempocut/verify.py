"""Self-contained invariant suites, the release gate behind `tempocut verify`.

Each suite hammers one identity or guarantee the library is supposed to
uphold (flow/cut equality at unit spacing, the duality chain, the rounding
sandwich, the approximation certificates, the bounded-path reduction, the
gap family, the two max-flow engines agreeing) on seeded instances and
reports per-instance failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from . import generators as gens
from .linegraph import (build_line_graph, node_disjoint_maxflow,
                        time_expanded_maxflow)
from .maxflow import exact_maxflow_delta
from .mincut import (analyze_exact, exact_mincut_delta, sandwich_check,
                     set_weights, verify_cut, weighted_mincut_1)


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
    checked = 0
    for g, s, d, sd in _corpus(count, seed):
        unit = int(node_disjoint_maxflow(build_line_graph(g, s, d)).value)
        for delta in deltas:
            a = exact_maxflow_delta(g, s, d, delta).count
            b = exact_mincut_delta(g, s, d, delta).count
            checked += 1
            if a > b:
                failures.append(f"seed {sd} delta {delta}: flow {a} > cut {b}")
            elif b > unit:
                failures.append(
                    f"seed {sd} delta {delta}: cut {b} > unit max flow {unit}")
    return SuiteResult("duality", checked, tuple(failures))


def suite_gapfamily() -> SuiteResult:
    """Ladder instances certify cut/flow ratios 1, 2, 3 at spacings 2 and 3.

    gen_counterexample(k) checks both exact oracles at both spacings before
    it returns and raises on a mismatch, so the suite reports that check.
    """
    failures = []
    for k in (1, 2, 3):
        try:
            gens.gen_counterexample(k)
        except AssertionError as exc:
            failures.append(f"k={k}: {exc}")
    return SuiteResult("gapfamily", 6, tuple(failures))


def suite_sandwich(count: int = 60, deltas=(2, 3, 5), seed: int = 300) -> SuiteResult:
    """Cover-size sandwich on real disconnecting contact sets."""
    failures = []
    checked = 0
    for g, s, d, sd in _corpus(count, seed):
        for delta in deltas:
            w = set_weights(g, delta)
            _, cut = weighted_mincut_1(g, w, s, d)
            checked += 1
            if not sandwich_check(cut, w, delta):
                failures.append(f"seed {sd} delta {delta}: sandwich violated")
    return SuiteResult("sandwich", checked, tuple(failures))


def suite_certificates(count: int = 40, deltas=(2, 3), seed: int = 600) -> SuiteResult:
    """Approximation guarantees on both sides, instance by instance:
    the greedy flow is within its proven ratio of optimal, both cuts
    disconnect the pair, the greedy count undercuts the optimal cut (the
    bound the exact search prunes with), the rounded cut is within delta of
    optimal, and its weight undercuts the optimum."""
    failures = []
    checked = 0
    for g, s, d, sd in _corpus(count, seed):
        for delta in deltas:
            checked += 1
            res = analyze_exact(g, s, d, delta)
            cut, copt = res.rounded, res.cut.count
            if not res.certificates["flow"]["within_ratio"]:
                failures.append(f"seed {sd} delta {delta}: flow certificate")
            elif cut.count and not verify_cut(g, cut, s, d):
                failures.append(f"seed {sd} delta {delta}: cut does not disconnect")
            elif not verify_cut(g, res.cut, s, d):
                failures.append(
                    f"seed {sd} delta {delta}: optimal cut does not disconnect")
            elif res.greedy.count > copt:
                failures.append(
                    f"seed {sd} delta {delta}: greedy {res.greedy.count} above cut {copt}")
            elif not copt <= cut.count <= delta * copt:
                failures.append(
                    f"seed {sd} delta {delta}: cut {cut.count} vs optimal {copt}")
            elif ceil(cut.weight_lower_bound) > copt:
                failures.append(
                    f"seed {sd} delta {delta}: weight bound {cut.weight_lower_bound} above optimum {copt}")
    return SuiteResult("certificates", checked, tuple(failures))


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
