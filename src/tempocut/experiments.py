"""The paper's two experiments, behind `tempocut experiment gap|loss` and
release criteria 4, 5 and 10: the approximation gaps on seeded random
instances, and loss versus copy spacing on a contact trace.

This module is their one definition: each experiment's parameters (GAP
and LOSS, the CLI's defaults), the runs (gap_cells; star_core_trace,
routable_plateau and a simulate.sweep) and every number they report
(gap_rows, loss_summary). The CLI only formats them, and the criteria
assert on them.
"""

from __future__ import annotations

from typing import NamedTuple

from .generators import gen_random_tvg
from .maxflow import greedy_maxflow_delta
from .mincut import analyze_exact
from .traces import HEADER


class GapParams(NamedTuple):
    """gap_cells' arguments, in its order."""

    instances: int
    nodes: int
    horizon: int
    p: float
    deltas: tuple[int, ...]
    seed0: int


class LossParams(NamedTuple):
    """The loss sweep: the trace window (and deadline), copies, spacings,
    packets a point, failure onset probability, longest failure and seed."""

    deadline: int
    ns: tuple[int, ...]
    deltas: tuple[int, ...]
    packets: int
    p: float
    dmax: int
    seed: int


# The medium corpus: 100 instances of gen_random_tvg(10, 12, 0.5, seed).
GAP = GapParams(100, 10, 12, 0.5, (1, 2, 3, 5), 0)
LOSS = LossParams(60, (1, 2), tuple(range(1, 21)), 2500, 0.05, 10, 4242)


def gap_cells(instances: int, nodes: int, horizon: int, p: float, deltas,
              seed0: int) -> list[tuple]:
    """One CSV row per (instance, delta) cell, instances seeded seed0,
    seed0 + 1, ..., pair n1 -> n<nodes>: seed, delta, greedy and exact
    flow, rounded and exact cut, and whether the greedy's certificate
    holds."""
    src, dst = "n1", f"n{nodes}"
    cells = []
    for seed in range(seed0, seed0 + instances):
        g = gen_random_tvg(nodes, horizon, p, seed)
        for delta in deltas:
            res = analyze_exact(g, src, dst, delta)
            cells.append((seed, delta, res.greedy.count, res.flow.count,
                          res.rounded.count, res.cut.count,
                          res.certificates["flow"]["within_ratio"]))
    return cells


class GapRow(NamedTuple):
    """`experiment gap`'s summary of one delta's cells. A flow gap is
    (exact - greedy) / max(greedy, 1), a cut gap (rounded - exact) / exact
    and a cut ratio rounded / exact; cells whose exact cut is 0 have
    neither, and with none left both read 0.0."""

    delta: int
    flow_gap_mean: float
    flow_gap_max: float
    certified: int
    cells: int
    cut_gap_mean: float
    cut_ratio_max: float


def gap_rows(cells, deltas) -> list[GapRow]:
    """One GapRow per delta of deltas, over the gap_cells cells at it."""
    rows = []
    for delta in deltas:
        at = [c for c in cells if c[1] == delta]
        fgaps = [(fo - fa) / max(fa, 1) for _, _, fa, fo, _, _, _ in at]
        cgaps = [(ca - co) / co for _, _, _, _, ca, co, _ in at if co]
        ratios = [ca / co for _, _, _, _, ca, co, _ in at if co]
        rows.append(GapRow(delta, sum(fgaps) / len(fgaps), max(fgaps),
                           sum(1 for c in at if c[6]), len(at),
                           (sum(cgaps) / len(cgaps)) if cgaps else 0.0,
                           max(ratios) if ratios else 0.0))
    return rows


def star_core_trace(deadline: int) -> str:
    """Two always-on hubs plus eight rim nodes flashing up every 15 seconds,
    so no spacing above 15 slots keeps two copies between every pair."""
    lines = [HEADER, f"c1,c2,0,{deadline}"]
    for i in range(1, 9):
        for base in (9, 24, 39):
            lines.append(f"x{i},c1,{base + i},1")
    return "\n".join(lines) + "\n"


def routable_plateau(g, deltas, copies: int) -> int | None:
    """Largest spacing at which the greedy still packs `copies` journeys
    for the worst ordered pair."""
    pairs = [(u, v) for u in g.nodes for v in g.nodes if u != v]
    best = None
    for delta in deltas:
        worst = min(greedy_maxflow_delta(g, u, v, delta).count
                    for u, v in pairs)
        if worst >= copies:
            best = delta
    return best


def loss_summary(reports, ns, deltas) -> tuple[dict, dict]:
    """The loss rates of a sweep's reports as a (copies, spacing) -> loss
    map, and per copy count of ns the spacing of deltas where its loss is
    least (the first listed on ties)."""
    loss = {(r.n, r.delta): r.loss_rate for r in reports}
    return loss, {n: min(deltas, key=lambda delta: loss[n, delta])
                  for n in ns}
