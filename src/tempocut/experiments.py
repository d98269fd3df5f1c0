"""The paper's two experiments, behind `tempocut experiment gap|loss`: the
approximation gaps on seeded random instances, and loss versus copy
spacing on a contact trace."""

from __future__ import annotations

from .generators import gen_random_tvg
from .maxflow import greedy_maxflow_delta
from .mincut import analyze_exact
from .traces import HEADER


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
