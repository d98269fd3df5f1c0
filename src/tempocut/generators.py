"""Instance generators.

Three families: seeded random scale-free time-varying graphs for the gap
experiments, the hand-built counterexample ladder showing the disruption
number can exceed the disjoint-journey count by any factor, and the
bounded-length edge-disjoint-paths reduction with its brute-force oracle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .maxflow import exact_maxflow_delta
from .mincut import exact_mincut_delta
from .tvg import TimeVaryingGraph


def gen_random_tvg(node_count: int, horizon: int, p: float,
                   seed: int) -> TimeVaryingGraph:
    """Random scale-free TVG: preferential attachment (2 attachments per
    new node, each undirected attachment realized as both directed edges),
    then each (edge, slot) activates independently with probability p.
    Fully determined by the seed.
    """
    if node_count < 2:
        raise ValueError("need at least 2 nodes")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(1, node_count + 1)]
    pairs: list[tuple[int, int]] = [(0, 1)]
    # repeated-node urn: each node appears once per unit of degree
    urn = [0, 1]
    for new in range(2, node_count):
        want = min(2, new)
        targets: set[int] = set()
        while len(targets) < want:
            targets.add(urn[rng.randrange(len(urn))])
        for t in sorted(targets):
            pairs.append((new, t))
            urn.append(new)
            urn.append(t)
    edges = []
    for a, b in pairs:
        for src, dst in ((a, b), (b, a)):
            slots = [t for t in range(1, horizon + 1) if rng.random() < p]
            edges.append((names[src], names[dst], slots))
    return TimeVaryingGraph(names, edges, horizon)


def _ladder_level_1() -> tuple[list, list, int]:
    nodes = ["s", "d1"]
    edges = [("s", "d1", [1])]
    return nodes, edges, 1


def _ladder_level_2(nodes: list, edges: list) -> int:
    """Second rung: a descent chain whose journeys all pass the two
    source contacts, needing 2 removals but admitting no 2 disjoint
    journeys (the shortcut and slot overlaps force interference)."""
    nodes += ["v21", "v22", "v23", "d2"]
    edges += [
        ("s", "v21", [4]),
        ("d1", "v21", [3]),
        ("d1", "v23", [3]),
        ("v21", "v22", [4, 5]),
        ("v22", "d2", [5]),        # shortcut
        ("v22", "v23", [6]),
        ("v23", "d2", [7]),
    ]
    return 7


def _ladder_level_3(nodes: list, edges: list) -> int:
    """Third rung: a relay spine from the source plus three timed bypass
    gadgets from d2. Each gadget's two-slot window overlaps the spine's
    traversal, so everything interferes, yet disconnecting needs a third
    removal (the spine avoids both earlier source contacts)."""
    nodes += ["e1s", "e1e", "e2s", "e2e", "e3s", "e3e", "t3", "d3"]
    edges += [
        ("s", "e1s", [9]),             # spine entry
        ("d2", "e1s", [8]),
        ("d2", "e2s", [10]),
        ("d2", "e3s", [12]),
        ("e1s", "e1e", [9, 10]),
        ("e2s", "e2e", [11, 12]),
        ("e3s", "e3e", [13, 14]),
        ("e1e", "d3", [10]),           # bypass exit 1
        ("e2e", "d3", [12]),           # bypass exit 2
        ("e3e", "t3", [14]),           # bypass exit 3, via t3
        ("t3", "d3", [15]),
        ("e1e", "e2s", [11]),          # spine forwarding
        ("e2e", "e3s", [13]),
        ("e3e", "d3", [15]),
    ]
    return 15


def gen_counterexample(k: int) -> tuple[TimeVaryingGraph, str, str]:
    """The gap ladder: (graph, source, destination) with exactly one
    delta-disjoint journey but disruption number k, for delta in {2, 3}.

    Construction is self-verified with the exact oracles at generation
    time; a mismatch aborts, it is never returned silently.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > 3:
        raise ValueError("ladder is built up to k=3")
    nodes, edges, horizon = _ladder_level_1()
    dest = "d1"
    if k >= 2:
        horizon = _ladder_level_2(nodes, edges)
        dest = "d2"
    if k == 3:
        horizon = _ladder_level_3(nodes, edges)
        dest = "d3"
    g = TimeVaryingGraph(nodes, edges, horizon)
    for delta in (2, 3):
        flow = exact_maxflow_delta(g, "s", dest, delta).count
        cut = exact_mincut_delta(g, "s", dest, delta).count
        if (flow, cut) != (1, k):
            raise AssertionError(
                f"ladder k={k} failed self-check at delta={delta}: "
                f"got flow={flow}, cut={cut}, wanted (1, {k})")
    return g, "s", dest


@dataclass(frozen=True)
class WeightedDigraph:
    """Digraph with positive integer arc lengths and a path-length bound."""
    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str, int], ...]  # (from, to, length)
    s: str
    d: str
    bound: int

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "arcs": [{"from": u, "to": v, "len": l} for u, v, l in self.arcs],
            "s": self.s,
            "d": self.d,
            "L": self.bound,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WeightedDigraph":
        """Build from the document format; rejects invalid digraphs."""
        try:
            nodes, raw_arcs, bound = obj["nodes"], obj["arcs"], obj["L"]
            s, d = obj["s"], obj["d"]
            arcs = [(a["from"], a["to"], a["len"]) for a in raw_arcs]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid weighted digraph: {exc}") from exc
        # type(...) is int: JSON true and false are not lengths
        if not (isinstance(nodes, list) and isinstance(raw_arcs, list)
                and type(bound) is int
                and all(type(n) is str for n in nodes)
                and type(s) is type(d) is str
                and all(type(u) is type(v) is str and type(l) is int
                        for u, v, l in arcs)):
            raise ValueError("invalid weighted digraph: nodes and arcs must "
                             "be lists, L and len integers, node names, "
                             "endpoints and terminals strings")
        wd = cls(tuple(nodes), tuple(arcs), s, d, bound)
        problems = wd.problems()
        if problems:
            raise ValueError("invalid weighted digraph: " + "; ".join(problems))
        return wd

    @classmethod
    def loads(cls, text: str) -> "WeightedDigraph":
        return cls.from_json_dict(json.loads(text))

    def problems(self) -> list[str]:
        out = []
        node_set = set(self.nodes)
        seen: set[str] = set()
        for n in self.nodes:
            if n in seen:
                out.append(f"node {n!r} listed more than once")
            seen.add(n)
        touched: set[str] = set()
        for u, v, l in self.arcs:
            if u not in node_set or v not in node_set:
                out.append(f"arc {u}->{v} has endpoint outside node set")
            if u == v:
                out.append(f"arc {u}->{v} is a self-loop")
            if l < 1:
                out.append(f"arc {u}->{v} has nonpositive length {l}")
            elif l > self.bound:
                out.append(f"arc {u}->{v} longer than the bound {self.bound}")
            touched.add(u)
            touched.add(v)
        if self.bound < 1:
            out.append("bound must be positive")
        for n in self.nodes:
            if n not in touched:
                out.append(f"isolated node {n}")
        if self.s not in node_set or self.d not in node_set:
            out.append("terminals must be nodes")
        return out


def gen_random_weighted_digraph(node_count: int = 6, arc_count: int = 10,
                                bound: int = 5, seed: int = 0) -> WeightedDigraph:
    """Seeded random instance for the bounded-length path packing problem.

    Ordered node pairs are sampled without replacement (no parallel arcs,
    so the instance stays expandable), lengths uniform in [1, bound].
    Terminals are v1 and v{node_count}; nothing guarantees d is reachable,
    zero-packing instances are legitimate.
    """
    if node_count < 2:
        raise ValueError("need at least two nodes")
    if bound < 1:
        raise ValueError("bound must be positive")
    rng = random.Random(seed)
    names = [f"v{i + 1}" for i in range(node_count)]
    pairs = [(u, v) for u in names for v in names if u != v]
    rng.shuffle(pairs)
    chosen = pairs[:min(arc_count, len(pairs))]
    arcs = tuple((u, v, rng.randint(1, bound)) for u, v in chosen)
    # every node must touch an arc; wire strays from the source in name order
    touched = {x for u, v, _ in arcs for x in (u, v)}
    extra = tuple((names[0], n, rng.randint(1, bound))
                  for n in names if n not in touched and n != names[0])
    if not extra and names[0] not in touched:
        extra = ((names[0], names[1], rng.randint(1, bound)),)
    return WeightedDigraph(tuple(names), arcs + extra, names[0],
                           names[-1], bound)


def bledp_expand(wd: WeightedDigraph) -> TimeVaryingGraph:
    """Series expansion: an arc of length l becomes a chain of l unit
    edges through l-1 fresh nodes, every edge active in every slot of
    [1, L], horizon = L. Bounded-length disjoint paths in the digraph
    then match L-disjoint journeys in the expansion.
    """
    problems = wd.problems()
    if problems:
        raise ValueError("invalid weighted digraph: " + "; ".join(problems))
    seen_direct: set[tuple[str, str]] = set()
    nodes = list(wd.nodes)
    edges = []
    full = list(range(1, wd.bound + 1))
    for idx, (u, v, l) in enumerate(wd.arcs):
        if l == 1:
            if (u, v) in seen_direct:
                raise ValueError(
                    f"parallel unit arcs {u}->{v} cannot be expanded (duplicate edge)")
            seen_direct.add((u, v))
            edges.append((u, v, full))
            continue
        prev = u
        for step in range(1, l):
            mid = f"w{idx}_{step}"
            nodes.append(mid)
            edges.append((prev, mid, full))
            prev = mid
        edges.append((prev, v, full))
    return TimeVaryingGraph(nodes, edges, wd.bound)


def _simple_bounded_paths(wd: WeightedDigraph) -> list[tuple[int, ...]]:
    """All node-simple s->d arc sequences with total length <= bound,
    as tuples of arc indices in lexicographic arc order."""
    out_arcs: dict[str, list[int]] = {}
    for i, (u, v, l) in enumerate(wd.arcs):
        out_arcs.setdefault(u, []).append(i)
    paths: list[tuple[int, ...]] = []
    trail: list[int] = []
    visited = {wd.s}

    def walk(node: str, used: int) -> None:
        for i in out_arcs.get(node, ()):
            u, v, l = wd.arcs[i]
            if used + l > wd.bound:
                continue
            if v in visited:
                continue
            trail.append(i)
            if v == wd.d:
                paths.append(tuple(trail))
            else:
                visited.add(v)
                walk(v, used + l)
                visited.discard(v)
            trail.pop()

    if wd.s != wd.d:
        walk(wd.s, 0)
    return paths


def bledp_exact(wd: WeightedDigraph) -> int:
    """Maximum number of arc-disjoint s->d paths of length <= bound,
    by exhaustive packing over the simple-path list.

    Simple paths suffice: dropping a cycle from a path only shortens it
    and releases arcs, so some optimal packing is cycle-free.
    """
    paths = _simple_bounded_paths(wd)
    m = len(paths)
    if m > 4000:
        raise ValueError(f"too many candidate paths ({m}) for the brute force")
    conflict = [0] * m
    for i in range(m):
        ai = set(paths[i])
        for j in range(i + 1, m):
            if ai.intersection(paths[j]):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i

    best = 0

    def extend(alive: int, size: int) -> None:
        nonlocal best
        if size + alive.bit_count() <= best:
            return
        rest = alive
        while rest:
            lsb = rest & -rest
            i = lsb.bit_length() - 1
            rest ^= lsb
            if size + 1 + rest.bit_count() <= best:
                return
            if size + 1 > best:
                best = size + 1
            extend(rest & ~conflict[i], size + 1)

    extend((1 << m) - 1, 0)
    return best
