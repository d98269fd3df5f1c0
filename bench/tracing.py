"""Timing wrappers for the traced run.

A Tracer replaces public tempocut functions with wrappers on the attribute
of every tempocut module that holds them, so calls from one layer into
another are seen too. Each wrapped call records a span: name, start, end,
parent span, op label, counts derived from its result, and whether it
raised (the exception is re-raised). Spans stay in memory until their root
span closes; then the tree is folded into per-function totals and dropped,
which keeps memory bounded on runs with millions of calls.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the parent span in the same tree, or -1
    op: str
    counts: dict | None  # counts derived from the result
    raised: bool


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


# Counts taken from a traced function's return value, by qualified name.
MEASURES: dict[str, Callable[[object], dict]] = {
    "tvg.removal_footprint": lambda r: {"contacts": len(r)},
    "linegraph.build_line_graph": lambda r: {"arcs": r.arc_count,
                                             "nodes": r.node_count},
    "linegraph.node_disjoint_maxflow": lambda r: {"value": r.value},
    "maxflow.greedy_maxflow_delta": lambda r: {"journeys": r.count},
    "simulate.run_simulation": lambda r: {"packets": len(r.packets)},
}

TRACED = (
    "cli.main", "tvg.load_tvg", "tvg.reachable", "tvg.removal_footprint",
    "tvg.interfering_contacts", "linegraph.build_line_graph",
    "linegraph.node_disjoint_maxflow", "linegraph.min_hop_path",
    "maxflow.greedy_maxflow_delta", "maxflow.exact_maxflow_delta",
    "mincut.set_weights", "mincut.weighted_mincut_1", "mincut.delta_cover",
    "mincut.verify_cut", "mincut.minweight_mincut_delta",
    "mincut.exact_mincut_delta", "simulate.run_simulation",
    "simulate.journeys_delivered", "traces.parse_contact_trace",
    "traces.discretize", "generators.gen_random_tvg",
)


class Totals:
    """Per-function totals folded from span trees."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.raised: dict[str, int] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self.shortcut_base = 0    # exact flow calls that ran a greedy child
        self.shortcut_hits = 0    # ... whose greedy met the unit-flow bound
        self.planned = 0          # greedy calls made under run_simulation

    def fold(self, spans: list[Span]) -> None:
        for s, own in zip(spans, self_times(spans)):
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + own
            self.raised[s.name] = self.raised.get(s.name, 0) + s.raised
            if s.counts:
                acc = self.counts.setdefault(s.name, {})
                for k, v in s.counts.items():
                    acc[k] = acc.get(k, 0) + v
        kids: dict[int, dict[str, Span]] = {}
        for s in spans:
            if s.parent >= 0:
                kids.setdefault(s.parent, {}).setdefault(s.name, s)
        for i, s in enumerate(spans):
            if s.name == "maxflow.exact_maxflow_delta" and not s.raised:
                greedy = kids.get(i, {}).get("maxflow.greedy_maxflow_delta")
                unit = kids.get(i, {}).get("linegraph.node_disjoint_maxflow")
                if greedy and unit and greedy.counts and unit.counts:
                    self.shortcut_base += 1
                    self.shortcut_hits += greedy.counts["journeys"] >= unit.counts["value"]
            elif s.name == "maxflow.greedy_maxflow_delta":
                p = s.parent
                while p >= 0 and spans[p].name != "simulate.run_simulation":
                    p = spans[p].parent
                self.planned += p >= 0


class Tracer:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self, names=TRACED, package: str = "tempocut"):
        self.names = names
        self.package = package
        self.totals = Totals()
        self.op = "setup"
        self._spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self._spans, self._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(Span(name, start, clock(), parent, self.op, None, True))
                raise
            end = clock()
            counts = measure(result) if measure else None
            self._close(Span(name, start, end, parent, self.op, counts, False))
            return result

        return wrapper

    def _close(self, span: Span) -> None:
        index = self._stack.pop()
        self._spans[index] = span
        if not self._stack:
            self.totals.fold(self._spans)
            self._spans = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for name in self.names:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
