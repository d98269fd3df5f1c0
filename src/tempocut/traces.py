"""Contact-trace ingestion.

Traces are CSV records of radio contacts (node_a, node_b, start, duration)
in seconds. Discretization windows a trace into a TimeVaryingGraph at
one-second slot resolution, treating each contact as a bidirectional link;
contact_stats reproduces the duration histogram and per-pair burst
timelines used to pick interesting windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .tvg import TimeVaryingGraph, _check_budget

HEADER = "node_a,node_b,start,duration"

# A window's graph costs about 115 bytes of peak RSS per contact (one
# always-on pair at 0.2M and 2M contacts, x86-64, Python 3.11), and its
# JSON dump about 40 more. So a window past this many contacts needs more
# than 1.1 GB.
MAX_WINDOW_CONTACTS = 10_000_000


class ContactRecord(NamedTuple):
    node_a: str
    node_b: str
    start: int
    duration: int


def parse_contact_trace(text: str) -> list[ContactRecord]:
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    body = [(no, ln) for no, ln in stripped if ln]
    if not body or body[0][1] != HEADER:
        raise ValueError(f"trace must start with header '{HEADER}'")
    records: list[ContactRecord] = []
    errors: list[str] = []
    for no, ln in body[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 4:
            errors.append(f"line {no}: expected 4 fields, got {len(parts)}")
            continue
        a, b, start_s, dur_s = parts
        try:
            start = int(start_s)
            dur = int(dur_s)
        except ValueError:
            errors.append(f"line {no}: start and duration must be integers")
            continue
        if start < 0 or dur < 0:
            errors.append(f"line {no}: start and duration must be nonnegative")
            continue
        if not a or not b:
            errors.append(f"line {no}: empty node identifier")
            continue
        if a == b:
            errors.append(f"line {no}: node {a!r} in contact with itself")
            continue
        records.append(ContactRecord(a, b, start, dur))
    if errors:
        raise ValueError("malformed trace: " + "; ".join(errors))
    return records


def discretize(records, window_start: int, horizon: int) -> TimeVaryingGraph:
    """TVG over [window_start, window_start + horizon - 1] seconds.

    A record (a, b, start, dur) covers absolute seconds [start, start+dur-1]
    and activates both directed edges; second w maps to slot
    w - window_start + 1, clipped to [1, horizon]. Nodes are every
    identifier seen in the trace; edges exist only for pairs of distinct
    nodes with at least one in-window slot, so a record of a node with
    itself (which parse_contact_trace rejects) activates nothing. A window
    whose records cover more than MAX_WINDOW_CONTACTS (edge, slot) pairs,
    overlaps counted twice, raises InstanceTooLargeError.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    nodes: set[str] = set()
    spans = []
    for rec in records:
        nodes.add(rec.node_a)
        nodes.add(rec.node_b)
        lo = max(rec.start, window_start)
        hi = min(rec.start + rec.duration - 1, window_start + horizon - 1)
        if lo <= hi and rec.node_a != rec.node_b:
            spans.append((rec, lo, hi))
    # counted before any slot set fills, so a huge span fails at once
    count = 2 * sum(hi - lo + 1 for _, lo, hi in spans)
    _check_budget(count, MAX_WINDOW_CONTACTS, "trace window", "contacts")
    active: dict[tuple[str, str], set[int]] = {}
    for rec, lo, hi in spans:
        slots = range(lo - window_start + 1, hi - window_start + 2)
        for key in ((rec.node_a, rec.node_b), (rec.node_b, rec.node_a)):
            active.setdefault(key, set()).update(slots)
    edges = [(u, v, sorted(ts)) for (u, v), ts in sorted(active.items())]
    return TimeVaryingGraph(sorted(nodes), edges, horizon)


@dataclass(frozen=True)
class ContactStats:
    histogram: dict[int, int]                               # duration -> count
    pair_intervals: dict[tuple[str, str], list[tuple[int, int]]]

    @property
    def total(self) -> int:
        return sum(self.histogram.values())

    def mass_below(self, threshold: int) -> float:
        """Fraction of contacts with duration < threshold seconds."""
        if self.total == 0:
            return 0.0
        short = sum(c for d, c in self.histogram.items() if d < threshold)
        return short / self.total


def contact_stats(records) -> ContactStats:
    hist: dict[int, int] = {}
    pairs: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for rec in records:
        hist[rec.duration] = hist.get(rec.duration, 0) + 1
        key = tuple(sorted((rec.node_a, rec.node_b)))
        pairs.setdefault(key, []).append((rec.start, rec.duration))
    for key in pairs:
        pairs[key].sort()
    return ContactStats(hist, pairs)


def histogram_csv(stats: ContactStats) -> str:
    lines = ["duration,count"]
    for dur in sorted(stats.histogram):
        lines.append(f"{dur},{stats.histogram[dur]}")
    return "\n".join(lines) + "\n"


def pairs_csv(stats: ContactStats) -> str:
    lines = ["node_a,node_b,start,duration"]
    for (a, b) in sorted(stats.pair_intervals):
        for start, dur in stats.pair_intervals[(a, b)]:
            lines.append(f"{a},{b},{start},{dur}")
    return "\n".join(lines) + "\n"
