#!/usr/bin/env python3
"""Loss rate versus copy spacing on a contact trace.

Discretizes a trace (a built-in star-core trace by default), finds the
largest spacing at which every pair still routes two spaced copies, then
sweeps the failure simulator over (copies, spacing) and reports where the
loss curve bottoms out. CSV rows go to --csv for plotting.
"""

import argparse
import os
import sys
import time

from tempocut import (InstanceTooLargeError, check_sweep, discretize,
                      greedy_maxflow_delta, parse_contact_trace, sweep,
                      sweep_to_csv)
from tempocut.cli import _expand_sweep, _parse_int_list, _positive_int
from tempocut.traces import HEADER


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="contact trace CSV (default: built-in)")
    ap.add_argument("--deadline", type=int, default=60)
    ap.add_argument("--ns", default="1,2")
    ap.add_argument("--deltas", default="1..20")
    ap.add_argument("--packets", type=_positive_int, default=2500)
    ap.add_argument("--p", type=float, default=0.05)
    ap.add_argument("--dmax", type=int, default=10)
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--csv", help="write the sweep rows to this file")
    args = ap.parse_args(argv)
    try:
        ns, deltas = _parse_int_list(args.ns), _parse_int_list(args.deltas)
        if args.trace:
            with open(args.trace) as fh:
                text = fh.read()
        else:
            text = star_core_trace(args.deadline)
        g = discretize(parse_contact_trace(text), 0, args.deadline)
        # every point's checks and the sweep's size, before any range
        # expands, the --csv file opens or the plateau search runs
        check_sweep(g, ns, deltas, [range(args.deadline, args.deadline + 1)],
                    args.packets, args.p, args.dmax)
        ns, deltas = _expand_sweep(ns, deltas)
        with open(args.csv or os.devnull, "w") as csv:
            return _run(g, ns, deltas, args, csv)
    except InstanceTooLargeError as exc:
        ap.exit(3, f"{ap.prog}: error: {exc}\n")
    except (ValueError, OSError) as exc:
        ap.error(str(exc))


def _run(g, ns: list[int], deltas: list[int], args, csv) -> int:
    """The plateau search and the sweep on a checked trace window, its rows
    written to csv."""
    print(f"trace window: {len(g.nodes)} nodes, {len(g.edges)} edges, "
          f"{g.contact_count} contacts, T={g.horizon}")

    t0 = time.perf_counter()
    plateau = routable_plateau(g, deltas, max(ns))
    print(f"largest spacing routing {max(ns)} copies everywhere: {plateau} "
          f"({time.perf_counter() - t0:.1f}s)")

    t0 = time.perf_counter()
    reports = sweep(g, ns, deltas, [args.deadline], args.packets, args.p,
                    args.dmax, args.seed)
    print(f"sweep of {len(reports)} points x {args.packets} packets: "
          f"{time.perf_counter() - t0:.1f}s")
    csv.write(sweep_to_csv(reports))

    loss = {(r.n, r.delta): r.loss_rate for r in reports}
    for n in ns:
        row = " ".join(f"{loss[n, delta]:.4f}" for delta in deltas)
        print(f"n={n}: {row}")
    for n in ns:
        best = min(deltas, key=lambda delta: loss[n, delta])
        print(f"n={n}: loss bottoms out at spacing {best} "
              f"({loss[n, best]:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
