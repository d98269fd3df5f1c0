#!/usr/bin/env python3
"""Approximation quality on seeded random instances.

For every (instance, delta) cell: greedy packing vs the exact oracle, and
the rounded cut vs the exact oracle. Prints a per-delta summary table and
can dump the raw cells as CSV for plotting.
"""

import argparse
import sys
import time

from tempocut import analyze_exact, gen_random_tvg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--nodes", type=int, default=10)
    ap.add_argument("--t", type=int, default=12, help="horizon (slots)")
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--deltas", default="1,2,3,5")
    ap.add_argument("--seed0", type=int, default=0, help="first seed")
    ap.add_argument("--csv", help="write per-cell rows to this file")
    args = ap.parse_args(argv)

    deltas = [int(x) for x in args.deltas.split(",")]
    src, dst = "n1", f"n{args.nodes}"
    cells = []
    t0 = time.perf_counter()
    for i in range(args.instances):
        g = gen_random_tvg(args.nodes, args.t, args.p, args.seed0 + i)
        for delta in deltas:
            res = analyze_exact(g, src, dst, delta)
            cells.append((args.seed0 + i, delta, res.greedy.count,
                          res.flow.count, res.rounded.count, res.cut.count,
                          res.certificates["flow"]["within_ratio"]))
    elapsed = time.perf_counter() - t0

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("seed,delta,flow_greedy,flow_opt,cut_rounded,cut_opt,"
                     "certified\n")
            for row in cells:
                fh.write(",".join(str(x) for x in row) + "\n")

    print(f"{args.instances} instances ({args.nodes} nodes, T={args.t}, "
          f"p={args.p}), deltas {deltas}, {elapsed:.1f}s")
    print("delta  flow_gap_mean  flow_gap_max  certified  "
          "cut_gap_mean  cut_ratio_max")
    for delta in deltas:
        rows = [c for c in cells if c[1] == delta]
        fgaps = [(fo - fa) / max(fa, 1) for _, _, fa, fo, _, _, _ in rows]
        cgaps = [(ca - co) / co for _, _, _, _, ca, co, _ in rows if co]
        ratios = [ca / co for _, _, _, _, ca, co, _ in rows if co]
        certified = sum(1 for c in rows if c[6])
        print(f"{delta:>5}  {sum(fgaps) / len(fgaps):>13.4f}  "
              f"{max(fgaps):>12.4f}  {certified:>4}/{len(rows):<4}  "
              f"{(sum(cgaps) / len(cgaps)) if cgaps else 0.0:>12.4f}  "
              f"{max(ratios) if ratios else 0.0:>13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
