"""Command-line front end.

Exit codes: 0 success, 2 bad input (files, flags, parameters), 3 instance
too large for a desk-scale exact oracle, 4 internal invariant failure.
Output is machine-readable JSON/CSV by default; --pretty indents JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .generators import (WeightedDigraph, bledp_expand, gen_counterexample,
                         gen_random_tvg)
from .maxflow import DEFAULT_JOURNEY_CAP
from .mincut import (DEFAULT_HEAD_CAP, _approximations, analyze_exact,
                     survivability_bounds)
from .simulate import sweep, sweep_to_csv
from .traces import (contact_stats, discretize, histogram_csv,
                     pairs_csv, parse_contact_trace)
from .tvg import InstanceTooLargeError, load_tvg
from .verify import SUITES, run_suites


def _parse_int_list(text: str, bounds: tuple[int, float] | None = None,
                    error: str = "") -> list[int]:
    """Comma-separated values, each a plain int or an a..b range.

    With bounds (lo, hi), hi possibly math.inf, a value or range endpoint
    outside [lo, hi] raises ValueError(error) before any range is expanded,
    so a huge range fails at once instead of filling memory.
    """
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {token!r}")
        elif token:
            lo = hi = int(token)
        else:
            continue
        if bounds and not bounds[0] <= lo <= hi <= bounds[1]:
            raise ValueError(error)
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"no values in {text!r}")
    return out


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (else exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cap(args, default: int) -> int:
    """--cap, else TEMPOCUT_CAP, else the oracle's own default."""
    if args.cap is not None:
        return args.cap
    try:
        return _positive_int(os.environ.get("TEMPOCUT_CAP", str(default)))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"TEMPOCUT_CAP: {exc}") from None


def _dump(obj, args) -> str:
    if getattr(args, "pretty", False):
        return json.dumps(obj, indent=2) + "\n"
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.family == "random":
        g = gen_random_tvg(args.nodes, args.t, args.p, args.seed)
        _emit(g.dumps(), args)
    elif args.family == "counterexample":
        g, s, d = gen_counterexample(args.k)
        _emit(g.dumps(), args)
        print(f"source {s} destination {d}", file=sys.stderr)
    else:  # bledp-expand
        with open(args.input) as fh:
            wd = WeightedDigraph.loads(fh.read())
        _emit(bledp_expand(wd).dumps(), args)
    return 0


def cmd_analyze(args) -> int:
    g = load_tvg(args.input)
    s, d, delta = args.src, args.dst, args.delta
    report: dict = {"src": s, "dst": d, "delta": delta}
    if args.exact:
        res = analyze_exact(g, s, d, delta, cap=_cap(args, DEFAULT_JOURNEY_CAP),
                            head_cap=_cap(args, DEFAULT_HEAD_CAP))
        report["maxflow"] = res.flow.to_json_dict()
        report["mincut"] = res.cut.to_json_dict()
        report["certificates"] = res.certificates
    else:
        greedy, rounded = _approximations(g, s, d, delta)
        report["maxflow"] = greedy.to_json_dict()
        report["mincut"] = rounded.to_json_dict()
    _emit(_dump(report, args), args)
    return 0


def cmd_survivable(args) -> int:
    g = load_tvg(args.input)
    head_cap = _cap(args, DEFAULT_HEAD_CAP) if args.exact else DEFAULT_HEAD_CAP
    verdict = survivability_bounds(g, args.src, args.dst, args.n, args.delta,
                                   exact=args.exact, head_cap=head_cap)
    _emit(_dump(verdict.to_json_dict(), args), args)
    return 0


def cmd_simulate(args) -> int:
    g = load_tvg(args.input)
    # SimConfig's range checks, made before the lists are expanded
    ns = _parse_int_list(args.n, (1, math.inf),
                         "need at least one copy per packet")
    deadlines = (_parse_int_list(args.ddl, (1, g.horizon),
                                 "deadline must lie in [1, graph horizon]")
                 if args.ddl else [g.horizon])
    deltas = _parse_int_list(args.delta, (1, min(deadlines)),
                             "delta must lie in [1, deadline]")
    reports = sweep(g, ns, deltas, deadlines, args.packets, args.p,
                    args.dmax, args.seed)
    _emit(sweep_to_csv(reports), args)
    return 0


def cmd_ingest(args) -> int:
    with open(args.input) as fh:
        records = parse_contact_trace(fh.read())
    if args.t is not None:
        horizon = args.t
    else:
        last = max((r.start + max(r.duration, 1) - 1 for r in records),
                   default=0)
        horizon = max(last - args.window_start + 1, 1)
    g = discretize(records, args.window_start, horizon)
    _emit(g.dumps(), args)
    return 0


def cmd_stats(args) -> int:
    with open(args.input) as fh:
        records = parse_contact_trace(fh.read())
    stats = contact_stats(records)
    durations = histogram_csv(stats)
    pairs = pairs_csv(stats)
    if args.out:
        base = args.out
        with open(base + "_durations.csv", "w") as fh:
            fh.write(durations)
        with open(base + "_pairs.csv", "w") as fh:
            fh.write(pairs)
    else:
        sys.stdout.write(durations)
        sys.stdout.write("\n")
        sys.stdout.write(pairs)
    return 0


def cmd_verify(args) -> int:
    names = args.suite.split(",") if args.suite else None
    results = run_suites(names)
    for r in results:
        print(r.summary())
    if all(r.passed for r in results):
        print("all suites pass")
        return 0
    return 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, and TEMPOCUT_CAP is read at call time (_cap)."""
    top = argparse.ArgumentParser(
        prog="tempocut",
        description="Worst-case survivability analysis of time-varying graphs")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, input_file=True):
        if input_file:
            p.add_argument("input", help="input file path")
        p.add_argument("-o", "--out", help="output file (default stdout)")
        p.add_argument("--pretty", action="store_true",
                       help="indent JSON output")

    p = sub.add_parser("gen", help="generate instances")
    gsub = p.add_subparsers(dest="family", required=True)
    pr = gsub.add_parser("random", help="seeded scale-free random instance")
    pr.add_argument("--nodes", type=int, default=10)
    pr.add_argument("--t", type=int, default=12, help="horizon (slots)")
    pr.add_argument("--p", type=float, default=0.5,
                    help="per-slot activation probability")
    pr.add_argument("--seed", type=int, default=0)
    add_common(pr, input_file=False)
    pc = gsub.add_parser("counterexample",
                         help="gap ladder with cut/flow ratio k")
    pc.add_argument("--k", type=int, default=2, choices=(1, 2, 3))
    add_common(pc, input_file=False)
    pb = gsub.add_parser("bledp-expand",
                         help="expand a weighted digraph to unit edges")
    add_common(pb)
    for x in (pr, pc, pb):
        x.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="journey packing and disruption number")
    add_common(p)
    p.add_argument("--delta", type=int, default=1, help="removal duration")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--exact", action="store_true",
                   help="run the exact oracles and print certificates")
    p.add_argument("--cap", type=_positive_int,
                   help="exact oracle size cap (default from TEMPOCUT_CAP)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("survivable",
                       help="verdict: does the pair ride out n removals")
    add_common(p)
    p.add_argument("--n", type=int, required=True,
                   help="simultaneous removal budget")
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--exact", action="store_true",
                   help="settle the verdict with the exact cut oracle")
    p.add_argument("--cap", type=_positive_int,
                   help="exact oracle size cap (default from TEMPOCUT_CAP)")
    p.set_defaults(func=cmd_survivable)

    p = sub.add_parser("simulate", help="loss-rate sweep, CSV per point")
    add_common(p)
    p.add_argument("--n", default="1", help="copies, e.g. 1,2,3")
    p.add_argument("--delta", default="1", help="spacings, e.g. 1..40")
    p.add_argument("--ddl", help="deadlines in slots (default: horizon)")
    p.add_argument("--p", type=float, default=0.05,
                   help="per-slot failure onset probability")
    p.add_argument("--dmax", type=int, default=10,
                   help="max failure duration (slots)")
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="contact trace CSV to graph JSON")
    add_common(p)
    p.add_argument("--window-start", type=int, default=0,
                   help="absolute second mapped to slot 1")
    p.add_argument("--t", type=int,
                   help="horizon in slots (default: fit the trace)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="trace duration histogram and pair timelines")
    add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite",
                   help="comma-separated subset of: " + ", ".join(SUITES))
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
