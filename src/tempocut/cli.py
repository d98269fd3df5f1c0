"""Command-line front end.

Exit codes: 0 success, 2 bad input (files, flags, parameters), 3 instance
too large (an exact oracle's cap, or a size budget checked by its owner:
simulate.check_sweep's points, packet records and walk steps,
traces.MAX_WINDOW_CONTACTS, generators.MAX_SLOT_DRAWS), 4 internal
invariant failure. The commands only parse and print. Output is
machine-readable JSON/CSV by default; --pretty indents the JSON reports of
analyze and survivable, and `experiment gap|loss` print text tables and
write their rows to --csv.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys
import time

from . import experiments
from .generators import (WeightedDigraph, bledp_expand, gen_counterexample,
                         gen_random_tvg)
from .maxflow import DEFAULT_JOURNEY_CAP
from .mincut import (DEFAULT_HEAD_CAP, _approximations, analyze_exact,
                     survivability_bounds)
from .simulate import _expand_sweep, check_sweep, sweep, sweep_to_csv
from .traces import (contact_stats, discretize, histogram_csv,
                     pairs_csv, parse_contact_trace)
from .tvg import InstanceTooLargeError, _check_delta, load_tvg
from .verify import SUITES, run_suites


def _parse_int_list(text: str) -> list[range]:
    """Comma-separated values, each a plain int or an a..b range, as one
    range per value or range, none of them expanded."""
    out: list[range] = []
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
        out.append(range(lo, hi + 1))
    if not out:
        raise ValueError(f"no values in {text!r}")
    return out


def _listed(values) -> str:
    """values as the comma-separated list _parse_int_list reads back."""
    return ",".join(map(str, values))


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (else exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _dump(obj, args) -> str:
    if args.pretty:
        return json.dumps(obj, indent=2) + "\n"
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _read(path: str) -> str:
    """The file at path as UTF-8 text, whatever the locale."""
    return pathlib.Path(path).read_text(encoding="utf-8")


def _open_out(path: str):
    """The file at path open for writing UTF-8 with "\\n" line ends,
    whatever the locale and platform."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _emit(text: str, path: str | None) -> None:
    """text to the file at path, else to stdout, as _open_out writes."""
    if path:
        with _open_out(path) as fh:
            fh.write(text)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode())
    else:  # a text stream with no bytes under it, such as io.StringIO
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.family == "random":
        g = gen_random_tvg(args.nodes, args.t, args.p, args.seed)
        _emit(g.dumps(), args.out)
    elif args.family == "counterexample":
        g, s, d = gen_counterexample(args.k)
        _emit(g.dumps(), args.out)
        print(f"source {s} destination {d}", file=sys.stderr)
    else:  # bledp-expand
        wd = WeightedDigraph.loads(_read(args.input))
        _emit(bledp_expand(wd).dumps(), args.out)
    return 0


def cmd_analyze(args) -> int:
    g = load_tvg(args.input)
    s, d, delta = args.src, args.dst, args.delta
    report: dict = {"src": s, "dst": d, "delta": delta}
    if args.exact:
        report |= analyze_exact(g, s, d, delta,
                                cap=args.cap or DEFAULT_JOURNEY_CAP,
                                head_cap=args.cap or DEFAULT_HEAD_CAP
                                ).to_json_dict()
    else:
        greedy, rounded, _ = _approximations(g, s, d, delta)
        report["maxflow"] = greedy.to_json_dict()
        report["mincut"] = rounded.to_json_dict()
    _emit(_dump(report, args), args.out)
    return 0


def cmd_survivable(args) -> int:
    g = load_tvg(args.input)
    verdict = survivability_bounds(g, args.src, args.dst, args.n, args.delta,
                                   exact=args.exact,
                                   head_cap=args.cap or DEFAULT_HEAD_CAP)
    _emit(_dump(verdict.to_json_dict(), args), args.out)
    return 0


def cmd_simulate(args) -> int:
    g = load_tvg(args.input)
    ns, deltas = _parse_int_list(args.n), _parse_int_list(args.delta)
    deadlines = (_parse_int_list(args.ddl) if args.ddl
                 else [range(g.horizon, g.horizon + 1)])
    axes = check_sweep(g, ns, deltas, deadlines, args.packets, args.p,
                       args.dmax)
    reports = sweep(g, *axes, args.packets, args.p, args.dmax, args.seed)
    _emit(sweep_to_csv(reports), args.out)
    return 0


def cmd_experiment_gap(args) -> int:
    """Approximation quality on seeded random instances: greedy packing and
    rounded cut vs the exact oracles in every (instance, delta) cell, as a
    per-delta summary table and the raw cells in --csv."""
    deltas = _parse_int_list(args.deltas)
    _check_delta(min(r[0] for r in deltas))  # before a huge range expands
    (deltas,) = _expand_sweep(deltas)
    # the generator's checks, before the --csv file opens
    gen_random_tvg(args.nodes, args.t, args.p, args.seed0)
    with _open_out(args.csv or os.devnull) as csv:
        t0 = time.perf_counter()
        cells = experiments.gap_cells(args.instances, args.nodes, args.t,
                                      args.p, deltas, args.seed0)
        elapsed = time.perf_counter() - t0
        csv.write("seed,delta,flow_greedy,flow_opt,cut_rounded,"
                  "cut_opt,certified\n")
        for row in cells:
            csv.write(",".join(str(x) for x in row) + "\n")

    print(f"{args.instances} instances ({args.nodes} nodes, T={args.t}, "
          f"p={args.p}), deltas {deltas}, {elapsed:.1f}s")
    print("delta  flow_gap_mean  flow_gap_max  certified  "
          "cut_gap_mean  cut_ratio_max")
    for row in experiments.gap_rows(cells, deltas):
        print(f"{row.delta:>5}  {row.flow_gap_mean:>13.4f}  "
              f"{row.flow_gap_max:>12.4f}  {row.certified:>4}/{row.cells:<4}  "
              f"{row.cut_gap_mean:>12.4f}  {row.cut_ratio_max:>13.2f}")
    return 0


def cmd_experiment_loss(args) -> int:
    """Loss rate versus copy spacing on a contact trace (by default a
    built-in star-core trace): the largest spacing at which every pair
    still routes the copies, then a failure-simulator sweep over (copies,
    spacing) and where its loss bottoms out, its rows in --csv."""
    ns, deltas = _parse_int_list(args.ns), _parse_int_list(args.deltas)
    text = (_read(args.trace) if args.trace
            else experiments.star_core_trace(args.deadline))
    g = discretize(parse_contact_trace(text), 0, args.deadline)
    ns, deltas, deadlines = check_sweep(
        g, ns, deltas, [range(args.deadline, args.deadline + 1)],
        args.packets, args.p, args.dmax)
    with _open_out(args.csv or os.devnull) as csv:
        print(f"trace window: {len(g.nodes)} nodes, {len(g.edges)} edges, "
              f"{g.contact_count} contacts, T={g.horizon}")
        t0 = time.perf_counter()
        plateau = experiments.routable_plateau(g, deltas, max(ns))
        print(f"largest spacing routing {max(ns)} copies everywhere: "
              f"{plateau} ({time.perf_counter() - t0:.1f}s)")
        t0 = time.perf_counter()
        reports = sweep(g, ns, deltas, deadlines, args.packets, args.p,
                        args.dmax, args.seed)
        print(f"sweep of {len(reports)} points x {args.packets} packets: "
              f"{time.perf_counter() - t0:.1f}s")
        csv.write(sweep_to_csv(reports))

    loss, bottoms = experiments.loss_summary(reports, ns, deltas)
    for n in ns:
        row = " ".join(f"{loss[n, delta]:.4f}" for delta in deltas)
        print(f"n={n}: {row}")
    for n in ns:
        print(f"n={n}: loss bottoms out at spacing {bottoms[n]} "
              f"({loss[n, bottoms[n]]:.4f})")
    return 0


def cmd_ingest(args) -> int:
    records = parse_contact_trace(_read(args.input))
    if args.t is not None:
        horizon = args.t
    else:
        last = max((r.start + max(r.duration, 1) - 1 for r in records),
                   default=0)
        horizon = max(last - args.window_start + 1, 1)
    g = discretize(records, args.window_start, horizon)
    _emit(g.dumps(), args.out)
    return 0


def cmd_stats(args) -> int:
    records = parse_contact_trace(_read(args.input))
    stats = contact_stats(records)
    durations = histogram_csv(stats)
    pairs = pairs_csv(stats)
    if args.out:
        _emit(durations, args.out + "_durations.csv")
        _emit(pairs, args.out + "_pairs.csv")
    else:
        _emit(durations + "\n" + pairs, None)
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
    between calls."""
    top = argparse.ArgumentParser(
        prog="tempocut",
        description="Worst-case survivability analysis of time-varying graphs")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, input_file=True, pretty=False):
        if input_file:
            p.add_argument("input", help="input file path")
        p.add_argument("-o", "--out", help="output file (default stdout)")
        if pretty:
            p.add_argument("--pretty", action="store_true",
                           help="indent the JSON report")

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
    add_common(p, pretty=True)
    p.add_argument("--delta", type=int, default=1, help="removal duration")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--exact", action="store_true",
                   help="run the exact oracles and print certificates")
    p.add_argument("--cap", type=_positive_int,
                   help="exact oracles' size cap (default 25,000 candidate "
                        "journeys, 2,000 removal heads)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("survivable",
                       help="verdict: does the pair ride out n removals")
    add_common(p, pretty=True)
    p.add_argument("--n", type=int, required=True,
                   help="simultaneous removal budget")
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--exact", action="store_true",
                   help="settle the verdict with the exact cut oracle")
    p.add_argument("--cap", type=_positive_int,
                   help="exact cut oracle's size cap (default 2,000 removal "
                        "heads)")
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

    p = sub.add_parser("experiment", help="the paper's experiments")
    esub = p.add_subparsers(dest="experiment", required=True)
    pg = esub.add_parser("gap", help="approximation gaps on random instances",
                         description=cmd_experiment_gap.__doc__)
    gap, loss = experiments.GAP, experiments.LOSS
    pg.add_argument("--instances", type=_positive_int, default=gap.instances)
    pg.add_argument("--nodes", type=int, default=gap.nodes)
    pg.add_argument("--t", type=int, default=gap.horizon,
                    help="horizon (slots)")
    pg.add_argument("--p", type=float, default=gap.p)
    pg.add_argument("--deltas", default=_listed(gap.deltas))
    pg.add_argument("--seed0", type=int, default=gap.seed0, help="first seed")
    pg.add_argument("--csv", help="write per-cell rows to this file")
    pg.set_defaults(func=cmd_experiment_gap)
    pl = esub.add_parser("loss", help="loss rate versus copy spacing",
                         description=cmd_experiment_loss.__doc__)
    pl.add_argument("--trace", help="contact trace CSV (default: built-in)")
    pl.add_argument("--deadline", type=int, default=loss.deadline)
    pl.add_argument("--ns", default=_listed(loss.ns))
    pl.add_argument("--deltas", default=_listed(loss.deltas))
    pl.add_argument("--packets", type=int, default=loss.packets)
    pl.add_argument("--p", type=float, default=loss.p)
    pl.add_argument("--dmax", type=int, default=loss.dmax)
    pl.add_argument("--seed", type=int, default=loss.seed)
    pl.add_argument("--csv", help="write the sweep rows to this file")
    pl.set_defaults(func=cmd_experiment_loss)

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
