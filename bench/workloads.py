"""The benchmark's workloads: seeded inputs, the op each one times, and the
checks each op's output must pass.

Every op's output is pinned as a digest in pins.json, so a run on any seed
is checked byte for byte. analyze-exact runs a fixed instance set whose
order the seed shuffles: the exact oracles' costs are heavy-tailed (on
1,000 medium instances the median op took 79 ms and the slowest 17 s), so
corpora sampled per seed would differ in work by far more than a
regression bound. The sweep seeds of sim-trace come from the seed.

Ops reach tempocut only through its public API, looked up on the module at
call time so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import tempocut.cli
import tempocut.generators
import tempocut.simulate
import tempocut.traces
from tempocut.mincut import verify_cut
from tempocut.tvg import Contact, DeltaRemoval, Journey, interferes, is_valid_journey

# Instances are (nodes, horizon, generator seed, deltas); the graph is
# gen_random_tvg(nodes, horizon, 0.5, seed) and each delta is one op.
MEDIUM = tuple((10, 12, i, (2, 3)) for i in range(100))  # Tier-1's medium corpus
SIM_POOL = 12           # sweep seeds 0..SIM_POOL-1
SIM_PACKETS = 2500      # packets per sweep point, as in criterion 10
SIM_NS = (1, 2)
SIM_DELTAS = tuple(range(1, 21))
SIM_DEADLINE = 60
SIM_P = 0.05
SIM_DMAX = 10
SIM_HEADER = "n,delta,deadline,p,d_max,seed,packets,loss_rate"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One timed call into tempocut.

    `weight` is the number of ops the call carries (the packets of a sweep,
    else 1). `run` is the timed part. `check` runs untimed on run's result
    and the pinned digests and returns (failed ops, problems).
    """

    label: str
    weight: int
    run: Callable[[], object]
    check: Callable[[object, dict], tuple[int, list[str]]]


# -- analyze ---------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """tempocut.cli.main in process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tempocut.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def analyze_problems(g, s: str, d: str, delta: int,
                     code: int, out: str, err: str) -> list[str]:
    """Every invariant an `analyze --exact` report breaks; empty when it is
    sound."""
    if code != 0:
        return [f"exit {code}: {err.strip()}"]
    try:
        report = json.loads(out)
        journeys = [Journey(tuple(Contact(e, t) for e, t in hops))
                    for hops in report["maxflow"]["journeys"]]
        removals = [DeltaRemoval(r["edge"], r["head"], delta)
                    for r in report["mincut"]["removals"]]
        flow, cut = report["maxflow"]["count"], report["mincut"]["count"]
        cert = report["certificates"]
        rounded = cert["cut"]["rounded"]
        bound = Fraction(cert["cut"]["weight_lower_bound"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if not all(is_valid_journey(g, j, s, d) for j in journeys):
        problems.append("invalid journey")
    if any(interferes(a, b, delta) for a, b in itertools.combinations(journeys, 2)):
        problems.append("interfering journeys")
    if not verify_cut(g, removals, s, d):
        problems.append("removals leave the pair connected")
    if flow != len(journeys) or cut != len(removals):
        problems.append("count disagrees with the listed items")
    if flow > cut:
        problems.append(f"weak duality broken: flow {flow} > cut {cut}")
    if not cert["flow"]["greedy"] <= flow:
        problems.append("greedy flow above exact flow")
    if not cut <= rounded <= delta * cut:
        problems.append("rounded cut outside [exact, delta * exact]")
    if not rounded <= delta * bound:
        problems.append("rounded cut above delta * weight lower bound")
    if cert["flow"]["within_ratio"] is not True or \
            cert["cut"]["within_delta_factor"] is not True:
        problems.append("certificate false")
    return problems


def analyze_argv(path: Path, s: str, d: str, delta: int) -> list[str]:
    return ["analyze", str(path), "--src", s, "--dst", d, "--delta", str(delta),
            "--exact"]


def analyze_op(label: str, pin_key: tuple, g, path: Path, s: str, d: str,
               delta: int) -> Op:
    argv = analyze_argv(path, s, d, delta)

    def check(result, pins):
        problems = analyze_problems(g, s, d, delta, *result)
        pinned = lookup(pins, pin_key)
        if pinned is None:
            problems.append("no pinned digest")
        elif digest(result[1]) != pinned:
            problems.append("output differs from the pinned digest")
        return (1 if problems else 0), problems

    return Op(label, 1, lambda: run_cli(argv), check)


def lookup(pins: dict, key: tuple):
    node = pins
    for part in key:
        try:
            node = node[part]
        except (KeyError, IndexError, TypeError):
            return None
    return node


class AnalyzeExact:
    """`analyze --exact` over the medium corpus; a round is one pass, in an
    order the seed shuffles."""

    name = "analyze-exact"
    instances = MEDIUM
    round_size = sum(len(deltas) for *_, deltas in MEDIUM)

    def setup(self, seed: int, workdir: Path) -> list[Op]:
        ops = []
        for nodes, horizon, i, deltas in self.instances:
            rung = f"{nodes}x{horizon}"
            g = tempocut.generators.gen_random_tvg(nodes, horizon, 0.5, i)
            path = workdir / f"{rung}-{i}.json"
            path.write_text(g.dumps())
            for delta in deltas:
                ops.append(analyze_op(
                    f"{rung}-{i} delta={delta}", (self.name, rung, str(delta), i),
                    g, path, "n1", f"n{nodes}", delta))
        random.Random(seed).shuffle(ops)
        return ops


# -- simulate --------------------------------------------------------------


def anchor_trace() -> str:
    """The criterion-10 star-core trace: an always-on core pair c1-c2 and
    eight rim nodes that each meet c1 for one second, three times, fifteen
    seconds apart."""
    lines = ["node_a,node_b,start,duration", "c1,c2,0,60"]
    for i in range(1, 9):
        for base in (9, 24, 39):
            lines.append(f"x{i},c1,{base + i},1")
    return "\n".join(lines) + "\n"


def sweep_problems(csv: str, pinned: list | None) -> tuple[int, list[str]]:
    """Packets whose sweep row differs from its pin."""
    rows = csv.splitlines()
    points = len(SIM_NS)
    if pinned is None or len(pinned) != points:
        return points * SIM_PACKETS, ["no pinned digests"]
    if len(rows) != points + 1 or rows[0] != SIM_HEADER:
        return points * SIM_PACKETS, ["sweep CSV has the wrong shape"]
    bad = sum(digest(row) != pin for row, pin in zip(rows[1:], pinned))
    return bad * SIM_PACKETS, [f"{bad} sweep rows differ"] if bad else []


def row_sane(row: str) -> bool:
    """A sweep row fit to be pinned: all its packets, a loss rate in [0, 1]."""
    fields = row.split(",")
    return int(fields[6]) == SIM_PACKETS and 0.0 <= float(fields[7]) <= 1.0


def sweep_op(g, k: int, delta: int) -> Op:
    """One `sweep` call over every n at one delta. Plans depend on delta but
    not on n, so these calls together build the same plans as the full
    sweep, and each returns the full sweep's rows for its delta."""
    def run():
        reports = tempocut.simulate.sweep(g, list(SIM_NS), [delta],
                                          [SIM_DEADLINE], SIM_PACKETS, SIM_P,
                                          SIM_DMAX, k)
        return tempocut.simulate.sweep_to_csv(reports)

    def check(csv, pins):
        pinned = lookup(pins, ("sim-trace", k))
        i = SIM_DELTAS.index(delta) * len(SIM_NS)
        return sweep_problems(csv, pinned and pinned[i:i + len(SIM_NS)])

    return Op(f"sweep seed={k} delta={delta}", len(SIM_NS) * SIM_PACKETS, run,
              check)


class SimTrace:
    """The criterion-10 loss sweep on the ingested star-core trace, one call
    per delta; a round is one sweep."""

    name = "sim-trace"
    round_size = len(SIM_DELTAS)

    def setup(self, seed: int, workdir: Path) -> list[Op]:
        records = tempocut.traces.parse_contact_trace(anchor_trace())
        g = tempocut.traces.discretize(records, 0, SIM_DEADLINE)
        order = random.Random(seed).sample(range(SIM_POOL), SIM_POOL)
        return [sweep_op(g, k, delta) for k in order for delta in SIM_DELTAS]


WORKLOADS = {w.name: w for w in (AnalyzeExact(), SimTrace())}
