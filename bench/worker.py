"""One workload in one fresh process; started by run.py, never by hand.

    worker.py MODE WORKLOAD SEED SECONDS

MODE is `setup` (set up once and report the time), `run` (closed loop of
timed ops for SECONDS, then the output checks) or `trace` (one round of
ops untraced, then the same round traced). The last stdout line is a JSON
result.

On the shared 2-CPU host the baseline was taken on, CPU speed drifted by up
to a third over tens of seconds, so every time is reported twice: as
measured (`wall_*`) and scaled to a nominal host speed. A fixed pure-Python reference job runs, untimed, before each op and
after set-up; a time is scaled by REF_NOMINAL_S over the reference times
taken around it. The reference never calls tempocut, so a change to
tempocut moves the scaled times as it moves the measured ones.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import functools  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402  (imports tempocut)
from tracing import Totals, Tracer  # noqa: E402


REF_NOMINAL_S = 1.75e-3  # reference() at the speed the baseline host usually ran
REF_WINDOW = 2           # an op's reference: the median of refs i-2 .. i+2
SETUP_REFS = 15


def reference() -> float:
    """Seconds one fixed job of dict inserts on tuple keys, small lists and
    a keyed sort takes now: the kinds of work tempocut's own code does."""
    t = time.perf_counter()
    d = {}
    for i in range(3000):
        d[(i % 97, i)] = [i, str(i)]
    sorted(d, key=lambda k: (k[1] * 7919) % 1009)
    return time.perf_counter() - t


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each times[i] at the nominal host speed. refs[i] was taken just
    before op i, so refs i-2 .. i+2 surround it."""
    return [t * REF_NOMINAL_S
            / statistics.median(refs[max(i - REF_WINDOW, 0):i + REF_WINDOW + 1])
            for i, t in enumerate(times)]


@functools.cache
def pins() -> dict:
    return json.loads((BENCH / "pins.json").read_text())


def call(op) -> tuple[float, object, str | None]:
    """Run one op; returns (seconds, result, error). Never raises."""
    t = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception:
        result, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t, result, error


def check(done) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over (op, result, error) triples."""
    attempted = failed = 0
    problems: list[str] = []
    for op, result, error in done:
        attempted += op.weight
        if error is None:
            try:
                bad, why = op.check(result, pins())
            except Exception:  # a malformed output fails its op, not the run
                error = traceback.format_exc(limit=3)
        if error is not None:
            bad, why = op.weight, [error.strip().splitlines()[-1]]
        failed += bad
        if why and len(problems) < 5:
            problems.append(f"{op.label}: {'; '.join(why)}")
    return attempted, failed, problems


def timed(op, tracer=None):
    """(seconds, reference seconds, (op, result, error)) of one op, started
    on a clean heap as a fresh CLI process would be; the collection and the
    reference job before it are not timed."""
    gc.collect()
    ref = reference()
    if tracer is not None:
        tracer.op = op.label
    took, result, error = call(op)
    return took, ref, (op, result, error)


def timed_loop(ops, round_size: int, seconds: float) -> dict:
    """Closed loop: the next op starts when the previous one returned. Runs
    hold whole rounds and end at the round end nearest to `seconds`."""
    done, times, refs = [], [], []
    start = time.perf_counter()
    for op in itertools.cycle(ops):
        took, ref, outcome = timed(op)
        done.append(outcome)
        times.append(took)
        refs.append(ref)
        if len(done) % round_size == 0:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds - elapsed * round_size / len(done) / 2:
                break
    refs.append(reference())  # the reference after the last op
    attempted, failed, problems = check(done)
    weights = [op.weight for op, _, _ in done]
    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "calls": len(done), "host_speed": REF_NOMINAL_S / statistics.median(refs)}
    for prefix, per_call in (("", scaled(times, refs)), ("wall_", times)):
        latencies = [t / w for t, w in zip(per_call, weights)]
        out[prefix + "ops_per_s"] = attempted / sum(per_call)
        out[prefix + "op_p50_ms"] = statistics.median(latencies) * 1e3
        tail = stats.tail(latencies)
        if tail is not None:
            out[prefix + "op_p90_ms"] = stats.percentile(latencies, 900) * 1e3
            out[prefix + "tail"] = [tail[0], tail[1] * 1e3]
    return out


def one_pass(ops, tracer=None) -> tuple[float, list]:
    """(busy seconds at the nominal host speed, outcomes) of running each op
    once."""
    times, refs, done = [], [], []
    for op in ops:
        took, ref, outcome = timed(op, tracer)
        times.append(took)
        refs.append(ref)
        done.append(outcome)
    refs.append(reference())
    return sum(scaled(times, refs)), done


# Per-layer metrics: name -> (source, key). Sources: "calls", "self_s",
# "raised" and "counts:<count>" of the traced ops; "setup_s" of set-up.
LAYER_METRICS = {
    "cli.main.self_s": ("self_s", "cli.main"),
    "tvg.load_tvg.self_s": ("self_s", "tvg.load_tvg"),
    "tvg.reachable.calls": ("calls", "tvg.reachable"),
    "tvg.reachable.self_s": ("self_s", "tvg.reachable"),
    "tvg.removal_footprint.calls": ("calls", "tvg.removal_footprint"),
    "tvg.removal_footprint.self_s": ("self_s", "tvg.removal_footprint"),
    "tvg.removal_footprint.contacts": ("counts:contacts", "tvg.removal_footprint"),
    "tvg.interfering_contacts.calls": ("calls", "tvg.interfering_contacts"),
    "tvg.interfering_contacts.self_s": ("self_s", "tvg.interfering_contacts"),
    "linegraph.build_line_graph.calls": ("calls", "linegraph.build_line_graph"),
    "linegraph.build_line_graph.self_s": ("self_s", "linegraph.build_line_graph"),
    "linegraph.build_line_graph.arcs": ("counts:arcs", "linegraph.build_line_graph"),
    "linegraph.build_line_graph.nodes": ("counts:nodes", "linegraph.build_line_graph"),
    "linegraph.node_disjoint_maxflow.calls": ("calls", "linegraph.node_disjoint_maxflow"),
    "linegraph.node_disjoint_maxflow.self_s": ("self_s", "linegraph.node_disjoint_maxflow"),
    "linegraph.min_hop_path.calls": ("calls", "linegraph.min_hop_path"),
    "linegraph.min_hop_path.self_s": ("self_s", "linegraph.min_hop_path"),
    "maxflow.greedy_maxflow_delta.calls": ("calls", "maxflow.greedy_maxflow_delta"),
    "maxflow.greedy_maxflow_delta.self_s": ("self_s", "maxflow.greedy_maxflow_delta"),
    "maxflow.greedy_maxflow_delta.journeys": ("counts:journeys", "maxflow.greedy_maxflow_delta"),
    "maxflow.exact_maxflow_delta.calls": ("calls", "maxflow.exact_maxflow_delta"),
    "maxflow.exact_maxflow_delta.self_s": ("self_s", "maxflow.exact_maxflow_delta"),
    "maxflow.exact_maxflow_delta.raised": ("raised", "maxflow.exact_maxflow_delta"),
    "mincut.set_weights.self_s": ("self_s", "mincut.set_weights"),
    "mincut.weighted_mincut_1.self_s": ("self_s", "mincut.weighted_mincut_1"),
    "mincut.delta_cover.self_s": ("self_s", "mincut.delta_cover"),
    "mincut.verify_cut.calls": ("calls", "mincut.verify_cut"),
    "mincut.verify_cut.self_s": ("self_s", "mincut.verify_cut"),
    "mincut.minweight_mincut_delta.calls": ("calls", "mincut.minweight_mincut_delta"),
    "mincut.exact_mincut_delta.calls": ("calls", "mincut.exact_mincut_delta"),
    "mincut.exact_mincut_delta.self_s": ("self_s", "mincut.exact_mincut_delta"),
    "simulate.run_simulation.self_s": ("self_s", "simulate.run_simulation"),
    "simulate.run_simulation.packets": ("counts:packets", "simulate.run_simulation"),
    "simulate.journeys_delivered.calls": ("calls", "simulate.journeys_delivered"),
    "simulate.journeys_delivered.self_s": ("self_s", "simulate.journeys_delivered"),
    "traces.parse_contact_trace.self_s": ("setup_s", "traces.parse_contact_trace"),
    "traces.discretize.self_s": ("setup_s", "traces.discretize"),
    "generators.gen_random_tvg.self_s": ("setup_s", "generators.gen_random_tvg"),
}


def layer_metrics(setup: Totals, ops: Totals) -> dict[str, float]:
    out = {}
    for metric, (source, fn) in LAYER_METRICS.items():
        if source == "setup_s":
            out[metric] = setup.self_s.get(fn, 0.0)
        elif source.startswith("counts:"):
            out[metric] = ops.counts.get(fn, {}).get(source[7:], 0)
        else:
            out[metric] = getattr(ops, source).get(fn, 0)
    base = ops.shortcut_base
    out["maxflow.exact_maxflow_delta.shortcut_base"] = base
    out["maxflow.exact_maxflow_delta.shortcut_ratio"] = \
        ops.shortcut_hits / base if base else 0.0
    packets = out["simulate.run_simulation.packets"]
    out["simulate.run_simulation.plan_hit_ratio"] = \
        1 - ops.planned / packets if packets else 0.0
    return out


def traced(workload, seed: int, workdir: Path) -> dict:
    """One round untraced, then the same round traced."""
    tracer = Tracer()
    with tracer:
        ops = workload.setup(seed, workdir)
    setup_totals, tracer.totals = tracer.totals, Totals()
    round_ = ops[:workload.round_size]
    plain_s, _ = one_pass(round_)
    with tracer:
        traced_s, done = one_pass(round_, tracer)
    attempted, failed, problems = check(done)
    metrics = layer_metrics(setup_totals, tracer.totals)
    metrics["trace.ops"] = attempted
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "calls": len(done), "ops_per_s": attempted / plain_s,
            "traced_ops_per_s": attempted / traced_s, "layers": metrics}


def main() -> None:
    mode, name, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    workload = workloads.WORKLOADS[name]
    workdir = BENCH / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if mode == "trace":
            out = traced(workload, seed, workdir)
        else:
            ops = workload.setup(seed, workdir)
            wall = time.perf_counter() - T0
            ref = statistics.median(reference() for _ in range(SETUP_REFS))
            out = {"setup_s": wall * REF_NOMINAL_S / ref, "wall_setup_s": wall}
            if mode == "run":
                out.update(timed_loop(ops, workload.round_size, seconds))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
