"""tempocut's benchmark: one workload, one seed, one result.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json and workloads.json): analyze-exact and
sim-trace. Each runs in fresh processes started one at a time, with a
fixed hash seed and no TEMPOCUT_CAP, importing tempocut from this
checkout's src/.

--trace 0 (default): set-up is timed in several fresh processes, then one
process runs a closed loop of ops for S seconds and checks every output.
--trace 1: one process runs a fixed set of ops untraced and then traced,
and reports per-layer totals and the tracing overhead.

Human-readable lines come first; the last stdout line is a JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Extra fresh processes that only set up, half before the timed run and half
# after it: the host's CPU speed drifts, and one burst of probes sees one state.
SETUP_PROBES = 12
WORKER_TIMEOUT = 170


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("TEMPOCUT_CAP", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(mode: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed),
         str(seconds)],
        cwd=ROOT, env=hermetic_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker {mode} {workload} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tempocut").glob("*.py")):
        src.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def metric_units(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[key]}


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    """Times are scaled to the nominal host speed (see worker.py); the
    measured wall times are printed beside them."""
    def probes() -> list[dict]:
        return [worker("setup", workload, seed, seconds)
                for _ in range(SETUP_PROBES // 2)]

    setups = probes()
    run = worker("run", workload, seed, seconds)
    setups += [run] + probes()
    for key in ("setup_s", "wall_setup_s"):
        run[key] = statistics.median(s[key] for s in setups)
    run["failed_frac"] = run["failed"] / run["attempted"]
    print(f"{workload} seed={seed}: {run['calls']} calls carrying "
          f"{run['attempted']} ops; host speed {run['host_speed']:.3f} of "
          f"nominal; set-up samples "
          + ", ".join(f"{s['setup_s']:.3f}" for s in setups))
    print(f"  {'metric':<12} {'scaled':>12} {'wall':>12}")
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s",
                 "peak_rss_mb", "failed_frac"):
        if name not in run:
            print(f"  {name:<12} {'n/a':>12}  (fewer than 100 timed ops)")
        elif "wall_" + name in run:
            print(f"  {name:<12} {run[name]:>12.4f} {run['wall_' + name]:>12.4f}")
        else:
            print(f"  {name:<12} {run[name]:>12.4f}")
    if "tail" in run:
        print(f"  highest percentile with 10 samples beyond it: "
              f"p{run['tail'][0]:g} = {run['tail'][1]:.3f} ms of {run['calls']}")
    return run


def traced(workload: str, seed: int, seconds: int) -> dict:
    run = worker("trace", workload, seed, seconds)
    layers = run["layers"]
    ops = layers["trace.ops"]
    print(f"{workload} seed={seed} traced: {ops} ops, untraced "
          f"{run['ops_per_s']:.3f} ops/s, traced {run['traced_ops_per_s']:.3f} "
          f"ops/s, overhead {layers['trace.overhead_pct']:.1f}%")
    for name, value in layers.items():
        print(f"  {name:<48} {value:>14.6g}  ({value / ops:.4g}/op)")
    return run


def main() -> None:
    ap = argparse.ArgumentParser(description="tempocut benchmark, one workload")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec()["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tempocut" / "__init__.py").is_file():
        sys.exit(f"no tempocut sources under {ROOT / 'src'}")

    print("env " + json.dumps(environment()))
    if args.trace:
        run = traced(args.workload, args.seed, args.seconds)
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        run = end_to_end(args.workload, args.seed, args.seconds)
        metrics = {name: {"value": run[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    for problem in run["problems"]:
        print(f"  failed: {problem}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
