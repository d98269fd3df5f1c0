"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/series.py --seeds 1-10 [--workload NAME ...] [--trace]
                            [--out FILE]

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median) against the metric's
bound from BENCHMARK.json. --out writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def summary(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        row = {"median": statistics.median(values), "values": values}
        if len(values) >= 2 and row["median"]:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=stats.spread(values))
        if name in bounds:
            row["bound"] = bounds[name]
        out[name] = row
    return out


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default every workload")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for name in names:
        runs = [run_once(name, seed, args.seconds, args.trace) for seed in seeds]
        report[name] = {"runs": runs, "summary": summary(runs, bounds)}
        bad = sum(not r["result"]["correct"] for r in runs)
        print(f"{name}: {len(runs)} runs, {bad} incorrect")
        for metric, row in report[name]["summary"].items():
            spread = row.get("spread")
            note = "" if spread is None else f" spread {spread:.4f}"
            if "bound" in row and spread is not None:
                note += f" (bound {row['bound']}, a third {row['bound'] / 3:.4f})"
            print(f"  {metric:<48} median {row['median']:.6g}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
