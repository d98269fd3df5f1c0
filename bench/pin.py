"""Pin the digests of every pool op's output into pins.json.

Run it on the commit whose outputs are the reference, one workload at a
time or all of them:

    python3 bench/pin.py [--workload NAME]

Each op must also pass its invariant checks, so a broken commit cannot be
pinned.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tempocut.generators  # noqa: E402
import workloads as wl  # noqa: E402
from run import environment  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"


def pin_analyze(workload) -> dict:
    """Digest tree rung -> delta -> generator seed of a workload's ops."""
    tree: dict = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for nodes, horizon, i, deltas in workload.instances:
            g = tempocut.generators.gen_random_tvg(nodes, horizon, 0.5, i)
            path = Path(tmp) / "g.json"
            path.write_text(g.dumps())
            s, d, rung = "n1", f"n{nodes}", f"{nodes}x{horizon}"
            for delta in deltas:
                code, out, err = wl.run_cli(wl.analyze_argv(path, s, d, delta))
                problems = wl.analyze_problems(g, s, d, delta, code, out, err)
                if problems:
                    sys.exit(f"{workload.name} {rung}-{i} delta={delta}: {problems}")
                tree.setdefault(rung, {}).setdefault(str(delta), {})[i] = wl.digest(out)
    return tree


def as_lists(tree):
    """Turn dicts keyed 0..n-1 into lists, the form workloads.lookup indexes."""
    if isinstance(tree, dict):
        if tree and all(isinstance(k, int) for k in tree):
            return [as_lists(tree[k]) for k in range(len(tree))]
        return {k: as_lists(v) for k, v in tree.items()}
    return tree


def pin_sim() -> list:
    records = tempocut.traces.parse_contact_trace(wl.anchor_trace())
    g = tempocut.traces.discretize(records, 0, wl.SIM_DEADLINE)
    out = []
    for k in range(wl.SIM_POOL):
        digests = []
        for delta in wl.SIM_DELTAS:
            rows = wl.sweep_op(g, k, delta).run().splitlines()
            if rows[0] != wl.SIM_HEADER or not all(wl.row_sane(r) for r in rows[1:]):
                sys.exit(f"sweep {k} delta={delta}: malformed CSV")
            digests += [wl.digest(r) for r in rows[1:]]
        out.append(digests)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    args = ap.parse_args()
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    names = [args.workload] if args.workload else sorted(wl.WORKLOADS)
    for name in names:
        if name == "sim-trace":
            pins[name] = pin_sim()
        else:
            pins[name] = as_lists(pin_analyze(wl.WORKLOADS[name]))
        pins.setdefault("commits", {})[name] = environment()["commit"]
        print(f"{name} pinned")
    PINS.write_text(json.dumps(pins, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
