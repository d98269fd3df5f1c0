"""Acceptance gate: one test per release criterion, tolerances pinned.

Each criterion is a separate test so the -v report reads as a pass/fail
line per item. Shared corpora are module-scoped fixtures; their build cost
is charged to the first criterion that uses them.
"""

import math
import os
import random
import subprocess
import sys
import time

import pytest

import tempocut
from tempocut import (DeltaRemoval, analyze_exact, discretize, djr_route,
                      gen_random_tvg, greedy_bound_certificate,
                      greedy_maxflow_delta, journeys_delivered,
                      parse_contact_trace, sweep)
from tempocut.tvg import Contact
from tempocut.traces import HEADER
from tempocut.verify import (suite_duality, suite_gapfamily, suite_menger1,
                             suite_reduction, suite_sandwich)
from test_mincut import _check_cover_is_optimal

DELTAS = (1, 2, 3, 5)


@pytest.fixture(scope="module")
def medium_corpus():
    """100 seeded instances, 10 nodes, horizon 12, density 0.5."""
    return [(gen_random_tvg(10, 12, 0.5, seed), "n1", "n10")
            for seed in range(100)]


@pytest.fixture(scope="module")
def medium_table(medium_corpus):
    """Greedy and exact flow plus rounded and exact cut, per (instance, delta)."""
    t0 = time.perf_counter()
    table = {}
    for i, (g, s, d) in enumerate(medium_corpus):
        for delta in DELTAS:
            res = analyze_exact(g, s, d, delta)
            table[i, delta] = (res.greedy.count, res.flow.count,
                               res.rounded.count, res.cut.count)
    return table, time.perf_counter() - t0


def _run_suite(suite, *args) -> float:
    """Run a verify suite, fail with its summary, return the seconds taken."""
    t0 = time.perf_counter()
    res = suite(*args)
    assert res.passed, res.summary()
    return time.perf_counter() - t0


def test_c01_flow_equals_cut_at_delta_one():
    elapsed = _run_suite(suite_menger1, 200, 0)
    assert elapsed < 60.0
    print(f"criterion 1: flow == cut at delta=1 on 200 instances "
          f"({elapsed:.1f}s)")


def test_c02_hard_family_certified_by_oracles():
    elapsed = _run_suite(suite_gapfamily)
    assert elapsed < 60.0
    print(f"criterion 2: gap family verified for k=1..3 ({elapsed:.2f}s)")


def test_c03_weak_duality():
    _run_suite(suite_duality, 200, DELTAS, 0)
    print("criterion 3: maxflow <= mincut on 200 instances x 4 deltas")


def test_c04_greedy_flow_quality(medium_corpus, medium_table):
    table, build_time = medium_table
    assert build_time < 300.0
    gaps = []
    for i, (g, s, d) in enumerate(medium_corpus):
        for delta in DELTAS:
            alg, opt, _, _ = table[i, delta]
            gaps.append((opt - alg) / max(alg, 1))
            assert greedy_bound_certificate(alg, opt, len(g.edges),
                                            g.horizon, delta)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap <= 0.15
    print(f"criterion 4: greedy flow mean gap {mean_gap:.4f} <= 0.15, "
          f"certificates 400/400 (table {build_time:.1f}s)")


def test_c05_rounded_cut_quality(medium_corpus, medium_table):
    table, _ = medium_table
    gaps = []
    for i in range(len(medium_corpus)):
        assert table[i, 1][2] == table[i, 1][3]  # rounding exact at delta=1
        for delta in DELTAS:
            _, _, alg, opt = table[i, delta]
            if opt == 0:
                assert alg == 0
            else:
                assert alg <= delta * opt
            if delta <= 3:
                gaps.append((alg - opt) / opt if opt else 0.0)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap <= 0.20
    print(f"criterion 5: cut exact at delta=1, ratio bound everywhere, "
          f"mean gap {mean_gap:.4f} <= 0.20")


def test_c06_rounding_sandwich():
    _run_suite(suite_sandwich, 200, (2, 3, 5), 0)
    print("criterion 6: cover size sandwich holds on 200 instances x 3 deltas")


def test_c07_greedy_cover_is_optimal():
    rng = random.Random(7)
    for _ in range(100):
        size = rng.randint(1, 12)
        cs = sorted({Contact(f"e{rng.randint(1, 3)}", rng.randint(1, 12))
                     for _ in range(size)})
        delta = rng.randint(1, 5)
        _check_cover_is_optimal(cs, delta)
    print("criterion 7: greedy cover is complete and matches brute force "
          "on 100 sets")


def test_c08_reduction_round_trip():
    elapsed = _run_suite(suite_reduction, 50, 0)
    assert elapsed < 60.0
    print(f"criterion 8: path packing preserved on 50 reductions "
          f"({elapsed:.1f}s)")


def test_c09_spaced_copies_survive_adversarial_failures():
    rng = random.Random(91)
    cases = 0
    seed = 0
    while cases < 50:
        seed += 1
        g = gen_random_tvg(10, 12, 0.5, 5000 + seed)
        delta = (1, 2, 3)[seed % 3]
        journeys = djr_route(g, "n1", "n10", 4, delta)
        n = len(journeys)
        if n < 2:
            continue
        # adversary: n-1 failures of duration delta, each anchored to cover
        # a chosen hop of a distinct copy
        failures = []
        for v in rng.sample(range(n), n - 1):
            hop = journeys[v].hops[rng.randrange(len(journeys[v].hops))]
            head = rng.randint(max(1, hop.slot - delta + 1), hop.slot)
            failures.append(DeltaRemoval(hop.edge, head, delta))
        ok, _ = journeys_delivered(g, journeys, failures)
        assert ok
        cases += 1
    print("criterion 9: 50/50 adversarial cases delivered")


def _anchor_trace():
    """Always-on core pair plus eight rim nodes that each flash up three
    times, fifteen seconds apart; spacing larger than fifteen slots cannot
    keep two copies."""
    lines = [HEADER, "c1,c2,0,60"]
    for i in range(1, 9):
        for base in (9, 24, 39):
            lines.append(f"x{i},c1,{base + i},1")
    return "\n".join(lines) + "\n"


def test_c10_loss_minimum_sits_at_routable_spacing():
    g = discretize(parse_contact_trace(_anchor_trace()), 0, 60)
    assert len(g.nodes) == 10

    pairs = [(u, v) for u in g.nodes for v in g.nodes if u != v]
    dstar = max(
        delta for delta in range(1, 21)
        if min(greedy_maxflow_delta(g, u, v, delta).count
               for u, v in pairs) >= 2)
    assert dstar == 15  # the rim return period fixes the routable plateau

    reports = sweep(g, [1, 2], list(range(1, 21)), [60], 2500, 0.05, 10,
                    seed=4242)
    loss = {(r.n, r.delta): r.loss_rate for r in reports}
    best = min(loss[2, delta] for delta in range(1, 21))
    stderr = math.sqrt(best * (1 - best) / 2500)
    assert loss[2, dstar] <= best + stderr
    assert loss[2, dstar] < loss[1, dstar]
    print(f"criterion 10: loss at spacing {dstar} is {loss[2, dstar]:.4f}, "
          f"min {best:.4f} + se {stderr:.4f}; single copy {loss[1, dstar]:.4f}")


def test_c11_byte_identical_reruns(tmp_path):
    # The CLI runs in tmp_path, where a relative PYTHONPATH entry (such as
    # the suite's PYTHONPATH=src) resolves to nothing; hand the subprocess
    # the absolute location of the package under test. PYTHONHASHSEED stays
    # unpinned so each run also checks independence from hash randomisation.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(tempocut.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "tempocut.cli"] + argv,
                              capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    graph_path = tmp_path / "g.json"
    gen = ["gen", "random", "--nodes", "8", "--t", "10", "--seed", "11"]
    first = run(gen)
    assert first == run(gen)
    graph_path.write_bytes(first)

    sim = ["simulate", str(graph_path), "--n", "1,2", "--delta", "1..4",
           "--packets", "300", "--p", "0.08", "--dmax", "3", "--seed", "5"]
    assert run(sim) == run(sim)

    ana = ["analyze", str(graph_path), "--src", "n1", "--dst", "n8",
           "--delta", "2", "--exact"]
    assert run(ana) == run(ana)
    print("criterion 11: gen, simulate, analyze byte-identical across runs")
