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
from tempocut import (DeltaRemoval, discretize, gen_random_tvg,
                      greedy_maxflow_delta, journeys_delivered,
                      parse_contact_trace, sweep)
from tempocut.experiments import (GAP, LOSS, gap_cells, gap_rows,
                                  loss_summary, routable_plateau,
                                  star_core_trace)
from tempocut.tvg import Contact
from tempocut.verify import (suite_duality, suite_gapfamily, suite_menger1,
                             suite_reduction, suite_sandwich)
from test_mincut import _check_cover_is_optimal


@pytest.fixture(scope="module")
def medium_cells():
    """`tempocut experiment gap`'s cells and per-delta rows with its default
    parameters, the medium corpus: greedy and exact flow, rounded and exact
    cut."""
    t0 = time.perf_counter()
    cells = gap_cells(*GAP)
    return cells, gap_rows(cells, GAP.deltas), time.perf_counter() - t0


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
    _run_suite(suite_duality, 200, GAP.deltas, 0)
    print("criterion 3: maxflow <= mincut on 200 instances x 4 deltas")


def test_c04_greedy_flow_quality(medium_cells):
    cells, rows, build_time = medium_cells
    assert build_time < 300.0
    # every delta row covers every instance, so the mean of the row means
    # is the mean over the cells
    mean_gap = sum(r.flow_gap_mean for r in rows) / len(rows)
    assert mean_gap <= 0.15
    assert all(r.certified == r.cells for r in rows)
    print(f"criterion 4: greedy flow mean gap {mean_gap:.4f} <= 0.15, "
          f"certificates {sum(r.certified for r in rows)}/{len(cells)} "
          f"(table {build_time:.1f}s)")


def test_c05_rounded_cut_quality(medium_cells):
    cells, rows, _ = medium_cells
    for _, delta, _, _, alg, opt, _ in cells:
        if delta == 1:
            assert alg == opt  # rounding exact at delta=1
        if opt == 0:
            assert alg == 0
        else:
            assert alg <= delta * opt
    gaps = [r.cut_gap_mean for r in rows if r.delta <= 3]
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
        journeys = greedy_maxflow_delta(g, "n1", "n10", delta).journeys[:4]
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


def test_c10_loss_minimum_sits_at_routable_spacing():
    g = discretize(parse_contact_trace(star_core_trace(LOSS.deadline)), 0,
                   LOSS.deadline)
    assert len(g.nodes) == 10
    one, two = LOSS.ns

    dstar = routable_plateau(g, LOSS.deltas, two)
    assert dstar == 15  # the rim return period fixes the routable plateau

    reports = sweep(g, LOSS.ns, LOSS.deltas, [LOSS.deadline], LOSS.packets,
                    LOSS.p, LOSS.dmax, LOSS.seed)
    loss, bottoms = loss_summary(reports, LOSS.ns, LOSS.deltas)
    best = loss[two, bottoms[two]]
    stderr = math.sqrt(best * (1 - best) / LOSS.packets)
    assert loss[two, dstar] <= best + stderr
    assert loss[two, dstar] < loss[one, dstar]
    print(f"criterion 10: loss at spacing {dstar} is {loss[two, dstar]:.4f}, "
          f"min {best:.4f} + se {stderr:.4f}; single copy "
          f"{loss[one, dstar]:.4f}")


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
