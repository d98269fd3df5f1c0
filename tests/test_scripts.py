"""The research scripts run end to end on small arguments, reject bad
input with a usage error (exit 2) and a sweep past the point budget with
exit 3, never with a traceback."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import run_loss_sweep

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
FIRST_STEP = {"run_loss_sweep": "routable_plateau",
              "run_gap_experiment": "gap_cells"}


@pytest.mark.parametrize("name, argv, header, rows", [
    ("run_loss_sweep", ["--deltas", "1..3", "--packets", "50"],
     "n,delta,deadline,p,d_max,seed,packets,loss_rate", 2 * 3),
    ("run_gap_experiment", ["--instances", "2", "--deltas", "1,2"],
     "seed,delta,flow_greedy,flow_opt,cut_rounded,cut_opt,certified", 2 * 2),
    ("run_gap_experiment", ["--instances", "2", "--deltas", "1..3"],
     "seed,delta,flow_greedy,flow_opt,cut_rounded,cut_opt,certified", 2 * 3),
])
def test_script_writes_its_csv(tmp_path, capsys, name, argv, header, rows):
    csv = tmp_path / "rows.csv"
    assert importlib.import_module(name).main(argv + ["--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--deltas", "0"], "delta must lie in [1, deadline]"),
    (["--deltas", "61"], "delta must lie in [1, deadline]"),
    (["--deltas", "5..2"], "empty range '5..2'"),
    (["--ns", "0"], "need at least one copy per packet"),
])
def test_loss_sweep_bad_list_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_loss_sweep.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("name, argv, message", [
    ("run_loss_sweep", ["--packets", "0"],
     "argument --packets: must be at least 1, got 0"),
    ("run_loss_sweep", ["--p", "2"], "p must be a probability"),
    ("run_loss_sweep", ["--dmax", "-1"], "d_max must be nonnegative"),
    ("run_loss_sweep", ["--trace", "{tmp}/missing.csv"],
     "[Errno 2] No such file or directory: '{tmp}/missing.csv'"),
    ("run_gap_experiment", ["--deltas", "0"], "delta must be positive"),
    ("run_gap_experiment", ["--deltas", "x"],
     "invalid literal for int() with base 10: 'x'"),
    ("run_gap_experiment", ["--deltas", "3..1"], "empty range '3..1'"),
    ("run_gap_experiment", ["--deltas", ""], "no values in ''"),
    ("run_gap_experiment", ["--instances", "0"],
     "argument --instances: must be at least 1, got 0"),
    ("run_gap_experiment", ["--instances", "-1"],
     "argument --instances: must be at least 1, got -1"),
    ("run_gap_experiment", ["--nodes", "1"], "need at least 2 nodes"),
    ("run_gap_experiment", ["--t", "0"], "argument --t: must be at least 1, got 0"),
    ("run_gap_experiment", ["--p", "2"], "p must be a probability"),
    ("run_gap_experiment", ["--instances", "1", "--csv", "{tmp}/no/x.csv"],
     "[Errno 2] No such file or directory: '{tmp}/no/x.csv'"),
    ("run_loss_sweep", ["--packets", "20", "--deltas", "1..3",
                        "--csv", "{tmp}/no/x.csv"],
     "[Errno 2] No such file or directory: '{tmp}/no/x.csv'"),
])
def test_script_bad_input_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                           name, argv, message):
    # every input, the --csv file included, is checked before the
    # experiment's first step runs
    script = importlib.import_module(name)
    ran = []
    monkeypatch.setattr(script, FIRST_STEP[name],
                        lambda *args: ran.append(args))
    argv = [a.format(tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out, ran) == (2, "", [])
    assert err.endswith(f"error: {message.format(tmp=tmp_path)}\n")


def _under_1gb(script, *argv):
    # Run in a child process under a 1 GB address-space limit: expanding
    # the range before checking it runs out of memory there, not here.
    child = ("import resource, runpy, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "sys.argv = sys.argv[1:]\n"
             "runpy.run_path(sys.argv[0], run_name='__main__')\n")
    src = SCRIPTS.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-c", child, str(SCRIPTS / script), *argv],
        capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("flag, text, message", [
    ("--deltas", "1..10000000000", "delta must lie in [1, deadline]"),
    ("--ns", "0..10000000000", "need at least one copy per packet"),
])
def test_loss_sweep_huge_range_fails_before_it_is_expanded(flag, text,
                                                           message):
    proc = _under_1gb("run_loss_sweep.py", flag, text, "--packets", "5")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f"run_loss_sweep.py: error: {message}\n")


def test_loss_sweep_huge_sweep_fails_before_it_is_expanded():
    # In bounds, a huge --ns range is stopped by the sweep's point budget.
    proc = _under_1gb("run_loss_sweep.py", "--ns", "1..10000000000",
                      "--packets", "5")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.endswith(
        "run_loss_sweep.py: error: sweep too large: 200000000000 points, "
        "more than 1000000\n")


def test_gap_experiment_huge_delta_range_fails_before_it_is_expanded():
    proc = _under_1gb("run_gap_experiment.py", "--deltas", "1..10000000000")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.endswith(
        "run_gap_experiment.py: error: sweep too large: 10000000000 points, "
        "more than 1000000\n")
