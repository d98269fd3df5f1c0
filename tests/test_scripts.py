"""The research scripts run end to end on small arguments and reject bad
lists with a usage error."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, header, rows", [
    ("run_loss_sweep", ["--deltas", "1..3", "--packets", "50"],
     "n,delta,deadline,p,d_max,seed,packets,loss_rate", 2 * 3),
    ("run_gap_experiment", ["--instances", "2", "--deltas", "1,2"],
     "seed,delta,flow_greedy,flow_opt,cut_rounded,cut_opt,certified", 2 * 2),
])
def test_script_writes_its_csv(tmp_path, capsys, monkeypatch, name, argv,
                               header, rows):
    csv = tmp_path / "rows.csv"
    assert _load(name, monkeypatch).main(argv + ["--csv", str(csv)]) == 0
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
def test_loss_sweep_bad_list_is_a_usage_error(capsys, monkeypatch, argv,
                                              message):
    with pytest.raises(SystemExit) as exc:
        _load("run_loss_sweep", monkeypatch).main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def _loss_sweep_under_1gb(flag, text):
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
        [sys.executable, "-c", child, str(SCRIPTS / "run_loss_sweep.py"),
         flag, text, "--packets", "5"],
        capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("flag, text, message", [
    ("--deltas", "1..10000000000", "delta must lie in [1, deadline]"),
    ("--ns", "0..10000000000", "need at least one copy per packet"),
])
def test_loss_sweep_huge_range_fails_before_it_is_expanded(flag, text,
                                                           message):
    proc = _loss_sweep_under_1gb(flag, text)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f"run_loss_sweep.py: error: {message}\n")


def test_loss_sweep_huge_sweep_fails_before_it_is_expanded():
    # In bounds, a huge --ns range is stopped by the sweep's point budget.
    proc = _loss_sweep_under_1gb("--ns", "1..10000000000")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.endswith(
        "run_loss_sweep.py: error: sweep too large: 200000000000 points, "
        "more than 1000000\n")
