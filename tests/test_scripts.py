"""The research scripts run end to end on small arguments."""

import importlib.util
import pathlib
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
