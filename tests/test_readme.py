"""README's Library example runs, each of its `expression  # value`
lines holds, every command of its Command line block parses, the size
budgets its exit codes and the exact oracles' default caps name are the
code's, and every `module.NAME` it names in code exists."""

import argparse
import ast
import importlib
import pathlib
import pkgutil
import re

import tempocut
from tempocut import generators, maxflow, mincut, simulate, traces
from tempocut.cli import _build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_holds():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```",
                      README.read_text(), re.M | re.S).group(1)
    lines = block.splitlines()
    scope: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        rest = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if isinstance(node, ast.Expr) and rest.startswith("#"):
            assert eval(code, scope) == eval(rest[1:], scope), code
            checked += 1
        else:
            exec(code, scope)
    assert checked == 7


def test_readme_command_lines_parse():
    block = re.search(r"^## Command line\n\n```\n(.*?)^```",
                      README.read_text(), re.M | re.S).group(1)
    commands = [line.split("#")[0].split() for line in block.splitlines()]
    assert len(commands) == 11
    for argv in commands:
        assert argv[0] == "tempocut", argv
        _build_parser().parse_args(argv[1:])


def test_readme_exit_code_budgets_are_the_codes():
    para = re.search(r"Exit codes:(.*?)\n\n", README.read_text(), re.S).group(1)
    found = re.findall(r"(\d[\d,]*) (points|packet records|walk steps|"
                       r"contacts|edges|slot draws)\b", " ".join(para.split()))
    assert {(unit, int(n.replace(",", ""))) for n, unit in found} == {
        ("points", simulate.MAX_SWEEP_POINTS),
        ("packet records", simulate.MAX_SWEEP_RECORDS),
        ("walk steps", simulate.MAX_WALK_STEPS),
        ("contacts", traces.MAX_WINDOW_CONTACTS),
        ("edges", traces.MAX_WINDOW_CONTACTS),
        ("slot draws", generators.MAX_SLOT_DRAWS)}


def _caps(text):
    found = re.findall(r"(\d[\d,]*) (removal heads|candidate journeys|"
                       r"candidate paths)\b", " ".join(text.split()))
    return {(unit, int(n.replace(",", ""))) for n, unit in found}


def test_readme_cap_defaults_are_the_codes():
    """README's cap paragraph, every `candidate paths` it names and both
    parsers' --cap help state the code's caps."""
    heads = ("removal heads", mincut.DEFAULT_HEAD_CAP)
    journeys = ("candidate journeys", maxflow.DEFAULT_JOURNEY_CAP)
    text = README.read_text()
    para = re.search(r"The exact oracles cap(.*?)\n\n", text, re.S).group(1)
    assert _caps(para) == {heads, journeys}
    paths = re.findall(r"\d[\d,]* candidate\s+paths", text)
    assert len(paths) == 2
    assert _caps(" ".join(paths)) == {
        ("candidate paths", generators.MAX_BLEDP_PATHS)}
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, caps in (("analyze", {heads, journeys}),
                          ("survivable", {heads})):
        cap, = (a for a in commands[command]._actions
                if a.option_strings == ["--cap"])
        assert _caps(cap.help) == caps, command


def test_readme_code_references_resolve():
    modules = {"tempocut": tempocut} | {
        m.name: importlib.import_module(f"tempocut.{m.name}")
        for m in pkgutil.iter_modules(tempocut.__path__)}
    refs = {(module, name) for module, name in re.findall(
        r"`(\w+)\.(\w+)", README.read_text()) if module in modules}
    assert len(refs) >= 8
    assert sorted(f"{module}.{name}" for module, name in refs
                  if not hasattr(modules[module], name)) == []
