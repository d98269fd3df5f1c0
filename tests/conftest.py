import sys

import pytest

from tempocut import TimeVaryingGraph, linegraph


@pytest.fixture(autouse=True)
def _no_ambient_cap(monkeypatch):
    """Run every test with the CLI's default size caps.

    The CLI reads TEMPOCUT_CAP from the environment; one exported in the
    shell would otherwise change what the CLI tests see. Tests that check
    the variable set it themselves.
    """
    monkeypatch.delenv("TEMPOCUT_CAP", raising=False)


@pytest.fixture
def relay():
    """Two-hop relay with a shared first edge; small enough to check by hand.

    e1: s->a active at slots 1,2
    e2: a->d active at slots 2,3
    """
    return TimeVaryingGraph(
        ("s", "a", "d"),
        [("s", "a", (1, 2)), ("a", "d", (2, 3))],
        3,
    )


class LineGraphBuilt(AssertionError):
    """Raised by build_line_graph under the no_line_graph fixture."""


@pytest.fixture
def no_line_graph(monkeypatch):
    """Make build_line_graph raise LineGraphBuilt, on every tempocut module
    that binds it, so a test can show that a code path never builds the
    quadratic line graph."""
    original = linegraph.build_line_graph

    def refuse(g, s, d):
        raise LineGraphBuilt(f"build_line_graph({s!r}, {d!r})")

    for name, module in list(sys.modules.items()):
        if name == "tempocut" or name.startswith("tempocut."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    return LineGraphBuilt
