import sys

import pytest

from tempocut import TimeVaryingGraph, linegraph


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
def replace_everywhere(monkeypatch):
    """replace(original, new): bind new in place of original on every
    tempocut module that binds it, so a test can see every call."""
    def replace(original, new):
        for name, module in list(sys.modules.items()):
            if name == "tempocut" or name.startswith("tempocut."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, new)
    return replace


@pytest.fixture
def no_line_graph(replace_everywhere):
    """Make build_line_graph raise LineGraphBuilt everywhere, so a test can
    show that a code path never builds the quadratic line graph."""
    def refuse(g, s, d):
        raise LineGraphBuilt(f"build_line_graph({s!r}, {d!r})")

    replace_everywhere(linegraph.build_line_graph, refuse)
    return LineGraphBuilt
