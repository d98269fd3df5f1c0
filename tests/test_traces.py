"""Trace ingestion: CSV parsing, windowed discretization, summary stats."""

import pytest
from hypothesis import given, settings, strategies as st

from tempocut import (ContactRecord, InstanceTooLargeError, contact_stats,
                      discretize, parse_contact_trace, validate_graph)
from tempocut import traces
from tempocut.traces import HEADER, histogram_csv, pairs_csv

records = st.lists(
    st.builds(ContactRecord,
              node_a=st.sampled_from(["a", "b", "c"]),
              node_b=st.sampled_from(["a", "b", "c"]),
              start=st.integers(0, 40),
              duration=st.integers(0, 15)),
    max_size=12)

TRACE = """node_a,node_b,start,duration

a,b,5,3
b,c,0,1
a,c,50,2
"""


def _active(g, u, v):
    for e in g.edges:
        if (e.src, e.dst) == (u, v):
            return g.active[e.eid]
    return ()


def test_parse_happy_path():
    recs = parse_contact_trace(TRACE)
    assert recs == [ContactRecord("a", "b", 5, 3),
                    ContactRecord("b", "c", 0, 1),
                    ContactRecord("a", "c", 50, 2)]


def test_parse_requires_header():
    with pytest.raises(ValueError, match="must start with header"):
        parse_contact_trace("a,b,5,3\n")
    with pytest.raises(ValueError, match="must start with header"):
        parse_contact_trace("")


def test_parse_collects_row_errors_with_line_numbers():
    bad = HEADER + "\na,b,5\nx,y,-1,2\na,,3,1\nq,r,z,9\n"
    with pytest.raises(ValueError) as err:
        parse_contact_trace(bad)
    msg = str(err.value)
    assert msg.startswith("malformed trace: ")
    assert "line 2: expected 4 fields" in msg
    assert "line 3: start and duration must be nonnegative" in msg
    assert "line 4: empty node identifier" in msg
    assert "line 5: start and duration must be integers" in msg


def test_parse_rejects_a_self_contact_by_line():
    with pytest.raises(ValueError,
                       match="line 3: node 'b' in contact with itself"):
        parse_contact_trace(HEADER + "\na,b,5,3\nb,b,0,1\n")


def test_discretize_links_no_node_to_itself():
    g = discretize([ContactRecord("a", "a", 0, 3),
                    ContactRecord("a", "b", 1, 1)], 0, 5)
    assert g.nodes == ("a", "b")
    assert [(e.src, e.dst) for e in g.edges] == [("a", "b"), ("b", "a")]
    assert validate_graph(g).ok


def test_discretize_window_and_directions():
    recs = parse_contact_trace(TRACE)
    g = discretize(recs, 3, 10)  # seconds 3..12 become slots 1..10
    assert g.horizon == 10
    assert set(g.nodes) == {"a", "b", "c"}
    # (a,b,5,3) covers seconds 5,6,7 -> slots 3,4,5, both directions
    assert _active(g, "a", "b") == (3, 4, 5)
    assert _active(g, "b", "a") == (3, 4, 5)
    # (b,c,0,1) and (a,c,50,2) fall outside the window: no edge at all
    assert _active(g, "b", "c") == ()
    assert _active(g, "a", "c") == ()
    assert validate_graph(g).ok


def test_discretize_clips_to_horizon():
    g = discretize([ContactRecord("a", "b", 0, 100)], 0, 5)
    assert _active(g, "a", "b") == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match="horizon"):
        discretize([], 0, 0)


def test_zero_duration_contact_has_no_slots():
    g = discretize([ContactRecord("a", "b", 2, 0)], 0, 5)
    assert set(g.nodes) == {"a", "b"}
    assert len(g.edges) == 0


@given(records, st.integers(0, 10), st.integers(1, 30))
@settings(max_examples=60)
def test_discretize_always_yields_valid_graph(recs, window_start, horizon):
    g = discretize(recs, window_start, horizon)
    assert validate_graph(g).ok
    for e in g.edges:
        assert all(1 <= t <= horizon for t in g.active[e.eid])


def test_discretize_counts_the_window_before_filling_it(monkeypatch):
    # In [0, 9]: a-b covers seconds 0-2 and 2-3, b-c second 9 of 9-13.
    # The budget counts 3 + 2 + 1 seconds both ways; the graph has the
    # overlap once.
    recs = parse_contact_trace(HEADER + "\na,b,0,3\na,b,2,2\nb,c,9,5\n")
    monkeypatch.setattr(traces, "MAX_WINDOW_CONTACTS", 12)
    assert discretize(recs, 0, 10).contact_count == 10
    monkeypatch.setattr(traces, "MAX_WINDOW_CONTACTS", 11)
    with pytest.raises(InstanceTooLargeError, match="^trace window too "
                       "large: 12 contacts, more than 11$"):
        discretize(recs, 0, 10)


def test_stats_and_csv():
    recs = parse_contact_trace(TRACE)
    stats = contact_stats(recs)
    assert stats.histogram == {3: 1, 1: 1, 2: 1}
    assert stats.total == 3
    assert stats.mass_below(3) == pytest.approx(2 / 3)
    assert stats.mass_below(1) == 0.0
    assert stats.pair_intervals[("a", "c")] == [(50, 2)]
    assert histogram_csv(stats) == "duration,count\n1,1\n2,1\n3,1\n"
    assert pairs_csv(stats) == (
        "node_a,node_b,start,duration\n"
        "a,b,5,3\na,c,50,2\nb,c,0,1\n")


def test_stats_canonicalizes_pair_order():
    stats = contact_stats([ContactRecord("z", "a", 1, 1),
                           ContactRecord("a", "z", 0, 2)])
    assert list(stats.pair_intervals) == [("a", "z")]
    assert stats.pair_intervals[("a", "z")] == [(0, 2), (1, 1)]


def test_mass_below_empty():
    assert contact_stats([]).mass_below(10) == 0.0
