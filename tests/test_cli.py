"""Command-line front end: flags, formats, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import tempocut
from tempocut import (CutResult, InstanceTooLargeError, TimeVaryingGraph,
                      check_analysis, gen_counterexample, gen_random_tvg)
from tempocut import experiments, generators, mincut, verify
from tempocut.cli import _build_parser, _parse_int_list, main
from tempocut.simulate import _expand_sweep

TRACE = """node_a,node_b,start,duration
a,b,5,3
b,c,0,1
a,c,50,2
"""


@pytest.fixture
def relay_file(tmp_path, relay):
    path = tmp_path / "relay.json"
    path.write_text(relay.dumps())
    return str(path)


@pytest.fixture
def m0_file(tmp_path):
    """A medium instance whose exact cut searches at delta 3 (greedy 5,
    rounded 6) over 200 contacts, so a head cap of 50 trips it."""
    path = tmp_path / "m0.json"
    path.write_text(gen_random_tvg(10, 12, 0.5, 0).dumps())
    return str(path)


@pytest.fixture
def g4_file(tmp_path):
    path = tmp_path / "g4.json"
    path.write_text(gen_random_tvg(4, 5, 0.5, 1).dumps())
    return str(path)


def test_parse_int_list():
    assert _parse_int_list("1,3..5,9") == [range(1, 2), range(3, 6),
                                           range(9, 10)]
    assert _parse_int_list("2") == [range(2, 3)]
    with pytest.raises(ValueError, match="empty range"):
        _parse_int_list("5..2")


def test_expand_sweep_stays_within_its_point_budget(monkeypatch):
    axes = _parse_int_list("1..2,4"), _parse_int_list("1,3..4")
    # 9 points of 3 packets each make 27 records, counted after the points
    for points, records, packets, refusal in [
            (9, 9, 1, None), (8, 9, 1, "9 points, more than 8"),
            (9, 27, 3, None), (8, 27, 3, "9 points, more than 8"),
            (9, 26, 3, "27 packet records, more than 26")]:
        monkeypatch.setattr(tempocut.simulate, "MAX_SWEEP_POINTS", points)
        monkeypatch.setattr(tempocut.simulate, "MAX_SWEEP_RECORDS", records)
        if refusal is None:
            assert _expand_sweep(*axes, packets=packets) == [[1, 2, 4],
                                                             [1, 3, 4]]
        else:
            with pytest.raises(InstanceTooLargeError,
                               match=f"^sweep too large: {refusal}$"):
                _expand_sweep(*axes, packets=packets)


def test_gen_random_roundtrips(capsys):
    assert main(["gen", "random", "--nodes", "6", "--t", "5", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    g = TimeVaryingGraph.loads(first)
    assert len(g.nodes) == 6 and g.horizon == 5
    main(["gen", "random", "--nodes", "6", "--t", "5", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_gen_counterexample_announces_terminals(capsys):
    assert main(["gen", "counterexample", "--k", "2"]) == 0
    out, err = capsys.readouterr()
    expected, s, d = gen_counterexample(2)
    assert TimeVaryingGraph.loads(out) == expected
    assert f"source {s} destination {d}" in err


def test_gen_bledp_expand(tmp_path, capsys):
    wd_path = tmp_path / "wd.json"
    wd_path.write_text(json.dumps({
        "nodes": ["v1", "v2"],
        "arcs": [{"from": "v1", "to": "v2", "len": 3}],
        "s": "v1", "d": "v2", "L": 3}))
    assert main(["gen", "bledp-expand", str(wd_path)]) == 0
    g = TimeVaryingGraph.loads(capsys.readouterr().out)
    assert g.horizon == 3 and len(g.edges) == 3


def test_analyze_greedy_default(relay_file, capsys):
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["maxflow"]["count"] == 2
    assert report["maxflow"]["exact"] is False
    assert report["mincut"]["count"] == 2
    assert "certificates" not in report


def test_analyze_exact_with_certificates(relay, relay_file, capsys):
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d",
                 "--delta", "2", "--exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["maxflow"] == {
        "delta": 2, "count": 1, "exact": True,
        "journeys": [[["e1", 1], ["e2", 2]]]}
    assert report["mincut"]["count"] == 1
    assert report["certificates"]["cut"]["weight_lower_bound"] == "1"
    assert check_analysis(relay, "s", "d", 2, report) == []


def test_analyze_pretty_and_output_file(relay_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d",
                 "--pretty", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith("{\n  ")
    json.loads(text)


@pytest.mark.parametrize("command", [["gen", "random"], ["simulate", "GRAPH"],
                                     ["ingest", "TRACE"], ["stats", "TRACE"]],
                         ids=["gen", "simulate", "ingest", "stats"])
def test_pretty_is_only_a_flag_of_the_json_reports(tmp_path, g4_file, capsys,
                                                   command):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE)
    files = {"GRAPH": g4_file, "TRACE": str(trace)}
    argv = [files.get(a, a) for a in command] + ["--pretty"]
    code, out, err = _exit(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --pretty\n")


def test_analyze_rejects_bad_delta(relay_file, capsys):
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d",
                 "--delta", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_file(capsys):
    assert main(["analyze", "no-such-file.json",
                 "--src", "s", "--dst", "d"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cap_flag_trips_size_guard(m0_file, capsys):
    assert main(["analyze", m0_file, "--src", "n1", "--dst", "n10",
                 "--delta", "3", "--exact", "--cap", "50"]) == 3
    err = capsys.readouterr().err
    assert "too large" in err and "more than 50 removal heads" in err


@pytest.mark.parametrize("cap", ["0", "-3", "many"])
def test_cap_below_one_is_a_usage_error(relay_file, capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", relay_file, "--src", "s", "--dst", "d",
              "--delta", "2", "--exact", "--cap", cap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--cap" in err and "Traceback" not in err


def test_analyze_exact_output_is_pinned(tmp_path, capsys):
    # Digests over exit code, stdout and stderr of `analyze --exact`:
    # medium instances at delta 1, 2, 3 and 5, c11's graph, the gap ladder,
    # and --cap runs tripping the journey cap (m13) and neither (m0 and m5
    # at delta 2, whose greedy meets the exact cut, so no journey is
    # enumerated; m0 at delta 1, whose greedy meets the rounded cut, so no
    # removal head is searched). The delta = 1 runs have their own digest:
    # their journeys are the time-expanded unit flow's decomposition.
    # Every answer passes check_analysis on the bytes printed.
    graphs = {}

    def saved(name, g):
        path = tmp_path / f"{name}.json"
        path.write_text(g.dumps())
        graphs[str(path)] = g
        return str(path)

    medium = [saved(f"m{seed}", gen_random_tvg(10, 12, 0.5, seed))
              for seed in range(20)]
    cases = [(m, "n1", "n10", delta, []) for m in medium
             for delta in (1, 2, 3, 5)]
    cases.append((saved("c11", gen_random_tvg(8, 10, 0.5, 11)), "n1", "n8", 2, []))
    for k in (1, 2, 3):
        g, s, d = gen_counterexample(k)
        cases += [(saved(f"k{k}", g), s, d, delta, []) for delta in (2, 3)]
    cases += [(medium[0], "n1", "n10", 2, ["--cap", "300"]),
              (medium[0], "n1", "n10", 1, ["--cap", "50"]),
              (medium[5], "n1", "n10", 2, ["--cap", "300"]),
              (saved("m13", gen_random_tvg(10, 12, 0.5, 13)), "n1", "n10", 2,
               ["--cap", "300"])]
    unit, rest = hashlib.sha256(), hashlib.sha256()
    for path, s, d, delta, extra in cases:
        code = main(["analyze", path, "--src", s, "--dst", d,
                     "--delta", str(delta), "--exact"] + extra)
        out, err = capsys.readouterr()
        (unit if delta == 1 else rest).update(
            json.dumps([code, out, err]).encode() + b"\n")
        assert code != 0 or check_analysis(graphs[path], s, d, delta,
                                           json.loads(out)) == []
    assert rest.hexdigest() == \
        "861f0f304d971e69d8ff7b1f6babe90b403076746dcfc0f5a620b0e9e8f20111"
    assert unit.hexdigest() == \
        "6dc9c7d0600853778d2f30409c5108f589cb0034efc27d19e3f1e9f241673563"


def test_survivable_output_is_pinned(tmp_path, capsys):
    # Digests over exit code, stdout and stderr of `survivable`, with and
    # without --exact: medium instances at delta 1, 2, 3 and 5 and n 0..3, 6
    # and 9 (n 6 and 9 reach every verdict, both modes), and --cap 50 runs.
    # Under --exact only m0 at delta 3 trips the head cap; the other three
    # (m0 at delta 1, m13 at delta 1 and 3) have a greedy count or weight
    # bound that meets the rounded cut, so they answer without a search,
    # and have their own digest.
    medium = []
    for seed in range(20):
        path = tmp_path / f"m{seed}.json"
        path.write_text(gen_random_tvg(10, 12, 0.5, seed).dumps())
        medium.append(str(path))
    cases = [(m, delta, n, extra) for m in medium for delta in (1, 2, 3, 5)
             for n in (0, 1, 2, 3, 6, 9) for extra in ([], ["--exact"])]
    cases += [(medium[seed], delta, 2, exact + ["--cap", "50"])
              for seed in (0, 13) for delta in (1, 3)
              for exact in ([], ["--exact"])]
    answered = {(medium[0], 1), (medium[13], 1), (medium[13], 3)}
    capped, rest = hashlib.sha256(), hashlib.sha256()
    for path, delta, n, extra in cases:
        code = main(["survivable", path, "--src", "n1", "--dst", "n10",
                     "--delta", str(delta), "--n", str(n)] + extra)
        out, err = capsys.readouterr()
        split = "--exact" in extra and "--cap" in extra and \
            (path, delta) in answered
        (capped if split else rest).update(
            json.dumps([code, out, err]).encode() + b"\n")
    assert rest.hexdigest() == \
        "8ebb9a42b8ade6ec025c42a6af451b4ef9eb12ed9168f0e56bf5c9c62d61e83e"
    assert capped.hexdigest() == \
        "8a0eb58d3b74ce228b51955c0fbc6624d7aaa360c6149e8b1eebfbdc51face5c"


def test_journey_cap_binds_only_when_the_flow_enumerates(tmp_path, capsys):
    # m0 at delta 2: the greedy already packs as many journeys as the exact
    # cut removes, so no journey is enumerated and --cap 300 changes nothing.
    # m13 at delta 2: greedy 8 < cut 9, and its 1,017 candidate journeys trip
    # --cap 300; --cap 100 trips the cut's removal-head budget, checked first.
    def analyze(seed, extra):
        path = tmp_path / f"m{seed}.json"
        path.write_text(gen_random_tvg(10, 12, 0.5, seed).dumps())
        code = main(["analyze", str(path), "--src", "n1", "--dst", "n10",
                     "--delta", "2", "--exact"] + extra)
        out, err = capsys.readouterr()
        return code, out, err

    uncapped = analyze(0, [])
    assert uncapped[0] == 0
    assert analyze(0, ["--cap", "300"]) == uncapped
    code, out, err = analyze(13, ["--cap", "300"])
    assert (code, out) == (3, "")
    assert "more than 300 candidate journeys" in err
    code, out, err = analyze(13, ["--cap", "100"])
    assert (code, out) == (3, "")
    assert "more than 100 removal heads" in err


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once per process; no argument or usage error
    # of one call may reach the next
    path = tmp_path / "m13.json"
    path.write_text(gen_random_tvg(10, 12, 0.5, 13).dumps())
    argv = ["analyze", str(path), "--src", "n1", "--dst", "n10",
            "--delta", "2", "--exact"]

    def run(args):
        code = main(args)
        out, err = capsys.readouterr()
        return code, out, err

    _build_parser.cache_clear()
    fresh = run(argv)
    assert fresh[0] == 0 and fresh[2] == ""
    code, out, err = run(argv + ["--cap", "300"])
    assert (code, out) == (3, "") and "more than 300 candidate journeys" in err
    assert run(argv) == fresh
    for bad in (argv + ["--cap", "0"], argv[:-3] + ["--delta", "two"],
                ["analyze", str(path), "--src", "n1"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tempocut analyze")
        assert "Traceback" not in err
        assert run(argv) == fresh
    assert _build_parser.cache_info().misses == 1


@pytest.mark.parametrize("value", ["50", "abc"])
def test_cap_is_read_from_argv_alone(m0_file, capsys, monkeypatch, value):
    # the CLI reads no environment variable: TEMPOCUT_CAP changes neither
    # the exit code nor a byte of output
    argv = ["analyze", m0_file, "--src", "n1", "--dst", "n10",
            "--delta", "3", "--exact"]
    monkeypatch.delenv("TEMPOCUT_CAP", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr()
    monkeypatch.setenv("TEMPOCUT_CAP", value)
    assert main(argv) == 0
    assert capsys.readouterr() == unset


def test_survivable_exact_honours_the_cap(m0_file, capsys):
    # the exact cut searches 200 removal heads on m0 at delta 3, so a cap
    # of 50 trips it
    argv = ["survivable", m0_file, "--src", "n1", "--dst", "n10", "--n", "1",
            "--delta", "3", "--exact"]
    assert main(argv + ["--cap", "200"]) == 0
    capsys.readouterr()
    assert main(argv + ["--cap", "50"]) == 3
    assert "more than 50 removal heads" in capsys.readouterr().err
    # the verdict without --exact reads no cap
    assert main(argv[:-1] + ["--cap", "50"]) == 0
    capsys.readouterr()


def _usage_error(capsys, argv):
    """The stderr of main(argv), which exits 2 with no stdout or traceback."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", [
    ["analyze"], ["analyze", "--delta", "2", "--exact"],
    ["survivable", "--n", "1"], ["survivable", "--n", "1", "--exact"]])
@pytest.mark.parametrize("src,message", [("zz", "unknown node 'zz'"),
                                         ("d", "must differ")])
def test_bad_source_is_a_usage_error(relay_file, capsys, command, src,
                                     message):
    assert message in _usage_error(capsys, [command[0], relay_file, "--src",
                                            src, "--dst", "d", *command[1:]])


_EDGE = {"from": "a", "to": "b", "active": [1]}


@pytest.mark.parametrize("doc", [
    {"T": 3, "nodes": 5, "edges": []},
    {"T": 3, "nodes": "ab", "edges": [_EDGE]},
    {"T": 3, "nodes": ["a", "b"], "edges": {}},
    {"T": None, "nodes": ["a", "b"], "edges": [_EDGE]},
    {"T": 3.5, "nodes": ["a", "b"], "edges": [_EDGE]},
    {"T": True, "nodes": ["a", "b"], "edges": [_EDGE]},
    {"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "active": None}]},
    {"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "active": [1.7]}]},
    {"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "active": "1"}]},
    {"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "active": [True]}]},
    {"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "active": ["1"]}]},
    {"T": 3, "nodes": [[1], {}, 2, None],
     "edges": [{"from": [1], "to": 2, "active": [1]}]},
    {"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "to": None}]},
    # raw text: nested deeper than json.loads recurses
    "[" * 200_000 + "]" * 200_000,
], ids=["nodes-int", "nodes-str", "edges-dict", "T-null", "T-float",
        "T-bool", "active-null", "slot-float", "active-str", "slot-bool",
        "slot-str", "names-nonstr", "endpoint-null", "nested-deep"])
@pytest.mark.parametrize("command", [
    ["analyze", "--src", "a", "--dst", "b"],
    ["survivable", "--src", "a", "--dst", "b", "--n", "1"],
    ["simulate"]], ids=["analyze", "survivable", "simulate"])
def test_wrongly_typed_graph_document_is_a_usage_error(tmp_path, capsys, doc,
                                                       command):
    path = tmp_path / "g.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    err = _usage_error(capsys, [command[0], str(path), *command[1:]])
    assert "malformed graph document" in err


@pytest.mark.parametrize("doc,message", [
    ({"T": 3, "nodes": ["a", "b", "a"], "edges": [_EDGE]},
     "node 'a' listed more than once"),
    ({"T": 3, "nodes": ["a", "b"],
      "edges": [_EDGE, {**_EDGE, "to": "a"}]}, "e2: self-loop 'a'->'a'"),
    ({"T": 0, "nodes": ["a", "b"], "edges": [_EDGE]},
     "invalid graph: horizon must be a positive integer, got 0"),
    ({"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "from": "z"}]},
     "e1: endpoint 'z' not in node set"),
    ({"T": 3, "nodes": ["a", "b"],
      "edges": [_EDGE, {"from": "b", "to": "a", "active": [0, 2, 4]}]},
     "error: invalid graph: e2: active slot 0 outside 1..3; "
     "e2: active slot 4 outside 1..3\n"),
], ids=["repeated-node", "self-loop", "T-zero", "unknown-endpoint",
        "slots-out-of-range"])
@pytest.mark.parametrize("command", [
    ["analyze", "--src", "a", "--dst", "b"],
    ["survivable", "--src", "a", "--dst", "b", "--n", "1"],
    ["simulate"]], ids=["analyze", "survivable", "simulate"])
def test_invalid_graph_document_is_a_usage_error(tmp_path, capsys, doc,
                                                 message, command):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    err = _usage_error(capsys, [command[0], str(path), *command[1:]])
    assert "invalid graph" in err and message in err


def test_self_contact_trace_and_self_loop_arc_are_usage_errors(tmp_path,
                                                               capsys):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(TRACE + "c,c,4,2\n")
    wd_path = tmp_path / "wd.json"
    wd_path.write_text(json.dumps({
        "nodes": ["v1", "v2"],
        "arcs": [{"from": "v1", "to": "v2", "len": 1},
                 {"from": "v2", "to": "v2", "len": 2}],
        "s": "v1", "d": "v2", "L": 3}))
    for argv, message in (
            (["ingest", str(trace_path)], "line 5: node 'c' in contact with itself"),
            (["gen", "bledp-expand", str(wd_path)], "arc v2->v2 is a self-loop")):
        assert message in _usage_error(capsys, argv)


def _wd_text(**fields):
    """A weighted-digraph document v1 -> v2, with `fields` replaced."""
    return json.dumps({"nodes": ["v1", "v2"],
                       "arcs": [{"from": "v1", "to": "v2", "len": 1}],
                       "s": "v1", "d": "v2", "L": 2, **fields})


@pytest.mark.parametrize("text,message", [
    (_wd_text(arcs=[{"from": "v1", "to": "v2", "len": 1.9}]),
     "L and len integers"),
    (_wd_text(arcs=[{"from": "v1", "to": "v2", "len": True}]),
     "L and len integers"),
    (_wd_text(arcs=[{"from": "v1", "to": "v2", "len": "2"}]),
     "L and len integers"),
    (_wd_text().replace('"len": 1', '"len": 1e400'), "L and len integers"),
    (_wd_text(L=2.5), "L and len integers"),
    (_wd_text(nodes=[7, "v2"], s="7",
              arcs=[{"from": "7", "to": "v2", "len": 1}]), "node names"),
    (_wd_text(nodes="ab", s="a", d="b",
              arcs=[{"from": "a", "to": "b", "len": 1}]),
     "nodes and arcs must be lists"),
    (_wd_text(nodes=["v1", "v2", "v1"]), "node 'v1' listed more than once"),
    (_wd_text().replace(', "L": 2', ""), "invalid weighted digraph: 'L'"),
    (_wd_text(arcs=[{"from": "v1", "to": "v9", "len": 1}]),
     "arc v1->v9 has endpoint outside node set"),
    (_wd_text(arcs=[{"from": "v1", "to": "v2", "len": 0}]),
     "nonpositive length 0"),
    (_wd_text(L=0), "bound must be positive"),
    (_wd_text(nodes=[]).replace("[]", "[" * 50_000 + "]" * 50_000),
     "maximum recursion depth exceeded"),
], ids=["len-float", "len-bool", "len-string", "len-overflow", "bound-float",
        "node-int", "nodes-string", "repeated-node", "bound-missing",
        "unknown-endpoint", "len-zero", "bound-zero", "nodes-nested-deep"])
def test_invalid_weighted_digraph_is_a_usage_error(tmp_path, capsys, text,
                                                   message):
    path = tmp_path / "wd.json"
    path.write_text(text)
    err = _usage_error(capsys, ["gen", "bledp-expand", str(path)])
    assert "invalid weighted digraph" in err and message in err


def test_survivable(relay_file, capsys):
    assert main(["survivable", relay_file, "--src", "s", "--dst", "d",
                 "--n", "1", "--exact"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {"n": 1, "delta": 1, "verdict": "survivable",
                       "lower": 2, "upper": 2, "exact": True}


def test_simulate_csv(tmp_path, capsys, monkeypatch):
    graph_path = tmp_path / "g.json"
    assert main(["gen", "random", "--nodes", "6", "--t", "10", "--seed", "4",
                 "-o", str(graph_path)]) == 0
    argv = ["simulate", str(graph_path), "--n", "1,2", "--delta", "1..3",
            "--packets", "30", "--p", "0.1", "--dmax", "2", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().split("\n")
    assert lines[0] == "n,delta,deadline,p,d_max,seed,packets,loss_rate"
    assert len(lines) == 7
    main(argv)
    assert capsys.readouterr().out == first
    # 2 copies x 3 spacings x 1 deadline: a budget of 6 points runs them
    monkeypatch.setattr(tempocut.simulate, "MAX_SWEEP_POINTS", 6)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    monkeypatch.setattr(tempocut.simulate, "MAX_SWEEP_POINTS", 5)
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", "error: sweep too large: 6 points, more than 5\n")
    # the 6 points share one walk a packet: 30 packets x 18 edges x (1 +
    # 0.1 x 10 slots) steps
    monkeypatch.setattr(tempocut.simulate, "MAX_SWEEP_POINTS", 6)
    monkeypatch.setattr(tempocut.simulate, "MAX_WALK_STEPS", 1080)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    monkeypatch.setattr(tempocut.simulate, "MAX_WALK_STEPS", 1079)
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", "error: sweep too large: 1080 walk steps, more than 1079\n")


def _under_1gb(*argv):
    """`python -m tempocut.cli argv` in a child process under a 60-s timeout
    and a 1 GB address-space limit: expanding a range or filling a trace
    window before checking its size runs out of memory there, not here.
    Returns its exit code, stdout and stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tempocut.__file__)))
    child = ("import resource, runpy\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "runpy.run_module('tempocut.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("doc,count", [
    ({"T": 1, "nodes": [], "edges": []}, 0),  # ingest of a header-only trace
    ({"T": 3, "nodes": ["a"], "edges": []}, 1),
], ids=["no-node", "one-node"])
def test_simulate_on_a_graph_without_a_pair_is_a_usage_error(tmp_path, doc,
                                                             count):
    # Run in a child process under a timeout: a pair draw on fewer than two
    # nodes would never end.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = _under_1gb("simulate", str(path), "--packets", "5")
    assert (code, out) == (2, "")
    assert f"at least two nodes to draw packet pairs from, got {count}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, code, err", [
    # copies have no upper bound, so the --n range starts out of bounds
    ("simulate {g4} --delta 1..10000000000 --packets 5", 2,
     "delta must lie in [1, deadline]"),
    ("simulate {g4} --ddl 1..10000000000 --packets 5", 2,
     "deadline must lie in [1, graph horizon]"),
    ("simulate {g4} --n 0..10000000000 --packets 5", 2,
     "need at least one copy per packet"),
    # in bounds, a huge range is stopped by the sweep's point budget
    ("simulate {g4} --n 1..10000000000 --packets 5", 3,
     "sweep too large: 10000000000 points, more than 1000000"),
    # within the point budget, by its packet-record budget
    ("simulate {g4} --n 1..100000 --packets 2000", 3,
     "sweep too large: 200000000 packet records, more than 10000000"),
    # without --t the horizon fits the trace: 10^10 seconds, both directions
    ("ingest {trace}", 3,
     "trace window too large: 20000000000 contacts, more than 10000000"),
    ("gen random --nodes 3 --t 3000000000", 3,
     "random graph too large: more than 10000000 contacts"),
    ("experiment gap --instances 1 --nodes 3 --t 3000000000", 3,
     "random graph too large: more than 10000000 contacts"),
    ("gen random --nodes 300000000 --t 1", 3,
     "random graph too large: 1199999994 edges, more than 10000000"),
    ("experiment gap --instances 1 --nodes 300000000 --t 1", 3,
     "random graph too large: 1199999994 edges, more than 10000000"),
    ("experiment gap --deltas 1..10000000000", 3,
     "sweep too large: 10000000000 points, more than 1000000"),
    ("experiment loss --deltas 1..10000000000 --packets 5", 2,
     "delta must lie in [1, deadline]"),
    ("experiment loss --ns 0..10000000000 --packets 5", 2,
     "need at least one copy per packet"),
    ("experiment loss --ns 1..10000000000 --packets 5", 3,
     "sweep too large: 200000000000 points, more than 1000000"),
    ("experiment loss --ns 1..100 --packets 100000", 3,
     "sweep too large: 200000000 packet records, more than 10000000"),
    # the built-in trace's hub pair is up until the deadline
    ("experiment loss --deadline 10000000000", 3,
     "trace window too large: 20000000048 contacts, more than 10000000"),
    # few contacts, but a failure walk over a long window: 5 packets x 1
    # edge (4 on the trace) x (1 + 0.05 x 10^10 slots) steps
    ("simulate {sparse} --packets 5", 3,
     "sweep too large: 2500000005 walk steps, more than 200000000"),
    ("experiment loss --trace {brief} --ns 1 --deltas 1 --packets 5 "
     "--deadline 10000000000", 3,
     "sweep too large: 10000000020 walk steps, more than 200000000"),
    # no contact to trip the contact budget: 34 edges x 10^11 slots
    ("gen random --nodes 10 --t 100000000000 --p 0", 3,
     "random graph too large: 3400000000000 slot draws, more than "
     "1000000000"),
    ("experiment gap --instances 1 --nodes 10 --t 100000000000 --p 0", 3,
     "random graph too large: 3400000000000 slot draws, more than "
     "1000000000"),
    # one unit arc at L = 10^9: 10^9 contacts, counted before any is built
    ("gen bledp-expand {wd}", 3,
     "expanded graph too large: 1000000000 contacts, more than 10000000"),
], ids=["simulate-delta-range", "simulate-ddl-range", "simulate-n-range",
        "simulate-points", "simulate-records", "ingest-window",
        "gen-random-contacts", "experiment-gap-contacts", "gen-random-edges",
        "experiment-gap-edges", "experiment-gap-points",
        "experiment-loss-deltas-range", "experiment-loss-ns-range",
        "experiment-loss-points", "experiment-loss-records",
        "experiment-loss-window", "simulate-walk", "experiment-loss-walk",
        "gen-random-draws", "experiment-gap-draws", "gen-bledp-expand"])
def test_huge_input_fails_before_it_fills_memory(tmp_path, g4_file, command,
                                                 code, err):
    trace = tmp_path / "trace.csv"
    trace.write_text("node_a,node_b,start,duration\na,b,0,10000000000\n")
    brief = tmp_path / "brief.csv"
    brief.write_text("node_a,node_b,start,duration\na,b,0,5\nb,c,3,5\n")
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"T": 10_000_000_000, "nodes": ["a", "b"],
                                  "edges": [{"from": "a", "to": "b",
                                             "active": [1]}]}))
    wd = tmp_path / "wd.json"
    wd.write_text(_wd_text(L=1_000_000_000))
    argv = command.format(g4=g4_file, trace=trace, brief=brief,
                          sparse=sparse, wd=wd).split()
    assert _under_1gb(*argv) == (code, "", f"error: {err}\n")


def test_simulate_zero_deadline_names_the_deadline(g4_file, capsys):
    assert _usage_error(capsys, ["simulate", g4_file, "--ddl", "0",
                                 "--packets", "5"]) == \
        "error: deadline must lie in [1, graph horizon]\n"


def test_simulate_bad_last_delta_fails_before_any_point_runs(g4_file, capsys,
                                                             monkeypatch):
    planned = []
    monkeypatch.setattr(tempocut.simulate, "greedy_maxflow_delta",
                        lambda *args: planned.append(args))
    assert _usage_error(capsys, ["simulate", g4_file, "--delta", "1,2,99",
                                 "--packets", "5"]) == \
        "error: delta must lie in [1, deadline]\n"
    assert planned == []


def test_ingest_fits_horizon(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(TRACE)
    assert main(["ingest", str(trace_path)]) == 0
    g = TimeVaryingGraph.loads(capsys.readouterr().out)
    assert g.horizon == 52  # last covered second is 51, window starts at 0
    assert main(["ingest", str(trace_path), "--t", "10",
                 "--window-start", "3"]) == 0
    g = TimeVaryingGraph.loads(capsys.readouterr().out)
    assert g.horizon == 10


def test_stats_to_files(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(TRACE)
    prefix = str(tmp_path / "report")
    assert main(["stats", str(trace_path), "-o", prefix]) == 0
    durations = (tmp_path / "report_durations.csv").read_text()
    pairs = (tmp_path / "report_pairs.csv").read_text()
    assert durations.startswith("duration,count\n")
    assert pairs.startswith("node_a,node_b,start,duration\n")
    assert main(["stats", str(trace_path)]) == 0
    assert capsys.readouterr().out == durations + "\n" + pairs


# Zürich and München as UTF-8 bytes, which the C locale's codec rejects
_UTF8_TRACE = ("node_a,node_b,start,duration\nZürich,b,0,3\nb,München,2,2\n"
               "München,Zürich,4,1\n")
_UTF8_DIGRAPH = json.dumps({"nodes": ["Zürich", "b"],
                            "arcs": [{"from": "Zürich", "to": "b", "len": 2}],
                            "s": "Zürich", "d": "b", "L": 2},
                           ensure_ascii=False)


@pytest.mark.parametrize("argv", [
    "ingest trace.csv", "ingest trace.csv -o out.json", "stats trace.csv",
    "stats trace.csv -o out",
    "experiment loss --trace trace.csv --deadline 6 --ns 1 --deltas 1 "
    "--packets 5 --csv out.csv",
    "gen bledp-expand digraph.json", "gen bledp-expand digraph.json -o g.json",
])
def test_files_are_utf8_whatever_the_locale(tmp_path, argv):
    """`python -m tempocut.cli argv` in an ASCII locale (C, without UTF-8
    mode) and in UTF-8 mode, on UTF-8 input: same exit 0, same stdout bytes
    (elapsed times aside), same files."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tempocut.__file__)))
    runs = []
    for utf8_mode in ("0", "1"):
        cwd = tmp_path / utf8_mode
        cwd.mkdir()
        (cwd / "trace.csv").write_bytes(_UTF8_TRACE.encode())
        (cwd / "digraph.json").write_bytes(_UTF8_DIGRAPH.encode())
        proc = subprocess.run(
            [sys.executable, "-m", "tempocut.cli", *argv.split()], cwd=cwd,
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C",
                 "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": utf8_mode})
        runs.append((proc.returncode, proc.stderr,
                     re.sub(rb"\d+\.\ds", b"", proc.stdout),
                     {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}))
    assert runs[0][:2] == (0, b"")
    assert runs[0] == runs[1]


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "gapfamily"]) == 0
    assert capsys.readouterr().out == (
        "gapfamily: 6 checks, all ok\nall suites pass\n")


def test_verify_engines_suite(capsys):
    assert main(["verify", "--suite", "engines"]) == 0
    assert capsys.readouterr().out == (
        "engines: 480 checks, all ok\nall suites pass\n")


def _no_cut(g, s, d, delta):
    return CutResult((), delta, exact=True, weight_lower_bound=Fraction(0))


def _inexact_cut(g, s, d, delta):
    return CutResult((), delta, exact=False, weight_lower_bound=Fraction(0))


@pytest.mark.parametrize("suite, args, module, name, fake, summary", [
    ("menger1", (3,), verify, "exact_mincut_delta", _no_cut,
     "menger1: 3/3 FAILED: seed 0: flow 9 != cut 0; seed 1: flow 11 != cut 0; "
     "seed 2: flow 6 != cut 0"),
    ("duality", (2, (2,)), verify, "exact_mincut_delta", _no_cut,
     "duality: 2/2 FAILED: seed 0 delta 2: flow 7 > cut 0; "
     "seed 1 delta 2: flow 6 > cut 0"),
    ("sandwich", (3, (2, 3)), verify, "sandwich_check", lambda *args: False,
     "sandwich: 6/6 FAILED: seed 300 delta 2: sandwich violated; "
     "seed 300 delta 3: sandwich violated; seed 301 delta 2: sandwich "
     "violated; seed 301 delta 3: sandwich violated; seed 302 delta 2: "
     "sandwich violated (+1 more)"),
    ("reduction", (2,), generators, "bledp_exact", lambda wd: -1,
     "reduction: 2/2 FAILED: seed 900: packing -1 vs expansion 0; "
     "seed 901: packing -1 vs expansion 0"),
    ("gapfamily", (), verify, "exact_mincut_delta", _no_cut,
     "gapfamily: 6/6 FAILED: k=1 delta=2: flow 1, cut 0, wanted (1, 1); "
     "k=1 delta=3: flow 1, cut 0, wanted (1, 1); k=2 delta=2: flow 1, cut 0, "
     "wanted (1, 2); k=2 delta=3: flow 1, cut 0, wanted (1, 2); k=3 delta=2: "
     "flow 1, cut 0, wanted (1, 3) (+1 more)"),
    ("menger1", (2,), verify, "exact_mincut_delta", _inexact_cut,
     "menger1: 2/2 FAILED: seed 0: answer not exact; "
     "seed 1: answer not exact"),
    ("duality", (2, (2,)), verify, "node_disjoint_maxflow",
     lambda lg: SimpleNamespace(value=0),
     "duality: 2/2 FAILED: seed 0 delta 2: cut 7 > unit max flow 0; "
     "seed 1 delta 2: cut 6 > unit max flow 0"),
])
def test_verify_suite_reports_its_failures(monkeypatch, suite, args, module,
                                           name, fake, summary):
    monkeypatch.setattr(module, name, fake)
    res = verify.SUITES[suite](*args)
    assert not res.passed
    assert res.summary() == summary


def test_verify_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(verify, "sandwich_check", lambda *args: False)
    assert main(["verify", "--suite", "gapfamily,sandwich"]) == 4
    out = capsys.readouterr().out
    assert out.startswith("gapfamily: 6 checks, all ok\n"
                          "sandwich: 180/180 FAILED: seed 300 delta 2: "
                          "sandwich violated; ")
    assert out.endswith(" (+175 more)\n")


def test_internal_error_exits_4(relay_file, capsys, monkeypatch):
    """A broken invariant inside a command is exit 4 with no traceback."""
    monkeypatch.setattr(mincut, "verify_cut", lambda *args: False)
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d"]) == 4
    assert capsys.readouterr() == (
        "", "internal error: rounded cut failed to disconnect; this is a bug\n")


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def _exit(capsys, argv):
    """main(argv)'s exit code, stdout and stderr, argparse's exits too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("name, argv, header, rows", [
    ("loss", ["--deltas", "1..3", "--packets", "50"],
     "n,delta,deadline,p,d_max,seed,packets,loss_rate", 2 * 3),
    ("gap", ["--instances", "2", "--deltas", "1,2"],
     "seed,delta,flow_greedy,flow_opt,cut_rounded,cut_opt,certified", 2 * 2),
    ("gap", ["--instances", "2", "--deltas", "1..3"],
     "seed,delta,flow_greedy,flow_opt,cut_rounded,cut_opt,certified", 2 * 3),
])
def test_experiment_writes_its_csv(tmp_path, capsys, name, argv, header,
                                   rows):
    csv = tmp_path / "rows.csv"
    assert main(["experiment", name, *argv, "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert capsys.readouterr().out


def test_experiment_output_is_pinned(tmp_path, capsys):
    # sha256 of the CSV and of stdout, each elapsed time masked; the same
    # digests as the research scripts these subcommands replaced
    pins = {
        ("gap", "--instances", "3", "--deltas", "1..3"): (
            "59bb5f1e76afaeaef5230aef1314649f81b768d323d2d9bbbde92fea49c768b9",
            "86562d32ca3e788e4eab0d72cccf092ababf97a9f66efbc7644f268034c043af"),
        ("loss", "--deltas", "1..3", "--packets", "50"): (
            "8ff1f242b86802846e49b30215ac14fdb1742e08cb462137ad9ed29327b6ac93",
            "f65215b78f36da475e620f5bbaaf7d8d7bb125aaf8169a1a1d84e22c81a6cdbc"),
    }
    csv = tmp_path / "rows.csv"
    for argv, digests in pins.items():
        assert main(["experiment", *argv, "--csv", str(csv)]) == 0
        out = re.sub(r"\d+\.\ds", "X.Xs", capsys.readouterr().out)
        assert (hashlib.sha256(csv.read_bytes()).hexdigest(),
                hashlib.sha256(out.encode()).hexdigest()) == digests, argv


@pytest.mark.parametrize("argv, message", [
    (["--deltas", "0"], "delta must lie in [1, deadline]"),
    (["--deltas", "61"], "delta must lie in [1, deadline]"),
    (["--deltas", "5..2"], "empty range '5..2'"),
    (["--ns", "0"], "need at least one copy per packet"),
])
def test_experiment_loss_bad_list_is_a_usage_error(capsys, argv, message):
    code, out, err = _exit(capsys, ["experiment", "loss", *argv])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("name, argv, message", [
    ("loss", ["--packets", "0"], "packet_count must be positive"),
    ("loss", ["--p", "2"], "p must be a probability"),
    ("loss", ["--dmax", "-1"], "d_max must be nonnegative"),
    ("loss", ["--trace", "{tmp}/missing.csv"],
     "[Errno 2] No such file or directory: '{tmp}/missing.csv'"),
    ("gap", ["--deltas", "0"], "delta must be positive"),
    ("gap", ["--deltas", "x"], "invalid literal for int() with base 10: 'x'"),
    ("gap", ["--deltas", "3..1"], "empty range '3..1'"),
    ("gap", ["--deltas", ""], "no values in ''"),
    ("gap", ["--instances", "0"],
     "argument --instances: must be at least 1, got 0"),
    ("gap", ["--instances", "-1"],
     "argument --instances: must be at least 1, got -1"),
    ("gap", ["--nodes", "1"], "need at least 2 nodes"),
    ("gap", ["--t", "0"], "horizon must be positive"),
    ("gap", ["--p", "2"], "p must be a probability"),
    ("gap", ["--instances", "1", "--csv", "{tmp}/no/x.csv"],
     "[Errno 2] No such file or directory: '{tmp}/no/x.csv'"),
    ("loss", ["--packets", "20", "--deltas", "1..3",
              "--csv", "{tmp}/no/x.csv"],
     "[Errno 2] No such file or directory: '{tmp}/no/x.csv'"),
])
def test_experiment_bad_input_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                               name, argv, message):
    # every input, the --csv file included, is checked before the
    # experiment's first step runs
    ran = []
    first_step = {"loss": "routable_plateau", "gap": "gap_cells"}[name]
    monkeypatch.setattr(experiments, first_step, lambda *a: ran.append(a))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = _exit(capsys, ["experiment", name, *argv])
    assert (code, out, ran) == (2, "", [])
    assert err.endswith(f"error: {message.format(tmp=tmp_path)}\n")
