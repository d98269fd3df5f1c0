"""Command-line front end: flags, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import tempocut
from tempocut import TimeVaryingGraph, gen_counterexample, gen_random_tvg
from tempocut.cli import _build_parser, _parse_int_list, main

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


def test_parse_int_list():
    assert _parse_int_list("1,3..5,9") == [1, 3, 4, 5, 9]
    assert _parse_int_list("2") == [2]
    with pytest.raises(ValueError, match="empty range"):
        _parse_int_list("5..2")
    assert _parse_int_list("1..3,5", (1, 5), "out of range") == [1, 2, 3, 5]
    for text in ("2,0", "2..6"):
        with pytest.raises(ValueError, match="^out of range$"):
            _parse_int_list(text, (1, 5), "out of range")


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


def test_analyze_exact_with_certificates(relay_file, capsys):
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d",
                 "--delta", "2", "--exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["maxflow"] == {
        "delta": 2, "count": 1, "exact": True,
        "journeys": [[["e1", 1], ["e2", 2]]]}
    assert report["mincut"]["count"] == 1
    certs = report["certificates"]
    assert certs["flow"]["within_ratio"] is True
    assert certs["cut"]["within_delta_factor"] is True
    assert certs["cut"]["weight_lower_bound"] == "1"


def test_analyze_pretty_and_output_file(relay_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d",
                 "--pretty", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith("{\n  ")
    json.loads(text)


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
def test_cap_below_one_is_a_usage_error(relay_file, capsys, monkeypatch, cap):
    # with TEMPOCUT_CAP set, a silently ignored --cap 0 would exit 3 instead
    monkeypatch.setenv("TEMPOCUT_CAP", "1")
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
    def saved(name, g):
        path = tmp_path / f"{name}.json"
        path.write_text(g.dumps())
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


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; no argument, environment
    # value or usage error of one call may reach the next
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
    monkeypatch.setenv("TEMPOCUT_CAP", "300")
    code, out, err = run(argv)
    assert (code, out) == (3, "") and "more than 300 candidate journeys" in err
    monkeypatch.delenv("TEMPOCUT_CAP")
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


def test_cap_env_var(m0_file, capsys, monkeypatch):
    monkeypatch.setenv("TEMPOCUT_CAP", "50")
    assert main(["analyze", m0_file, "--src", "n1", "--dst", "n10",
                 "--delta", "3", "--exact"]) == 3
    assert "more than 50 removal heads" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-4", "abc"])
def test_cap_env_var_must_be_a_positive_int(relay_file, capsys, monkeypatch,
                                            value):
    monkeypatch.setenv("TEMPOCUT_CAP", value)
    assert main(["analyze", relay_file, "--src", "s", "--dst", "d",
                 "--delta", "2", "--exact"]) == 2
    err = capsys.readouterr().err
    assert "TEMPOCUT_CAP" in err and "Traceback" not in err


def test_survivable_exact_honours_the_cap(m0_file, capsys, monkeypatch):
    # the exact cut searches 200 removal heads on m0 at delta 3, so a cap
    # of 50 trips it
    argv = ["survivable", m0_file, "--src", "n1", "--dst", "n10", "--n", "1",
            "--delta", "3", "--exact"]
    monkeypatch.setenv("TEMPOCUT_CAP", "50")
    assert main(argv) == 3  # as `analyze --exact` exits under TEMPOCUT_CAP=50
    assert "more than 50 removal heads" in capsys.readouterr().err
    assert main(argv + ["--cap", "200"]) == 0
    capsys.readouterr()
    monkeypatch.delenv("TEMPOCUT_CAP")
    assert main(argv + ["--cap", "50"]) == 3
    assert "more than 50 removal heads" in capsys.readouterr().err
    monkeypatch.setenv("TEMPOCUT_CAP", "-2")
    assert main(argv) == 2
    assert "TEMPOCUT_CAP" in capsys.readouterr().err
    # the verdict without --exact reads no cap
    assert main(argv[:-1]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["analyze"], ["analyze", "--delta", "2", "--exact"],
    ["survivable", "--n", "1"], ["survivable", "--n", "1", "--exact"]])
@pytest.mark.parametrize("src,message", [("zz", "unknown node 'zz'"),
                                         ("d", "must differ")])
def test_bad_source_is_a_usage_error(relay_file, capsys, command, src,
                                     message):
    assert main([command[0], relay_file, "--src", src, "--dst", "d",
                 *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


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
    {"T": 3, "nodes": [[1], {}, 2, None],
     "edges": [{"from": [1], "to": 2, "active": [1]}]},
    {"T": 3, "nodes": ["a", "b"], "edges": [{**_EDGE, "to": None}]},
], ids=["nodes-int", "nodes-str", "edges-dict", "T-null", "T-float",
        "T-bool", "active-null", "slot-float", "active-str", "slot-bool",
        "names-nonstr", "endpoint-null"])
@pytest.mark.parametrize("command", [
    ["analyze", "--src", "a", "--dst", "b"],
    ["survivable", "--src", "a", "--dst", "b", "--n", "1"],
    ["simulate"]], ids=["analyze", "survivable", "simulate"])
def test_wrongly_typed_graph_document_is_a_usage_error(tmp_path, capsys, doc,
                                                       command):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed graph document" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("doc,message", [
    ({"T": 3, "nodes": ["a", "b", "a"], "edges": [_EDGE]},
     "node 'a' listed more than once"),
    ({"T": 3, "nodes": ["a", "b"],
      "edges": [_EDGE, {**_EDGE, "to": "a"}]}, "e2: self-loop 'a'->'a'"),
], ids=["repeated-node", "self-loop"])
@pytest.mark.parametrize("command", [
    ["analyze", "--src", "a", "--dst", "b"],
    ["survivable", "--src", "a", "--dst", "b", "--n", "1"],
    ["simulate"]], ids=["analyze", "survivable", "simulate"])
def test_invalid_graph_document_is_a_usage_error(tmp_path, capsys, doc,
                                                 message, command):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid graph" in captured.err and message in captured.err
    assert "Traceback" not in captured.err


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
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err


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
], ids=["len-float", "len-bool", "len-string", "len-overflow", "bound-float",
        "node-int", "nodes-string", "repeated-node"])
def test_invalid_weighted_digraph_is_a_usage_error(tmp_path, capsys, text,
                                                   message):
    path = tmp_path / "wd.json"
    path.write_text(text)
    assert main(["gen", "bledp-expand", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid weighted digraph" in captured.err
    assert message in captured.err and "Traceback" not in captured.err


def test_survivable(relay_file, capsys):
    assert main(["survivable", relay_file, "--src", "s", "--dst", "d",
                 "--n", "1", "--exact"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {"n": 1, "delta": 1, "verdict": "survivable",
                       "lower": 2, "upper": 2, "exact": True}


def test_simulate_csv(tmp_path, capsys):
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(tempocut.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "tempocut.cli", "simulate", str(path),
         "--packets", "5"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"at least two nodes to draw packet pairs from, got {count}" \
        in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_zero_deadline_names_the_deadline(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(gen_random_tvg(4, 5, 0.5, 1).dumps())
    assert main(["simulate", str(path), "--ddl", "0", "--packets", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: deadline must lie in [1, graph horizon]\n"


def test_simulate_bad_last_delta_fails_before_any_point_runs(tmp_path,
                                                             capsys,
                                                             monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(gen_random_tvg(4, 5, 0.5, 1).dumps())
    planned = []
    monkeypatch.setattr(tempocut.simulate, "greedy_maxflow_delta",
                        lambda *args: planned.append(args))
    assert main(["simulate", str(path), "--delta", "1,2,99",
                 "--packets", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: delta must lie in [1, deadline]\n"
    assert planned == []


@pytest.mark.parametrize("flag,message", [
    ("--delta", "delta must lie in [1, deadline]"),
    ("--ddl", "deadline must lie in [1, graph horizon]"),
    ("--n", "need at least one copy per packet"),
])
def test_simulate_huge_range_fails_before_it_is_expanded(tmp_path, flag,
                                                         message):
    # Run in a child process under a 1 GB address-space limit: expanding
    # the range before checking it runs out of memory there, not here.
    # Copies have no upper bound, so the --n range starts out of bounds.
    values = "0..10000000000" if flag == "--n" else "1..10000000000"
    path = tmp_path / "g.json"
    path.write_text(gen_random_tvg(4, 5, 0.5, 1).dumps())
    src = os.path.dirname(os.path.dirname(os.path.abspath(tempocut.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from tempocut.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, "simulate", str(path),
         flag, values, "--packets", "5"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {message}\n")


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


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "gapfamily"]) == 0
    out = capsys.readouterr().out
    assert "gapfamily:" in out
    assert "all suites pass" in out


def test_verify_engines_suite(capsys):
    assert main(["verify", "--suite", "engines"]) == 0
    assert capsys.readouterr().out == (
        "engines: 480 checks, all ok\nall suites pass\n")


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "error:" in capsys.readouterr().err
