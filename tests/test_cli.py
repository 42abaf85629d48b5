import argparse
import errno
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from squaregap import coloring
from squaregap.cli import _envelope, main
from squaregap.errors import clip
from squaregap.serialize import MAX_INPUT_VERTICES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope_of(err):
    # last stderr line is the run envelope
    return json.loads(err.strip().splitlines()[-1])


def test_construct_dimacs(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "3", "--format", "dimacs")
    assert code == 0
    assert out.splitlines()[0] == "p edge 15 27"
    env = envelope_of(err)
    assert env["command"] == "construct"
    assert env["outcome"] == "pass"
    assert isinstance(env["elapsed_ms"], int)


def test_construct_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_vertices"] == 15
    code, out, _ = run_cli(capsys, "construct", "--n", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert 'label="w_2_3"' in out


def test_construct_output_file(tmp_path, capsys):
    target = tmp_path / "g.col"
    code, out, _ = run_cli(capsys, "construct", "--n", "5", "--format", "dimacs",
                           "--output", str(target))
    assert code == 0
    assert out == ""  # payload went to the file instead
    assert target.read_text().splitlines()[0] == "p edge 45 150"


def test_construct_rejects_composite(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "4")
    assert code == 2
    assert out == ""
    assert "4 = 2 * 2" in err
    assert envelope_of(err)["outcome"] == "error"


def test_construct_unwritable_output_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "construct", "--n", "3",
                           "--output", str(tmp_path / "no" / "dir" / "x"))
    assert code == 3
    assert envelope_of(err)["outcome"] == "error"


def test_stdout_is_byte_identical_across_runs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "construct", "--n", "5", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    certs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "certify", "--n", "3")
        assert code == 0
        certs.append(out)
    assert certs[0] == certs[1]


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--lemma", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert set(doc["reports"]) == {"nw", "nv", "independence", "pq", "structure"}
    assert doc["structure_parts"] == {"count": 5, "sizes": [3] * 5}


def test_verify_single_lemma(capsys):
    for lemma in ("nw", "nv", "independence", "pq", "structure"):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--lemma", lemma)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["reports"]) == {lemma}
        assert doc["reports"][lemma]["passed"] is True


def test_verify_structure_n7(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "7", "--lemma", "structure")
    assert code == 0
    doc = json.loads(out)
    assert doc["structure_parts"] == {"count": 13, "sizes": [7] * 13}


def test_certify_n3(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["chromatic"] == 5
    assert doc["not_choosable"] == 6
    assert doc["gap_lower"] == 2
    assert doc["refutation"]["complete"] is True


@pytest.mark.parametrize("n, chromatic, bound", [(11, 21, 30), (31, 61, 90)])
def test_certify_past_the_exact_solver_guard(capsys, n, chromatic, bound):
    code, out, err = run_cli(capsys, "certify", "--n", str(n))
    assert code == 0
    doc = json.loads(out)
    assert (doc["chromatic"], doc["not_choosable"], doc["gap_lower"]) == (chromatic, bound, n - 1)
    assert envelope_of(err)["outcome"] == "pass"


@pytest.mark.parametrize("command", ["construct", "verify", "certify", "mols"])
def test_huge_order_is_refused_before_any_work(capsys, command):
    # 2n^2 - n far above serialize.MAX_INPUT_VERTICES: no primality test, no graph
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main([command, "--n", "1" * 30])
    assert time.perf_counter() - start < 1.0
    assert info.value.code == 2
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct", "verify", "certify", "mols"])
@pytest.mark.parametrize("n", ["-1", "0", "1", "2", "-200",
                               pytest.param("-" + "1" * 1000, id="-1000-digits")])
def test_orders_below_3_get_one_message(capsys, command, n):
    # the vertex limit is for positive n only: a large negative n is still below 3
    code, out, err = run_cli(capsys, command, "--n", n)
    assert code == 2
    assert out == ""
    assert f"n must be a prime >= 3, got {clip(int(n))}\n" in err
    assert envelope_of(err)["outcome"] == "error"


def test_largest_order_within_the_vertex_limit():
    from squaregap.cli import _order
    from squaregap.serialize import MAX_INPUT_VERTICES

    assert 2 * 181 * 181 - 181 <= MAX_INPUT_VERTICES < 2 * 182 * 182 - 182
    assert _order("181") == 181
    with pytest.raises(argparse.ArgumentTypeError):
        _order("182")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_certify_rejects_bad_budget(capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["certify", "--n", "3", "--budget-seconds", value])
    assert info.value.code == 2
    assert "--budget-seconds" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["boom", "x" * 5000])
def test_unexpected_exception_exits_5_without_a_traceback(monkeypatch, capsys, message):
    from squaregap import cli

    def broken(args):
        raise RuntimeError(message)

    monkeypatch.setitem(cli._HANDLERS, "construct", broken)
    code, out, err = run_cli(capsys, "construct", "--n", "3")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[0] == ("squaregap construct: internal error: RuntimeError: "
                                   + clip(message))
    assert len(err) < 1000
    assert envelope_of(err)["outcome"] == "error"


def test_running_out_of_memory_exits_4_without_a_traceback(monkeypatch, capsys):
    from squaregap import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "verify", exhausted)
    code, out, err = run_cli(capsys, "verify", "--n", "3")
    assert code == cli.EXIT_BUDGET == 4
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[0] == "squaregap verify: out of memory"
    assert len(err.splitlines()) == 2
    assert envelope_of(err)["outcome"] == "error"


def test_envelope_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        _envelope("certify", {"budget_seconds": float("nan")}, "pass", 0)


def test_budget_stop_reports_nodes(capsys):
    # certify reads its deadline after each phase (not during every phase: see
    # README), so a zero budget stops right after construction, before squaring
    # and before any search node
    code, out, err = run_cli(capsys, "certify", "--n", "31", "--budget-seconds", "0")
    assert code == 4
    assert out == ""
    assert "budget exhausted after construct (nodes=0)" in err
    assert envelope_of(err)["outcome"] == "error"


def write_instance(tmp_path, satisfiable):
    from squaregap import serialize
    from squaregap.coloring import ListAssignment
    from squaregap.graphcore import SimpleGraph

    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    graph_path = tmp_path / "tri.col"
    graph_path.write_text(serialize.graph_to_dimacs(g.n, g.upper()))
    if satisfiable:
        lists = {0: frozenset({1, 2}), 1: frozenset({2, 3}), 2: frozenset({1, 3})}
    else:
        lists = {v: frozenset({1, 2}) for v in range(3)}
    a = ListAssignment(universe=(1, 2, 3), lists=lists)
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(serialize.json_dumps(serialize.lists_to_json_dict(a)))
    return str(graph_path), str(lists_path)


def test_solve_list_sat(tmp_path, capsys):
    graph_path, lists_path = write_instance(tmp_path, satisfiable=True)
    code, out, _ = run_cli(capsys, "solve-list", "--graph", graph_path,
                           "--lists", lists_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfiable"] is True
    assert len(doc["coloring"]) == 3


def test_solve_list_unsat_exits_1(tmp_path, capsys):
    graph_path, lists_path = write_instance(tmp_path, satisfiable=False)
    code, out, err = run_cli(capsys, "solve-list", "--graph", graph_path,
                             "--lists", lists_path)
    assert code == 1
    doc = json.loads(out)
    assert doc["satisfiable"] is False
    assert doc["complete"] is True
    assert envelope_of(err)["outcome"] == "fail"


def write_vetrik_k3x5(tmp_path, pendant=False):
    """The files of oracles.vetrik_k3x5: K_{3x5} with its Vetrik lists, refuted at
    node 1, or with the pendant vertex that leaves it to a 35,798-node search."""
    from oracles import vetrik_k3x5
    from squaregap import serialize

    g, a = vetrik_k3x5(pendant)
    graph_path = tmp_path / "k3x5.col"
    graph_path.write_text(serialize.graph_to_dimacs(g.n, g.upper()))
    lists_path = tmp_path / "k3x5.json"
    lists_path.write_text(serialize.json_dumps(serialize.lists_to_json_dict(a)))
    return str(graph_path), str(lists_path)


def test_solve_list_refutes_k3x5_at_its_root(tmp_path, capsys):
    # the twin-class bound fires at node 1, before the first deadline check
    graph_path, lists_path = write_vetrik_k3x5(tmp_path)
    code, out, _ = run_cli(capsys, "solve-list", "--graph", graph_path, "--lists", lists_path,
                           "--budget-seconds", "0")
    assert (code, json.loads(out)["nodes"]) == (1, 1)


def test_solve_list_zero_budget_stops_at_the_first_deadline_check(tmp_path, capsys):
    graph_path, lists_path = write_vetrik_k3x5(tmp_path, pendant=True)
    code, out, err = run_cli(capsys, "solve-list", "--graph", graph_path,
                             "--lists", lists_path, "--budget-seconds", "0")
    assert code == 4
    assert out == ""
    assert f"search budget exhausted (nodes={coloring._DEADLINE_STRIDE})" in err
    env = envelope_of(err)
    assert env["outcome"] == "error"
    assert env["parameters"]["budget_seconds"] == 0


def test_solve_list_ample_budget_prints_the_unbudgeted_payload(tmp_path, capsys):
    graph_path, lists_path = write_vetrik_k3x5(tmp_path, pendant=True)
    argv = ["solve-list", "--graph", graph_path, "--lists", lists_path]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, json.loads(out)["nodes"]) == (1, 35_798)
    assert run_cli(capsys, *argv, "--budget-seconds", "3600")[:2] == (code, out)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_solve_list_rejects_bad_budget(tmp_path, capsys, value):
    graph_path, lists_path = write_instance(tmp_path, satisfiable=True)
    with pytest.raises(SystemExit) as info:
        main(["solve-list", "--graph", graph_path, "--lists", lists_path,
              "--budget-seconds", value])
    assert info.value.code == 2
    assert "--budget-seconds: must be a finite number of seconds" in capsys.readouterr().err


def test_solve_list_accepts_graph_json(tmp_path, capsys):
    from squaregap import serialize
    from squaregap.construction import construct_counterexample

    gc = construct_counterexample(3)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(serialize.json_dumps(serialize.constructed_to_json_dict(gc)))
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(serialize.json_dumps(
        {"universe": list(range(6)), "lists": {str(v): list(range(6)) for v in range(15)}}))
    code, out, _ = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                           "--lists", str(lists_path))
    assert code == 0
    assert json.loads(out)["satisfiable"] is True


def test_solve_list_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    from squaregap import serialize
    from squaregap.coloring import ListAssignment, validate_coloring
    from squaregap.graphcore import SimpleGraph

    n = 1500
    assert sys.getrecursionlimit() < n
    g = SimpleGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    a = ListAssignment(universe=(3, 7), lists={v: frozenset({3, 7}) for v in range(n)})
    graph_path = tmp_path / "path.col"
    graph_path.write_text(serialize.graph_to_dimacs(g.n, g.upper()))
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(serialize.json_dumps(serialize.lists_to_json_dict(a)))
    code, out, _ = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                           "--lists", str(lists_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] == n  # no backtracking on a path
    assert validate_coloring(g, {int(v): c for v, c in doc["coloring"].items()}, a)


def test_solve_list_missing_file_is_io_error(tmp_path, capsys):
    _, lists_path = write_instance(tmp_path, satisfiable=True)
    code, _, err = run_cli(capsys, "solve-list", "--graph", str(tmp_path / "nope.col"),
                           "--lists", lists_path)
    assert code == 3
    assert envelope_of(err)["outcome"] == "error"


def test_solve_list_malformed_input_is_param_error(tmp_path, capsys):
    graph_path, _ = write_instance(tmp_path, satisfiable=True)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "solve-list", "--graph", graph_path,
                         "--lists", str(bad))
    assert code == 2
    bad_graph = tmp_path / "bad.col"
    bad_graph.write_text("p edge nope\n")
    code, _, _ = run_cli(capsys, "solve-list", "--graph", str(bad_graph),
                         "--lists", str(bad))
    assert code == 2


THREE_LISTS = '{"universe": [1, 2, 3], "lists": {"0": [1], "1": [2], "2": [3]}}'
TRIANGLE = '{"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}'


@pytest.mark.parametrize("graph_text,lists_text", [
    ('{"n_vertices": 3, "edges": [1, 2]}', '{"universe": [1], "lists": {"0": [1]}}'),
    ('{"n_vertices": null, "edges": []}', '{"universe": [1], "lists": {"0": [1]}}'),
    ('{"n_vertices": 1, "edges": []}', '{"universe": [1], "lists": {"0": 5}}'),
    ('{"n_vertices": 1, "edges": []}', '{"universe": 1, "lists": {"0": [1]}}'),
    ('{"n_vertices": 1, "edges": []}', '{"universe": [1], "lists": [5]}'),
    ('{"n_vertices": Infinity, "edges": []}', '{"universe": [1], "lists": {"0": [1]}}'),
    ('{"n_vertices": 1e400, "edges": []}', '{"universe": [1], "lists": {"0": [1]}}'),
    ('{"n_vertices": 1, "edges": []}', '{"universe": [Infinity], "lists": {"0": [1]}}'),
    ('{"n_vertices": 1, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}",
     '{"universe": [1], "lists": {"0": [1]}}'),
    ('{"n_vertices": 1, "edges": []}', "[" * 200_000 + "]" * 200_000),
    ('{"n_vertices": 1, "edges": []}', '{"universe": [1, 2], "lists": {"0": "12"}}'),
    ('{"n_vertices": 1, "edges": []}', '{"universe": "12", "lists": {"0": [1]}}'),
    # not JSON integers where integers belong, or vertex keys that are not
    # canonical decimal: each was once read through int()
    ('{"n_vertices": 3, "edges": ["12", [0, 2.9]]}', THREE_LISTS),
    ('{"n_vertices": 3, "edges": [[0, true]]}', THREE_LISTS),
    ('{"n_vertices": 3, "edges": [{"0": 1, "1": 2}]}', THREE_LISTS),
    ('{"n_vertices": 3, "edges": [[0, 1, 2]]}', THREE_LISTS),
    ('{"n_vertices": 3, "edges": [[1]]}', THREE_LISTS),
    ('{"n_vertices": 3, "edges": {"12": 1}}', THREE_LISTS),
    ('{"n_vertices": "3", "edges": []}', THREE_LISTS),
    ('{"n_vertices": 3.0, "edges": []}', THREE_LISTS),
    ('{"n_vertices": true, "edges": []}', '{"universe": [1], "lists": {"0": [1]}}'),
    (TRIANGLE, '{"universe": ["1", 2.5, true], "lists": {"0": [1], "1": [2], "2": [1]}}'),
    (TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [true], "1": [2], "2": [3]}}'),
    (TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], "1": [2.0], "2": [3]}}'),
    (TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], "01": [2], "2": [3]}}'),
    (TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], " 1": [2], "2": [3]}}'),
    (TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], "+1": [2], "2": [3]}}'),
    # each was once read as a set; the universe also sizes one mask per colour
    (TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1, 1], "1": [2], "2": [3]}}'),
    (TRIANGLE, '{"universe": [1, 2, 2, 3], "lists": {"0": [1], "1": [2], "2": [3]}}'),
    ('{"n_vertices": 1, "edges": []}',
     json.dumps({"universe": list(range(MAX_INPUT_VERTICES + 1)), "lists": {"0": [1]}})),
], ids=["edge-not-a-pair", "null-vertex-count", "list-not-iterable",
        "universe-not-iterable", "lists-not-a-map", "infinite-vertex-count",
        "overflowing-vertex-count", "infinite-colour", "graph-nested-too-deep",
        "lists-nested-too-deep", "list-a-string", "universe-a-string",
        "edge-a-string-and-a-float", "edge-end-a-bool", "edge-an-object", "edge-of-three",
        "edge-of-one", "edges-an-object", "vertex-count-a-string", "vertex-count-a-float",
        "vertex-count-a-bool", "universe-not-integers", "colour-a-bool", "colour-a-float",
        "key-with-leading-zero", "key-with-space", "key-with-plus", "colour-twice-in-a-list",
        "colour-twice-in-the-universe", "universe-over-the-limit"])
def test_solve_list_malformed_json_is_param_error(tmp_path, capsys, graph_text, lists_text):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(graph_text)
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(lists_text)
    code, out, err = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                             "--lists", str(lists_path))
    assert code == 2
    assert out == ""
    assert envelope_of(err)["outcome"] == "error"
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("graph_text", [
    "[" * 200_000 + "]" * 200_000,
    "x" * 300_000 + "\n",
    "p edge 3 1\ne " + "1 " * 150_000 + "\n",
    "p edge " + "3 " * 150_000 + "\n",
], ids=["brackets", "long-record", "long-edge-line", "long-problem-line"])
def test_dimacs_errors_stay_short(tmp_path, capsys, graph_text):
    graph_path = tmp_path / "g.col"
    graph_path.write_text(graph_text)
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(THREE_LISTS)
    code, out, err = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                             "--lists", str(lists_path))
    assert code == 2
    assert out == ""
    assert envelope_of(err)["outcome"] == "error"
    assert "Traceback" not in err
    assert len(err.encode()) < 1024


NINES = "9" * 4300  # the longest integer int() and the JSON decoder accept


@pytest.mark.parametrize("graph_text,lists_text", [
    (f"p edge 3 1\ne 1 {NINES}\n", THREE_LISTS),
    (f'{{"n_vertices": 3, "edges": [[0, {NINES}]]}}', THREE_LISTS),
    (f"p edge {NINES} 0\n", THREE_LISTS),
    (f"p edge -{NINES} 0\n", THREE_LISTS),
    (f'{{"n_vertices": -{NINES}, "edges": []}}', THREE_LISTS),
    (TRIANGLE, f'{{"universe": [1], "lists": {{"{NINES}": [5]}}}}'),
    (TRIANGLE, f'{{"universe": [{NINES}], "lists": {{"0": [{NINES}, {NINES}]}}}}'),
    (TRIANGLE, f'{{"universe": [{NINES}, 1, {NINES}], "lists": {{"0": [1]}}}}'),
], ids=["dimacs-edge", "json-edge", "dimacs-count", "dimacs-negative-count",
        "json-negative-count", "list-key-outside-the-universe", "colour-twice-in-a-list",
        "colour-twice-in-the-universe"])
def test_long_integers_in_input_errors_are_clipped(tmp_path, capsys, graph_text, lists_text):
    graph_path = tmp_path / "g.txt"
    graph_path.write_text(graph_text)
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(lists_text)
    code, out, err = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                             "--lists", str(lists_path))
    assert code == 2
    assert out == ""
    assert envelope_of(err)["outcome"] == "error"
    assert "99... (430" in err  # the first 60 characters, then the length
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("argv", [
    ["verify", "--n", NINES],
    ["verify", "--n", "-" + NINES],
    ["verify", "--n", "x" * 5000],
    ["certify", "--n", "3", "--budget-seconds", "9" * 5000],
    ["solve-list", "--graph", "g", "--lists", "l", "--budget-seconds", "x" * 5000],
], ids=["order", "negative-order", "order-not-an-integer", "budget", "solve-list-budget"])
def test_long_arguments_in_usage_errors_are_clipped(capsys, argv):
    # argparse refuses all but the negative order, which require_prime refuses
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "characters)" in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("option", ["--output", "--graph"])
def test_long_paths_are_clipped_on_stderr(tmp_path, capsys, option):
    # both the OSError message and the envelope printed the path whole: about 6 KB
    path = str(tmp_path / ("x" * 3000))
    argv = (["construct", "--n", "5", "--output", path] if option == "--output"
            else ["solve-list", "--graph", path, "--lists", "l"])
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "characters)" in err
    assert envelope_of(err)["outcome"] == "error"
    assert len(err.encode()) < 1024


def test_short_paths_in_io_errors_read_as_python_prints_them(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = "nope.col"
    code, _, err = run_cli(capsys, "solve-list", "--graph", path, "--lists", "l")
    assert code == 3
    with pytest.raises(OSError) as info:
        open(path)
    assert err.splitlines()[0] == f"squaregap solve-list: {info.value}"
    assert envelope_of(err)["parameters"]["graph"] == path


def test_solve_list_huge_colours_get_a_quick_verdict(tmp_path, capsys):
    # colour 10**12 would be a 125 GB mask as a raw bit position
    big = 10**12
    graph_path = tmp_path / "g.json"
    graph_path.write_text('{"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(json.dumps({"universe": [5, big, big + 1],
                                      "lists": {"0": [big], "1": [5, big], "2": [big, big + 1]}}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                           "--lists", str(lists_path))
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert json.loads(out)["coloring"] == {"0": big, "1": 5, "2": big + 1}


@pytest.mark.parametrize("graph_text", ["p edge {count} 0\n",
                                        '{{"n_vertices": {count}, "edges": []}}'],
                         ids=["dimacs", "json"])
def test_solve_list_vertex_count_above_the_limit_is_param_error(tmp_path, capsys, graph_text):
    from squaregap.serialize import MAX_INPUT_VERTICES

    graph_path = tmp_path / "g.txt"
    graph_path.write_text(graph_text.format(count=MAX_INPUT_VERTICES + 1))
    lists_path = tmp_path / "lists.json"
    lists_path.write_text('{"universe": [1], "lists": {"0": [1]}}')
    code, out, err = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                             "--lists", str(lists_path))
    assert code == 2
    assert out == ""
    assert "exceeds the limit" in err
    assert envelope_of(err)["outcome"] == "error"


# -- the exit-code contract on generated input files -----------------------

DEEP = "@DEEP@"  # stands for a nested array, spliced into the encoded text
SMALL = st.integers(min_value=-2, max_value=6)
COUNT = st.one_of(SMALL, st.sampled_from([MAX_INPUT_VERTICES, MAX_INPUT_VERTICES + 1,
                                          2**63, -(2**63), 10**400]))
SCALAR = st.one_of(st.none(), st.booleans(), COUNT, st.floats(), st.text(max_size=4),
                   st.just(DEEP))
VALUE = st.recursive(SCALAR, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=12)
COLOURS = st.one_of(st.lists(st.one_of(SMALL, SMALL, SCALAR), max_size=5), VALUE)
KEY = st.one_of(SMALL.map(str), st.sampled_from(["01", " 1", "+1", "-0", "1.0", "x", "", "1_0",
                                                 "\u0663", "9" * 4301]))
GRAPH_DOC = st.one_of(
    st.fixed_dictionaries({"n_vertices": st.one_of(COUNT, VALUE),
                           "edges": st.one_of(st.lists(st.lists(st.one_of(SMALL, SCALAR),
                                                                max_size=3), max_size=6),
                                              VALUE)}),
    VALUE)
LISTS_DOC = st.one_of(
    st.fixed_dictionaries({"universe": COLOURS,
                           "lists": st.one_of(st.dictionaries(KEY, COLOURS, max_size=6), VALUE)}),
    VALUE)
TOKEN = st.one_of(st.integers(min_value=-1, max_value=7).map(str), COUNT.map(str),
                  st.sampled_from(["x", "1.5", "true", "+2", "NaN", "e", "p", "edge", "{"]))
DIMACS = st.lists(st.one_of(
    st.tuples(st.just("p edge"), TOKEN, TOKEN).map(" ".join),
    st.tuples(st.just("e"), TOKEN, TOKEN).map(" ".join),
    st.just("c a comment"),
    st.lists(TOKEN, max_size=5).map(" ".join)), max_size=8).map("\n".join)


@st.composite
def well_formed(draw):
    """A graph on up to six vertices and lists for exactly its vertices."""
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple) if pairs else st.just([]))
    lists = {str(v): draw(st.lists(st.integers(1, 4), unique=True)) for v in range(n)}
    return ({"n_vertices": n, "edges": edges},
            {"universe": [1, 2, 3, 4], "lists": lists})


def spliced(doc, depth):
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "]" * depth)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(files=st.one_of(well_formed(), st.tuples(
           st.one_of(GRAPH_DOC, DIMACS, well_formed().map(lambda pair: pair[0])),
           st.one_of(LISTS_DOC, well_formed().map(lambda pair: pair[1])))),
       depth=st.sampled_from([1, 64, 100_000]), junk=st.sampled_from([b""] * 7 + [b"\xff"]))
def test_solve_list_exit_codes_hold_on_any_input(tmp_path, capsys, files, depth, junk):
    # every input file gets one of the documented exit codes, never 5
    # (internal error), and the envelope as its last stderr line
    graph, lists = files
    graph_text = graph if isinstance(graph, str) else spliced(graph, depth)
    graph_path = tmp_path / "g.in"
    graph_path.write_bytes(graph_text.encode() + junk)
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(spliced(lists, depth))
    code, out, err = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                             "--lists", str(lists_path), "--budget-seconds", "1")
    assert code in {0, 1, 2, 3, 4}, err
    env = envelope_of(err)
    assert env["command"] == "solve-list"
    assert env["outcome"] == {0: "pass", 1: "fail"}.get(code, "error")
    assert "Traceback" not in err
    assert (out != "") == (code in {0, 1})


def test_mols_output_and_check(capsys):
    code, out, _ = run_cli(capsys, "mols", "--n", "3", "--check")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L_1"
    assert lines[1:4] == ["1 2 3", "2 3 1", "3 1 2"]
    assert lines[5] == "L_2"
    assert lines[-2:] == ["latin: ok", "orthogonal: ok"]


def test_mols_without_check_has_no_status_lines(capsys):
    code, out, _ = run_cli(capsys, "mols", "--n", "3")
    assert code == 0
    assert "latin:" not in out


def test_mols_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "mols", "--n", "6")
    assert code == 2
    assert "6 = 2 * 3" in err


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "squaregap.cli", "mols", "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "L_1"
    assert json.loads(proc.stderr.strip().splitlines()[-1])["outcome"] == "pass"


def run_with_fd_closed(fd, *argv):
    # a fresh interpreter started with fd closed, as `>&-` (1) or `2>&-` (2) leaves it
    return subprocess.run([sys.executable, "-m", "squaregap.cli", *argv],
                          capture_output=True, text=True, preexec_fn=lambda: os.close(fd))


def test_closed_stdout_exits_3_without_a_traceback():
    proc = run_with_fd_closed(1, "verify", "--n", "3")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[0] == "squaregap verify: [Errno 9] stdout is closed"
    assert envelope_of(proc.stderr)["outcome"] == "error"


class FullStdout(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


def closed_stdout():
    stdout = io.StringIO()
    stdout.close()
    return stdout


@pytest.mark.parametrize("stdout", [None, closed_stdout(), FullStdout()],
                         ids=["closed-at-startup", "closed", "full"])
def test_a_closed_or_failing_stdout_exits_3_in_process(capsys, monkeypatch, stdout):
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", stdout)
        code = main(["mols", "--n", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 2
    assert err.startswith("squaregap mols: [Errno ")
    assert envelope_of(err)["outcome"] == "error"


def test_closed_stderr_leaves_stdout_to_the_payload(capsys, monkeypatch):
    code, payload, _ = run_cli(capsys, "mols", "--n", "3")
    with monkeypatch.context() as m:
        m.setattr(sys, "stderr", None)
        assert main(["mols", "--n", "3"]) == 0
    assert capsys.readouterr().out == payload
    proc = run_with_fd_closed(2, "mols", "--n", "3")
    assert (proc.returncode, proc.stdout) == (0, payload)
