import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from squaregap import cli, coloring
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

    monkeypatch.setitem(cli._COMMANDS, "construct", (broken, *cli._COMMANDS["construct"][1:]))
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

    monkeypatch.setitem(cli._COMMANDS, "verify", (exhausted, *cli._COMMANDS["verify"][1:]))
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
    doc = serialize.constructed_to_json_dict(gc.n, gc.graph.upper())
    graph_path.write_text(serialize.json_dumps(doc))
    lists_path = tmp_path / "lists.json"
    lists_path.write_text(serialize.json_dumps(
        {"universe": list(range(6)), "lists": {str(v): list(range(6)) for v in range(15)}}))
    code, out, _ = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                           "--lists", str(lists_path))
    assert code == 0
    assert json.loads(out)["satisfiable"] is True


BOM = "\ufeff"
# solve-list's three kinds of input file, each of more than one line
INPUT_FILES = {
    "dimacs": "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    "graph-json": '{"n_vertices": 3,\n "edges": [[0, 1], [1, 2], [0, 2]]}',
    "lists": '{"universe": [1, 2, 3],\n "lists": {"0": [1, 2], "1": [2, 3], "2": [1, 3]}}',
}
# texts that read as the plain file: one leading BOM dropped, CRLF and CR read as LF
READ_AS_PLAIN = {
    "bom": lambda text: BOM + text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "bom-crlf": lambda text: BOM + text.replace("\n", "\r\n"),
}
# texts whose other BOMs stay in the text, and the first stderr line each is refused with
REFUSED_BOMS = {
    "two-boms": (lambda text: BOM * 2 + text, {
        "dimacs": "line 1: unknown record '\\ufeffp'",
        "graph-json": "line 1: unknown record '\\ufeff{\"n_vertices\":'",
        "lists": "malformed lists JSON: starts with a byte-order mark (U+FEFF)",
    }),
    "bom-on-line-2": (lambda text: text.replace("\n", "\n" + BOM, 1), {
        "dimacs": "line 2: unknown record '\\ufeffe'",
        "graph-json": "malformed graph JSON: Expecting property name enclosed in double quotes: "
                      "line 2 column 1 (char 18)",
        "lists": "malformed lists JSON: Expecting property name enclosed in double quotes: "
                 "line 2 column 1 (char 24)",
    }),
    "only-a-bom": (lambda text: BOM, {
        "dimacs": "missing 'p edge' problem line",
        "graph-json": "missing 'p edge' problem line",
        "lists": "malformed lists JSON: Expecting value: line 1 column 1 (char 0)",
    }),
}


def solve_list_reading(tmp_path, capsys, kind, data):
    """solve-list run on data as the file of this kind, with the plain file of the other."""
    path = tmp_path / f"{kind}.in"
    path.write_bytes(data)
    other = "dimacs" if kind == "lists" else "lists"
    other_path = tmp_path / f"{other}.plain"
    other_path.write_bytes(INPUT_FILES[other].encode())
    graph, lists = (other_path, path) if kind == "lists" else (path, other_path)
    code, out, err = run_cli(capsys, "solve-list", "--graph", str(graph), "--lists", str(lists))
    assert "Traceback" not in err
    return code, out, "\n".join(err.splitlines()[:-1]), envelope_of(err)["outcome"]


@pytest.mark.parametrize("variant", READ_AS_PLAIN)
@pytest.mark.parametrize("kind", INPUT_FILES)
def test_solve_list_input_with_one_leading_bom_or_any_line_end_reads_as_plain(
        tmp_path, capsys, kind, variant):
    text = INPUT_FILES[kind]
    plain = solve_list_reading(tmp_path, capsys, kind, text.encode())
    assert (plain[0], plain[2:]) == (0, ("", "pass"))
    assert solve_list_reading(tmp_path, capsys, kind, READ_AS_PLAIN[variant](text).encode()) == plain


@pytest.mark.parametrize("variant", REFUSED_BOMS)
@pytest.mark.parametrize("kind", INPUT_FILES)
def test_solve_list_input_keeps_every_bom_but_one_leading_one(tmp_path, capsys, kind, variant):
    write, messages = REFUSED_BOMS[variant]
    data = write(INPUT_FILES[kind]).encode()
    assert solve_list_reading(tmp_path, capsys, kind, data) == (
        2, "", f"squaregap solve-list: {messages[kind]}", "error")


@pytest.mark.parametrize("where", ["end", "after-a-bom"])
@pytest.mark.parametrize("kind", INPUT_FILES)
def test_solve_list_input_that_is_not_utf8_exits_2_naming_the_codec(tmp_path, capsys, kind,
                                                                    where):
    data = INPUT_FILES[kind].encode() + b"\xff"
    if where == "after-a-bom":
        data = BOM.encode() + data
    code, out, message, outcome = solve_list_reading(tmp_path, capsys, kind, data)
    assert (code, out, outcome) == (2, "", "error")
    assert message.startswith("squaregap solve-list: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("kind", INPUT_FILES)
def test_solve_list_decode_errors_count_the_files_bytes(tmp_path, capsys, kind):
    # the codec sees the BOM too, so a position is the byte's offset in the file, and a
    # file that is the start of a BOM and nothing more is not UTF-8 (utf-8-sig read it
    # as empty and counted positions after the BOM)
    data = BOM.encode() + INPUT_FILES[kind].encode() + b"\xff"
    message = solve_list_reading(tmp_path, capsys, kind, data)[2]
    assert message.endswith(f"0xff in position {len(data) - 1}: invalid start byte")
    for start, what in ((b"\xef", "byte 0xef in position 0"), (b"\xef\xbb", "bytes in position 0-1")):
        assert solve_list_reading(tmp_path, capsys, kind, start) == (
            2, "", f"squaregap solve-list: 'utf-8' codec can't decode {what}: unexpected end of data",
            "error")


def test_solve_list_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    from oracles import is_proper_coloring
    from squaregap import serialize
    from squaregap.coloring import ListAssignment
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
    assert is_proper_coloring(g, {int(v): c for v, c in doc["coloring"].items()}, a)


def test_solve_list_missing_file_is_io_error(tmp_path, capsys):
    _, lists_path = write_instance(tmp_path, satisfiable=True)
    code, _, err = run_cli(capsys, "solve-list", "--graph", str(tmp_path / "nope.col"),
                           "--lists", lists_path)
    assert code == 3
    assert envelope_of(err)["outcome"] == "error"


TRIANGLE = '{"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}'
ONE_VERTEX = '{"n_vertices": 1, "edges": []}'
THREE_LISTS = '{"universe": [1, 2, 3], "lists": {"0": [1], "1": [2], "2": [3]}}'
ONE_LIST = '{"universe": [1], "lists": {"0": [1]}}'
NINES = "9" * 4300  # the longest integer int() and the JSON decoder accept
FIVE_THOUSAND = "9" * 5000  # over the limit: the decoder's own message advises a setting
SHOWN = "9" * 60 + "... (4300 characters)"  # NINES as an error message clips it
NEGATIVE_SHOWN = "-" + "9" * 59 + "... (4301 characters)"
# 20,000 colours k * (2^61 - 1) + 7, which share one int hash: held in a set,
# they took seconds before any budget applied
COLLIDING_UNIVERSE = json.dumps({"universe": [k * (2**61 - 1) + 7 for k in range(20_000)],
                                 "lists": {"0": [7]}})
COLLIDING = "2305843009213693958"  # the first of them outside the colour bound
EDGES_RULE = "graph JSON edges must be an array of integer pairs"
COUNT_RULE = "graph JSON n_vertices must be an integer"
UNIVERSE_RULE = "lists JSON universe must be an array of integers"
OUTSIDE_COLOURS = f"is outside 0..{2**53 - 1}"
NOT_CANONICAL = "is not a canonical integer"
COVER = "lists must cover exactly the graph's vertices"

# Every input file solve-list refuses: id -> (graph text, lists text, the first stderr
# line after "squaregap solve-list: ", and optionally extra argv and a wall bound in s)
REFUSED = {
    # JSON syntax errors name their file
    "graph-not-json": ("{not json", THREE_LISTS, "malformed graph JSON: Expecting property "
                       "name enclosed in double quotes: line 1 column 2 (char 1)"),
    "lists-not-json": (INPUT_FILES["dimacs"], "{not json", "malformed lists JSON: Expecting "
                       "property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "graph-nested-too-deep": ('{"n_vertices": 1, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}",
                              ONE_LIST, "malformed graph JSON: nested too deep"),
    "lists-nested-too-deep": (ONE_VERTEX, "[" * 200_000 + "]" * 200_000,
                              "malformed lists JSON: nested too deep"),
    "over-4300-digits-in-an-edge": (f'{{"n_vertices": 3, "edges": [[0, {FIVE_THOUSAND}]]}}',
                                    THREE_LISTS,
                                    "malformed graph JSON: integer with more than 4,300 digits"),
    "over-4300-digits-in-the-universe": (
        TRIANGLE, f'{{"universe": [1, {FIVE_THOUSAND}], "lists": {{"0": [1]}}}}',
        "malformed lists JSON: integer with more than 4,300 digits"),
    # vertex 1's first list, {1}, makes this edge UNSAT; the last alone would be SAT
    "repeated-vertex-key": ('{"n_vertices": 2, "edges": [[0, 1]]}',
                            '{"universe": [1, 2], "lists": {"0": [1], "1": [1], "1": [2]}}',
                            "malformed lists JSON: key '1' appears twice"),
    "repeated-n_vertices": ('{"n_vertices": 2, "edges": [[0, 1]], "n_vertices": 3}',
                            '{"universe": [1, 2], "lists": {"0": [1], "1": [2]}}',
                            "malformed graph JSON: key 'n_vertices' appears twice"),
    "repeated-universe": ('{"n_vertices": 2, "edges": [[0, 1]]}',
                          '{"universe": [1, 2], "universe": [1, 2], "lists": {"0": [1], "1": [2]}}',
                          "malformed lists JSON: key 'universe' appears twice"),
    # graph JSON: not JSON integers where integers belong; from_edges would take a
    # bool for 0 or 1, so the reader refuses it first
    "null-vertex-count": ('{"n_vertices": null, "edges": []}', ONE_LIST, COUNT_RULE),
    "infinite-vertex-count": ('{"n_vertices": Infinity, "edges": []}', ONE_LIST, COUNT_RULE),
    "overflowing-vertex-count": ('{"n_vertices": 1e400, "edges": []}', ONE_LIST, COUNT_RULE),
    "vertex-count-a-string": ('{"n_vertices": "3", "edges": []}', THREE_LISTS, COUNT_RULE),
    "vertex-count-a-float": ('{"n_vertices": 3.0, "edges": []}', THREE_LISTS, COUNT_RULE),
    "vertex-count-a-bool": ('{"n_vertices": true, "edges": []}', ONE_LIST, COUNT_RULE),
    "edge-not-a-pair": ('{"n_vertices": 3, "edges": [1, 2]}', ONE_LIST, EDGES_RULE),
    "edge-a-string-and-a-float": ('{"n_vertices": 3, "edges": ["12", [0, 2.9]]}', THREE_LISTS,
                                  EDGES_RULE),
    "edge-end-a-bool": ('{"n_vertices": 3, "edges": [[0, true]]}', THREE_LISTS, EDGES_RULE),
    "edge-start-a-bool": ('{"n_vertices": 3, "edges": [[false, 1]]}', THREE_LISTS, EDGES_RULE),
    "bool-in-a-later-edge": ('{"n_vertices": 3, "edges": [[0, 1], [1, 2], [true, 2]]}',
                             THREE_LISTS, EDGES_RULE),
    "edge-an-object": ('{"n_vertices": 3, "edges": [{"0": 1, "1": 2}]}', THREE_LISTS, EDGES_RULE),
    "edge-of-three": ('{"n_vertices": 3, "edges": [[0, 1, 2]]}', THREE_LISTS, EDGES_RULE),
    "edge-of-one": ('{"n_vertices": 3, "edges": [[1]]}', THREE_LISTS, EDGES_RULE),
    "edges-an-object": ('{"n_vertices": 3, "edges": {"12": 1}}', THREE_LISTS, EDGES_RULE),
    # graph JSON: counts and endpoints out of range
    "json-vertex-count-over-the-limit": (f'{{"n_vertices": {MAX_INPUT_VERTICES + 1}, "edges": []}}',
                                         ONE_LIST, "vertex count 65537 exceeds the limit of 65536"),
    "long-json-negative-count": (f'{{"n_vertices": -{NINES}, "edges": []}}', THREE_LISTS,
                                 f"vertex count must be nonnegative, got {NEGATIVE_SHOWN}"),
    "long-json-edge": (f'{{"n_vertices": 3, "edges": [[0, {NINES}]]}}', THREE_LISTS,
                       f"edge (0,{SHOWN}) out of range for 3 vertices"),
    # DIMACS: each refusal names its line, and long text is clipped
    "dimacs-count-a-word": ("p edge nope\n", "{not json", "line 1: malformed problem line "
                            "'p edge nope'"),
    "dimacs-endpoint-with-underscore": ("p edge 12 1\ne 1 1_0\n", THREE_LISTS,
                                        "line 2: malformed edge line 'e 1 1_0'"),
    "dimacs-endpoint-not-ascii": ("p edge 3 1\ne 1 ٣\n", THREE_LISTS,
                                  "line 2: malformed edge line 'e 1 ٣'"),
    "dimacs-count-not-ascii": ("p edge ٣ 0\n", THREE_LISTS,
                               "line 1: malformed problem line 'p edge ٣ 0'"),
    "dimacs-count-with-underscore": ("p edge 1_0 0\n", THREE_LISTS,
                                     "line 1: malformed problem line 'p edge 1_0 0'"),
    "dimacs-brackets": ("[" * 200_000 + "]" * 200_000, THREE_LISTS,
                        "line 1: unknown record '" + "[" * 60 + "'... (400000 characters)"),
    "dimacs-long-record": ("x" * 300_000 + "\n", THREE_LISTS,
                           "line 1: unknown record '" + "x" * 60 + "'... (300000 characters)"),
    "dimacs-long-edge-line": ("p edge 3 1\ne " + "1 " * 150_000 + "\n", THREE_LISTS,
                              "line 2: malformed edge line '" + ("e" + " 1" * 30)[:60]
                              + "'... (300001 characters)"),
    "dimacs-long-problem-line": ("p edge " + "3 " * 150_000 + "\n", THREE_LISTS,
                                 "line 1: malformed problem line '" + ("p edge" + " 3" * 30)[:60]
                                 + "'... (300006 characters)"),
    "dimacs-vertex-count-over-the-limit": (f"p edge {MAX_INPUT_VERTICES + 1} 0\n", ONE_LIST,
                                           "line 1: vertex count 65537 exceeds the limit of 65536"),
    "long-dimacs-count": (f"p edge {NINES} 0\n", THREE_LISTS,
                          f"line 1: vertex count {SHOWN} exceeds the limit of 65536"),
    "long-dimacs-negative-count": (f"p edge -{NINES} 0\n", THREE_LISTS,
                                   f"line 1: vertex count must be nonnegative, got {NEGATIVE_SHOWN}"),
    "long-dimacs-edge": (f"p edge 3 1\ne 1 {NINES}\n", THREE_LISTS,
                         f"line 2: edge 1 {SHOWN} out of range for 3 vertices"),
    # lists JSON: the universe
    "lists-not-a-map": (ONE_VERTEX, '{"universe": [1], "lists": [5]}',
                        "lists JSON must map vertices to colour lists"),
    "universe-not-iterable": (ONE_VERTEX, '{"universe": 1, "lists": {"0": [1]}}', UNIVERSE_RULE),
    "universe-a-string": (ONE_VERTEX, '{"universe": "12", "lists": {"0": [1]}}', UNIVERSE_RULE),
    "infinite-colour": (ONE_VERTEX, '{"universe": [Infinity], "lists": {"0": [1]}}',
                        UNIVERSE_RULE),
    "universe-not-integers": (
        TRIANGLE, '{"universe": ["1", 2.5, true], "lists": {"0": [1], "1": [2], "2": [1]}}',
        UNIVERSE_RULE),
    "universe-over-the-limit": (
        ONE_VERTEX,
        json.dumps({"universe": list(range(MAX_INPUT_VERTICES + 1)), "lists": {"0": [1]}}),
        "lists JSON universe has 65537 colours, over the limit of 65536"),
    "negative-colour": (
        TRIANGLE, '{"universe": [-1, 2, 3], "lists": {"0": [-1], "1": [2], "2": [3]}}',
        f"lists JSON universe colour -1 {OUTSIDE_COLOURS}"),
    "colour-over-the-bound": (ONE_VERTEX, json.dumps({"universe": [1, 2**53], "lists": {"0": [1]}}),
                              f"lists JSON universe colour {2**53} {OUTSIDE_COLOURS}"),
    "long-colour-twice-in-a-list": (
        TRIANGLE, f'{{"universe": [{NINES}], "lists": {{"0": [{NINES}, {NINES}]}}}}',
        f"lists JSON universe colour {SHOWN} {OUTSIDE_COLOURS}"),
    "long-colour-twice-in-the-universe": (
        TRIANGLE, f'{{"universe": [{NINES}, 1, {NINES}], "lists": {{"0": [1]}}}}',
        f"lists JSON universe colour {SHOWN} {OUTSIDE_COLOURS}"),
    "colliding-colours": (ONE_VERTEX, COLLIDING_UNIVERSE,
                          f"lists JSON universe colour {COLLIDING} {OUTSIDE_COLOURS}", (), 1.0),
    "colliding-colours-with-a-budget": (
        ONE_VERTEX, COLLIDING_UNIVERSE, f"lists JSON universe colour {COLLIDING} {OUTSIDE_COLOURS}",
        ("--budget-seconds", "0.5"), 1.0),
    "colour-twice-in-the-universe": (
        TRIANGLE, '{"universe": [1, 2, 2, 3], "lists": {"0": [1], "1": [2], "2": [3]}}',
        "lists JSON universe repeats colour 2"),
    # lists JSON: the vertex keys, which are canonical and in range
    "key-with-leading-zero": (
        TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], "01": [2], "2": [3]}}',
        f"vertex key '01' {NOT_CANONICAL}"),
    "key-with-space": (
        TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], " 1": [2], "2": [3]}}',
        f"vertex key ' 1' {NOT_CANONICAL}"),
    "key-with-plus": (
        TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], "+1": [2], "2": [3]}}',
        f"vertex key '+1' {NOT_CANONICAL}"),
    "key-a-letter": (TRIANGLE, '{"universe": [1], "lists": {"0": [1], "x": [1]}}',
                     f"vertex key 'x' {NOT_CANONICAL}"),
    "key-of-5000-digits": (
        TRIANGLE, f'{{"universe": [1], "lists": {{"0": [1], "{FIVE_THOUSAND}": [1]}}}}',
        f"vertex key '{'9' * 60}'... (5000 characters) {NOT_CANONICAL}"),
    "key-minus-1": (TRIANGLE, '{"universe": [1], "lists": {"0": [1], "-1": [1]}}',
                    "vertex key -1 is outside 0..65535"),
    "key-65536": (TRIANGLE, '{"universe": [1], "lists": {"0": [1], "65536": [1]}}',
                  "vertex key 65536 is outside 0..65535"),
    "long-key": (TRIANGLE, f'{{"universe": [1], "lists": {{"{NINES}": [5]}}}}',
                 f"vertex key {SHOWN} is outside 0..65535"),
    # keys that share one int hash: held as ints in a dict and a set, 20,000 of
    # them took seconds before any budget applied
    "colliding-keys": (ONE_VERTEX, json.dumps({"universe": [1], "lists": {
        str(k * (2**61 - 1) + 7): [1] for k in range(20_000)}}),
        f"vertex key {COLLIDING} is outside 0..65535", ("--budget-seconds", "0.5"), 1.0),
    # lists JSON: the lists
    "list-not-iterable": (ONE_VERTEX, '{"universe": [1], "lists": {"0": 5}}',
                          "the list of vertex 0 is not an array of integers"),
    "list-a-string": (ONE_VERTEX, '{"universe": [1, 2], "lists": {"0": "12"}}',
                      "the list of vertex 0 is not an array of integers"),
    "list-type-names-its-vertex": (
        TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], "1": [2, "3"], "2": 3}}',
        "the list of vertex 1 is not an array of integers"),
    "colour-a-bool": (
        TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [true], "1": [2], "2": [3]}}',
        "the list of vertex 0 is not an array of integers"),
    "colour-a-float": (
        TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1], "1": [2.0], "2": [3]}}',
        "the list of vertex 1 is not an array of integers"),
    "colour-over-the-bound-in-a-list": (
        ONE_VERTEX, json.dumps({"universe": [1, 2**53 - 1], "lists": {"0": [2**53]}}),
        "list of vertex 0 leaves the universe"),
    "colour-twice-in-a-list": (
        TRIANGLE, '{"universe": [1, 2, 3], "lists": {"0": [1, 1], "1": [2], "2": [3]}}',
        "the list of vertex 0 repeats colour 1"),
    # the lists and the graph: the first vertex with no list, else the first key no vertex is
    "vertex-without-a-list": ('{"n_vertices": 2, "edges": [[0, 1]]}',
                              '{"universe": [1, 2], "lists": {"0": [1]}}',
                              f"{COVER}: vertex 1 has no list"),
    "list-key-no-vertex": ('{"n_vertices": 2, "edges": [[0, 1]]}',
                           '{"universe": [1, 2], "lists": {"0": [1], "1": [2], "2": [1]}}',
                           f"{COVER}: list key 2 is no vertex"),
}


@pytest.mark.parametrize("row", REFUSED)
def test_solve_list_refuses_bad_input_with_exit_2_and_one_short_message(tmp_path, capsys, row):
    graph_text, lists_text, message, *extra = REFUSED[row]
    argv, wall = extra or ((), 2.0)
    graph_path = tmp_path / "graph.in"
    graph_path.write_bytes(graph_text.encode())
    lists_path = tmp_path / "lists.json"
    lists_path.write_bytes(lists_text.encode())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                             "--lists", str(lists_path), *argv)
    assert time.perf_counter() - start < wall
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.splitlines()[0] == f"squaregap solve-list: {message}"
    assert len(err.encode()) < 1024
    assert envelope_of(err)["outcome"] == "error"


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


# spellings argparse reads that the plain reader leaves to it
OTHER_SPELLING = {"--format": "--form", "--lemma": "--lem", "--n": "--n=5"}
FALLBACK_WORDS = [*OTHER_SPELLING.values(), "-h", "--", "-1", ""]
WORD = st.sampled_from(FALLBACK_WORDS) | st.sampled_from(
    [*cli._COMMANDS, "frobnicate", "xml", "3", "x", "g",
     *{flag for *_, options in cli._COMMANDS.values() for flag in options}])
VALUES = {cli._order: ["3", "7", "182", "x", "-1"], cli._budget_seconds: ["1.5", "0", "nan", "-1"],
          None: ["g", ""]}


@st.composite
def command_lines(draw):
    """A command and most of its options in any order, each under its name or
    another spelling and with a value, valid or not; in one line of five an option
    given twice, and in one of three a word of any kind put in or swapped in."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    groups = []
    for flag in draw(st.permutations(list(options))):
        if not draw(st.integers(0, 3)):  # drop one option in four
            continue
        groups.append([draw(st.sampled_from([flag] * 3 + [OTHER_SPELLING.get(flag, flag)]))])
        spec = options[flag]
        if "action" not in spec:
            choices = [*spec["choices"], "xml"] if "choices" in spec else VALUES[spec.get("type")]
            groups[-1].append(draw(st.sampled_from(choices)))
    if groups and not draw(st.integers(0, 4)):
        groups.append(draw(st.sampled_from(groups)))
    argv = [command]
    for group in groups:
        argv += group
    if not draw(st.integers(0, 2)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(WORD)]
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=command_lines())
def test_plain_argv_reads_as_argparse_reads_it(argv):
    fast = cli._read_args(argv)
    dashed = [word for word in argv if word.startswith("-")]
    if set(argv) & set(FALLBACK_WORDS) or len(set(dashed)) < len(dashed):  # or a repeat
        assert fast is None
    if fast is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert vars(fast) == vars(cli._parse_args(argv))


# argparse's text, as the hand-built parser printed it before the option table
USAGE_VERIFY = """\
usage: squaregap verify [-h] --n N
                        [--lemma {all,nw,nv,independence,pq,structure}]
"""
USAGE_TOP = "usage: squaregap [-h] {construct,verify,certify,solve-list,mols} ...\n"
ARGPARSE_TEXT = {
    ("--help",): (0, USAGE_TOP + """
Construct graphs whose squares are complete multipartite and certify the gap
between choosability and chromatic number.

positional arguments:
  {construct,verify,certify,solve-list,mols}
    construct           build the graph and serialize it
    verify              run the structural checks
    certify             emit a choosability-gap certificate
    solve-list          decide list-colorability of a graph file
    mols                print the orthogonal Latin square family

options:
  -h, --help            show this help message and exit
""", ""),
    ("verify", "--help"): (0, USAGE_VERIFY + """
options:
  -h, --help            show this help message and exit
  --n N
  --lemma {all,nw,nv,independence,pq,structure}
""", ""),
    ("frobnicate",): (2, "", USAGE_TOP + "squaregap: error: argument command: invalid choice: "
                      "'frobnicate' (choose from 'construct', 'verify', 'certify', "
                      "'solve-list', 'mols')\n"),
    ("verify", "--n", "x"): (2, "", USAGE_VERIFY + "squaregap verify: error: argument --n: "
                             "must be an integer, got 'x'\n"),
    ("solve-list", "--graph", "g"): (2, "", """\
usage: squaregap solve-list [-h] --graph GRAPH --lists LISTS
                            [--budget-seconds BUDGET_SECONDS]
squaregap solve-list: error: the following arguments are required: --lists
"""),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's wording changes between Python releases; "
                           "pinned as Python 3.11 prints it")
@pytest.mark.parametrize("argv", ARGPARSE_TEXT, ids=" ".join)
def test_argparse_help_and_usage_errors_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert (info.value.code, captured.out, captured.err) == ARGPARSE_TEXT[argv]


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
    # colour 10**12 would be a 125 GB mask as a raw bit position; 2^53 - 1 is
    # the largest colour
    big, largest = 10**12, 2**53 - 1
    for graph_text, lists, coloring in [
            (TRIANGLE, {"universe": [5, big, big + 1],
                        "lists": {"0": [big], "1": [5, big], "2": [big, big + 1]}},
             {"0": big, "1": 5, "2": big + 1}),
            (ONE_VERTEX, {"universe": [1, largest], "lists": {"0": [largest]}}, {"0": largest})]:
        graph_path = tmp_path / "g.json"
        graph_path.write_text(graph_text)
        lists_path = tmp_path / "lists.json"
        lists_path.write_text(json.dumps(lists))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "solve-list", "--graph", str(graph_path),
                               "--lists", str(lists_path))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert json.loads(out)["coloring"] == coloring


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


def test_mols_check_that_fails_exits_1(capsys, monkeypatch):
    # column 1 repeats 1: a family whose one square is not Latin
    monkeypatch.setattr(cli, "build_mols_family", lambda n: (((1, 2, 3), (1, 3, 2), (2, 1, 3)),))
    code, out, err = run_cli(capsys, "mols", "--n", "3", "--check")
    assert code == 1
    assert out == "L_1\n1 2 3\n1 3 2\n2 1 3\n\nlatin: FAILED\northogonal: ok\n"
    assert envelope_of(err)["outcome"] == "fail"


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


class FailingStdout(io.StringIO):
    """A stdout whose first write goes through and whose later ones fail."""

    def write(self, text):
        if self.tell():
            raise OSError(errno.EPIPE, "Broken pipe")
        return super().write(text)


def test_a_stdout_that_fails_mid_stream_exits_3_after_part_of_the_payload(capsys,
                                                                          monkeypatch):
    _, payload, _ = run_cli(capsys, "construct", "--n", "31", "--format", "json")
    stdout = FailingStdout()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", stdout)
        code = main(["construct", "--n", "31", "--format", "json"])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.splitlines()[0] == "squaregap construct: [Errno 32] Broken pipe"
    assert envelope_of(err)["outcome"] == "error"
    # the first batch of about 64 KiB went out, and nothing after it
    written = stdout.getvalue()
    assert cli._BATCH <= len(written) < 2 * cli._BATCH and payload.startswith(written)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_output_file_exits_3_without_a_traceback(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "31", "--format", "json",
                             "--output", "/dev/full")
    assert (code, out) == (3, "")
    assert "Traceback" not in err
    assert err.splitlines()[0] == "squaregap construct: [Errno 28] No space left on device"
    assert len(err.splitlines()) == 2
    assert envelope_of(err)["outcome"] == "error"


def test_construct_streams_its_payload_in_bounded_memory(tmp_path, capsys):
    # the payload is 1.5 MB; streamed, the run holds a batch of it at a time
    import tracemalloc
    target = tmp_path / "g31.json"
    tracemalloc.start()
    try:
        code = main(["construct", "--n", "31", "--format", "json", "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.stat().st_size > 1_500_000
    assert peak < 1_500_000, peak  # about 1.2 MB; 5.4 MB when the payload was one string


def test_closed_stderr_leaves_stdout_to_the_payload(capsys, monkeypatch):
    code, payload, _ = run_cli(capsys, "mols", "--n", "3")
    with monkeypatch.context() as m:
        m.setattr(sys, "stderr", None)
        assert main(["mols", "--n", "3"]) == 0
    assert capsys.readouterr().out == payload
    proc = run_with_fd_closed(2, "mols", "--n", "3")
    assert (proc.returncode, proc.stdout) == (0, payload)
