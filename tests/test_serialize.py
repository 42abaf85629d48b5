import json

import pytest

from squaregap import serialize
from squaregap.coloring import ListAssignment, certify_gap
from squaregap.construction import construct_counterexample
from squaregap.graphcore import SimpleGraph
from squaregap.verification import check_lemma_nw


def triangle():
    return SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_json_dumps_is_stable():
    a = serialize.json_dumps({"b": 1, "a": [2, 3]})
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert a == serialize.json_dumps({"a": [2, 3], "b": 1})


def test_dimacs_header_for_n3():
    gc = construct_counterexample(3)
    text = serialize.graph_to_dimacs(gc.graph)
    lines = text.splitlines()
    assert lines[0] == "p edge 15 27"
    assert len(lines) == 28
    assert lines[1].startswith("e ")


def test_dimacs_round_trip():
    for n in (3, 5):
        g = construct_counterexample(n).graph
        assert serialize.parse_dimacs(serialize.graph_to_dimacs(g)) == g


def test_dimacs_edges_are_one_based_sorted():
    text = serialize.graph_to_dimacs(triangle())
    assert text == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def test_parse_dimacs_accepts_comments_and_blanks():
    g = serialize.parse_dimacs("c a comment\n\np edge 2 1\nc another\ne 1 2\n")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_dimacs_rejects_malformed_input():
    with pytest.raises(ValueError):
        serialize.parse_dimacs("e 1 2\n")  # no problem line
    with pytest.raises(ValueError):
        serialize.parse_dimacs("p edge 2\ne 1 2\n")
    with pytest.raises(ValueError):
        serialize.parse_dimacs("p edge 2 1\ne 1\n")
    with pytest.raises(ValueError):
        serialize.parse_dimacs("p edge 2 1\nx 1 2\n")
    with pytest.raises(ValueError):
        serialize.parse_dimacs("p edge 2 1\ne 1 3\n")  # vertex out of range


def test_dot_output():
    text = serialize.graph_to_dot(triangle(), {0: "a", 1: "b"})
    assert text == ('graph G {\n  0 [label="a"];\n  1 [label="b"];\n  2;\n'
                    "  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n")


def test_constructed_json_shape():
    gc = construct_counterexample(3)
    doc = serialize.constructed_to_json_dict(gc)
    assert doc["n_vertices"] == 15
    assert len(doc["edges"]) == 27
    assert doc["labels"]["0"] == "v_1_1"
    assert doc["labels"]["14"] == "w_2_3"
    assert sorted(doc["parts"]) == ["P_1", "P_2", "P_3", "Q_1", "Q_2"]
    assert sorted(doc["cliques"]) == ["T_1", "T_2", "T_3"]
    assert doc["parts"]["Q_2"] == [12, 13, 14]
    assert doc["cliques"]["T_1"] == [0, 3, 6]


def test_graph_json_round_trip():
    gc = construct_counterexample(3)
    text = serialize.json_dumps(serialize.constructed_to_json_dict(gc))
    g, doc = serialize.parse_graph_json(text)
    assert g == gc.graph
    assert doc["labels"]["9"] == "w_1_1"


def test_parse_graph_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        serialize.parse_graph_json('{"edges": []}')
    with pytest.raises(ValueError):
        serialize.parse_graph_json('[1, 2]')


def test_vertex_count_limit_is_inclusive():
    # the guard refuses counts above the limit, not the limit itself
    limit = serialize.MAX_INPUT_VERTICES
    assert serialize.parse_dimacs(f"p edge {limit} 0\n").n == limit
    g, _ = serialize.parse_graph_json(json.dumps({"n_vertices": limit, "edges": []}))
    assert g.n == limit
    with pytest.raises(ValueError, match="exceeds the limit"):
        serialize.parse_dimacs(f"p edge {limit + 1} 0\n")
    with pytest.raises(ValueError, match="exceeds the limit"):
        serialize.parse_graph_json(json.dumps({"n_vertices": limit + 1, "edges": []}))


def test_lists_round_trip():
    a = ListAssignment(universe=(1, 2, 3), lists={0: frozenset({1, 2}), 1: frozenset({3})})
    doc = serialize.lists_to_json_dict(a)
    assert doc == {"universe": [1, 2, 3], "lists": {"0": [1, 2], "1": [3]}}
    back = serialize.parse_lists_json(json.dumps(doc))
    assert back.lists == a.lists
    assert tuple(sorted(back.universe)) == a.universe


def test_parse_lists_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        serialize.parse_lists_json('{"universe": [1]}')


def test_report_json():
    gc = construct_counterexample(3)
    doc = serialize.report_to_json_dict(check_lemma_nw(gc))
    assert doc == {"lemma_id": "nw", "checked_cases": 57, "passed": True,
                   "witness": None, "failure_count": 0}


def test_certificate_json():
    doc = serialize.certificate_to_json_dict(certify_gap(3))
    assert doc["n"] == 3
    assert doc["chromatic"] == 5
    assert doc["not_choosable"] == 6
    assert doc["gap_lower"] == 2
    assert doc["blocks"] == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert doc["refutation"]["complete"] is True
    assert len(doc["chromatic_coloring"]) == 15
    assert len(doc["refuted_lists"]["lists"]) == 15
    # the whole document must be JSON-serializable and byte-stable
    assert serialize.json_dumps(doc) == serialize.json_dumps(
        serialize.certificate_to_json_dict(certify_gap(3)))
