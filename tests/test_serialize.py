import json
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import pairs_to_dimacs, pairs_to_dot, pairs_to_json_dict
from squaregap import serialize
from squaregap.coloring import ListAssignment, certify_gap, vetrik_assignment
from squaregap.construction import construct_counterexample
from squaregap.errors import clip
from squaregap.graphcore import SimpleGraph, square
from squaregap.verification import check_lemma_nw


def triangle():
    return SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_json_dumps_is_stable():
    a = serialize.json_dumps({"b": 1, "a": [2, 3]})
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert a == serialize.json_dumps({"a": [2, 3], "b": 1})


_STRINGS = st.text() | st.sampled_from(["", 'say "hi"', "two\nlines", "back\\slash",
                                        "tab\there", "\u00fcber", "\U0001f600", "\r\n"])
_INTS = st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _STRINGS
_INT_LISTS = st.lists(_INTS | st.booleans(), max_size=6)
# Rows of any width (1 included, widths unequal), as lists or tuples: the
# matrix path joins them all in one pass whatever their widths.
_INT_MATRICES = st.lists(st.lists(_INTS, max_size=4)
                         | st.lists(_INTS, min_size=1, max_size=4).map(tuple)
                         | st.lists(_INTS, min_size=1, max_size=1), max_size=5)
# One drawn list, the same object wherever a tree places it: json_dumps
# renders it once per depth and then looks it up.
_SHARED = (st.shared(st.lists(_INTS, min_size=1, max_size=4), key="list")
           | st.shared(st.lists(_INTS, min_size=1, max_size=4).map(tuple), key="tuple"))
_TREES = st.recursive(
    _SCALARS | _INT_LISTS | _INT_MATRICES | _SHARED,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_STRINGS, children, max_size=5)
                      | st.dictionaries(st.integers(), children, max_size=3)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_json_dumps_matches_the_standard_library(obj):
    assert serialize.json_dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# One list object at several keys and depths, which json_dumps renders once
# per depth and then looks up.
_X = [1, 2]
_T = (3, -4, 5)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[1], []], [[], [1]], [True, 1], [[1, 2], [False]], [[1, 2], (3,)],
    {"a": {}, "b": [], "c": [[]]}, {"x": [[1, 2], [3, 4]], "y": [5, -6]}, [1.0, 2],
    {1: [1, 2], 2: {"z": None}}, [[10**30, -(10**30)]], ["\n", 'q"q'],
    [(0, 1), (0, 2)], [[1], [2]], [(7,)], [[1, 2, 3], (4,), [5, 6]],
    [_X, [_X], {"k": _X}], {"a": _X, "b": _X, "c": {"d": _X, "e": [_X, _X]}},
    [_T, (_T, _X), {"t": _T}, [[_T]]], ([_X], _X, ({"x": _X},)),
    [_X, [True, _X], [_X, 1.5], [_X, None]], {"a": [_X], "b": _X, "c": [[_X]], "d": _X},
    # int lists at and over the length json_chunks gives one piece, the longer walked
    list(range(serialize._LIST_PIECE)), {"c": [list(range(2000)), _X], "t": tuple(range(1025))},
    *[nest(value) for value in (True, False, None, [], {})  # at depths 0 to 3
      for nest in (lambda x: x, lambda x: [x], lambda x: {"k": [x]}, lambda x: [{"k": [x]}])],
])
def test_json_dumps_matches_the_standard_library_on_edge_cases(obj):
    assert serialize.json_dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dimacs_header_for_n3():
    gc = construct_counterexample(3)
    text = serialize.graph_to_dimacs(gc.graph.n, gc.graph.upper())
    lines = text.splitlines()
    assert lines[0] == "p edge 15 27"
    assert len(lines) == 28
    assert lines[1].startswith("e ")


def test_dimacs_round_trip():
    for n in (3, 5):
        g = construct_counterexample(n).graph
        assert serialize.parse_dimacs(serialize.graph_to_dimacs(g.n, g.upper())) == g


def test_dimacs_edges_are_one_based_sorted():
    text = serialize.graph_to_dimacs(3, triangle().upper())
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


# Each input's parse result, or its ValueError message, as the line loop gives
# them.  Only a canonical edge block after a header with a problem line takes
# the bulk path; the inputs from "bracketed-pairs" on are near-canonical ones
# that must leave it and keep the loop's graph or exact message.
DIMACS_SEMANTICS = {
    "indented-comment": ("  c a comment\n\tc another\np edge 3 2\ne 1 2\ne 2 3\n",
                         (3, [(0, 1), (1, 2)])),
    "cfoo-comment": ("cfoo\nc\np edge 2 1\ncomment 1 2\ne 1 2\n", (2, [(0, 1)])),
    "tabs": ("p\tedge\t3\t2\n\te\t1\t2\t\ne 2\t3\n", (3, [(0, 1), (1, 2)])),
    "edges-before-p": ("e 1 2\ne 2 3\np edge 3 2\n", (3, [(0, 1), (1, 2)])),
    "three-endpoints": ("p edge 3 1\ne 1 2\n\ne 1 2 3\n",
                        "line 4: malformed edge line 'e 1 2 3'"),
    "crlf": ("c x\r\np edge 3 2\r\ne 1 2\r\n\r\ne 1 3\r\n", (3, [(0, 1), (0, 2)])),
    "short-edge": ("p edge 3 1\n  e 1  \n", "line 2: malformed edge line 'e 1'"),
    "bad-p": ("c\n  p edge 3\n", "line 2: malformed problem line 'p edge 3'"),
    "bad-p-kind": ("p col 3 1\n", "line 1: malformed problem line 'p col 3 1'"),
    "unknown": ("p edge 3 1\nx 1 2\n", "line 2: unknown record 'x'"),
    "non-int": ("p edge 3 1\ne 1 x\n", "line 2: malformed edge line 'e 1 x'"),
    "non-int-count": ("p edge x 1\n", "line 1: malformed problem line 'p edge x 1'"),
    "decimal-endpoint": ("p edge 3 1\ne 1 2.5\n", "line 2: malformed edge line 'e 1 2.5'"),
    "out-of-range": ("p edge 3 1\ne 1 4\n", "line 2: edge 1 4 out of range for 3 vertices"),
    "self-loop": ("p edge 3 1\ne 2 2\n", "line 2: self-loop at 2 not allowed"),
    "no-p": ("c only\ne 1 2\n", "missing 'p edge' problem line"),
    "two-p": ("p edge 2 1\np edge 4 1\ne 3 4\n", (4, [(2, 3)])),
    # only the problem line in effect is held to the vertex limit
    "overridden-huge-p": ("p edge 70000 0\np edge 2 1\ne 1 2\n", (2, [(0, 1)])),
    "huge-p": ("c x\np edge 2 1\np edge 70000 0\ne 1 2\n",
               "line 3: vertex count 70000 exceeds the limit of 65536"),
    "negative-p": ("p edge -3 0\n", "line 1: vertex count must be nonnegative, got -3"),
    "negative-p-after-edges": ("p edge 3 1\ne 1 2\n\np edge -3 1\n",
                               "line 4: vertex count must be nonnegative, got -3"),
    "vertical-tab": ("p edge 2 1\x0be 1 2\n", (2, [(0, 1)])),
    "word-edge-count": ("p edge 3 banana\ne 1 2\n",
                        "line 1: malformed problem line 'p edge 3 banana'"),
    "negative-edge-count": ("p edge 3 -1\n", "line 1: malformed problem line 'p edge 3 -1'"),
    "canonical": ("c g\np edge 4 3\ne 1 2\ne 1 4\ne 3 4\n", (4, [(0, 1), (0, 3), (2, 3)])),
    "bracketed-pairs": ("p edge 4 2\ne 1 2],[3 4\n",
                        "line 2: malformed edge line 'e 1 2],[3 4'"),
    "three-then-one-endpoint": ("p edge 4 2\ne 1 2 3\ne 4\n",
                                "line 2: malformed edge line 'e 1 2 3'"),
    "no-final-newline": ("p edge 45 2\ne 1 2\ne 3 45", (45, [(0, 1), (2, 44)])),
    "leading-zero": ("p edge 3 2\ne 01 2\ne 2 3\n", (3, [(0, 1), (1, 2)])),
    "exponent": ("p edge 3 1\ne 1 2e3\n", "line 2: malformed edge line 'e 1 2e3'"),
    "vertex-zero": ("p edge 3 1\ne 0 1\n", "line 2: edge 0 1 out of range for 3 vertices"),
    "tab-edge-in-header": ("p edge 3 2\ne\t1\t2\ne 2 3\n", (3, [(0, 1), (1, 2)])),
    "p-after-edges": ("p edge 3 1\ne 1 2\np edge 4 1\n", (4, [(0, 1)])),
    "comment-after-edges": ("p edge 3 2\ne 1 2\nc done\ne 2 3\n", (3, [(0, 1), (1, 2)])),
    "crlf-body": ("p edge 3 2\r\ne 1 2\r\ne 2 3\r\n", (3, [(0, 1), (1, 2)])),
    # "e  \n" once per line with the digits deleted, but the second line's
    # "e" is not at its start: JSON would read 2e0 as the float 2.0
    "digits-before-e": ("p edge 9 2\ne 1 \n2e0 4 5\n", "line 2: malformed edge line 'e 1'"),
    # the same with no exponent: a newline not followed by "e " still leaves the bulk path
    "digits-before-bare-e": ("p edge 9 2\ne 1 \n2e 4 5\n", "line 2: malformed edge line 'e 1'"),
    "digits-after-last-newline": ("p edge 6 1\ne 2 1\n6", "line 3: unknown record '6'"),
    # int() also reads "1_0" and non-ASCII digits, which a problem or edge line may not hold;
    # a sign and leading zeros still read, and a comment may hold any character (among
    # the edges, it leaves the block to the line loop)
    "underscore-endpoint": ("p edge 12 1\ne 1 1_0\n", "line 2: malformed edge line 'e 1 1_0'"),
    "arabic-indic-endpoint": ("p edge 3 1\ne 1 \u0663\n",
                              "line 2: malformed edge line 'e 1 \u0663'"),
    "arabic-indic-count": ("p edge \u0663 0\n", "line 1: malformed problem line 'p edge \u0663 0'"),
    "underscore-count": ("p edge 1_0 0\n", "line 1: malformed problem line 'p edge 1_0 0'"),
    "plus-sign": ("p edge +3 1\ne +1 02\n", (3, [(0, 1)])),
    "non-ascii-comment": ("p edge 3 2\ne 1 2\nc \u0663 \u00e9\ne 2 3\n", (3, [(0, 1), (1, 2)])),
}


@pytest.mark.parametrize("text,expected", DIMACS_SEMANTICS.values(), ids=DIMACS_SEMANTICS)
def test_parse_dimacs_semantics(text, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            serialize.parse_dimacs(text)
        assert str(info.value) == expected
    else:
        g = serialize.parse_dimacs(text)
        assert (g.n, g.edges()) == expected


def _outcome(parse, text):
    """parse(text) as comparable data, or the message of the ValueError it raises."""
    try:
        result = parse(text)
    except ValueError as exc:
        return str(exc)
    return (result.n, result.adj) if isinstance(result, SimpleGraph) else result


def _by_loop(parse, bulk_helper, **refusal):
    """parse with its bulk helper refusing every input, as refusal (mock's
    return_value or side_effect) has it refuse one, so the loop reads all."""
    def loop_only(text):
        with mock.patch.object(serialize, bulk_helper, **refusal):
            return parse(text)
    return loop_only


_NEAR_CANONICAL_LINES = ["e 2 2", "e 0 1", "e 1 5", "e 01 2", "e 1 2e3", "e 1 2 3", "e 4",
                         "e  1 2", "e 1 2 ", "e 1 2],[3 4", "e 1 -2", "e +1 2", "e 1 \u0663",
                         "e\t1\t2", " e 1 2", "e", "e e 1", "x 1 2", "c late", "p edge 5 1",
                         "p edge 2", "", "2e0 3 4", "1e 2 3"]


@st.composite
def _dimacs_texts(draw):
    """A canonical text, comments and a problem line then edge lines, in which
    up to two lines or line ends are swapped for near-canonical ones."""
    lines = draw(st.lists(st.sampled_from(["c a comment", "cfoo", ""]), max_size=2))
    lines.insert(draw(st.integers(0, len(lines))),
                 draw(st.sampled_from(["p edge 4 3", "p edge 12 1", "p edge 3 0"])))
    lines += draw(st.lists(st.sampled_from(["e 1 2", "e 2 3", "e 3 4", "e 1 4", "e 4 1",
                                            "e 10 12"]), min_size=1, max_size=6))
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if draw(st.booleans()):
            lines[i] = draw(st.sampled_from(_NEAR_CANONICAL_LINES))
        else:
            ends[i] = draw(st.sampled_from(["\r\n", "\r", "\x0b", ""]))
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=400, deadline=None)
@given(_dimacs_texts())
@example("p edge 4 2\ne 1 2\ne 3 4")
@example("p edge 4 2\ne 1 2 3\ne 4\n")
@example("e 1 2\np edge 2 1\ne 1 2\n")
@example("p edge 4 2\ne 1 2 \n2e0 3 4\n")
@example("p edge 4 2\ne 1 \n2e 3 4\n")
@example("p edge 70000 0\ne 1 2\np edge 2 1\n")  # the last problem line wins, after the edges
def test_parse_dimacs_matches_its_line_loop(text):
    assert _outcome(serialize.parse_dimacs, text) == _outcome(
        _by_loop(serialize.parse_dimacs, "_edge_block", side_effect=ValueError), text)


def test_parse_dimacs_reads_writer_output_in_bulk():
    # the line loop sees only the header: the edge lines are one json.loads
    g = construct_counterexample(5).graph
    text = "c G for n = 5\n" + serialize.graph_to_dimacs(g.n, g.upper())
    with mock.patch.object(serialize, "_dimacs_records",
                           wraps=serialize._dimacs_records) as loop:
        assert serialize.parse_dimacs(text) == g
    loop.assert_called_once_with(["c G for n = 5", "p edge 45 150"])


def test_parse_dimacs_clips_what_its_errors_echo():
    # a field or line longer than 60 characters is cut, with its length named
    for text, expected in [
        ("x" * 60, f"line 1: unknown record {'x' * 60!r}"),
        ("x" * 300_000, f"line 1: unknown record {'x' * 60!r}... (300000 characters)"),
        ("e" + " 1" * 40, f"line 1: malformed edge line {('e' + ' 1' * 40)[:60]!r}"
                          "... (81 characters)"),
        ("e 1 " + "x" * 300, f"line 1: malformed edge line {('e 1 ' + 'x' * 300)[:60]!r}"
                             "... (304 characters)"),
    ]:
        with pytest.raises(ValueError) as info:
            serialize.parse_dimacs(text)
        assert str(info.value) == expected


def test_dot_output():
    text = serialize.graph_to_dot(3, triangle().upper(), {0: "a", 1: "b"})
    assert text == ('graph G {\n  0 [label="a"];\n  1 [label="b"];\n  2;\n'
                    "  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n")


def test_dot_labels_escape_backslashes_and_quotes():
    text = serialize.graph_to_dot(2, [[1], []], {0: 'a"b', 1: "c\\"})
    assert text == 'graph G {\n  0 [label="a\\"b"];\n  1 [label="c\\\\"];\n  0 -- 1;\n}\n'


@st.composite
def _labelled_graphs(draw):
    """A graph on up to 12 vertices and a label map that may miss vertices or
    give them "" or None, and whose labels may hold backslashes and quotes."""
    n = draw(st.integers(min_value=0, max_value=12))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    g = SimpleGraph.from_edges(n, [e for e, take in zip(slots, picks) if take])
    names = st.none() | st.sampled_from(["", "a", "v_1_2", "w 3", 'say "hi"', "C:\\v",
                                         '\\"', '"\\'])
    labels = draw(st.dictionaries(st.integers(min_value=0, max_value=max(n - 1, 0)), names,
                                  max_size=n))
    return g, labels


@settings(max_examples=200, deadline=None)
@given(_labelled_graphs())
@example((SimpleGraph(0, ()), {}))
@example((SimpleGraph(3, (0,) * 3), {0: "a", 1: "", 2: None}))
@example((SimpleGraph.from_edges(5, [(1, 2), (1, 3), (2, 3)]), {4: "last"}))
@example((SimpleGraph(2, (0, 0)), {0: '\\"', 1: 'say "hi"'}))
def test_writers_match_the_pair_list_oracles(graph_and_labels):
    g, labels = graph_and_labels
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]
    upper = g.upper()
    assert serialize.graph_to_dimacs(g.n, upper) == pairs_to_dimacs(g.n, pairs)
    assert serialize.graph_to_dot(g.n, upper, labels) == pairs_to_dot(g.n, pairs, labels)
    assert serialize.graph_to_dot(g.n, upper) == pairs_to_dot(g.n, pairs)
    parts = {"P_1": list(range(g.n))[::-1], "Q_1": []}
    cliques = {"T_1": [v for v, _ in pairs[:1]]}
    doc = serialize.graph_to_json_dict(g.n, upper, labels, parts, cliques)
    want = pairs_to_json_dict(g.n, pairs, labels, parts, cliques)
    assert serialize.json_dumps(doc) == json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert len(json.loads(serialize.json_dumps(doc))["edges"]) == len(pairs)
    # EdgeRows indents to its depth anywhere in a document
    nested = {"a": [serialize.EdgeRows(upper), {"b": serialize.EdgeRows(upper)}]}
    assert serialize.json_dumps(nested) == json.dumps(
        {"a": [pairs, {"b": pairs}]}, sort_keys=True, indent=2) + "\n"


def test_constructed_json_shape():
    gc = construct_counterexample(3)
    doc = serialize.constructed_to_json_dict(gc.n, gc.graph.upper())
    assert doc["n_vertices"] == 15
    assert len(json.loads(serialize.json_dumps(doc))["edges"]) == 27
    assert doc["labels"]["0"] == "v_1_1"
    assert doc["labels"]["14"] == "w_2_3"
    assert sorted(doc["parts"]) == ["P_1", "P_2", "P_3", "Q_1", "Q_2"]
    assert sorted(doc["cliques"]) == ["T_1", "T_2", "T_3"]
    assert doc["parts"]["Q_2"] == [12, 13, 14]
    assert doc["cliques"]["T_1"] == [0, 3, 6]


def test_graph_json_round_trip():
    gc = construct_counterexample(3)
    text = serialize.json_dumps(serialize.constructed_to_json_dict(gc.n, gc.graph.upper()))
    g, doc = serialize.parse_graph_json(text)
    assert g == gc.graph
    assert doc["labels"]["9"] == "w_1_1"


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
def test_a_text_that_could_hold_a_bool_reads_the_same(n):
    # "true" in a label sends the edges through the per-edge type check,
    # which must let the canonical edges through unchanged
    g = construct_counterexample(n).graph
    doc = serialize.constructed_to_json_dict(n, g.upper())
    plain = serialize.parse_graph_json(serialize.json_dumps(doc))
    doc["labels"]["0"] = "true"
    text = serialize.json_dumps(doc)
    assert '"true"' in text
    tagged = serialize.parse_graph_json(text)
    assert plain[0] == tagged[0] == g
    assert tagged[1] == {**plain[1], "labels": {**plain[1]["labels"], "0": "true"}}


def test_a_label_true_before_every_other_t_reads_the_same():
    # the bool guard looks for "true" from the first t on, which here is the label's
    text = '{"labels": {"0": "true"}, "n_vertices": 3, "edges": [[0, 1], [1, 2]]}'
    assert text.find("t") == text.find("true")
    g, doc = serialize.parse_graph_json(text)
    assert g == SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert doc["labels"] == {"0": "true"}


@pytest.mark.parametrize("text", [
    '{"edges": [[0, true]], "n_vertices": 3}',  # the text's first t starts the bool
    '{"edges": [[false, 1]], "n_vertices": 3}',  # and its first f
    '{"labels": {"0": "true"}, "edges": [[2, true]], "n_vertices": 3}',
    '{"labels": {"0": "f"}, "edges": [[false, 2]], "n_vertices": 3}',
])
def test_a_bool_at_or_after_the_first_t_or_f_is_refused(text):
    # each bool here reads as a valid endpoint to from_edges, so only the guard refuses it
    with pytest.raises(ValueError, match="^graph JSON edges must be an array of integer pairs$"):
        serialize.parse_graph_json(text)


def test_parse_graph_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        serialize.parse_graph_json('{"edges": []}')
    with pytest.raises(ValueError):
        serialize.parse_graph_json('[1, 2]')


# A small graph JSON document in json_dumps's layout, which the bulk path reads
CANONICAL = serialize.json_dumps({"edges": [[0, 1], [1, 2], [2, 3]],
                                  "labels": {"0": "a", "1": "b"}, "n_vertices": 4})
NESTED = '{\n  "a": {\n  "edges": [\n    [\n      0,\n      3\n    ]\n  ]},'
PAIR_03 = '\n    [\n      0,\n      3\n    ]'


def _mutated(old, new, count=1):
    assert old in CANONICAL
    return CANONICAL.replace(old, new, count)


# Texts in or near the bulk path's layout, each of which the bulk path must read
# as the full reader does, graph and document or message
GRAPH_JSON_HOSTILE = {
    "canonical": CANONICAL,
    "nested-edges-key-first": NESTED + CANONICAL[1:],
    "nested-edges-key-alone": ('{"n_vertices": 4, "edges": [[0, 1]], "x": {\n  "edges": ['
                               + PAIR_03 + '\n  ]}}'),
    "nested-edges-key-after-infinity": ('{"n_vertices": 4, "edges": Infinity, "x": {\n  "edges": ['
                                        + PAIR_03 + '\n  ]}}'),
    "nan-in-a-label-before": '{"0": "NaN",' + CANONICAL[1:],
    "nan-in-a-label-after": _mutated('"b"', '"NaN"'),
    "nan-vertex-count": _mutated('"n_vertices": 4', '"n_vertices": NaN'),
    "edges-twice-compact-first": '{"edges": [[0, 3]],' + CANONICAL[1:],
    "edges-twice-compact-after": _mutated('"n_vertices": 4', '"n_vertices": 4, "edges": [[0, 3]]'),
    "edges-twice-in-layout": _mutated('\n  "n_vertices"', f'\n  "edges": [{PAIR_03}\n  ],'
                                                       '\n  "n_vertices"'),
    "digit-in-the-indentation": _mutated("[\n      0,", "[\n   0   ,"),
    "digit-in-the-indentation-between-two": _mutated("[\n      1,", "[\n   7   1,"),
    "digit-before-the-first-bracket": _mutated("\n    [\n      0,", "\n    0[\n      ,"),
    "digit-before-a-later-bracket": _mutated("\n    [\n      1,", "\n    1[\n      ,"),
    "digit-after-a-bracket": _mutated("2\n    ],", "\n    ]2,"),
    "digit-after-the-last-bracket": _mutated("3\n    ]\n  ]", "\n    ]3\n  ]"),
    "leading-zero": _mutated("      2,", "      02,"),
    "negative-endpoint": _mutated("      2,", "      -2,"),
    "trailing-comma": _mutated("    ]\n  ]", "    ],\n  ]"),
    "non-ascii-digit": _mutated("      2,", "      \u0663,"),
    "fullwidth-digit": _mutated("      2,", "      \uff12,"),
    "endpoint-out-of-range": _mutated("3\n    ]", "4\n    ]"),
    "self-loop": _mutated("      2,\n      3", "      3,\n      3"),
    "pair-of-three": _mutated("      1\n    ],", "      1,\n      2\n    ],"),
    "exponent": _mutated("      2,", "      2e0,"),
    "text-after-the-array": _mutated("\n  ],", "\n  ] 7,"),
    "text-after-the-document": CANONICAL + "x",
    "vertex-count-over-the-limit": _mutated('"n_vertices": 4', '"n_vertices": 65537'),
    "vertex-count-negative": _mutated('"n_vertices": 4', '"n_vertices": -4'),
    "vertex-count-a-float": _mutated('"n_vertices": 4', '"n_vertices": 4.0'),
    "vertex-count-missing": _mutated(',\n  "n_vertices": 4', ""),
    "byte-order-mark": "\ufeff" + CANONICAL,
    "empty-array-in-layout": _mutated(CANONICAL[CANONICAL.index("["):CANONICAL.index("\n  ]")],
                                      "["),
    "a-list-not-an-object": "[" + CANONICAL + "]",
}


@pytest.mark.parametrize("text", GRAPH_JSON_HOSTILE.values(), ids=GRAPH_JSON_HOSTILE)
def test_graph_json_in_or_near_the_bulk_layout_reads_as_the_full_reader_reads_it(text):
    assert _outcome(serialize.parse_graph_json, text) == _outcome(
        _by_loop(serialize.parse_graph_json, "_graph_json_bulk", return_value=None), text)


def test_the_hostile_graph_json_table_takes_the_paths_it_should():
    # the table is worth its rows only if the canonical ones take the bulk path
    # and the faulty ones leave it
    full = _by_loop(serialize.parse_graph_json, "_graph_json_bulk", return_value=None)
    bulk = {name for name, text in GRAPH_JSON_HOSTILE.items()
            if serialize._graph_json_bulk(text) is not None}
    assert bulk == {"canonical", "digit-in-the-indentation"}
    assert _outcome(full, GRAPH_JSON_HOSTILE["digit-in-the-indentation"]) == _outcome(
        full, CANONICAL)
    assert _outcome(full, GRAPH_JSON_HOSTILE["nested-edges-key-alone"])[0] == (
        SimpleGraph.from_edges(4, [(0, 1)]))
    assert _outcome(full, GRAPH_JSON_HOSTILE["negative-endpoint"]) == (
        "edge (-2,3) out of range for 4 vertices")


@pytest.mark.parametrize("n", [3, 5, 11, 31])
def test_parse_graph_json_reads_writer_output_in_bulk(n):
    # no list of the edges: json.loads reads only the document around them
    gc = construct_counterexample(n)
    text = serialize.json_dumps(serialize.constructed_to_json_dict(n, gc.graph.upper()))
    with mock.patch.object(serialize, "_read_json", wraps=serialize._read_json) as read:
        g, doc = serialize.parse_graph_json(text)
    assert g == gc.graph
    assert "edges" not in doc and doc == {k: v for k, v in json.loads(text).items()
                                          if k != "edges"}
    read.assert_called_once()
    assert '"edges": NaN,' in read.call_args[0][0]


def _text_at(value, depth):
    """value as json.dumps indents it, at depth levels of two spaces."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def test_json_chunks_hold_one_vertex_entry_at_most():
    # a piece may add its separator and the keys that open its entry, 64
    # characters at most here, to the largest entry for one vertex: its edges
    # in construct's payload, and in certify's its list or the universe it is
    # drawn from (4n - 3 colours against 3n - 3), but never a list of every
    # vertex, such as the chromatic colouring
    upper = construct_counterexample(31).graph.upper()
    doc = serialize.constructed_to_json_dict(31, upper)
    entry = max(len(_text_at([[u, v] for v in row], 1)) for u, row in enumerate(upper))
    pieces = list(serialize.json_chunks(doc))
    assert len(pieces) > 1891 and "".join(pieces) == serialize.json_dumps(doc)
    assert max(map(len, pieces)) <= entry + 64, (max(map(len, pieces)), entry)
    doc = serialize.certificate_to_json_dict(certify_gap(31))
    lists = doc["refuted_lists"]["lists"]
    entry = max(len(f'"{v}": ') + len(_text_at(colours, 3))
                for v, colours in [*lists.items(), ("universe", doc["refuted_lists"]["universe"])])
    pieces = list(serialize.json_chunks(doc))
    assert len(pieces) > 2 * len(lists)  # one per list entry and one per colour of a vertex
    assert max(map(len, pieces)) <= entry + 64, (max(map(len, pieces)), entry)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_graph_readers_read_construct_output_in_bounded_memory():
    # n = 31: 1.6 MB of graph JSON and 0.5 MB of DIMACS, read in pieces of 64 KiB;
    # read whole, they peaked at 7.3 MB and 4.2 MB
    upper = construct_counterexample(31).graph.upper()
    text = serialize.json_dumps(serialize.constructed_to_json_dict(31, upper))
    peak = _traced_peak(lambda: serialize.parse_graph_json(text))
    assert peak < 2_000_000, peak  # about 1.55 MB
    text = serialize.graph_to_dimacs(len(upper), upper)
    peak = _traced_peak(lambda: serialize.parse_dimacs(text))
    assert peak < 1_750_000, peak  # about 1.32 MB


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


@pytest.mark.parametrize("size, parts", [(3, 5), (5, 9)])
def test_lists_json_of_a_certificate_shares_one_list_per_colour_set(size, parts):
    blocks = tuple(tuple(range(p * size, (p + 1) * size)) for p in range(parts))
    a = vetrik_assignment(blocks)[1]
    doc = serialize.lists_to_json_dict(a)
    rows = list(doc["lists"].values())
    assert len(rows) == size * parts
    assert len({id(row) for row in rows}) == len(set(map(tuple, rows))) == size
    for obj in (doc, {"refuted_lists": doc, "blocks": [rows[0], [rows[0]]]}):
        assert serialize.json_dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert serialize.parse_lists_json(serialize.json_dumps(doc)) == a


def test_lists_writer_refuses_a_list_that_leaves_the_universe():
    a = ListAssignment((1, 2), {0: frozenset({3})})
    with pytest.raises(ValueError) as err:
        serialize.lists_to_json_dict(a)
    assert str(err.value) == "list of vertex 0 leaves the universe"
    # the first such vertex in the assignment's order, not the smallest
    a = ListAssignment((1, 2), {4: frozenset({1}), 2: frozenset({0, 1}), 1: frozenset({2, 5})})
    with pytest.raises(ValueError) as err:
        serialize.lists_to_json_dict(a)
    assert str(err.value) == "list of vertex 2 leaves the universe"


@st.composite
def _assignments(draw):
    """An assignment inside parse_lists_json's bounds, its universe sorted."""
    universe = sorted(draw(st.sets(st.integers(0, 9) | st.integers(0, serialize.COLOUR_BOUND - 1),
                                   max_size=8)))
    colours = st.sets(st.sampled_from(universe)) if universe else st.just(set())
    lists = draw(st.dictionaries(st.integers(0, serialize.MAX_INPUT_VERTICES - 1),
                                 colours.map(frozenset), max_size=8))
    return ListAssignment(tuple(universe), lists)


@settings(max_examples=200, deadline=None)
@given(_assignments())
def test_lists_writer_round_trips_through_the_reader(a):
    text = serialize.json_dumps(serialize.lists_to_json_dict(a))
    assert serialize.parse_lists_json(text) == a


def test_parse_lists_json_names_the_vertex_whose_list_repeats_a_colour():
    doc = json.dumps({"universe": [1], "lists": {"0": [1, 1]}})
    with pytest.raises(ValueError) as err:
        serialize.parse_lists_json(doc)
    assert str(err.value) == "the list of vertex 0 repeats colour 1"


_CANONICAL_LISTS = (st.sampled_from([[1, 2], [2, 1], [1], [], [0, 3, 4]])
                    | st.lists(st.integers(min_value=-1, max_value=4), unique=True, max_size=4))


@st.composite
def _lists_maps(draw):
    """A lists map with canonical keys and integer lists, often equal, in
    which up to two entries are swapped for ones parse_lists_json refuses."""
    keys = st.integers(min_value=-1, max_value=5).map(str)
    lists = draw(st.dictionaries(keys, _CANONICAL_LISTS, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        key = draw(keys | st.sampled_from(["01", " 1", "+1", "1_0", "\u0663", "x", "", "-0",
                                           "9" * 5000]))
        colour = st.sampled_from([True, False, 1.0, 2.5, 10**30, 2**53, 2**53 - 1,
                                  [1], [1, 2], []])
        lists[key] = draw(_CANONICAL_LISTS | st.sampled_from([[2, 2], 5, "12", None, True, 1.5,
                                                              {"0": [1]}])
                          | st.lists(st.integers(min_value=0, max_value=2) | colour,
                                     min_size=1, max_size=4))
    return lists


_UNIVERSE = [0, 1, 2, 3, 4, 2**53 - 1]


def _by_rule_order(lists):
    """What parse_lists_json documents for _UNIVERSE and lists: the message
    of the first rule that some entry breaks, naming its first offender in
    document order, or else the assignment."""
    for key in lists:  # Python reads integers of up to 4,300 digits
        if not re.fullmatch("0|-?[1-9][0-9]{0,4299}", key):
            return f"vertex key {clip(key)} is not a canonical integer"
    for key in lists:
        if not 0 <= int(key) < serialize.MAX_INPUT_VERTICES:
            return f"vertex key {key} is outside 0..{serialize.MAX_INPUT_VERTICES - 1}"
    for key, colours in lists.items():
        if type(colours) is not list or any(type(c) is not int for c in colours):
            return f"the list of vertex {key} is not an array of integers"
    for key, colours in lists.items():
        if any(c not in _UNIVERSE for c in colours):
            return f"list of vertex {key} leaves the universe"
    for key, colours in lists.items():
        for i, c in enumerate(colours):
            if c in colours[:i]:
                return f"the list of vertex {key} repeats colour {c}"
    return ListAssignment(tuple(_UNIVERSE), {int(k): frozenset(c) for k, c in lists.items()})


@settings(max_examples=400, deadline=None)
@given(_lists_maps())
@example({"0": [1, 2], "1": [1, 2], "2": [2]})
@example({"0": [1, True]})
@example({"1_0": [1]})
@example({"0": [1, 1], "x": [1]})  # the key rule comes before the lists rules
def test_parse_lists_json_follows_its_rule_order(lists):
    text = json.dumps({"universe": _UNIVERSE, "lists": lists})
    assert _outcome(serialize.parse_lists_json, text) == _by_rule_order(lists)


def test_parse_lists_json_shares_one_frozenset_per_distinct_list():
    doc = {"universe": [1, 2, 3], "lists": {"0": [1, 2], "1": [3], "2": [1, 2], "3": [3]}}
    a = serialize.parse_lists_json(json.dumps(doc))
    assert a.lists == {0: {1, 2}, 1: {3}, 2: {1, 2}, 3: {3}}
    assert a.lists[0] is a.lists[2] and a.lists[1] is a.lists[3]


def test_parse_lists_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        serialize.parse_lists_json('{"universe": [1]}')


@pytest.mark.parametrize("kind, parse, text", [
    ("graph", serialize.parse_graph_json, '{"n_vertices": 1, "edges": []}'),
    ("lists", serialize.parse_lists_json, '{"universe": [1], "lists": {"0": [1]}}'),
])
def test_json_readers_name_a_leading_byte_order_mark(kind, parse, text):
    # json.loads would ask for a codec, which a caller holding text cannot choose
    parse(text)
    with pytest.raises(ValueError, match=rf"^malformed {kind} JSON: starts with a byte-order "
                                         r"mark \(U\+FEFF\)$"):
        parse("\ufeff" + text)


def test_report_json():
    gc = construct_counterexample(3)
    doc = serialize.report_to_json_dict(check_lemma_nw(square(gc.graph), gc))
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
