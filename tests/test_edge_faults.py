"""Faulty edges, met by SimpleGraph.from_edges and by both graph readers.

from_edges fills its bit rows in one loop and checks edge by edge only once
that fill fails, and both readers lean on the fill.  Every case here is held
against the per-edge loop from_edges once ran (oracles.rows_by_edge_checks),
behind each reader's own earlier rules: the exception type and message must
match, or the rows must.  The graph JSON reader meets each case twice, in
compact JSON and in the layout json_dumps writes, which it reads in bulk;
both readers meet each case again with their input cut into pieces of
about 64 characters, so that faults lie in later pieces.
"""

import json
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import rows_by_edge_checks
from squaregap import serialize
from squaregap.graphcore import _BIT_TABLE_MAX, SimpleGraph

N = 8
WIDE = _BIT_TABLE_MAX + 1  # above the cap every reader's fill shifts, with no bit table
BASE = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)]
HOSTILE = 2**33  # a shift by it would allocate 1 GiB
LONG = 5 * 10**4299  # 4,300 digits, the most int() converts by default; so has LONG + 1


def _faults(n):
    """name: (kind, edge) for a graph on n vertices; the kind names the rule
    the edge breaks in from_edges."""
    return {
        "endpoint-n": ("range", (n, 2)),
        "endpoint-n-second": ("range", (2, n)),
        "endpoint-minus-1": ("range", (-1, 2)),
        "endpoint-minus-1-second": ("range", (2, -1)),
        "endpoint-2^33": ("range", (HOSTILE, 2)),
        "endpoint-2^33-second": ("range", (2, HOSTILE)),
        "endpoint-minus-2^33": ("range", (-HOSTILE, 2)),
        "endpoint-4300-digits": ("range", (LONG, 2)),
        "endpoint-4300-digits-second": ("range", (2, LONG)),
        "self-loop": ("loop", (3, 3)),
        "bool": ("type", (True, 2)),  # an edge to from_edges, refused by the JSON reader
        "bool-second": ("type", (2, False)),
        "bool-loop": ("type", (1, True)),
        "pair-of-three": ("type", (1, 2, 3)),
        "pair-of-one": ("type", (1,)),
        "string": ("type", ("x", 2)),
        "string-second": ("type", (2, "x")),
        "float": ("type", (2.0, 3)),
        "float-second": ("type", (1, 2.5)),
        "null": ("type", (None, 2)),
        "null-second": ("type", (2, None)),
        "endpoint-minus-n": ("range", (-n, 2)),  # the last index the table's padding refuses
        "endpoint-minus-n-second": ("range", (2, -n)),
        "endpoint-minus-n-minus-1": ("range", (-n - 1, 2)),  # below the padding: the row index fails
    }


def _cases(n):
    # the earlier fault of another kind, which the later one then follows
    first_of_kind = {"range": (n, 2), "loop": (3, 3), "type": ("x", 2)}
    for name, (kind, edge) in _faults(n).items():
        for where, at in (("first", 0), ("middle", len(BASE) // 2), ("last", len(BASE))):
            yield f"{name}-{where}", [*BASE[:at], edge, *BASE[at:]]
        for other, earlier in first_of_kind.items():
            if other != kind:
                yield f"{name}-after-{other}", [*BASE[:1], earlier, *BASE[1:5], edge, *BASE[5:]]


CASES = dict(_cases(N))
# every case again on WIDE vertices, where the fill takes its shift loop
WIDE_CASES = {f"n{WIDE}-{name}": edges for name, edges in _cases(WIDE)}


def _outcome(parse, arg):
    """parse(arg), timed and bounded at 2 s, as its rows or as the type and
    message of the TypeError or ValueError it raises."""
    start = time.perf_counter()
    try:
        result = "rows", parse(arg)
    except (TypeError, ValueError) as exc:
        result = type(exc), str(exc)
    assert time.perf_counter() - start < 2.0
    return result


def _json_text(n, edges):
    return json.dumps({"n_vertices": n, "edges": edges})


def _canonical_json_text(n, edges):
    """The graph JSON document in json_dumps's layout, the bulk reader's."""
    return serialize.json_dumps({"n_vertices": n, "edges": [list(e) for e in edges]})


def _json_reference(text):
    """The rows of a graph JSON text by the reader's rules in their order: the
    edges' types, then each edge by the per-edge loop."""
    doc = json.loads(text)
    edges = doc["edges"]
    if not all(type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
               for e in edges):
        raise ValueError("graph JSON edges must be an array of integer pairs")
    return rows_by_edge_checks(doc["n_vertices"], edges)


def _dimacs_text(n, edges):
    """edges as canonical DIMACS lines, int endpoints made 1-based; None if an
    edge holds a bool, which DIMACS cannot spell."""
    if any(type(x) is bool for e in edges for x in e):
        return None
    field = {int: lambda x: str(x + 1), type(None): lambda x: "null"}
    return f"p edge {n} {len(edges)}\n" + "".join(
        "e " + " ".join(field.get(type(x), str)(x) for x in e) + "\n" for e in edges)


def _dimacs_reference(text):
    """The rows of a DIMACS text as _dimacs_text writes it, one edge per line
    after the problem line: its records by the line loop, each edge then by
    the per-edge loop, a fault named by its line."""
    n, edges = serialize._dimacs_records(text.splitlines())
    return rows_by_edge_checks(n, edges, lines=range(2, len(edges) + 2))


def _check_every_reader(n, edges):
    """from_edges (given the edges as a list and as a one-pass iterator) and
    both readers each match their per-edge reference."""
    want = _outcome(lambda es: rows_by_edge_checks(n, es), edges)
    assert _outcome(lambda es: SimpleGraph.from_edges(n, es).adj, edges) == want
    assert _outcome(lambda es: SimpleGraph.from_edges(n, iter(es)).adj, edges) == want
    for text in (_json_text(n, edges), _canonical_json_text(n, edges)):
        assert (_outcome(lambda t: serialize.parse_graph_json(t)[0].adj, text)
                == _outcome(_json_reference, text))
    text = _dimacs_text(n, edges)
    if text is not None:
        assert (_outcome(lambda t: serialize.parse_dimacs(t).adj, text)
                == _outcome(_dimacs_reference, text))


@pytest.mark.parametrize(
    "n, edges", [(N, e) for e in CASES.values()] + [(WIDE, e) for e in WIDE_CASES.values()],
    ids=[*CASES, *WIDE_CASES])
def test_each_fault_is_named_as_the_per_edge_loop_names_it(n, edges):
    _check_every_reader(n, edges)


def test_the_fault_table_raises_what_it_should():
    # the table is worth its cases only if they fail where they should
    def message(edges):
        return _outcome(lambda es: SimpleGraph.from_edges(N, es).adj, edges)[1]
    assert message(CASES["endpoint-2^33-last"]) == "edge (8589934592,2) out of range for 8 vertices"
    assert message(CASES["self-loop-after-type"]).startswith("'<=' not supported")
    assert message(CASES["endpoint-n-after-loop"]) == "self-loop at 3 not allowed"
    assert message(CASES["pair-of-three-middle"]) == "too many values to unpack (expected 2)"
    assert _outcome(serialize.parse_graph_json, _json_text(N, CASES["self-loop-after-type"])) == (
        ValueError, "graph JSON edges must be an array of integer pairs")
    assert _outcome(serialize.parse_dimacs, _dimacs_text(N, CASES["endpoint-minus-1-first"])) == (
        ValueError, "line 2: edge 0 3 out of range for 8 vertices")


# each case's edges among 72 good ones, which take several pieces of 64 characters
LONG_BASE = BASE * 9
PIECED_CASES = {f"{name}-{where}": [*LONG_BASE[:at], edge, *LONG_BASE[at:]]
                for name, (_, edge) in _faults(N).items()
                for where, at in (("first", 0), ("middle", len(LONG_BASE) // 2),
                                  ("last", len(LONG_BASE)))}


@pytest.mark.parametrize("edges", PIECED_CASES.values(), ids=PIECED_CASES)
def test_each_fault_in_a_later_piece_is_named_as_the_per_edge_loop_names_it(monkeypatch,
                                                                             edges):
    monkeypatch.setattr(serialize, "_PIECE", 64)
    _check_every_reader(N, edges)


def test_pieces_of_64_characters_cut_both_bulk_paths():
    # the pieced cases are worth running only if the readers really cut them
    def pieces(text, key, close, mark, keep):
        start = text.index(key) + len(key)
        return list(serialize._pieces(text, start, text.rindex(close), mark, keep))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(serialize, "_PIECE", 64)
        dimacs = pieces(_dimacs_text(N, LONG_BASE), "\n", "\n", "\ne ", 1)
        graph_json = pieces(_canonical_json_text(N, LONG_BASE), '"edges": [', "\n  ]",
                            ",\n    [", 0)
    assert len(dimacs) > 4 and len(graph_json) > 4
    assert all(p.startswith("e ") for p in dimacs)
    assert all(p.startswith("\n    [\n") and p.endswith("\n    ]") for p in graph_json)


_HOSTILE_READS = {
    "from_edges": lambda edges: SimpleGraph.from_edges(N, edges),
    "graph-json": lambda edges: serialize.parse_graph_json(_json_text(N, edges)),
    "graph-json-layout": lambda edges: serialize.parse_graph_json(_canonical_json_text(N, edges)),
    "dimacs": lambda edges: serialize.parse_dimacs(_dimacs_text(N, edges)),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("second", [False, True], ids=["u", "v"])
@pytest.mark.parametrize("read", _HOSTILE_READS.values(), ids=_HOSTILE_READS)
def test_a_hostile_endpoint_allocates_nothing_for_its_shift(read, second, where):
    edges = CASES[f"endpoint-2^33{'-second' if second else ''}-{where}"]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="out of range"):
            read(edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_bit_table_at_the_cap_stays_small():
    peak = _traced_peak(lambda: SimpleGraph.from_edges(_BIT_TABLE_MAX, [(0, 1)]))
    assert peak < 1_500_000, peak  # about 1.4 MB: n single-bit rows, n/2 bits wide on average


def test_above_the_cap_no_bit_table_is_built():
    # a table of 2^16 single-bit rows would take about 290 MB
    def read():
        with pytest.raises(ValueError, match="out of range"):
            SimpleGraph.from_edges(2**16, [(0, HOSTILE)])
    peak = _traced_peak(read)
    assert peak < 2**20, peak


@st.composite
def _faulty_edge_lists(draw):
    """n and a list of its edges into which up to three faulty ones are
    put anywhere: endpoints out of range, self-loops, bools, non-ints and
    pairs of the wrong length.  n is small or near _BIT_TABLE_MAX, so both
    fill loops are drawn, the DIMACS reader's n + 1 rows included."""
    n = draw(st.integers(min_value=0, max_value=10)
             | st.integers(min_value=_BIT_TABLE_MAX - 2, max_value=_BIT_TABLE_MAX + 2))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    edges = ([] if n < 2 else
             draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                           max_size=12)))
    endpoint = vertex | st.sampled_from([n, -1, -n, -n - 1, HOSTILE, -HOSTILE, LONG,
                                         True, False, "x", 2.5, None])
    fault = (st.tuples(vertex, endpoint) | st.tuples(endpoint, vertex)
             | vertex.map(lambda v: (v, v)) | st.tuples(vertex, vertex, vertex))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), draw(fault))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(_faulty_edge_lists())
@example((0, [(0, 0)]))
@example((3, [(0, 1), (-4, 1)]))
@example((2, [(1, 0), (True, 0)]))
def test_injected_faults_are_named_as_the_per_edge_loop_names_them(case):
    _check_every_reader(*case)
