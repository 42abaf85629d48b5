import collections
import itertools
import json
import math
import random
import time
import types
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    complete_multipartite,
    enumerate_chromatic,
    enumerate_list_colorable,
    is_clique,
    is_proper_coloring,
    random_graph,
    rescan_search,
    vetrik_k3x5,
)
from squaregap import cli, coloring, construction
from squaregap.coloring import (
    ListAssignment,
    certify_gap,
    chromatic_number_exact,
    greedy_clique,
    is_list_colorable,
    multipartite_list_colorable,
    vetrik_assignment,
    vetrik_lower_bound,
)
from squaregap.construction import base_stars, construct_counterexample, part_sets
from squaregap.errors import SearchBudgetExceeded
from squaregap.graphcore import SimpleGraph, bits, mask_of, square
from squaregap.verification import check_square_structure


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph.from_edges(n, list(itertools.combinations(range(n), 2)))


def assignment_from(universe, lists):
    return ListAssignment(universe=tuple(universe),
                          lists={v: frozenset(c) for v, c in lists.items()})


# -- exact chromatic number ---------------------------------------------------


def test_chromatic_frozen_examples():
    assert chromatic_number_exact(SimpleGraph(0, ())) == (0, [])
    assert chromatic_number_exact(SimpleGraph(7, (0,) * 7))[0] == 1
    assert chromatic_number_exact(complete(6))[0] == 6
    assert chromatic_number_exact(cycle(4))[0] == 2
    assert chromatic_number_exact(cycle(5))[0] == 3  # odd cycle
    petersen = SimpleGraph.from_edges(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    assert chromatic_number_exact(petersen)[0] == 3


@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 4), (3, 5)])
def test_chromatic_of_complete_multipartite_is_part_count(n, r):
    g, _ = complete_multipartite([n] * r)
    chi, witness = chromatic_number_exact(g)
    assert chi == r
    assert is_proper_coloring(g, witness)
    assert len(set(witness)) == r


def test_chromatic_witness_is_always_proper():
    rng = random.Random(31337)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        chi, witness = chromatic_number_exact(g)
        assert is_proper_coloring(g, witness)
        assert len(set(witness)) == chi


def test_chromatic_against_enumeration_oracle():
    rng = random.Random(777)
    for trial in range(120):
        g = random_graph(rng, rng.randint(1, 6), rng.choice([0.2, 0.4, 0.6]))
        assert chromatic_number_exact(g)[0] == enumerate_chromatic(g), f"trial {trial}"


# chi of the 300 graphs G(0..30, p) that Random(2026) draws below, found by
# an earlier solver that searched between a greedy clique and a greedy coloring
PINNED_CHI = [
    1, 4, 1, 10, 3, 4, 6, 2, 7, 5, 26, 5, 3, 6, 2, 7, 4, 3, 8, 9, 8, 2, 2, 6, 11, 5, 5,
    1, 3, 2, 15, 14, 1, 2, 7, 1, 3, 7, 13, 2, 8, 0, 3, 6, 3, 4, 12, 1, 5, 1, 6, 2, 4,
    11, 3, 6, 2, 5, 4, 5, 3, 6, 1, 2, 2, 2, 4, 7, 3, 5, 11, 12, 8, 2, 5, 5, 6, 3, 6, 3,
    10, 3, 3, 1, 7, 4, 19, 0, 7, 5, 4, 10, 8, 21, 4, 4, 2, 5, 16, 13, 2, 2, 4, 16, 5, 7,
    4, 3, 2, 5, 5, 3, 5, 2, 3, 6, 11, 8, 4, 3, 12, 6, 6, 3, 6, 10, 3, 3, 7, 8, 5, 4, 7,
    2, 3, 2, 8, 3, 3, 22, 10, 3, 2, 1, 1, 7, 3, 1, 6, 4, 7, 3, 5, 6, 2, 15, 2, 5, 3, 7,
    2, 3, 5, 4, 4, 10, 9, 3, 3, 1, 12, 0, 3, 6, 4, 10, 7, 3, 5, 3, 11, 2, 2, 1, 5, 0, 4,
    14, 2, 4, 6, 1, 8, 3, 2, 2, 5, 2, 3, 8, 3, 2, 2, 4, 4, 7, 2, 3, 9, 0, 3, 4, 2, 11,
    15, 7, 4, 3, 6, 3, 2, 3, 10, 9, 8, 4, 9, 7, 10, 5, 2, 17, 8, 2, 1, 17, 8, 3, 2, 2,
    6, 3, 2, 9, 5, 7, 2, 2, 1, 2, 2, 3, 7, 9, 6, 2, 5, 12, 4, 2, 8, 4, 10, 9, 5, 1, 3,
    1, 3, 2, 0, 4, 4, 3, 5, 0, 3, 6, 5, 3, 3, 4, 2, 8, 17, 6, 4, 14, 4, 5, 11, 6, 5, 12,
    7, 12, 4, 2, 8, 2
]


def test_chromatic_number_is_pinned_on_seeded_random_graphs():
    rng = random.Random(2026)
    for trial, chi in enumerate(PINNED_CHI):
        g = random_graph(rng, rng.randint(0, 30), rng.random())
        got, witness = chromatic_number_exact(g)
        assert got == chi, f"trial {trial}"
        assert is_proper_coloring(g, witness)
        assert len(set(witness)) == chi, f"trial {trial}"


def test_greedy_clique_returns_a_clique():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        c = greedy_clique(g)
        assert is_clique(g, c)
        assert len(set(c)) == len(c) >= 1
    assert greedy_clique(SimpleGraph(0, ())) == []


# -- generic list coloring ----------------------------------------------------


def test_list_coloring_small_examples():
    tri = complete(3)
    sat = assignment_from(range(3), {0: {0, 1}, 1: {1, 2}, 2: {0, 2}})
    res = is_list_colorable(tri, sat)
    assert res.satisfiable
    assert is_proper_coloring(tri, res.coloring, sat)
    # identical two-color lists on a triangle cannot work
    unsat = assignment_from(range(2), {v: {0, 1} for v in range(3)})
    res = is_list_colorable(tri, unsat)
    assert not res.satisfiable
    assert res.coloring is None
    assert res.attestation.nodes > 0


def test_list_coloring_empty_list_short_circuits():
    g = complete(3)
    a = assignment_from(range(3), {0: {0}, 1: set(), 2: {1}})
    res = is_list_colorable(g, a)
    assert not res.satisfiable
    assert res.attestation.empty_list_vertex == 1
    assert res.attestation.nodes == 0


def test_list_coloring_requires_exact_cover():
    g = complete(3)
    with pytest.raises(ValueError):
        is_list_colorable(g, assignment_from(range(3), {0: {0}, 1: {1}}))
    with pytest.raises(ValueError):
        is_list_colorable(g, assignment_from(range(3), {v: {0} for v in range(4)}))


def test_assignment_rejects_colors_outside_universe():
    # the record takes any lists; the solvers refuse a colour outside the
    # universe, and so does a copy changed with the stock _replace
    a = assignment_from({1, 2}, {0: {3}})
    assert a.lists == {0: frozenset({3})}
    for solve in (lambda x: is_list_colorable(SimpleGraph(1, (0,)), x),
                  lambda x: multipartite_list_colorable(((0,),), x)):
        with pytest.raises(ValueError, match="list of vertex 0 leaves the universe"):
            solve(a)
        good = assignment_from({1, 2}, {0: {2}})
        assert solve(good).coloring == {0: 2}
        with pytest.raises(ValueError, match="list of vertex 0 leaves the universe"):
            solve(good._replace(universe=(1,)))


def test_assignment_names_the_first_vertex_whose_list_leaves_the_universe():
    # a ListAssignment checks nothing; both solvers refuse the lists, naming
    # the first vertex in the assignment's order, not the lowest
    outside = assignment_from((1, 2), {0: {1}, 4: {1, 3}, 2: {1}, 1: {1, 3}, 3: {1}})
    with pytest.raises(ValueError) as graph_error:
        is_list_colorable(SimpleGraph(5, (0,) * 5), outside)
    with pytest.raises(ValueError) as parts_error:
        multipartite_list_colorable(((0, 1), (2, 3), (4,)), outside)
    assert str(graph_error.value) == str(parts_error.value) == (
        "list of vertex 4 leaves the universe")
    # the cover check and an empty list's answer come first
    with pytest.raises(ValueError) as err:
        is_list_colorable(SimpleGraph(6, (0,) * 6), outside)
    assert str(err.value) == "lists must cover exactly the graph's vertices: vertex 5 has no list"
    empty = outside._replace(lists={**outside.lists, 3: frozenset()})
    for result in (is_list_colorable(SimpleGraph(5, (0,) * 5), empty),
                   multipartite_list_colorable(((0, 1), (2, 3), (4,)), empty)):
        assert not result.satisfiable and result.attestation.empty_list_vertex == 3


def test_list_solvers_decide_negative_colours():
    # the solvers index colours by rank, so a library caller's negative
    # colours need no rule (a lists file's colours lie in 0..2^53 - 1)
    a = assignment_from((-5, -1, 2), {0: {-5, -1}, 1: {-1}, 2: {-1, 2}})
    assert is_list_colorable(complete(3), a).coloring == {0: -5, 1: -1, 2: 2}
    assert multipartite_list_colorable(((0,), (1,), (2,)), a).coloring == {0: -5, 1: -1, 2: 2}


def test_list_coloring_against_enumeration_oracle():
    # verdict agreement on 500 seeded instances; SAT witnesses re-validated
    rng = random.Random(424242)
    sat_count = 0
    for trial in range(500):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        universe = tuple(range(rng.randint(2, 6)))
        lists = {v: frozenset(rng.sample(universe, rng.randint(1, min(3, len(universe)))))
                 for v in range(n)}
        a = ListAssignment(universe=universe, lists=lists)
        fast = is_list_colorable(g, a)
        assert fast.satisfiable == enumerate_list_colorable(g, lists), f"trial {trial}"
        if fast.satisfiable:
            sat_count += 1
            assert is_proper_coloring(g, fast.coloring, a)
    assert 50 < sat_count < 450  # the mix exercises both verdicts


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_list_coloring_sat_iff_enumeration(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=10))
    g = SimpleGraph.from_edges(n, [(min(e), max(e)) for e in edges])
    lists = {v: frozenset(data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
             for v in range(n)}
    a = ListAssignment(universe=tuple(range(5)), lists=lists)
    assert is_list_colorable(g, a).satisfiable == enumerate_list_colorable(g, lists)


# -- the bucket engine against the rescan oracle --------------------------------

ORACLE_NODE_CAP = 4096  # both engines stop at this node, with the same count


def run_engine(search, g, avail, start):
    """(coloring or None or "stopped", nodes) of one search counting on from start nodes.

    The deadline has passed already, so the stride, patched to the cap, stops
    both engines at the same node of a long search.
    """
    with mock.patch.object(coloring, "_DEADLINE_STRIDE", ORACLE_NODE_CAP):
        try:
            return search(g, list(avail), -math.inf, start)
        except SearchBudgetExceeded as exc:
            return "stopped", exc.nodes


def assert_engines_agree(g, avail, start=0):
    new = run_engine(coloring._search, g, avail, start)
    assert new == run_engine(rescan_search, g, avail, start)
    return new


def random_lists(rng, n):
    """G(n, p) with lists of width - 0..2 colors out of width, near the threshold
    where searches backtrack; now and then one vertex gets no color at all."""
    g = random_graph(rng, n, rng.uniform(0.1, 0.7))
    width = rng.randint(2, 9)
    avail = [mask_of(rng.sample(range(width), width - rng.randint(0, 2) if width > 2
                                else rng.randint(1, 2)))
             for _ in range(n)]
    if n and rng.random() < 0.05:
        avail[rng.randrange(n)] = 0
    return g, avail


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.integers(0, 3 * ORACLE_NODE_CAP))
def test_bucket_engine_matches_the_rescan_oracle_on_lists(n, seed, start):
    # colorings, node counts, and the node a budget stops at, all identical
    g, avail = random_lists(random.Random(seed), n)
    result, _ = assert_engines_agree(g, avail, start)
    if isinstance(result, list):
        assert all(avail[v] >> c & 1 for v, c in enumerate(result))
        assert is_proper_coloring(g, result)


def test_bucket_engine_matches_the_rescan_oracle_on_seeded_lists():
    # a fixed sample that is known to backtrack and to hit the node cap
    rng = random.Random(2024)
    outcomes = collections.Counter()
    for _ in range(300):
        n = rng.randint(0, 40)
        result, nodes = assert_engines_agree(*random_lists(rng, n))
        outcomes["stopped" if result == "stopped" else "backtracked" if nodes > n else "linear"] += 1
    assert outcomes["backtracked"] >= 20 and outcomes["stopped"] >= 3, outcomes


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_bucket_engine_matches_the_rescan_oracle_on_chromatic_search(n, seed):
    # the lists chromatic_number_exact passes: colors 0..k-1, and color i
    # alone for the i-th vertex of the greedy clique
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0]))
    clique = greedy_clique(g)
    for k in range(len(clique), len(clique) + 3):
        avail = [(1 << k) - 1] * n
        for i, v in enumerate(clique):
            avail[v] = 1 << i
        assert_engines_agree(g, avail)


def test_bucket_engine_matches_the_rescan_oracle_at_a_root_wipeout():
    # a vertex with no color before any branch: no node, no coloring
    path = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert assert_engines_agree(path, [3, 3, 0, 3]) == (None, 0)
    # K4 with lists {0}, {1}, {2}, {0, 1, 2}, as chromatic_number_exact asks
    # at k = 3: vertex 3 loses its last color at the third node, not the root
    k4 = SimpleGraph.from_edges(4, list(itertools.combinations(range(4), 2)))
    assert assert_engines_agree(k4, [1, 2, 4, 7]) == (None, 3)
    assert assert_engines_agree(SimpleGraph(0, ()), []) == ([], 0)


def relabelled_multipartite(rng, m, r):
    """K_{m x r} with its vertices shuffled, and its parts under the new labels."""
    g, parts = complete_multipartite([m] * r)
    perm = rng.sample(range(g.n), g.n)
    h = SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return h, tuple(tuple(sorted(perm[v] for v in part)) for part in parts)


@pytest.mark.parametrize("m,r", [(2, 4), (2, 6), (3, 4), (3, 5), (4, 4), (4, 7)])
def test_bucket_engine_matches_the_rescan_oracle_on_vetrik_multipartite(m, r):
    # every list meets most of its neighbors' lists: the densest forward checks
    rng = random.Random(m * 100 + r)
    for g, parts in [complete_multipartite([m] * r), relabelled_multipartite(rng, m, r)]:
        masks, _ = coloring._dense_masks(vetrik_assignment(parts)[1])
        for start in (0, rng.randrange(ORACLE_NODE_CAP)):
            result, _ = assert_engines_agree(g, [masks[v] for v in range(g.n)], start)
            assert result in (None, "stopped")


def test_bucket_engine_matches_the_rescan_oracle_on_multipartite_random_lists():
    rng = random.Random(77)
    outcomes = collections.Counter()
    for _ in range(150):
        m, r = rng.randint(1, 4), rng.randint(2, 7)
        g, _ = relabelled_multipartite(rng, m, r)
        width = rng.randint(r, 2 * r + 1)
        size = rng.randint(2, max(2, width - 2))
        avail = [mask_of(rng.sample(range(width), size)) for _ in range(g.n)]
        result, nodes = assert_engines_agree(g, avail)
        if isinstance(result, list):
            assert all(avail[v] >> c & 1 for v, c in enumerate(result))
            assert is_proper_coloring(g, result)
        outcomes["stopped" if result == "stopped" else "sat" if result else "unsat"] += 1
        outcomes["backtracked"] += nodes > g.n
    assert min(outcomes[k] for k in ("sat", "unsat", "backtracked")) >= 10, outcomes


FANO_LINES = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]


def fano_blow_up(r):
    """K_{7 x r} with lists that no two colors hit a whole part of.

    The 3r - 1 colors split into 7 consecutive groups, one per point of the
    Fano plane; the k-th vertex of each part loses the groups on line k.
    Every two points share a line, so each part needs three colors, 3r in
    all, one more than there are.
    """
    g, parts = complete_multipartite([7] * r)
    colours = 3 * r - 1
    size, extra = divmod(colours, 7)
    starts = [b * size + min(b, extra) for b in range(8)]
    groups = [set(range(a, b)) for a, b in zip(starts, starts[1:])]
    lists = {v: frozenset(range(colours)).difference(*(groups[p] for p in FANO_LINES[k]))
             for part in parts for k, v in enumerate(part)}
    return g, ListAssignment(universe=tuple(range(colours)), lists=lists)


def test_a_fano_blow_up_on_k7x3_is_refuted_in_1025_nodes():
    # 1025 is the node count of the engine before forward checking went to
    # color masks; the twin-class bound runs at the root (each part needs
    # two colors, 6 against 8) without firing, and counts it as node 1
    g, a = fano_blow_up(3)
    result = is_list_colorable(g, a)
    assert not result.satisfiable
    assert result.attestation.nodes == 1 + 1025
    masks, _ = coloring._dense_masks(a)
    assert assert_engines_agree(g, [masks[v] for v in range(g.n)]) == (None, 1025)
    new = len(a.universe)  # 3r colors: now each part can take three
    bigger = a._replace(universe=a.universe + (new,),
                        lists={v: cs | {new} for v, cs in a.lists.items()})
    assert is_list_colorable(g, bigger).satisfiable


def test_a_20000_vertex_path_takes_one_node_per_vertex():
    # the rescan engine needed O(n) per node here, about 30 s in all
    n = 20_000
    order = [7919 * i % n for i in range(n)]
    g = SimpleGraph.from_edges(n, list(zip(order, order[1:])))
    a = ListAssignment(universe=tuple(range(12)), lists={v: frozenset({2, 9}) for v in range(n)})
    result = is_list_colorable(g, a)
    assert result.satisfiable
    assert result.attestation.nodes == n
    assert is_proper_coloring(g, result.coloring, a)


# -- multipartite specialization ----------------------------------------------


def test_multipartite_deadline_stops_inside_the_search(monkeypatch):
    # one part of twelve disjoint 2-lists passes the root bound (two colors
    # needed, 24 there); an expired deadline stops the search at its first
    # checked node, the one after the root
    monkeypatch.setattr(coloring, "_DEADLINE_STRIDE", 2)
    part = tuple(range(12))
    a = assignment_from(range(24), {v: {2 * v, 2 * v + 1} for v in part})
    assert multipartite_list_colorable((part,), a).satisfiable
    with pytest.raises(SearchBudgetExceeded) as info:
        multipartite_list_colorable((part,), a, deadline=time.monotonic() - 1.0)
    assert info.value.nodes == 2


def test_multipartite_takes_1100_singleton_parts_without_recursion():
    # K_1100 with lists {v, v+1}: the part-by-part search recursed once per
    # part and hit Python's recursion limit; now one node per vertex, and no
    # root, since no part is needy
    n = 1100
    a = assignment_from(range(n), {v: {v, (v + 1) % n} for v in range(n)})
    result = multipartite_list_colorable(tuple((v,) for v in range(n)), a)
    assert result.satisfiable
    assert result.attestation.nodes == n
    assert sorted(result.coloring.values()) == list(range(n))
    assert all(c in a.lists[v] for v, c in result.coloring.items())


def test_multipartite_root_bound_never_refutes_a_colourable_instance():
    # K_{a x b} on shuffled, non-contiguous labels against full enumeration;
    # a refutation at node 1 is the root bound's, and must be right
    rng = random.Random(4242)
    outcomes = collections.Counter()
    for trial in range(400):
        parts_n, size = rng.randint(1, 4), rng.randint(1, 3)
        if parts_n * size > 8:
            size = 8 // parts_n
        labels = rng.sample(range(1000), parts_n * size)
        parts = [sorted(labels[i * size:(i + 1) * size]) for i in range(parts_n)]
        universe = rng.sample(range(50), rng.randint(1, 2 * parts_n))
        lists = {v: frozenset(rng.sample(universe, rng.randint(1, min(3, len(universe)))))
                 for v in labels}
        result = multipartite_list_colorable(
            tuple(map(tuple, parts)), ListAssignment(universe=tuple(universe), lists=lists))
        g, canonical = complete_multipartite([size] * parts_n)
        index = {v: i for part, block in zip(parts, canonical)
                 for v, i in zip(part, block)}
        indexed = {index[v]: cs for v, cs in lists.items()}
        assert result.satisfiable == enumerate_list_colorable(g, indexed), f"trial {trial}"
        if result.satisfiable:
            assert is_proper_coloring(g, {index[v]: c for v, c in result.coloring.items()},
                                      ListAssignment(universe=tuple(universe), lists=indexed))
            outcomes["sat"] += 1
        else:
            outcomes["root" if result.attestation.nodes == 1 else "searched"] += 1
    assert min(outcomes[k] for k in ("sat", "root", "searched")) >= 20, outcomes


def test_multipartite_root_deadline_stops_vetrik_lists_at_node_1(monkeypatch):
    # a deadline check at every node stops the solver at its root, node 1, on
    # the lists certify refutes by counting on the verified parts
    monkeypatch.setattr(coloring, "_DEADLINE_STRIDE", 1)
    gc = construct_counterexample(3)
    parts, _ = check_square_structure(square(gc.graph), gc)
    _, lists = vetrik_assignment(parts)
    with pytest.raises(SearchBudgetExceeded) as info:
        multipartite_list_colorable(parts, lists, deadline=time.monotonic() - 1.0)
    assert info.value.nodes == 1


@pytest.mark.parametrize("phase,name", [
    ("construct", "checked_stars"),
    ("square", "square_by_blocks"),
    ("structure check", "check_by_blocks"),
])
def test_certify_budget_bounds_every_phase(monkeypatch, phase, name):
    # the clock passes the deadline during one phase; certify stops right after it
    clock = types.SimpleNamespace(now=0.0)
    monkeypatch.setattr(coloring, "time", types.SimpleNamespace(monotonic=lambda: clock.now))
    real = getattr(coloring, name)

    def slow(*args):
        clock.now = 10.0
        return real(*args)

    monkeypatch.setattr(coloring, name, slow)
    with pytest.raises(SearchBudgetExceeded, match=f"budget exhausted after {phase}$") as info:
        certify_gap(5, budget_seconds=1.0)
    assert info.value.nodes == 0


def test_multipartite_agrees_with_generic_on_k33():
    g, w = complete_multipartite([3, 3, 3])
    rng = random.Random(8080)
    sat_count = 0
    for trial in range(500):
        universe = tuple(range(rng.randint(2, 7)))
        lists = {v: frozenset(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
                 for v in range(9)}
        a = ListAssignment(universe=universe, lists=lists)
        special = multipartite_list_colorable(w, a)
        generic = is_list_colorable(g, a)
        assert special.satisfiable == generic.satisfiable, f"trial {trial}"
        if special.satisfiable:
            sat_count += 1
            assert is_proper_coloring(g, special.coloring, a)
    assert 50 < sat_count < 450


def test_both_list_solvers_share_one_root_rule():
    # on consecutive parts relabelling is the identity, so the solvers see one
    # graph and one set of twin classes: the same answer at the same node
    rng = random.Random(2222)
    outcomes = collections.Counter()
    for trial in range(300):
        g, parts = complete_multipartite([rng.randint(1, 3) for _ in range(rng.randint(1, 5))])
        universe = range(rng.randint(2, 2 * len(parts) + 1))
        a = assignment_from(universe, {v: rng.sample(universe, rng.randint(1, min(3, len(universe))))
                                       for v in range(g.n)})
        special, generic = multipartite_list_colorable(parts, a), is_list_colorable(g, a)
        assert (special.coloring, special.attestation) == (generic.coloring, generic.attestation), \
            f"trial {trial}"
        outcomes["root" if bound_runs(g, a) else "no root"] += 1
        outcomes["sat" if special.satisfiable else "unsat"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_multipartite_validates_inputs():
    _, w = complete_multipartite([2, 2])
    with pytest.raises(ValueError):
        multipartite_list_colorable(w, assignment_from(range(2), {0: {0}, 1: {1}}))
    a = assignment_from(range(2), {v: {0, 1} for v in range(4)})
    with pytest.raises(ValueError):
        multipartite_list_colorable(((0, 1), (1, 2, 3)), a)


def test_both_list_solvers_reject_a_non_covering_assignment_alike():
    g, parts = complete_multipartite([2, 2])
    short = assignment_from(range(2), {v: {0, 1} for v in range(3)})
    with pytest.raises(ValueError) as graph_error:
        is_list_colorable(g, short)
    with pytest.raises(ValueError) as parts_error:
        multipartite_list_colorable(parts, short)
    assert str(graph_error.value) == str(parts_error.value)


def test_multipartite_empty_list_short_circuits():
    _, w = complete_multipartite([2, 2])
    a = assignment_from(range(3), {0: {0}, 1: {1}, 2: set(), 3: {2}})
    res = multipartite_list_colorable(w, a)
    assert not res.satisfiable
    assert res.attestation.empty_list_vertex == 2


def test_list_solvers_see_only_the_order_of_colours():
    # masks index colours by rank in the universe, so spreading the colours
    # far apart leaves every search, node count and answer as it was
    g, w = complete_multipartite([3, 3, 3])
    rng = random.Random(5150)

    def spread(c):
        return 10**12 + 1000 * c

    for trial in range(200):
        universe = tuple(range(rng.randint(2, 7)))
        lists = {v: frozenset(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
                 for v in range(9)}
        near = ListAssignment(universe=universe, lists=lists)
        far = ListAssignment(universe=tuple(map(spread, universe)),
                             lists={v: frozenset(map(spread, c)) for v, c in lists.items()})
        for solve in (lambda a: is_list_colorable(g, a),
                      lambda a: multipartite_list_colorable(w, a)):
            base, moved = solve(near), solve(far)
            assert moved.attestation == base.attestation, f"trial {trial}"
            if base.satisfiable:
                assert moved.coloring == {v: spread(c) for v, c in base.coloring.items()}
            else:
                assert moved.coloring is None


# -- the twin-class bound -----------------------------------------------------


def search_alone(g, a):
    """_search's (colors by vertex or None, nodes) on g and a, counting from 0."""
    masks, palette = coloring._dense_masks(a)
    colors, nodes = coloring._search(g, [masks[v] for v in range(g.n)], None, 0)
    return None if colors is None else dict(enumerate(map(palette.__getitem__, colors))), nodes


def bound_runs(g, a):
    """True iff some class of two or more identical rows has no color common
    to its lists: the condition under which the root runs the bound."""
    classes = collections.defaultdict(list)
    for v, row in enumerate(g.adj):
        classes[row].append(a.lists[v])
    return any(len(ls) > 1 and not frozenset.intersection(*ls) for ls in classes.values())


def test_twin_class_bound_never_refutes_a_colourable_instance():
    # random graphs on 1-4 vertices blown up into classes of 1-3 twins, on
    # shuffled labels, against full enumeration: the bound at node 1, then
    # the same search as _search alone, counting on from the root
    rng = random.Random(2121)
    outcomes = collections.Counter()
    for trial in range(1000):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        while sum(sizes) > 8:
            sizes.pop()
        base = random_graph(rng, len(sizes), rng.choice([0.5, 0.8, 1.0]))
        label = rng.sample(range(sum(sizes)), sum(sizes))
        blocks = [label[a:b] for a, b in itertools.pairwise(itertools.accumulate(sizes, initial=0))]
        g = SimpleGraph.from_edges(sum(sizes), [(u, v) for x, y in base.edges()
                                                for u in blocks[x] for v in blocks[y]])
        universe = range(rng.randint(2, 2 * len(sizes)))
        size = min(3, len(universe))
        a = assignment_from(universe, {v: rng.sample(universe, rng.randint(1, size))
                                       for v in range(g.n)})
        result = is_list_colorable(g, a)
        assert result.satisfiable == enumerate_list_colorable(g, a.lists), f"trial {trial}"
        colors, nodes = search_alone(g, a)
        got = result.coloring, result.attestation.nodes
        if not bound_runs(g, a):
            assert got == (colors, nodes), f"trial {trial}"
        elif got[1] != 1:
            assert got == (colors, 1 + nodes), f"trial {trial}"
        if result.satisfiable:
            assert is_proper_coloring(g, result.coloring, a)
            outcomes["sat"] += 1
        else:
            outcomes["root" if result.attestation.nodes == 1 < nodes else "searched"] += 1
    assert min(outcomes[k] for k in ("sat", "root", "searched")) >= 20, outcomes


@pytest.mark.parametrize("m,r", [(2, 6), (3, 4), (3, 5), (5, 9)])
def test_shuffled_vetrik_multipartite_is_refuted_at_the_root(m, r):
    rng = random.Random(m * 100 + r)
    g, parts = complete_multipartite([m] * r)
    label = rng.sample(range(g.n), g.n)
    g = SimpleGraph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])
    _, a = vetrik_assignment(tuple(tuple(label[v] for v in part) for part in parts))
    result = is_list_colorable(g, a)
    assert (result.satisfiable, result.attestation.nodes) == (False, 1)


def test_without_twins_the_search_is_searched_alone():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        g, avail = random_lists(rng, rng.randint(1, 16))
        if len(set(g.adj)) < g.n or 0 in avail:
            continue
        a = assignment_from(range(max(avail).bit_length()),
                            {v: bits(m) for v, m in enumerate(avail)})
        result = is_list_colorable(g, a)
        assert (result.coloring, result.attestation.nodes) == search_alone(g, a)
        checked += 1


def test_twin_grouping_stays_linear_when_every_row_hashes_alike():
    # an int hashes as its value mod 2^61 - 1, so a leaf joined to one hub at
    # 0 mod 61 and one at 1 mod 61 hashes to 2^0 + 2^1 = 3: 16,129 distinct
    # rows with one int hash, which grouping keyed by the int took seconds
    # over before the search read its first clock
    k = 127
    hubs = {61 * i for i in range(k)} | {61 * i + 1 for i in range(k)}
    leaves = [v for v in range(k * k + 2 * k) if v not in hubs]
    g = SimpleGraph.from_edges(k * k + 2 * k, [
        e for j, v in enumerate(leaves) for e in ((v, 61 * (j // k)), (v, 61 * (j % k) + 1))])
    assert {hash(g.adj[v]) for v in leaves} == {3}
    a = assignment_from(range(3), {v: range(3) for v in range(g.n)})
    started = time.perf_counter()
    try:
        is_list_colorable(g, a, deadline=time.monotonic() + 0.5)
    except SearchBudgetExceeded:
        pass
    assert time.perf_counter() - started < 1.5


class UnhashableMask(int):
    __hash__ = None


def test_search_groups_masks_by_object_and_never_hashes_one():
    # masks whose colour ranks differ by multiples of 61 share one int hash, so
    # grouping vertices keyed by mask value went quadratic: 16,000 vertices with
    # 2-lists {61a, 61b} took seconds before the first node
    g = cycle(6)
    shared = UnhashableMask(0b101)
    avail = [shared] * 5 + [UnhashableMask(0b111)]
    want = coloring._search(g, [0b101] * 5 + [0b111], None, 0)
    assert want[0] is not None
    assert coloring._search(g, avail, None, 0) == want


def test_a_vertex_with_no_colour_ends_the_search_at_the_root():
    # an empty mask sits in bucket 0: the root branches on it with no colour and
    # pops it, so the search refutes with no node counted, whatever the rest
    cases = ((SimpleGraph(1, (0,)), [0]), (cycle(6), [0b11] * 5 + [0]),
             (SimpleGraph(3, (0, 0, 0)), [0, 0b1, 0]))
    for g, avail in cases:
        for start in (0, 7):
            assert coloring._search(g, list(avail), None, start) == (None, start)
            assert rescan_search(g, list(avail), None, start) == (None, start)


def test_dense_masks_of_a_wide_universe_stay_small():
    # a mask per colour of a 65,536-colour universe took about U^2 / 16 bytes
    import tracemalloc

    a = ListAssignment(universe=tuple(range(2**16)), lists={0: frozenset([5])})
    tracemalloc.start()
    try:
        masks, palette = coloring._dense_masks(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks == {0: 1 << 5} and palette == list(range(2**16))
    assert peak < 20 * 2**20, peak


# -- the adversarial assignment -----------------------------------------------


def test_vetrik_lower_bound_values():
    assert vetrik_lower_bound(3, 5) == 6
    assert vetrik_lower_bound(5, 9) == 12
    assert vetrik_lower_bound(7, 13) == 18
    assert vetrik_lower_bound(2, 2) == 1
    with pytest.raises(ValueError):
        vetrik_lower_bound(1, 5)
    with pytest.raises(ValueError):
        vetrik_lower_bound(3, 1)


def test_vetrik_bound_grows_with_r():
    for n in (3, 5, 7):
        bounds = [vetrik_lower_bound(n, r) for r in range(2, 40)]
        assert bounds == sorted(bounds)


def test_vetrik_assignment_3_5_frozen():
    blocks, a = vetrik_assignment(complete_multipartite([3] * 5)[1])
    assert blocks == ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert a.universe == tuple(range(1, 10))
    # position k misses exactly block k; no trimming needed at these sizes
    assert sorted(a.lists[0]) == [4, 5, 6, 7, 8, 9]
    assert sorted(a.lists[1]) == [1, 2, 3, 7, 8, 9]
    assert sorted(a.lists[2]) == [1, 2, 3, 4, 5, 6]
    assert all(len(colors) == 6 for colors in a.lists.values())
    assert len(a.lists) == 15


def test_vetrik_assignment_5_9_frozen():
    blocks, a = vetrik_assignment(complete_multipartite([5] * 9)[1])
    assert blocks == ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11),
                      (12, 13, 14), (15, 16, 17))
    assert a.universe == tuple(range(1, 18))
    # 17 colors in 5 blocks leaves 13-or-14 color complements, trimmed to 12
    # by dropping the largest colors
    assert sorted(a.lists[0]) == list(range(5, 17))
    assert sorted(a.lists[4]) == list(range(1, 13))
    assert all(len(colors) == 12 for colors in a.lists.values())


def test_vetrik_no_common_color_within_a_part():
    # the blocks are engineered so no color appears in all n lists of a part
    for n, r in ((3, 5), (5, 9), (4, 7), (3, 4)):
        _, w = complete_multipartite([n] * r)
        _, a = vetrik_assignment(w)
        for part in w:
            assert not frozenset.intersection(*(a.lists[v] for v in part))


@pytest.mark.parametrize("n", [31, 61])
def test_vetrik_assignment_shares_one_list_object_per_value(n):
    # equal trimmed positions are one frozenset, so _dense_masks converts
    # each distinct list once without comparing equal lists element by element
    r = 2 * n - 1
    _, a = vetrik_assignment(tuple(tuple(range(i, i + n)) for i in range(0, n * r, n)))
    values = set(a.lists.values())
    assert len(values) < n
    assert len({id(colors) for colors in a.lists.values()}) == len(values)


def test_vetrik_assignment_positions_on_shuffled_parts():
    # the k-th smallest vertex of every part gets the colors outside block k,
    # the smallest vetrik_lower_bound(n, r) of them, however the parts are
    # labelled; blocks are consecutive, larger ones first
    rng = random.Random(2013)
    for n, r in itertools.product(range(2, 9), range(2, 41)):
        labels = rng.sample(range(3 * n * r), n * r)
        parts = tuple(tuple(labels[i:i + n]) for i in range(0, n * r, n))
        blocks, a = vetrik_assignment(parts)
        size, extra = divmod(2 * r - 1, n)
        colors = iter(range(1, 2 * r))
        assert blocks == tuple(tuple(itertools.islice(colors, size + (k < extra)))
                               for k in range(n)), (n, r)
        assert a.universe == tuple(range(1, 2 * r))
        bound = vetrik_lower_bound(n, r)
        assert set(a.lists) == set(labels)
        for part in parts:
            for k, v in enumerate(sorted(part)):
                want = sorted(set(a.universe) - set(blocks[k]))[:bound]
                assert a.lists[v] == frozenset(want), (n, r, k)


@pytest.mark.parametrize("sizes", [[3, 3, 4], [3], [1] * 5, []])
def test_vetrik_assignment_refuses_other_witnesses(sizes):
    with pytest.raises(ValueError):
        vetrik_assignment(complete_multipartite(sizes)[1])


def test_vetrik_refutations_by_both_solvers():
    # both solvers kill (3,5) at the root, the generic one from the twin
    # classes; with vertex 0 out of its part's class the bound does not
    # fire and the generic solver exhausts the whole tree
    g, w = complete_multipartite([3] * 5)
    _, a = vetrik_assignment(w)
    for result in multipartite_list_colorable(w, a), is_list_colorable(g, a):
        assert (result.satisfiable, result.attestation.nodes) == (False, 1)
    g, a = vetrik_k3x5(pendant=True)
    searched = is_list_colorable(g, a)
    assert (searched.satisfiable, searched.attestation.nodes) == (False, 35_798)
    masks, _ = coloring._dense_masks(a)
    assert coloring._search(g, [masks[v] for v in range(g.n)], None, 0) == (None, 35_797)


def test_vetrik_5_9_refuted():
    _, w = complete_multipartite([5] * 9)
    _, a = vetrik_assignment(w)
    res = multipartite_list_colorable(w, a)
    assert not res.satisfiable


def test_enlarged_vetrik_lists_become_colorable():
    # one extra color per list defeats the adversarial pattern at (3, 5):
    # with 7-color lists the pigeonhole argument no longer applies
    _, w = complete_multipartite([3] * 5)
    _, base = vetrik_assignment(w)
    universe = base.universe
    enlarged = {}
    for v, colors in base.lists.items():
        extra = min(c for c in universe if c not in colors)
        enlarged[v] = colors | {extra}
    res = multipartite_list_colorable(w, ListAssignment(universe=universe, lists=enlarged))
    assert res.satisfiable


# -- certificates -------------------------------------------------------------


def test_certify_gap_n3():
    cert = certify_gap(3)
    assert cert.n == 3
    assert cert.chromatic == 5
    assert cert.list_bound == 6
    assert cert.gap_lower == 2
    assert cert.blocks == ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert len(cert.chromatic_coloring) == 15
    assert len(set(cert.chromatic_coloring)) == 5


def test_certify_gap_n5():
    cert = certify_gap(5, budget_seconds=300)
    assert cert.chromatic == 9
    assert cert.list_bound == 12
    assert cert.gap_lower == 4
    assert len(cert.chromatic_coloring) == 45


def test_certify_gap_deterministic():
    assert certify_gap(3) == certify_gap(3)


def test_certify_gap_rejects_bad_orders():
    for n in (2, 4, 9):
        with pytest.raises(ValueError):
            certify_gap(n)


def test_certify_gap_past_the_exact_solver_guard():
    # n = 11 squares to 231 vertices, n = 31 to 1,891: far past what the exact
    # solver is asked about, but chi is read off the verified partition
    for n, chromatic, bound in ((11, 21, 30), (31, 61, 90)):
        cert = certify_gap(n)
        assert (cert.chromatic, cert.list_bound, cert.gap_lower) == (chromatic, bound, n - 1)
        assert len(cert.refuted_assignment.universe) == 2 * chromatic - 1


@pytest.mark.parametrize("n", [3, 5, 7])
def test_exact_solver_agrees_with_the_part_coloring(n):
    cert = certify_gap(n)
    sq = square(construct_counterexample(n).graph)
    assert chromatic_number_exact(sq) == (cert.chromatic, list(cert.chromatic_coloring))


def test_certify_refuses_a_gap_below_the_floor(monkeypatch, capsys):
    # lists one colour shorter pass every count but leave the gap at n - 2
    bound = vetrik_lower_bound
    monkeypatch.setattr(coloring, "vetrik_lower_bound", lambda n, r: bound(n, r) - 1)
    with pytest.raises(RuntimeError, match=r"^certificate gap 3 below n-1 = 4$"):
        certify_gap(5)
    assert cli.main(["certify", "--n", "5"]) == cli.EXIT_INTERNAL == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == ("squaregap certify: internal error: RuntimeError: "
                                   "'certificate gap 3 below n-1 = 4'")
    assert json.loads(err.splitlines()[-1])["outcome"] == "error"


def test_certify_refuses_a_square_that_is_not_complete_multipartite(monkeypatch, capsys):
    # one whole edge orbit removed: the stars still present a simple graph, so
    # checked_stars passes them, but the square misses edges between parts
    n = 3
    stars = [list(star) for star in base_stars(n)]
    u = stars[0].pop(0)
    stars[u // n].remove(-u % n)
    monkeypatch.setattr(construction, "base_stars", lambda m: stars)
    with pytest.raises(RuntimeError, match=r"^square structure check failed: \('structure', "):
        certify_gap(n)
    assert cli.main(["certify", "--n", str(n)]) == cli.EXIT_INTERNAL == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("squaregap certify: internal error: RuntimeError: "
                          '"square structure check failed: ')
    assert json.loads(err.splitlines()[-1])["outcome"] == "error"


@pytest.mark.parametrize("n", [3, 5, 7])
def test_certify_reaches_no_list_solver(monkeypatch, n):
    # the count on the verified parts is certify's whole refutation
    def refuse(*args, **kwargs):
        raise AssertionError("certify reached the list solver")
    for name in ("multipartite_list_colorable", "is_list_colorable", "_decide_lists",
                 "_dense_masks", "_search"):
        monkeypatch.setattr(coloring, name, refuse)
    assert certify_gap(n).gap_lower == n - 1


@pytest.mark.parametrize("n", [3, 5, 7])
def test_the_solver_refutes_certify_lists_at_its_root(n):
    # the solver stays the count's oracle: the same lists are UNSAT at node 1
    p_sets, q_sets, _ = part_sets(n)
    result = multipartite_list_colorable(p_sets + q_sets, certify_gap(n).refuted_assignment)
    assert (result.satisfiable, result.attestation.nodes) == (False, 1)


def tampered(part, change):
    """vetrik_assignment with change(k, colors) applied to the lists of one part
    (k the vertex's position in it), or to the universe when part is None."""
    def assign(parts):
        blocks, a = vetrik_assignment(parts)
        if part is None:
            return blocks, a._replace(universe=change(a.universe))
        lists = dict(a.lists)
        for k, v in enumerate(parts[part]):
            lists[v] = frozenset(change(k, lists[v]))
        return blocks, a._replace(lists=lists)
    return assign


@pytest.mark.parametrize("n", [3, 5, 7])
def test_certify_names_each_failed_count(monkeypatch, n):
    r = 2 * n - 1
    # colour 1 is missing from the first list of each part: give it to every
    # list of part 2 in place of its largest other colour, keeping the sizes
    share = tampered(2, lambda k, cs: cs if 1 in cs else cs - {max(cs)} | {1})
    short = tampered(r - 1, lambda k, cs: cs - {max(cs)} if k == n - 1 else cs)
    wide = tampered(None, lambda universe: universe + (2 * r,))
    for assign, message in ((share, "the lists of part 2 share a color"),
                            (short, f"a list of part {r - 1} does not have "
                                    f"{vetrik_lower_bound(n, r)} colors"),
                            (wide, f"the universe and lists hold {2 * r} >= 2r")):
        monkeypatch.setattr(coloring, "vetrik_assignment", assign)
        with pytest.raises(RuntimeError, match=message):
            certify_gap(n)


def primes_to(limit):
    return [p for p in range(3, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_certified_bound_is_kierstead_exact_at_n3():
    # ch(K_{3*r}) = ceil((4r - 1) / 3) (Kierstead, Discrete Math. 2000): at
    # r = 5 that is 7, the certified bound, so the n = 3 gap of 2 is exact
    r = 5
    cert = certify_gap(3)
    assert cert.list_bound + 1 == -(-(4 * r - 1) // 3) == 7
    assert cert.gap_lower == 2


def test_certified_bound_stays_under_the_noel_west_wu_zhu_cap():
    # ch(H) <= max{k, ceil((|V| + k - 1) / 3)} for every k-chromatic H (Noel,
    # West, Wu and Zhu, European J. Combin. 2015); K_{n*r} has |V| = n r, k = r
    for n in primes_to(181):
        r = 2 * n - 1
        cap = max(r, -(-(n * r + r - 1) // 3))
        assert vetrik_lower_bound(n, r) + 1 <= cap, n
        if n <= 31:
            cert = certify_gap(n)
            assert (cert.chromatic, cert.list_bound) == (r, vetrik_lower_bound(n, r)), n
