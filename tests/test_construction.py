import hashlib
import itertools

import pytest

from oracles import is_clique, latin_upper, stars_by_rule
from squaregap.construction import (
    base_stars,
    construct_counterexample,
    counterexample_upper,
    vertex_names,
)
from squaregap.graphcore import SimpleGraph, bits
from squaregap.latin import build_latin

PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

# SHA-256 of the hex digits of (n, *adj), joined by commas, from the construction
# that built every row by setting both bits of each edge in SimpleGraph.from_edges.
ROW_DIGESTS = {
    3: "061ac814e34ff44d6c9fb45e0551d137e5c6f42183825c0f1b6dd1e0ff15bb1f",
    5: "020075cc1932ae34de0b9572f6e6b2e50feeca20520730f547019f2fc7868f1a",
    7: "595c0e1fc6bafd5afc3e96ee34dd96817678e4940194735ebeb38141e3b99981",
    11: "6a5d03201f6c3bde079418ec02404476934af3c986b4f0a93c6d18cb056de7c4",
    13: "2a0593324a21a5e59be311162035c16db463cf92cd9994d0a04f18c0121b2b93",
    17: "28f60bb7201f4975f4cdffa4f85f77b3b01516da2358075a8fd03aef61a3d257",
    19: "37f34f951b811d950817c00175619fff941dcdd2a2f6283429ea0904245e6fba",
    23: "a3dcb7b353bc100ea001bce9dacd291a7a13ff6e79bb403b1d160065473d3df4",
    29: "1a7d17a786578f14908817a2cebf506db00de8587776f78fbde0e99894381516",
    31: "e172f9c14583ec942aab8657fd77e57e1484869560e41c3fd78c14c261f8f3af",
    61: "31b89bb6d08b9b1dc7d9c51c12309f3d1dcdb790ed50c339c59010184f120ccb",
}

# Frozen neighbor lists of all six w-vertices at n=3: row j of square i,
# read as column positions.
W_NEIGHBORS_N3 = {
    (1, 1): {"v_1_1", "v_2_2", "v_3_3"},
    (1, 2): {"v_1_2", "v_2_3", "v_3_1"},
    (1, 3): {"v_1_3", "v_2_1", "v_3_2"},
    (2, 1): {"v_1_1", "v_2_3", "v_3_2"},
    (2, 2): {"v_1_2", "v_2_1", "v_3_3"},
    (2, 3): {"v_1_3", "v_2_2", "v_3_1"},
}


def test_sizes_at_n3():
    gc = construct_counterexample(3)
    assert gc.graph.n == 15
    assert gc.graph.edge_count == 27


def test_sizes_at_n5():
    gc = construct_counterexample(5)
    assert gc.graph.n == 45
    assert gc.graph.edge_count == 150


@pytest.mark.parametrize("n", [3, 5, 7, 11])
def test_counts_and_degrees(n):
    gc = construct_counterexample(n)
    g = gc.graph
    assert g.n == 2 * n * n - n
    # stars contribute n^2 (n-1) edges, column cliques n * C(n,2)
    assert g.edge_count == n * n * (n - 1) + n * n * (n - 1) // 2
    for v in gc.p_vertices:
        assert g.degree(v) == 2 * (n - 1)  # n-1 clique edges + one star per square
    for w in gc.q_vertices:
        assert g.degree(w) == n


def test_frozen_w_neighborhoods_at_n3():
    gc = construct_counterexample(3)
    labels = vertex_names(3)
    for (i, j), expected in W_NEIGHBORS_N3.items():
        w = gc.w_index(i, j)
        got = {labels[v] for v in bits(gc.graph.adj[w])}
        assert got == expected, f"w_{i}_{j}"


def test_w_neighbours_read_their_latin_row():
    # w_{i,j} is joined to v_{k,x} for each entry x at position k of row j of square i
    for n in (3, 5):
        gc = construct_counterexample(n)
        labels = vertex_names(n)
        for i in range(1, n):
            for j, row in enumerate(build_latin(n, i), start=1):
                from_row = {f"v_{k}_{x}" for k, x in enumerate(row, start=1)}
                from_graph = {labels[v] for v in bits(gc.graph.adj[gc.w_index(i, j)])}
                assert from_row == from_graph


def test_vertex_indexing_and_labels():
    gc = construct_counterexample(3)
    assert gc.v_index(1, 1) == 0
    assert gc.v_index(3, 3) == 8
    assert gc.w_index(1, 1) == 9
    assert gc.w_index(2, 3) == 14
    labels = vertex_names(3)
    assert labels[0] == "v_1_1"
    assert labels[14] == "w_2_3"
    assert labels[4] == "v_2_2"


def test_index_bounds():
    gc = construct_counterexample(3)
    with pytest.raises(ValueError):
        gc.v_index(0, 1)
    with pytest.raises(ValueError):
        gc.v_index(1, 4)
    with pytest.raises(ValueError):
        gc.w_index(3, 1)  # only n-1 groups


@pytest.mark.parametrize("n", [3, 5, 7])
def test_groupings_partition_the_vertices(n):
    gc = construct_counterexample(n)
    p_all = [v for s in gc.p_sets for v in s]
    q_all = [v for s in gc.q_sets for v in s]
    assert sorted(p_all + q_all) == list(range(gc.graph.n))
    assert len(gc.p_sets) == n and all(len(s) == n for s in gc.p_sets)
    assert len(gc.q_sets) == n - 1 and all(len(s) == n for s in gc.q_sets)
    # T-sets partition the v-side a second way, by column
    assert sorted(v for s in gc.t_sets for v in s) == sorted(p_all)
    assert gc.t_sets[0] == tuple(range(0, n * n, n))  # T_1: v_{1,1}, v_{2,1}, ..., v_{n,1}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_columns_are_cliques(n):
    gc = construct_counterexample(n)
    for j in range(1, n + 1):
        assert is_clique(gc.graph, gc.t_sets[j - 1])


@pytest.mark.parametrize("n", [3, 5])
def test_no_edges_between_w_vertices(n):
    gc = construct_counterexample(n)
    for a in gc.q_vertices:
        for b in gc.q_vertices:
            assert not gc.graph.adj[a] >> b & 1


def test_rejects_bad_orders():
    for n in (0, 1, 2, 4, 6, 9):
        with pytest.raises(ValueError) as graph_error:
            construct_counterexample(n)
        with pytest.raises(ValueError) as rows_error:
            counterexample_upper(n)
        with pytest.raises(ValueError) as stars_error:
            base_stars(n)
        assert str(rows_error.value) == str(graph_error.value)
        assert str(stars_error.value) == str(graph_error.value)


@pytest.mark.parametrize("n", PRIMES_TO_31 + [61])
def test_rows_match_their_pinned_digest(n):
    g = construct_counterexample(n).graph
    digest = hashlib.sha256(",".join(map(hex, (g.n,) + g.adj)).encode()).hexdigest()
    assert digest == ROW_DIGESTS[n]


@pytest.mark.parametrize("n", PRIMES_TO_31 + [61])
def test_rows_pass_the_checked_constructor(n):
    # symmetric, loop-free and in range, though construction stores them unchecked
    g = construct_counterexample(n).graph
    assert SimpleGraph(g.n, g.adj) == g


@pytest.mark.parametrize("n", PRIMES_TO_31 + [37, 41, 43, 47, 53, 59, 61])
def test_upper_rows_are_the_graphs_upper_rows(n):
    # both builders and the stars they read against the Latin squares as the
    # paper defines the graph: block b's star is vertex b*n's whole neighbourhood
    upper = latin_upper(n)
    assert counterexample_upper(n) == upper
    assert construct_counterexample(n).graph.upper() == upper
    lower = [[] for _ in upper]
    for u, row in enumerate(upper):
        for v in row:
            lower[v].append(u)
    assert base_stars(n) == [lower[v] + upper[v] for v in range(0, len(upper), n)]


@pytest.mark.parametrize("n", [101, 181, 257])
def test_stars_follow_their_rule_past_the_latin_oracle(n):
    # latin_upper stops at 61; the stars' offsets come from stepped ranges, negative for P
    assert base_stars(n) == stars_by_rule(n)


@pytest.mark.parametrize("n", [31, 61])
def test_upper_rows_share_one_int_per_vertex(n):
    # n^3 entries; an int built per entry would cost 28 bytes each
    upper = counterexample_upper(n)
    assert len({id(v) for row in upper for v in row}) <= 2 * n * n - n


def test_vertex_names_at_n3():
    assert vertex_names(3) == [
        "v_1_1", "v_1_2", "v_1_3", "v_2_1", "v_2_2", "v_2_3", "v_3_1", "v_3_2", "v_3_3",
        "w_1_1", "w_1_2", "w_1_3", "w_2_1", "w_2_2", "w_2_3",
    ]


@pytest.mark.parametrize("n", PRIMES_TO_31)
def test_vertex_names_are_the_labels(n):
    # the name of each index is the label its v_index or w_index arguments spell
    gc, names = construct_counterexample(n), vertex_names(n)
    assert len(names) == gc.graph.n
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        assert names[gc.v_index(i, j)] == f"v_{i}_{j}"
        if i < n:
            assert names[gc.w_index(i, j)] == f"w_{i}_{j}"
