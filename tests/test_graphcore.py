import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    CapacityError,
    bfs_square,
    complete_multipartite,
    induced_subgraph,
    is_clique,
    random_graph,
    square_oracle,
    subdivision,
    total_graph,
)
from squaregap import graphcore
from squaregap.construction import base_stars, construct_counterexample
from squaregap.graphcore import (
    SimpleGraph,
    bits,
    block_rotation,
    square,
    square_by_blocks,
)

PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph.from_edges(n, list(itertools.combinations(range(n), 2)))


def test_bits_iterates_ascending():
    assert list(bits(0)) == []
    assert list(bits(0b101101)) == [0, 2, 3, 5]


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, (0b01, 0b01))  # vertex 0 adjacent to itself


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        SimpleGraph(2, (0b10, 0b00))


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        SimpleGraph(1, (0b10,))
    with pytest.raises(ValueError):
        SimpleGraph(1, (-1,))  # a negative row has bits at every index >= n
    with pytest.raises(ValueError, match="^adjacency has 1 rows for 2 vertices$"):
        SimpleGraph(2, (0,))


def test_from_edges_rejects_negative_vertex_count():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(-1, [])
    with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
        SimpleGraph(-1, ())


def test_unchecked_builders_yield_rows_the_checked_constructor_accepts():
    # from_edges and square store their rows unchecked
    rng = random.Random(4242)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.3]))
        for h in (g, square(g)):
            assert SimpleGraph(h.n, h.adj) == h
            assert hash(SimpleGraph(h.n, h.adj)) == hash(h)


def test_edges_sorted_and_counted():
    g = SimpleGraph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
    assert g.edges() == [(0, 1), (1, 3), (2, 3)]
    assert g.upper() == [[1], [3], [3], []]
    assert g.edge_count == 3
    assert g.degree(1) == 2 and g.degree(2) == 1
    assert list(bits(g.adj[3])) == [1, 2]
    assert g.adj[3] >> 1 & 1 and not g.adj[0] >> 2 & 1


def test_square_of_path():
    # P5 squared: each vertex also sees the vertex two steps away
    g = square(path(5))
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def test_square_of_five_cycle_is_complete():
    assert square(cycle(5)) == complete(5)


def test_square_of_star_is_complete():
    star = SimpleGraph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert square(star) == complete(5)


def test_square_fixed_points():
    # squaring is the identity on complete graphs and on edgeless graphs
    assert square(complete(4)) == complete(4)
    assert square(SimpleGraph(6, (0,) * 6)) == SimpleGraph(6, (0,) * 6)


def test_square_three_ways_on_random_graphs():
    # bitset implementation vs numpy matrix oracle vs plain BFS
    rng = random.Random(20210)
    for trial in range(200):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.6]))
        fast = square(g)
        assert fast == square_oracle(g), f"trial {trial}"
        assert fast == bfs_square(g), f"trial {trial}"


@contextlib.contextmanager
def no_dense_square():
    """Fails any call of graphcore.square, which walks every row, while open."""
    def refuse(g):
        raise AssertionError("square() walked the dense rows")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphcore, "square", refuse)
        yield


def test_block_rotation_moves_each_bit_up_within_its_block():
    rotate = block_rotation(6, 3)
    assert [rotate(1 << u, 1) for u in range(6)] == [1 << v for v in (1, 2, 0, 4, 5, 3)]
    assert rotate(0b110_011, 1) == 0b101_110
    assert block_rotation(5, 5)(0b10001, 1) == 0b00011


def test_block_rotation_by_k_places_is_k_single_rotations():
    rng = random.Random(77)
    for n, block in ((12, 1), (12, 3), (12, 12), (35, 5), (35, 7)):
        rotate = block_rotation(n, block)
        for _ in range(20):
            m = one = rng.getrandbits(n)
            for k in range(2 * block + 1):
                assert rotate(one, k) == m, (n, block, k)
                m = rotate(m, 1)


def stars_of(g, block):
    """The neighbours of each block's first vertex, ascending."""
    return [list(bits(g.adj[b])) for b in range(0, g.n, block)]


def whole_square(stars, block):
    """All rows of the square that square_by_blocks gives by blocks: each
    block's row rotated by 0..block - 1 places."""
    rot = block_rotation(len(stars) * block, block)
    return tuple(rot(row, c) for row in square_by_blocks(stars, block) for c in range(block))


@pytest.mark.parametrize("n", PRIMES_TO_31 + [61])
def test_square_by_blocks_on_constructed_graphs(n):
    # the block rows are the first rows of the dense square, which they rotate into
    sq = square(construct_counterexample(n).graph)
    rows = square_by_blocks(base_stars(n), n)
    assert rows == list(sq.adj[::n])
    assert whole_square(base_stars(n), n) == sq.adj


def rotation_closed(g, block):
    """g with every edge's images under the rotation of its block-vertex blocks added."""
    def shifted(u, t):
        return u - u % block + (u + t) % block

    return SimpleGraph.from_edges(g.n, {(shifted(u, t), shifted(v, t))
                                        for u, v in g.edges() for t in range(block)})


@pytest.mark.parametrize("block", [0, 1, 2, 4, 6, 12, 13, -3])
def test_square_by_blocks_any_block_size(block):
    # 1, 2, 4, 6 and 12 divide 12: each graph, closed under the rotation of
    # its blocks, has its square from its stars; 0, 13 and -3 are refused
    if block < 1 or 12 % block:
        with pytest.raises(ValueError, match="does not divide 12"):
            block_rotation(12, block)
        return
    for g in (cycle(12), path(12), complete(12), SimpleGraph(12, (0,) * 12)):
        h = rotation_closed(g, block)
        assert whole_square(stars_of(h, block), block) == square(h).adj, (g, block)


def test_square_by_blocks_walks_one_row_of_a_cycle():
    # the cycle is one block of 12, its star {1, 11}; no dense row is walked
    with no_dense_square():
        rows = square_by_blocks([[1, 11]], 12)
    assert rows == [0b1100_0000_0110]
    assert whole_square([[1, 11]], 12) == square(cycle(12)).adj


@settings(max_examples=150, deadline=None)
@given(count=st.integers(1, 4), block=st.integers(2, 7), data=st.data())
def test_square_by_blocks_on_rotation_invariant_graphs(count, block, data):
    # random base edges, each closed under the block rotation: the stars present the graph
    n = count * block
    base = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
    g = rotation_closed(SimpleGraph.from_edges(n, {(u, v) for u, v in base if u != v}), block)
    with no_dense_square():
        rows = whole_square(stars_of(g, block), block)
    assert rows == square(g).adj == bfs_square(g).adj


def test_square_oracle_capacity_guard():
    with pytest.raises(CapacityError):
        square_oracle(SimpleGraph(513, (0,) * 513))
    assert square_oracle(SimpleGraph(512, (0,) * 512)) == SimpleGraph(512, (0,) * 512)


def test_induced_subgraph():
    g = cycle(6)
    sub, old = induced_subgraph(g, [0, 1, 2, 5])
    assert old == [0, 1, 2, 5]
    assert sub.edges() == [(0, 1), (0, 3), (1, 2)]  # 0-1, 0-5, 1-2 relabeled
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 6])


def test_induced_subgraph_preserves_adjacency():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, 12, 0.4)
        keep = [v for v in range(12) if rng.random() < 0.6]
        sub, old = induced_subgraph(g, keep)
        for a in range(sub.n):
            for b in range(a + 1, sub.n):
                assert sub.adj[a] >> b & 1 == g.adj[old[a]] >> old[b] & 1


def test_independent_set_and_clique():
    g = cycle(6)
    assert induced_subgraph(g, [0, 2, 4])[0].edge_count == 0
    assert induced_subgraph(g, [0, 1])[0].edge_count == 1
    assert induced_subgraph(g, [])[0].edge_count == 0
    assert is_clique(g, [0, 1])
    assert not is_clique(g, [0, 1, 2])
    assert is_clique(complete(4), range(4))
    with pytest.raises(ValueError):
        is_clique(g, [0, 9])


def test_complete_multipartite_builder_and_recognizer():
    g, w = complete_multipartite([2, 3, 1])
    assert g.n == 6
    assert w == ((0, 1), (2, 3, 4), (5,))
    assert g.edges() == [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
                         (2, 5), (3, 5), (4, 5)]


def test_complete_multipartite_rejects_empty_part():
    with pytest.raises(ValueError):
        complete_multipartite([2, 0, 1])


def test_subdivision_of_triangle_is_six_cycle():
    sub, labels = subdivision(complete(3))
    assert sub.n == 6
    assert sub.edge_count == 6
    assert all(sub.degree(v) == 2 for v in range(6))
    assert labels[:3] == (("vertex", 0), ("vertex", 1), ("vertex", 2))
    assert labels[3:] == (("edge", (0, 1)), ("edge", (0, 2)), ("edge", (1, 2)))


def test_total_graph_of_triangle_is_octahedron():
    tot, _ = total_graph(complete(3))
    assert tot.n == 6
    assert tot.edge_count == 12
    assert all(tot.degree(v) == 4 for v in range(6))
    # complete tripartite with parts {vertex, opposite edge}: (0, 5), (1, 4), (2, 3)
    assert tot.edges() == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
                           (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]


def test_total_graph_of_path():
    # P3 = 0-1-2: total graph is vertices {0,1,2} plus midpoints {3,4}
    tot, _ = total_graph(path(3))
    assert tot.edges() == [(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]


def test_square_of_subdivision_is_total_graph_exhaustive():
    # every graph on 5 labeled vertices, all 2^10 edge subsets
    slots = list(itertools.combinations(range(5), 2))
    for picks in itertools.product([0, 1], repeat=len(slots)):
        g = SimpleGraph.from_edges(5, [e for e, take in zip(slots, picks) if take])
        sub, sub_labels = subdivision(g)
        tot, tot_labels = total_graph(g)
        assert sub_labels == tot_labels
        assert square(sub) == tot


def test_square_of_subdivision_on_random_larger_graphs():
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng, rng.randint(6, 9), 0.5)
        assert square(subdivision(g)[0]) == total_graph(g)[0]
