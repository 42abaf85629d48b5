"""The classical identity behind the problem: H^2 = T(G).

Subdividing every edge of G and then squaring gives exactly the total
graph of G, provided both sides name their vertices the same way
(originals first, then one vertex per edge in sorted order).  The
identity is what connects squares of graphs to total colorings.  The two
operations are spelled out here; the package itself needs neither.
"""

import itertools
import random

from squaregap import SimpleGraph, square


def subdivision(g):
    """Every edge uv becomes the path u - m - v, m = n + (index of uv in g.edges())."""
    edges = g.edges()
    return SimpleGraph.from_edges(
        g.n + len(edges), [(x, g.n + i) for i, e in enumerate(edges) for x in e])


def total_graph(g):
    """The vertices and edges of g, on subdivision's numbering: two are adjacent
    when they are adjacent vertices, incident, or edges sharing an end."""
    edges = g.edges()
    meet = [(g.n + i, g.n + j) for (i, e), (j, f) in itertools.combinations(enumerate(edges), 2)
            if set(e) & set(f)]
    return SimpleGraph.from_edges(g.n + len(edges), edges + subdivision(g).edges() + meet)


def show(name, g):
    same = square(subdivision(g)) == total_graph(g)
    print(f"{name}: {g.n} vertices + {g.edge_count} edge-vertices -> "
          f"square of subdivision == total graph: {same}")


def main():
    show("triangle", SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    show("path P4", SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    show("star K1,4", SimpleGraph.from_edges(5, [(0, i) for i in range(1, 5)]))
    show("cycle C6", SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]))

    # the subdivision of a triangle is a six-cycle; its square is the
    # octahedron, which is K_{2,2,2}, the smallest complete multipartite
    # example in this whole story
    tot = total_graph(SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    print(f"\ntotal graph of a triangle: {tot.n} vertices, "
          f"{tot.edge_count} edges (the octahedron)")

    rng = random.Random(1)
    checked = 0
    for _ in range(2000):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = SimpleGraph.from_edges(n, edges)
        assert square(subdivision(g)) == total_graph(g)
        checked += 1
    print(f"identity re-checked on {checked} random graphs")


if __name__ == "__main__":
    main()
