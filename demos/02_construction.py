"""Building the counterexample graph from the Latin square family.

For prime n the graph has n^2 "v" vertices arranged in an n x n grid
(rows P_1..P_n, columns T_1..T_n) and n(n-1) "w" vertices in groups
Q_1..Q_{n-1}.  Every column is a clique, and each w_{i,j} is joined to
the n v-vertices named by row j of the i-th Latin square, so it touches
every row and every column exactly once.
"""

from squaregap import construct_counterexample
from squaregap.construction import vertex_names
from squaregap.graphcore import bits


def main():
    n = 3
    gc = construct_counterexample(n)
    g = gc.graph
    labels = vertex_names(n)
    print(f"n = {n}: {g.n} vertices, {g.edge_count} edges")
    print(f"  v-side degree {g.degree(0)}, w-side degree {g.degree(g.n - 1)}")

    print("\nw-vertex neighborhoods (rows of the Latin squares):")
    for i in range(1, n):
        for j in range(1, n + 1):
            names = ", ".join(labels[v] for v in bits(g.adj[gc.w_index(i, j)]))
            print(f"  N(w_{i}_{j}) = {{{names}}}")

    print("\ncolumn cliques:")
    for j, col in enumerate(gc.t_sets, start=1):
        names = ", ".join(labels[v] for v in col)
        print(f"  T_{j} = {{{names}}}")

    print("\nscaling:")
    for m in (3, 5, 7, 11, 13):
        gm = construct_counterexample(m).graph
        print(f"  n={m:2d}: {gm.n:4d} vertices, {gm.edge_count:5d} edges")


if __name__ == "__main__":
    main()
