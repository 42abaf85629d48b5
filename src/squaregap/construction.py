"""The counterexample graph whose square is complete multipartite.

For prime n >= 3 the graph has n^2 "v" vertices grouped both into rows
P_1..P_n and into columns T_1..T_n, plus n(n-1) "w" vertices grouped
into Q_1..Q_{n-1}.  Each column T_j is a clique, and w_{i,j} is joined
to the v-vertices named by row j of the i-th Latin square: one neighbor
in every P_k and one in every T_k.

Since entry (j, k) of the i-th square is j + i(k-1) mod n, shifting every
position by one (v_{k,c} to v_{k,c+1}, w_{i,j} to w_{i,j+1}, mod n) maps
the graph onto itself.  With vertices numbered in blocks of n, one block
per P_k and per Q_i, that shift rotates every block up by one, so the bit
rows are built in closed form for position 1 of each block and rotated
(graphcore.rotated_rows) into the rest.  No Latin square is built here:
verify's nw0 builds the squares and compares the rows with them, so the
two definitions check each other.
"""

from dataclasses import dataclass
from typing import Sequence

from .graphcore import SimpleGraph, mask_of, rotated_rows
from .latin import require_prime


@dataclass(frozen=True)
class ConstructedGraph:
    n: int
    graph: SimpleGraph
    labels: tuple[str, ...]  # index -> name, from vertex_names
    p_sets: tuple[tuple[int, ...], ...]  # P_1..P_n
    q_sets: tuple[tuple[int, ...], ...]  # Q_1..Q_{n-1}
    t_sets: tuple[tuple[int, ...], ...]  # T_1..T_n

    def v_index(self, i: int, j: int) -> int:
        """Vertex index of v_{i,j} (row i, position j), 1-based arguments."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"v_{{{i},{j}}} out of range for n={self.n}")
        return (i - 1) * self.n + (j - 1)

    def w_index(self, i: int, j: int) -> int:
        """Vertex index of w_{i,j} (group i, position j), 1-based arguments."""
        if not (1 <= i <= self.n - 1 and 1 <= j <= self.n):
            raise ValueError(f"w_{{{i},{j}}} out of range for n={self.n}")
        return self.n * self.n + (i - 1) * self.n + (j - 1)

    @property
    def p_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.n * self.n))

    @property
    def q_vertices(self) -> tuple[int, ...]:
        return tuple(range(self.n * self.n, 2 * self.n * self.n - self.n))


def vertex_names(n: int) -> list[str]:
    """The name of each vertex of the graph for n, in index order: v_i_j for
    row i, position j, then w_i_j for group i, position j (1-based)."""
    out = [f"v_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    out += [f"w_{i}_{j}" for i in range(1, n) for j in range(1, n + 1)]
    return out


def part_sets(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(P_1..P_n, Q_1..Q_{n-1}, T_1..T_n) of the graph for n, in closed form."""
    nn = n * n
    return (tuple(tuple(range(k, k + n)) for k in range(0, nn, n)),
            tuple(tuple(range(k, k + n)) for k in range(nn, 2 * nn - n, n)),
            tuple(tuple(range(j, nn, n)) for j in range(n)))


def _w_neighbours(n: int, k: int, c: int, ids: Sequence[int]) -> list[int]:
    """The w-neighbours of v(k, c) (0-based), ascending: w(i, c - ik mod n)
    for i = 1..n-1, one in the block of each Q_i, which starts at q.  Each
    vertex x is given as ids[x]."""
    return [ids[q + (c - i * k) % n]
            for i, q in enumerate(range(n * n, 2 * n * n - n, n), start=1)]


def counterexample_upper(n: int) -> list[list[int]]:
    """construct_counterexample(n).graph.upper(), built with no bit row.

    Every neighbour above a v is a later v of its column or a w, and a w
    has none: so v's upper row is range(v + n, n^2, n) followed by its
    w-neighbours, both ascending, and each w's upper row is empty.  The
    rows hold n^3 entries in all, but share one int object per vertex.
    """
    require_prime(n)
    nn = n * n
    ids = list(range(2 * nn - n))
    out = [[*ids[v + n:nn:n], *_w_neighbours(n, *divmod(v, n), ids)] for v in range(nn)]
    return out + [[] for _ in range(nn - n)]


def construct_counterexample(n: int) -> ConstructedGraph:
    """Build the 2n^2 - n vertex graph for prime n >= 3.

    Edge set is the union of the Latin-row stars (each w_{i,j} to the
    v-vertices on row j of square i) and the column cliques T_1..T_n.
    In 0-based terms w(i, j) ~ v(k, j + ik mod n).  So v(k, 0)'s row is
    column 0 without itself plus w(i, -ik mod n) for each i, w(i, 0)'s row
    is v(k, ik mod n) for each k, and rotating a block's first row gives
    the others: symmetric and loop-free.
    """
    require_prime(n)
    nn = n * n
    count = 2 * nn - n
    column = mask_of(range(0, nn, n))
    firsts = [column & ~(1 << k * n) | mask_of(_w_neighbours(n, k, 0, range(count)))
              for k in range(n)]
    firsts += [mask_of(k * n + i * k % n for k in range(n)) for i in range(1, n)]
    rows = tuple(rotated_rows(firsts, count, n))
    p_sets, q_sets, t_sets = part_sets(n)
    return ConstructedGraph(n=n, graph=SimpleGraph._from_rows(count, rows),
                            labels=tuple(vertex_names(n)), p_sets=p_sets, q_sets=q_sets,
                            t_sets=t_sets)
