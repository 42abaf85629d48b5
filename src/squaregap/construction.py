"""The counterexample graph whose square is complete multipartite.

For prime n >= 3 the graph has n^2 "v" vertices grouped both into rows
P_1..P_n and into columns T_1..T_n, plus n(n-1) "w" vertices grouped
into Q_1..Q_{n-1}.  Each column T_j is a clique, and w_{i,j} is joined
to the v-vertices named by row j of the i-th Latin square: one neighbor
in every P_k and one in every T_k.

The vertices are numbered in 2n - 1 blocks of n, one per P_k and then one
per Q_i, and v(k, c) and w(i, c) (0-based) are position c of their block.
Since entry (j, k) of the i-th square is j + i(k-1) mod n, w(i, j) is joined
to v(k, j + ik mod n).  So G is presented by its base stars (base_stars),
the neighbours of each block's first vertex, and one rotation rule: the
vertex at position c of block b has the neighbour B*n + (x + c) mod n for
each neighbour B*n + x of block b's first vertex.  Both builders read the
stars, and so do verify and certify, which check them
(verification.checked_stars) and then work one row per block, with no
row of G built.  No Latin square is built here: verify's nw0 builds the
squares and compares each Q_i's star with its square's first row, and
the square's rows with each other, so the two definitions check each
other.
"""

from collections import namedtuple

from .graphcore import SimpleGraph, block_rotation, mask_of
from .latin import require_prime


class ConstructedGraph(namedtuple("ConstructedGraph", "n graph p_sets q_sets t_sets")):
    """The graph for prime n (a SimpleGraph) and its parts: p_sets are
    P_1..P_n, q_sets Q_1..Q_{n-1} and t_sets T_1..T_n, each a tuple of
    vertex tuples.  vertex_names(n) is the one builder of their names."""

    __slots__ = ()

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


def base_stars(n: int) -> list[list[int]]:
    """The ascending neighbours of each block's first vertex, block by block
    (0-based): v(k, 0) gets v(B, 0) for B != k and w(i, -ik mod n), and
    w(i, 0) gets v(k, ik mod n).  Raises ValueError unless n is a prime >= 3."""
    require_prime(n)
    nn = n * n
    q_starts = range(nn, 2 * nn - n, n)
    stars = [[*range(0, k * n, n), *range(k * n + n, nn, n),
              *[q + -i * k % n for i, q in enumerate(q_starts, start=1)]] for k in range(n)]
    return stars + [[k * n + i * k % n for k in range(n)] for i in range(1, n)]


def counterexample_upper(n: int) -> list[list[int]]:
    """construct_counterexample(n).graph.upper(), built with no bit row.

    A vertex has one neighbour in each block its block's star reaches, so
    block b's upper rows come from the star's neighbours in later blocks,
    ascending: a neighbour B*n + x gives the slice [x:x + n] of block B's
    vertices, doubled, and the slices read across are the rows.  The rows
    hold n^3 entries in all, but share one int object per vertex.
    """
    stars = base_stars(n)
    rings = [[*range(s, s + n)] * 2 for s in range(0, len(stars) * n, n)]
    out = []
    for b, star in enumerate(stars):
        cuts = [rings[u // n][u % n:u % n + n] for u in star if u // n > b]
        out += map(list, zip(*cuts)) if cuts else [[] for _ in range(n)]
    return out


def construct_counterexample(n: int) -> ConstructedGraph:
    """Build the 2n^2 - n vertex graph for prime n >= 3: each base star's bit
    row, rotated by c places (graphcore.block_rotation) for position c of
    its block.  Each edge orbit is in the stars of both its end blocks and
    no star names its own block, so the rows are symmetric and loop-free."""
    stars = base_stars(n)
    rot = block_rotation(len(stars) * n, n)
    rows = tuple(rot(row, c) for row in map(mask_of, stars) for c in range(n))
    p_sets, q_sets, t_sets = part_sets(n)
    return ConstructedGraph(n=n, graph=SimpleGraph._from_rows(len(rows), rows),
                            p_sets=p_sets, q_sets=q_sets, t_sets=t_sets)
