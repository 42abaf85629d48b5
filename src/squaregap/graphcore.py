"""Simple-graph representation and generic structural operations.

Vertices are dense integers 0..n-1.  Each vertex's neighborhood is one
Python int used as a bit row, so the hot operations everywhere else in
the package (shared-neighbor tests, independence checks, color-set
arithmetic) are single AND/OR/popcount steps.

Raw rows are checked only by the public constructor SimpleGraph(n, adj):
range, self-loops and symmetry.  Every other builder stores its rows
unchecked with SimpleGraph._from_rows, and each has its reason:
edge_rows sets both bits of each edge, and the fill is the edge check,
as it indexes both endpoints' rows before it takes either bit (from a
prebuilt table of single-bit rows up to 4,096 vertices, by a shift
above) and then finds self-loops on the diagonal; from_edges and
serialize.parse_dimacs's bulk path store rows that edge_rows filled; square() ORs rows of a
symmetric, loop-free graph and clears the diagonal; and
construction.construct_counterexample and
coloring.multipartite_list_colorable build symmetric, loop-free rows by
construction.  So the rows of untrusted input are checked once, as edges.

Rows can also come from a symmetry.  block_rotation(n, b) gives rot(m, k),
which rotates every b-bit block of a row up by k places: on adjacency
rows that sends each vertex k places on within its block.  A graph that
the rotation maps to itself is fixed by the neighbours of each block's
first vertex, its stars: construction.construct_counterexample rotates
each star's row into its block, and square_by_blocks computes the first
row of each block of the square from the stars, with no other row of
either graph.  That is the one fast path to the square; square() walks
every row, ORing the rows of each vertex's neighbours.
"""

from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import clip

# Up to this many vertices (or colours, in coloring._dense_masks) a row's
# single bits come from a table built once: n of them take about n^2/15
# bytes, 1.2 MB at the cap.
_BIT_TABLE_MAX = 4096


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """The mask with exactly the given bits set: the inverse of bits()."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1, immutable after construction."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        for u, row in enumerate(adj):
            if row >> n:  # also nonzero for every negative row
                raise ValueError(f"row {u} mentions vertices >= {n}")
            if row & (1 << u):
                raise ValueError(f"vertex {u} is adjacent to itself")
        for u in range(n):
            for v in bits(adj[u]):
                if not adj[v] & (1 << u):
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")
        self.n = n
        self.adj = adj

    @classmethod
    def _from_rows(cls, n: int, adj: tuple[int, ...]) -> "SimpleGraph":
        """Store rows that are valid by construction, skipping the checks."""
        g = cls.__new__(cls)
        g.n = n
        g.adj = adj
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """The graph on n vertices with the given edges.  The first faulty
        edge in input order raises: ValueError for an endpoint outside
        0..n-1 (checked first) or a self-loop, and TypeError for an endpoint
        that is no int.  Those checks run edge by edge, in
        _first_faulty_edge, only once edge_rows has found a fault."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {clip(n)}")
        if iter(edges) is edges:  # one pass only: keep the edges for the second
            edges = list(edges)
        rows = edge_rows(n, edges)
        if rows is None:
            _, u, v, out_of_range = _first_faulty_edge(n, edges)
            raise ValueError(f"edge ({clip(u)},{clip(v)}) out of range for {n} vertices"
                             if out_of_range else f"self-loop at {u} not allowed")
        return cls._from_rows(n, tuple(rows))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def upper(self) -> list[list[int]]:
        """The upper rows: upper()[u] lists u's neighbours above u, ascending."""
        return [list(bits(row >> (u + 1) << (u + 1))) for u, row in enumerate(self.adj)]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u, row in enumerate(self.upper()) for v in row]

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimpleGraph)
                and self.n == other.n and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.edge_count})"


def edge_rows(n: int, edges: Iterable[tuple[int, int]]) -> list[int] | None:
    """The n bit rows of the simple graph with the given edges, or None if
    some edge is no pair of endpoints in 0..n-1 or is a self-loop.

    The one loop indexes both endpoints' rows before it takes either bit:
    an endpoint at or above n, however large, raises IndexError before any
    bit could be allocated for it.  Up to _BIT_TABLE_MAX vertices each bit
    comes from a table built once, bit[v] = 1 << v, padded with n Nones, so
    an edge allocates no bit of its own: a negative endpoint down to -n
    reads a None, which the OR refuses, and one below -n fails its row
    index.  Above the cap the table would hold about n^2/15 bytes and gain
    less as the rows widen, so the loop shifts instead, and a negative
    endpoint fails its shift.  A self-loop sets a diagonal bit, which one
    pass finds after the loop.
    """
    rows = [0] * n
    try:
        if n <= _BIT_TABLE_MAX:
            bit = list(map((1).__lshift__, range(n))) + [None] * n
            for u, v in edges:
                row = rows[v]
                rows[u] |= bit[v]
                rows[v] = row | bit[u]
        else:
            bit = map((1).__lshift__, range(n))
            for u, v in edges:
                row = rows[v]
                rows[u] |= 1 << v
                rows[v] = row | 1 << u
    except (IndexError, TypeError, ValueError):
        return None
    if any(map(int.__and__, rows, bit)):
        return None
    return rows


def _first_faulty_edge(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, int, int, bool]:
    """The first faulty edge, once edge_rows has found a fault: its index in
    edges, its endpoints, and True if it is out of range, False if it is a
    self-loop.  Each edge is range-checked, then checked for a self-loop,
    then used as a list index and a shift as the fill uses it, so an
    endpoint that is no int raises the fill's TypeError.  No row is built.
    from_edges names the fault 0-based, serialize.parse_dimacs 1-based with
    its line."""
    zeros = [0] * n
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return i, u, v, True
        if u == v:
            return i, u, v, False
        zeros[u] << v  # an endpoint that is no int fails here, as in the fill
    raise AssertionError("edge_rows refused edges with no fault")


def block_rotation(n: int, block: int) -> Callable[..., int]:
    """The map rot(m, k) taking an n-bit row m to the row with every
    block-bit block rotated up by k places: bit b*block + c moves to
    b*block + (c + k) % block.

    On adjacency rows this is the vertex map u -> u + k within u's block.
    Each k's mask, the top k bits of every block, is built once, from
    the pattern with bit 0 of each block set.  Raises ValueError unless
    block >= 1 divides n.
    """
    if block < 1 or n % block:
        raise ValueError(f"block size {block} does not divide {n}")
    low = ((1 << n) - 1) // ((1 << block) - 1)  # bit 0 of each block
    tops = {}

    def rot(m: int, k: int) -> int:
        k %= block
        if not k:
            return m
        top = tops.get(k)
        if top is None:
            top = tops[k] = low * ((1 << k) - 1) << (block - k)
        top &= m
        return (m ^ top) << k | top >> (block - k)
    return rot


def square_by_blocks(stars: Sequence[Sequence[int]], block: int) -> list[int]:
    """The first row of each block of the square of the graph that stars
    presents: the graph on len(stars) * block vertices in which vertex
    b*block + c has the neighbour B*block + (x + c) % block for each
    B*block + x in stars[b], so that block_rotation maps it to itself.

    Requires that relation symmetric and loop-free, as
    verification.checked_stars checks it.  Block b's row is the star's
    own row ORed with the row of each star neighbour u, which is the
    first row of u's block rotated by u's place in it, without bit
    b*block: len(stars) rows of the square from one rotation per star
    entry.
    """
    rot = block_rotation(len(stars) * block, block)
    firsts = list(map(mask_of, stars))
    out = []
    for b, star in enumerate(stars):
        row = firsts[b]
        for u in star:
            row |= rot(firsts[u // block], u % block)
        out.append(row & ~(1 << b * block))
    return out


def square(g: SimpleGraph) -> SimpleGraph:
    """The distance-<=2 power: u ~ v iff adjacent or sharing a neighbor in g.
    Walks every row; square_by_blocks gives a rotation-invariant graph's
    square from its stars."""
    adj = g.adj
    rows = []
    for u, row in enumerate(adj):
        reach = row
        for v in bits(row):
            reach |= adj[v]
        rows.append(reach & ~(1 << u))
    return SimpleGraph._from_rows(g.n, tuple(rows))
