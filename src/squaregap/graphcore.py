"""Simple-graph representation and generic structural operations.

Vertices are dense integers 0..n-1.  Each vertex's neighborhood is one
Python int used as a bit row, so the hot operations everywhere else in
the package (shared-neighbor tests, independence checks, color-set
arithmetic) are single AND/OR/popcount steps.

Raw rows are checked only by the public constructor SimpleGraph(n, adj):
range, self-loops and symmetry.  from_edges checks each edge instead and
sets both bits, and square() and construction.construct_counterexample
build symmetric, loop-free rows by construction, so these builders store
their rows unchecked.

Rows can also come from a symmetry.  block_rotation(n, b) rotates every
b-bit block of a row up by one, which on adjacency rows sends each vertex
to the next one of its block (the last to the first), and rotated_rows
expands the first row of each block into the whole block with it.
square(g, b) trusts that only after checking, on every row, that the
rotation of adj[u] is the row of u's image: then the rotation is an
automorphism of g, hence of g's square, and only the first row of each
block is walked.
"""

from collections.abc import Callable, Iterable, Iterator
from operator import eq

from .errors import clip


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
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {clip(n)}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({clip(u)},{clip(v)}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
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


def block_rotation(n: int, block: int) -> Callable[[int], int]:
    """The map taking an n-bit row to the row with every block-bit block
    rotated up by one: bit b*block + c moves to b*block + (c + 1) % block.

    On adjacency rows this is the vertex map u -> u + 1 within u's block.
    Requires block >= 1 dividing n.
    """
    low = mask_of(range(0, n, block))  # bit 0 of each block
    keep = ((1 << n) - 1) & ~low
    shift = block - 1
    return lambda m: (m << 1) & keep | (m >> shift) & low


def rotated_rows(firsts: Iterable[int], n: int, block: int) -> Iterator[int]:
    """Each n-bit row of firsts followed by its block - 1 successive
    block_rotation(n, block) images: n // block rows give all n rows."""
    rotate = block_rotation(n, block)
    for row in firsts:
        yield row
        for _ in range(block - 1):
            row = rotate(row)
            yield row


def _reach(adj: tuple[int, ...], u: int) -> int:
    """u's row of the square: u's neighbours and theirs, without u."""
    row = adj[u]
    # str.find over bin(row) reads the set bits about twice as fast as
    # bits() on long rows; bit v of the row is s[len(s) - 1 - v]
    s = bin(row)
    top = len(s) - 1
    reach = row
    i = s.find("1", 2)
    while i != -1:
        reach |= adj[top - i]
        i = s.find("1", i + 1)
    return reach & ~(1 << u)


def square(g: SimpleGraph, block: int = 0) -> SimpleGraph:
    """The distance-<=2 power: u ~ v iff adjacent or sharing a neighbor in g.

    With block > 1 dividing g.n, the rotation of each block of that many
    vertices (block_rotation) is checked first: if it maps every row adj[u]
    to adj[u + 1 within u's block], it is an automorphism of g and of its
    square, so only the first row of each block is walked and the rest are
    its rotations.  Otherwise every row is walked.  Either way the result
    is the same.
    """
    n, adj = g.n, g.adj
    if 1 < block and n % block == 0 and all(map(eq, rotated_rows(adj[::block], n, block), adj)):
        firsts = (_reach(adj, u) for u in range(0, n, block))
        return SimpleGraph._from_rows(n, tuple(rotated_rows(firsts, n, block)))
    return SimpleGraph._from_rows(n, tuple(_reach(adj, u) for u in range(n)))


def is_complete_multipartite(g: SimpleGraph, parts: tuple[tuple[int, ...], ...]) -> bool:
    """True iff every part is independent and every cross-part pair is adjacent.

    Equivalently: each vertex's adjacency row is exactly "everything outside
    my part", which is what gets checked.  Raises ValueError unless the
    parts are nonempty and partition 0..g.n-1.
    """
    if (not all(parts) or sum(map(len, parts)) != g.n
            or {v for part in parts for v in part} != set(range(g.n))):
        raise ValueError("parts are not a partition of the vertex set")
    full = (1 << g.n) - 1
    for part_mask in map(mask_of, parts):
        want = full & ~part_mask
        for v in bits(part_mask):
            if g.adj[v] != want:
                return False
    return True

