"""Mutually orthogonal Latin squares of prime order.

The whole family is generated by one affine rule: the entry in row j,
column k of the i-th square is j + i*(k-1) modulo n, shifted into the
1-based range {1, ..., n}.  For prime n the squares with i = 1, ..., n-1
are pairwise orthogonal.
"""

from collections.abc import Sequence

from .errors import clip


def smallest_divisor(n: int) -> int:
    """Smallest divisor > 1 of n (n itself when n is prime). Requires n >= 2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def require_prime(n: int) -> None:
    """Raise ValueError unless n is a prime >= 3; the message names a witness divisor."""
    if n < 3:
        raise ValueError(f"n must be a prime >= 3, got {clip(n)}")
    d = smallest_divisor(n)
    if d != n:
        raise ValueError(f"n must be prime, but {n} = {d} * {n // d}")


def build_latin(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The n rows of the Latin square of prime order n >= 3 with entry
    (j,k) = j + i*(k-1) mod n.

    Arithmetic runs over residues 0..n-1; the entries are the 1-based
    representatives, so the first column is always 1, 2, ..., n.  Row j
    (from 0) reads the ring 1, ..., n from place j in steps of i, so each
    row is one stepped slice of that ring written i + 1 times (the last
    place read, j + i*(n-1), lies below (i+1)*n): no step per entry.
    """
    require_prime(n)
    if not 1 <= i <= n - 1:
        raise ValueError(f"slope i must be in 1..{n - 1}, got {i}")
    ring = tuple(range(1, n + 1)) * (i + 1)
    return tuple(ring[j:j + i * n:i] for j in range(n))


def is_latin(rows: Sequence[Sequence[int]]) -> bool:
    """True iff every row and every column is a permutation of {1, ..., n}."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError(f"expected a nonempty square array, got {n} rows")
    if any(not 1 <= x <= n for row in rows for x in row):
        raise ValueError(f"entries must lie in 1..{n}")
    full = set(range(1, n + 1))
    return all(set(line) == full for line in (*rows, *zip(*rows)))


def are_orthogonal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """True iff the n^2 ordered entry pairs (a(j,k), b(j,k)) are all distinct."""
    if len(a) != len(b):
        raise ValueError(f"order mismatch: {len(a)} vs {len(b)}")
    pairs = {pair for ra, rb in zip(a, b) for pair in zip(ra, rb)}
    return len(pairs) == len(a) * len(a)


def build_mols_family(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The full family (L_1, ..., L_{n-1}) for prime n >= 3; index i-1 has slope i.

    The squares are Latin and pairwise orthogonal by construction, so
    nothing is re-checked here: `mols --check` and the tests call
    is_latin and are_orthogonal, and verify proves the same facts on the
    constructed graph.
    """
    require_prime(n)
    return tuple(build_latin(n, i) for i in range(1, n))
