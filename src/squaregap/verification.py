"""Exhaustive mechanical checks of the construction's structural claims.

Every check covers its full case space, never stops at the first
violation, and reports the first witness per item plus a failure count,
so a broken construction comes back with a concrete counterexample
tuple instead of a bare False.  Counts and witnesses are always those of
the case-by-case enumeration, but whole families of cases are settled by
bitset counts, with one tally (_cover) for "exactly one" and "at most one":

- "exactly one neighbour in each set" (nw1, nw2, nv1) is read off each
  set's member rows at once, by the vertices they cover once and twice;
- the pair claims (nw3, nv2) follow from the square by one counting
  identity (see _no_two_w_share_two); only when it fails does a walk over
  the neighbourhoods, with the same tally, name the failing pairs.
"""

from collections import namedtuple
from itertools import chain, compress, repeat
from math import comb
from operator import eq, not_

from .construction import ConstructedGraph
from .graphcore import SimpleGraph, bits, mask_of, square
from .latin import build_mols_family


class LemmaReport(namedtuple("LemmaReport", "lemma_id checked_cases failure_count item_witnesses",
                             defaults=(0, ()))):
    """A check's case and failure counts, and the first witness of each
    failing item (item_witnesses)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    @property
    def witness(self) -> tuple | None:
        """The first failing tuple, tagged with its item, or None."""
        return self.item_witnesses[0] if self.item_witnesses else None


class _Collector:
    """Counts the cases and keeps the first witness of each failing item."""

    def __init__(self, lemma_id: str, gc: ConstructedGraph):
        self.lemma_id = lemma_id
        self.gc = gc
        self.labels = None  # gc.labels, built when a witness first names a vertex
        self.cases = 0
        self.failures = 0
        self.first: dict[str, tuple] = {}

    def name(self, v: int) -> str:
        if self.labels is None:
            self.labels = self.gc.labels
        return self.labels[v]

    def passed(self, k: int = 1):
        self.cases += k

    def fail(self, item: str, witness: tuple, k: int = 1):
        self.cases += k
        self.failures += k
        self.first.setdefault(item, witness)

    def report(self) -> LemmaReport:
        return LemmaReport(self.lemma_id, self.cases, self.failures, tuple(self.first.values()))


def _cover(rows) -> tuple[int, int]:
    """The bits set in at least one of rows, and those set in at least two."""
    once = twice = 0
    for row in rows:
        twice |= once & row
        once |= row
    return once, twice


def _one_neighbour_in_each(col: _Collector, gc: ConstructedGraph, xs: tuple[int, ...],
                           *items: tuple[str, str, tuple[tuple[int, ...], ...]]):
    """Settle "x has exactly one neighbour in name_k" for every x in xs and every
    set name_k of every (item, name, sets) of items.

    x has one neighbour in a set exactly when it lies in just one of the
    rows adj[c], c in the set (the rows are symmetric), so the _cover of
    those rows gives all failing xs of the set.  Each failing item's first
    witness is the first failure met x by x, sets in order, and the items
    are recorded in the order of those witnesses, ties in item order, as
    the case-by-case enumeration meets them.
    """
    adj = gc.graph.adj
    xs_mask = mask_of(xs)
    first = []  # (x, item index, k, failures) for each failing item
    for i, (_, _, sets) in enumerate(items):
        failures, lows = 0, []
        for k, members in enumerate(sets, start=1):
            once, twice = _cover(map(adj.__getitem__, members))
            bad = xs_mask & (twice | ~once)  # = xs & ~(once & ~twice)
            if bad:
                failures += bad.bit_count()
                lows.append(((bad & -bad).bit_length() - 1, i, k))
        col.passed(len(xs) * len(sets) - failures)
        if lows:
            first.append((*min(lows), failures))
    for x, i, k, failures in sorted(first):
        item, name, sets = items[i]
        got = (adj[x] & mask_of(sets[k - 1])).bit_count()
        col.fail(item, (item, col.name(x), f"{name}_{k}", got), failures)


def _no_two_w_share_two(gc: ConstructedGraph, sq: SimpleGraph) -> bool:
    """True when the square sq of gc.graph shows that no two w-vertices share two
    neighbours, nor (dually) any two v-vertices two w-neighbours.

    If no w-vertex has a w-neighbour, every common neighbour of two w's is
    a v, and a w-pair is joined in the square exactly when it shares one.
    Then the w-pairs joined in the square number at most the sum over the
    v's c of C(|N(c) & Q|, 2), which counts each pair once per shared
    neighbour, with equality exactly when no pair shares two.  Two v's
    sharing w's a and b would make a and b share two v's.  False means
    only that these counts settle nothing.
    """
    adj, sq_adj = gc.graph.adj, sq.adj
    q = tuple(chain.from_iterable(gc.q_sets))  # the parts' own ints, no new ones
    q_mask = mask_of(q)
    if any(adj[x] & q_mask for x in q):
        return False
    joined = sum((sq_adj[x] & q_mask >> (x + 1) << (x + 1)).bit_count() for x in q)
    shared = sum(comb((adj[c] & q_mask).bit_count(), 2) for c in chain.from_iterable(gc.p_sets))
    return joined == shared


def _share_at_most_one(col: _Collector, item: str, gc: ConstructedGraph,
                       xs: tuple[int, ...], centres: int, group_of: dict[int, int]):
    """Count and name the pairs x < y of xs (ascending) with more than one common
    neighbour in centres, or any when y lies in group_of[x].

    Runs only when _no_two_w_share_two cannot settle the pairs, that is
    when some pair fails or the graph has a w-w edge, and records every
    failing pair as the pair-by-pair enumeration would.  y shares k such
    neighbours with x exactly when it lies in k of the rows adj[c], c in
    N(x) & centres: the _cover of those rows finds every failing y
    with one AND/OR per edge instead of one AND per pair.  Relies on the
    rows being symmetric.
    """
    adj = gc.graph.adj
    xs_mask = mask_of(xs)
    good = comb(len(xs), 2)
    for x in xs:
        later = xs_mask >> (x + 1) << (x + 1)
        once, twice = _cover(map(adj.__getitem__, bits(adj[x] & centres)))
        crowded = later & (twice | (once & group_of.get(x, 0)))
        good -= crowded.bit_count()
        for y in bits(crowded):
            col.fail(item, (item, col.name(x), col.name(y),
                            (adj[x] & adj[y] & centres).bit_count()))
    col.passed(good)


def check_lemma_nw(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Neighborhood facts for w-vertices.

    (0) the neighborhood of w_{i,j} is exactly the v-set named by row j
        of square i (the defining equation, so no stray neighbors),
    (1) every w-vertex has exactly one neighbor in each P_k,
    (2) exactly one neighbor in each T_k,
    (3) two distinct w-vertices share at most one neighbor, and none
        at all when they belong to the same Q-group.

    Item (0) is what makes the check sensitive to edges added between
    w-vertices; those leave the square and all intersection counts alone.
    It reads every Latin entry and compares every w row as a string of
    bits, with no Python step per entry: format(row, f"0{n*n}b") puts
    v_{k,e} = (k-1)n + e - 1 at place (n-k)n + n - e from the left, so a
    Latin row names the string of its entries' n-place units (the "1" at
    place n - e), last column first.  A row with a bit above n^2 writes a
    longer string, so it fails too.  sq is square(gc.graph); item (3) is
    settled from it by _no_two_w_share_two unless some pair fails.
    """
    g = gc.graph
    n = gc.n
    col = _Collector("nw", gc)
    q = gc.q_vertices
    unit = [None, *("0" * (n - e) + "1" + "0" * (e - 1) for e in range(1, n + 1))]
    latin_rows = chain.from_iterable(build_mols_family(n))
    named = map("".join, map(map, repeat(unit.__getitem__), map(reversed, latin_rows)))
    written = map(format, map(g.adj.__getitem__, q), repeat(f"0{n * n}b"))
    same = list(map(eq, written, named))
    col.passed(sum(same))
    for x in compress(q, map(not_, same)):
        col.fail("nw0", ("nw0", col.name(x), "neighborhood differs from Latin row"))
    _one_neighbour_in_each(col, gc, q, ("nw1", "P", gc.p_sets), ("nw2", "T", gc.t_sets))
    group_mask = {x: m for qs, m in zip(gc.q_sets, map(mask_of, gc.q_sets)) for x in qs}
    if _no_two_w_share_two(gc, sq) and not any(sq.adj[x] & m for x, m in group_mask.items()):
        col.passed(comb(len(q), 2))
    else:
        _share_at_most_one(col, "nw3", gc, q, (1 << g.n) - 1, group_mask)
    return col.report()


def check_lemma_nv(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Neighborhood facts for v-vertices.

    (1) every v-vertex has exactly one neighbor in each Q_k,
    (2) two distinct v-vertices share at most one w-neighbor.

    sq is square(gc.graph); item (2) is settled from it as in check_lemma_nw.
    """
    col = _Collector("nv", gc)
    p = gc.p_vertices
    _one_neighbour_in_each(col, gc, p, ("nv1", "Q", gc.q_sets))
    if _no_two_w_share_two(gc, sq):
        col.passed(comb(len(p), 2))
    else:
        _share_at_most_one(col, "nv2", gc, p, mask_of(gc.q_vertices), {})
    return col.report()


def check_independence(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Every P_i and every Q_i must be independent in the squared graph."""
    col = _Collector("independence", gc)
    named = [(f"P_{i}", s) for i, s in enumerate(gc.p_sets, start=1)]
    named += [(f"Q_{i}", s) for i, s in enumerate(gc.q_sets, start=1)]
    for name, part in named:
        m = mask_of(part)
        bad = next((v for v in part if sq.adj[v] & m), None)
        if bad is None:
            col.passed()
        else:
            col.fail("independence", ("independence", name, col.name(bad),
                                      col.name(next(bits(sq.adj[bad] & m)))))
    return col.report()


def check_pq_adjacency(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Every v-vertex must be adjacent to every w-vertex in the squared graph."""
    col = _Collector("pq", gc)
    q = gc.q_vertices
    q_mask = mask_of(q)
    for x in gc.p_vertices:
        missing = q_mask & ~sq.adj[x]
        col.passed(len(q) - missing.bit_count())
        for y in bits(missing):
            col.fail("pq", ("pq", col.name(x), col.name(y)))
    return col.report()


def check_square_structure(sq: SimpleGraph, gc: ConstructedGraph
                           ) -> tuple[tuple[tuple[int, ...], ...], LemmaReport]:
    """The square must be complete multipartite on P_1..P_n, Q_1..Q_{n-1}.

    Checks each vertex's squared adjacency row against "everything outside
    my part", then pins the induced edge counts on the v-side and w-side
    to their exact closed forms.  sq is square(gc.graph).  Returns the parts
    in that order, and the report.
    """
    n = gc.n
    parts = gc.p_sets + gc.q_sets
    col = _Collector("structure", gc)
    full = (1 << sq.n) - 1
    for part, pm in zip(parts, map(mask_of, parts)):
        want = full & ~pm
        for v in part:
            if sq.adj[v] == want:
                col.passed()
            else:
                col.fail("structure", ("structure", col.name(v), "adjacency row mismatch"))
    p_mask = mask_of(gc.p_vertices)
    q_mask = mask_of(gc.q_vertices)
    e_p = sum((sq.adj[v] & p_mask).bit_count() for v in gc.p_vertices) // 2
    e_q = sum((sq.adj[v] & q_mask).bit_count() for v in gc.q_vertices) // 2
    want_p = n * n * (n * (n - 1) // 2)
    want_q = n * n * ((n - 1) * (n - 2) // 2)
    for item, got, want in (("edges_p", e_p, want_p), ("edges_q", e_q, want_q)):
        if got == want:
            col.passed()
        else:
            col.fail(item, (item, got, want))
    return parts, col.report()


# Each check by its CLI selector name.  The functions are named, not held, so that
# run_check finds them when called: the bench tracer rebinds the module's names.
LEMMAS = {"nw": "check_lemma_nw", "nv": "check_lemma_nv", "independence": "check_independence",
          "pq": "check_pq_adjacency", "structure": "check_square_structure"}


def run_check(lemma: str, sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """The report of the check LEMMAS names lemma; sq is square(gc.graph)."""
    result = globals()[LEMMAS[lemma]](sq, gc)
    return result[1] if lemma == "structure" else result


def run_all_checks(gc: ConstructedGraph) -> dict[str, LemmaReport]:
    """All five lemma checks keyed by their CLI selector names."""
    sq = square(gc.graph, gc.n)
    return {lemma: run_check(lemma, sq, gc) for lemma in LEMMAS}
