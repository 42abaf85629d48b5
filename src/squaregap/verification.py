"""Exhaustive mechanical checks of the construction's structural claims.

Every check covers its full case space, never stops at the first
violation, and reports the first witness per item plus a failure count,
so a broken construction comes back with a concrete counterexample
tuple instead of a bare False.

verify and certify run in block form (check_by_blocks).  G is presented
by its base stars, which checked_stars checks to define a simple graph,
and the rotation of every block of n vertices is then an automorphism of
G and of G^2.  So a claim holds for a whole block when it holds for the
block's first vertex, and three facts about the stars and the first row
of each block of the square (graphcore.square_by_blocks) settle all five
claims: every block row of G^2 is everything outside its block (G^2 =
K_{n*r} on the blocks) for structure, independence and pq; one counting
identity (_pairs_by_blocks) for the pair claims; and the stars read
against the Latin rows for the rest.  No other row of G or G^2 is built,
and the counts are those of the case-by-case enumeration in closed form.
When a claim is not settled there, the dense checks below run on the
whole graph to name the failures, so the reports are the same either way.

The dense checks take the square and the constructed graph and walk
their cases one by one, in the order their docstrings give; the pair
claims (nw3, nv2) find each vertex's failing partners with one tally
(_cover).
"""

from collections import namedtuple
from itertools import chain
from math import comb

from . import construction  # by module, so a replaced base_stars reaches the dense fallback too
from .construction import ConstructedGraph
from .graphcore import SimpleGraph, bits, mask_of, square
from .latin import build_latin, build_mols_family


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
        self.n = gc.n
        self.names = None  # vertex_names(n), built when a witness first names a vertex
        self.cases = 0
        self.failures = 0
        self.first: dict[str, tuple] = {}

    def name(self, v: int) -> str:
        if self.names is None:
            self.names = construction.vertex_names(self.n)
        return self.names[v]

    def passed(self, k: int = 1):
        self.cases += k

    def fail(self, item: str, witness: tuple):
        self.cases += 1
        self.failures += 1
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
    set name_k of every (item, name, sets) of items, x by x, then item by
    item and set by set."""
    adj = gc.graph.adj
    masks = [(item, name, list(map(mask_of, sets))) for item, name, sets in items]
    for x in xs:
        row = adj[x]
        for item, name, set_masks in masks:
            for k, m in enumerate(set_masks, start=1):
                got = (row & m).bit_count()
                if got == 1:
                    col.passed()
                else:
                    col.fail(item, (item, col.name(x), f"{name}_{k}", got))


def _share_at_most_one(col: _Collector, item: str, gc: ConstructedGraph,
                       xs: tuple[int, ...], centres: int, group_of: dict[int, int]):
    """Count and name the pairs x < y of xs (ascending) with more than one common
    neighbour in centres, or any when y lies in group_of[x].

    Records every failing pair as the pair-by-pair enumeration would.  y
    shares k such neighbours with x exactly when it lies in k of the rows
    adj[c], c in N(x) & centres, so the _cover of those rows gives x's
    failing partners.  Relies on the rows being symmetric.
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
    sq is not read: the five checks share one signature (LEMMAS, run_check).
    """
    g = gc.graph
    n = gc.n
    col = _Collector("nw", gc)
    q = gc.q_vertices
    for x, row in zip(q, chain.from_iterable(build_mols_family(n))):
        if g.adj[x] == mask_of(k * n + e - 1 for k, e in enumerate(row)):
            col.passed()
        else:
            col.fail("nw0", ("nw0", col.name(x), "neighborhood differs from Latin row"))
    _one_neighbour_in_each(col, gc, q, ("nw1", "P", gc.p_sets), ("nw2", "T", gc.t_sets))
    group_mask = {x: m for qs, m in zip(gc.q_sets, map(mask_of, gc.q_sets)) for x in qs}
    _share_at_most_one(col, "nw3", gc, q, (1 << g.n) - 1, group_mask)
    return col.report()


def check_lemma_nv(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Neighborhood facts for v-vertices.

    (1) every v-vertex has exactly one neighbor in each Q_k,
    (2) two distinct v-vertices share at most one w-neighbor.

    sq is not read, as in check_lemma_nw.
    """
    col = _Collector("nv", gc)
    p = gc.p_vertices
    _one_neighbour_in_each(col, gc, p, ("nv1", "Q", gc.q_sets))
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


# Each check by its CLI selector name, in verify's payload order.
LEMMAS = {"nw": check_lemma_nw, "nv": check_lemma_nv, "independence": check_independence,
          "pq": check_pq_adjacency, "structure": check_square_structure}


def run_check(lemma: str, sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """The report of the check LEMMAS holds as lemma; sq is square(gc.graph)."""
    result = LEMMAS[lemma](sq, gc)
    return result[1] if lemma == "structure" else result


def run_all_checks(gc: ConstructedGraph) -> dict[str, LemmaReport]:
    """All five lemma checks keyed by their CLI selector names."""
    sq = square(gc.graph)
    return {lemma: run_check(lemma, sq, gc) for lemma in LEMMAS}


# -- block form ---------------------------------------------------------------


def checked_stars(n: int) -> list[list[int]]:
    """construction.base_stars(n), checked to present a simple graph.

    The stars present G by the rotation rule of graphcore.square_by_blocks.
    That relation is symmetric exactly when every star arc b*n -> B*n + x
    has its reverse b*n + (-x mod n) in block B's star, and has no loop,
    nor any edge inside a P_k or Q_i, when no star names its own block.
    With no neighbour named twice the graph is simple, and the rotation of
    each block is its automorphism by construction.  Any other star is a
    fault of the construction, not of the input: RuntimeError names the
    arc.  Raises ValueError unless n is a prime >= 3.
    """
    stars = construction.base_stars(n)
    count = len(stars) * n

    def fault(b: int, u: int, what: str) -> RuntimeError:
        names = construction.vertex_names(n)
        end = names[u] if 0 <= u < count else u
        return RuntimeError(f"base star arc {names[b * n]} -> {end} {what}")

    held = list(map(set, stars))
    for b, star in enumerate(stars):
        for u in star:
            if u // n == b:
                raise fault(b, u, "stays in its block")
            if not 0 <= u < count:
                raise fault(b, u, "leaves the graph")
            if b * n + -u % n not in held[u // n]:
                raise fault(b, u, "has no reverse")
        if len(held[b]) != len(star):
            raise fault(b, next(u for i, u in enumerate(star) if u in star[:i]), "is named twice")
    return stars


def _latin_rows_match(n: int, q_stars: list[list[int]]) -> bool:
    """nw0 for every w-vertex, from the star of each Q_i.

    The star must be the v-set that row 0 of the i-th square names, and
    the square cyclic: row j + 1 is row j with each entry e read as
    e % n + 1, so each column reads the ring 1, ..., n on from its entry
    in row 0.  Then w(i, j)'s row, the star rotated by j, is the set that
    row j names, for every j.  One square is built at a time, and its
    columns are compared with the ring's slices in one list comparison,
    so no Python step runs per entry.
    """
    ring = tuple(range(1, n + 1)) * 2
    for i, star in enumerate(q_stars, start=1):
        rows = build_latin(n, i)
        if mask_of(star) != mask_of(k * n + e - 1 for k, e in enumerate(rows[0])):
            return False
        if list(zip(*rows)) != [ring[e - 1:e - 1 + n] for e in rows[0]]:
            return False
    return True


def _once_each(values, want: range) -> bool:
    return sorted(values) == list(want)


def _pairs_by_blocks(n: int, stars: list[list[int]], rows: list[int]) -> bool:
    """True when the counts show that no two w-vertices share two
    neighbours, nor (dually) any two v-vertices two w-neighbours.

    If no w-vertex has a w-neighbour, every common neighbour of two w's is
    a v, and a w-pair is joined in the square exactly when it shares one.
    Then the w-pairs joined in the square number at most the sum over the
    v's c of C(|N(c) & Q|, 2), which counts each pair once per shared
    neighbour, with equality exactly when no pair shares two.  Two v's
    sharing w's a and b would make a and b share two v's.  Both sums are
    taken over block representatives: each sum over a block's vertices is
    n times its first vertex's term.  False means only that these counts
    settle nothing.
    """
    nn = n * n
    q_mask = (1 << len(rows) * n) - (1 << nn)
    if any(u >= nn for star in stars[n:] for u in star):
        return False
    joined = n * sum((row & q_mask).bit_count() for row in rows[n:]) // 2
    shared = n * sum(comb(sum(u >= nn for u in star), 2) for star in stars[:n])
    return joined == shared


def check_by_blocks(n: int, stars: list[list[int]], rows: list[int],
                    lemmas) -> dict[str, LemmaReport]:
    """The report of each check LEMMAS names in lemmas, for the graph that
    stars = checked_stars(n) presents, whose square's block rows are
    rows = graphcore.square_by_blocks(stars, n).

    The rotation of a block is an automorphism of G and of G^2, and maps
    each P_k, Q_i and the sets P, Q to themselves, so what holds for a
    block's first vertex holds for all of them.  Three facts settle the
    five claims, each computed once, and only when a requested claim
    needs it:
      - every block row of G^2 is everything outside its block, that is
        G^2 = K_{n*r} on the blocks: structure, independence and pq;
      - the counting identity _pairs_by_blocks: nw3 and nv2;
      - the stars: each Q star is its Latin row's v-set (_latin_rows_match,
        nw0) with one v in each T_k (nw2), and each P star has one w in
        each Q_i (nv1).  nw0 gives nw1, since a Latin row names one v in
        each P_k, and the group half of nw3, since two w's of one Q_i have
        the neighbours v(k, e + c) and v(k, e + c') in each P_k.
    The counts are those of the case-by-case enumeration, in closed form.
    If any requested claim is not settled, the dense checks run on
    construction.construct_counterexample(n) and its square to name every
    failure.
    """
    nn, r = n * n, len(rows)
    q = nn - n
    need = set(lemmas)
    full = (1 << r * n) - 1
    holds = ((need <= {"nw", "nv"}
              or all(row == full ^ ((1 << n) - 1) << b * n for b, row in enumerate(rows)))
             and ("nw" not in need
                  or (_latin_rows_match(n, stars[n:])
                      and all(_once_each((u % n for u in star), range(n)) for star in stars[n:])))
             and ("nv" not in need
                  or all(_once_each((u // n for u in star if u >= nn), range(n, r))
                         for star in stars[:n]))
             and (need.isdisjoint(("nw", "nv")) or _pairs_by_blocks(n, stars, rows)))
    if holds:
        cases = {"nw": q + 2 * q * n + comb(q, 2), "nv": nn * (n - 1) + comb(nn, 2),
                 "independence": r, "pq": nn * q, "structure": r * n + 2}
        return {lemma: LemmaReport(lemma, cases[lemma]) for lemma in lemmas}
    gc = construction.construct_counterexample(n)
    sq = square(gc.graph)
    return {lemma: run_check(lemma, sq, gc) for lemma in lemmas}
