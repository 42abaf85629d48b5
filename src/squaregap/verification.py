"""Exhaustive mechanical checks of the construction's structural claims.

Every check covers its full case space, never stops at the first
violation, and reports the first witness per item plus a failure count,
so a broken construction comes back with a concrete counterexample
tuple instead of a bare False.  The pair claims (nw3, nv2) are settled
by bitset arithmetic one vertex at a time, and that pass also names the
failing pairs in the order of a pair-by-pair walk, so counts and
witnesses are those of the full enumeration.
"""

from dataclasses import dataclass
from math import comb
from typing import Optional

from .construction import ConstructedGraph
from .graphcore import PartitionWitness, SimpleGraph, bits, mask_of, square


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    checked_cases: int
    passed: bool
    witness: Optional[tuple] = None  # first failing tuple, tagged with its item
    failure_count: int = 0
    item_witnesses: tuple[tuple, ...] = ()  # first witness of each failing item

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("failing report must carry a witness")


class _Collector:
    """Counts the cases and keeps the first witness of each failing item."""

    def __init__(self, lemma_id: str):
        self.lemma_id = lemma_id
        self.cases = 0
        self.failures = 0
        self.first: dict[str, tuple] = {}

    def passed(self, k: int = 1):
        self.cases += k

    def fail(self, item: str, witness: tuple):
        self.cases += 1
        self.failures += 1
        self.first.setdefault(item, witness)

    def report(self) -> LemmaReport:
        items = tuple(self.first.values())
        return LemmaReport(
            lemma_id=self.lemma_id,
            checked_cases=self.cases,
            passed=self.failures == 0,
            witness=items[0] if items else None,
            failure_count=self.failures,
            item_witnesses=items,
        )


def _label(gc: ConstructedGraph, v: int) -> str:
    return str(gc.labels[v])


def _one_neighbour_in_each(col: _Collector, item: str, gc: ConstructedGraph, x: int,
                           name: str, masks: list[int]):
    """Check that x has exactly one neighbour in each of name_1, name_2, ..."""
    row = gc.graph.adj[x]
    for k, m in enumerate(masks, start=1):
        got = (row & m).bit_count()
        if got == 1:
            col.passed()
        else:
            col.fail(item, (item, _label(gc, x), f"{name}_{k}", got))


def _share_at_most_one(col: _Collector, item: str, gc: ConstructedGraph,
                       xs: tuple[int, ...], centres: int, group_of: dict[int, int]):
    """Check every pair x < y of xs: at most one common neighbour in centres,
    none when y lies in group_of[x].

    y shares k such neighbours with x exactly when it lies in k of the rows
    adj[c] & later, c in N(x) & centres: masks of the vertices seen once and
    twice over those rows find every failing y with one AND/OR per edge
    instead of one AND per pair.  Relies on the rows being symmetric.
    """
    adj = gc.graph.adj
    xs_mask = mask_of(xs)
    good = comb(len(xs), 2)
    for x in bits(xs_mask):
        later = xs_mask >> (x + 1) << (x + 1)
        once = twice = 0
        for c in bits(adj[x] & centres):
            row = adj[c] & later
            twice |= once & row
            once |= row
        crowded = twice | (once & group_of.get(x, 0))
        good -= crowded.bit_count()
        for y in bits(crowded):
            col.fail(item, (item, _label(gc, x), _label(gc, y),
                            (adj[x] & adj[y] & centres).bit_count()))
    col.passed(good)


def check_lemma_nw(gc: ConstructedGraph) -> LemmaReport:
    """Neighborhood facts for w-vertices.

    (0) the neighborhood of w_{i,j} is exactly the v-set named by row j
        of square i (the defining equation, so no stray neighbors),
    (1) every w-vertex has exactly one neighbor in each P_k,
    (2) exactly one neighbor in each T_k,
    (3) two distinct w-vertices share at most one neighbor, and none
        at all when they belong to the same Q-group.

    Item (0) is what makes the check sensitive to edges added between
    w-vertices; those leave the square and all intersection counts alone.
    """
    g = gc.graph
    col = _Collector("nw")
    p_masks = [mask_of(s) for s in gc.p_sets]
    t_masks = [mask_of(s) for s in gc.t_sets]
    q = gc.q_vertices
    for qs, latin in zip(gc.q_sets, gc.squares):
        for x, row in zip(qs, latin.entries):
            want = mask_of(gc.v_index(k, e) for k, e in enumerate(row, start=1))
            if g.adj[x] == want:
                col.passed()
            else:
                col.fail("nw0", ("nw0", _label(gc, x), "neighborhood differs from Latin row"))
    for x in q:
        _one_neighbour_in_each(col, "nw1", gc, x, "P", p_masks)
        _one_neighbour_in_each(col, "nw2", gc, x, "T", t_masks)
    group_mask = {x: m for qs, m in zip(gc.q_sets, map(mask_of, gc.q_sets)) for x in qs}
    _share_at_most_one(col, "nw3", gc, q, (1 << g.n) - 1, group_mask)
    return col.report()


def check_lemma_nv(gc: ConstructedGraph) -> LemmaReport:
    """Neighborhood facts for v-vertices.

    (1) every v-vertex has exactly one neighbor in each Q_k,
    (2) two distinct v-vertices share at most one w-neighbor.
    """
    col = _Collector("nv")
    q_masks = [mask_of(s) for s in gc.q_sets]
    q_all = mask_of(gc.q_vertices)
    p = gc.p_vertices
    for x in p:
        _one_neighbour_in_each(col, "nv1", gc, x, "Q", q_masks)
    _share_at_most_one(col, "nv2", gc, p, q_all, {})
    return col.report()


def check_independence(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Every P_i and every Q_i must be independent in the squared graph."""
    col = _Collector("independence")
    named = [(f"P_{i}", s) for i, s in enumerate(gc.p_sets, start=1)]
    named += [(f"Q_{i}", s) for i, s in enumerate(gc.q_sets, start=1)]
    for name, part in named:
        m = mask_of(part)
        bad = next((v for v in part if sq.adj[v] & m), None)
        if bad is None:
            col.passed()
        else:
            col.fail("independence", ("independence", name, _label(gc, bad),
                                      _label(gc, next(bits(sq.adj[bad] & m)))))
    return col.report()


def check_pq_adjacency(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Every v-vertex must be adjacent to every w-vertex in the squared graph."""
    col = _Collector("pq")
    q = gc.q_vertices
    q_mask = mask_of(q)
    for x in gc.p_vertices:
        missing = q_mask & ~sq.adj[x]
        col.passed(len(q) - missing.bit_count())
        for y in bits(missing):
            col.fail("pq", ("pq", _label(gc, x), _label(gc, y)))
    return col.report()


def check_square_structure(sq: SimpleGraph, gc: ConstructedGraph
                           ) -> tuple[PartitionWitness, LemmaReport]:
    """The square must be complete multipartite on P_1..P_n, Q_1..Q_{n-1}.

    Checks each vertex's squared adjacency row against "everything outside
    my part", then pins the induced edge counts on the v-side and w-side
    to their exact closed forms.  sq is square(gc.graph).
    """
    n = gc.n
    witness = PartitionWitness(parts=gc.p_sets + gc.q_sets)
    col = _Collector("structure")
    full = (1 << sq.n) - 1
    for part, pm in zip(witness.parts, witness.part_masks()):
        want = full & ~pm
        for v in part:
            if sq.adj[v] == want:
                col.passed()
            else:
                col.fail("structure", ("structure", _label(gc, v), "adjacency row mismatch"))
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
    return witness, col.report()


def run_all_checks(gc: ConstructedGraph) -> dict[str, LemmaReport]:
    """All five lemma checks keyed by their CLI selector names."""
    sq = square(gc.graph)
    return {
        "nw": check_lemma_nw(gc),
        "nv": check_lemma_nv(gc),
        "independence": check_independence(sq, gc),
        "pq": check_pq_adjacency(sq, gc),
        "structure": check_square_structure(sq, gc)[1],
    }
