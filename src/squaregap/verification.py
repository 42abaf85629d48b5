"""Exhaustive mechanical checks of the construction's structural claims.

Every check covers its full case space, never stops at the first
violation, and reports the first witness per item plus a failure count,
so a broken construction comes back with a concrete counterexample
tuple instead of a bare False.  The pair claims (nw3, nv2, pq) are first
tested with an exact bitset identity that settles all pairs at once when
every one passes; only a failure walks the pairs to count and name them,
so counts and witnesses are those of the full enumeration.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from .construction import ConstructedGraph, construct_counterexample
from .graphcore import PartitionWitness, SimpleGraph, bits, mask_of, square
from .latin import require_prime


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
    """Tallies cases and keeps the first witness per item.

    Passing cases are only counted; a witness is built only for a failure.
    """

    def __init__(self, lemma_id: str):
        self.lemma_id = lemma_id
        self.cases = 0
        self.failures = 0
        self.first: dict[str, tuple] = {}

    def passed(self, k: int = 1):
        self.cases += k

    def record(self, item: str, ok: bool, witness: Callable[[], tuple]):
        self.cases += 1
        if not ok:
            self.failures += 1
            if item not in self.first:
                self.first[item] = witness()

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


def _pairs_share_at_most_one(g: SimpleGraph, xs: tuple[int, ...], centres: int,
                             group_of: dict[int, int]) -> bool:
    """True iff no two vertices of xs have two common neighbours in centres,
    and no x in xs has any common neighbour with a vertex of group_of[x].

    A vertex y of xs other than x shares k such neighbours with x exactly
    when it lies in k of the rows adj[c] & xs - {x}, c in N(x) & centres.
    Every pair passes iff for every x those rows are pairwise disjoint
    (popcount of their OR equals the sum of their popcounts) and their OR
    misses group_of[x]; the cost is one AND/OR per edge instead of one
    AND per pair.  Relies on the rows being symmetric.
    """
    xs_mask = mask_of(xs)
    adj = g.adj
    for x in xs:
        others = xs_mask & ~(1 << x)
        union = total = 0
        for c in bits(adj[x] & centres):
            row = adj[c] & others
            union |= row
            total += row.bit_count()
        if union.bit_count() != total or union & group_of.get(x, 0):
            return False
    return True


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
            col.record("nw0", g.adj[x] == want,
                       lambda: ("nw0", _label(gc, x), "neighborhood differs from Latin row"))
    for x in q:
        for k, pm in enumerate(p_masks, start=1):
            got = (g.adj[x] & pm).bit_count()
            col.record("nw1", got == 1, lambda: ("nw1", _label(gc, x), f"P_{k}", got))
        for k, tm in enumerate(t_masks, start=1):
            got = (g.adj[x] & tm).bit_count()
            col.record("nw2", got == 1, lambda: ("nw2", _label(gc, x), f"T_{k}", got))
    group_mask = {}
    for qs in gc.q_sets:
        m = mask_of(qs)
        for x in qs:
            group_mask[x] = m
    if _pairs_share_at_most_one(g, q, (1 << g.n) - 1, group_mask):
        col.passed(len(q) * (len(q) - 1) // 2)
    else:  # some pair fails: walk them all for the count and witnesses
        for a in range(len(q)):
            for b in range(a + 1, len(q)):
                x, y = q[a], q[b]
                shared = (g.adj[x] & g.adj[y]).bit_count()
                limit = 0 if group_mask[x] == group_mask[y] else 1
                col.record("nw3", shared <= limit,
                           lambda: ("nw3", _label(gc, x), _label(gc, y), shared))
    return col.report()


def check_claim_congruence(n: int, i: int, i_prime: int, j: int, j_prime: int,
                           gc: ConstructedGraph | None = None) -> bool:
    """Shared-neighbor criterion for two w-vertices, checked against the graph.

    For every column k, the vertex v_{k, L_i(j,k)} is a common neighbor of
    w_{i,j} and w_{i',j'} exactly when (i - i')(k - 1) = j' - j modulo n.
    Returns True iff the equivalence holds for all k.
    """
    require_prime(n)
    for name, val, hi in (("i", i, n - 1), ("i'", i_prime, n - 1),
                          ("j", j, n), ("j'", j_prime, n)):
        if not 1 <= val <= hi:
            raise ValueError(f"{name} must be in 1..{hi}, got {val}")
    if gc is None:
        gc = construct_counterexample(n)
    elif gc.n != n:
        raise ValueError(f"supplied graph has n={gc.n}, expected {n}")
    g = gc.graph
    w1 = gc.w_index(i, j)
    w2 = gc.w_index(i_prime, j_prime)
    sq = gc.squares[i - 1]
    for k in range(1, n + 1):
        v = gc.v_index(k, sq(j, k))
        member = g.has_edge(w1, v) and g.has_edge(w2, v)
        congruent = ((i - i_prime) * (k - 1)) % n == (j_prime - j) % n
        if member != congruent:
            return False
    return True


def check_lemma_nv(gc: ConstructedGraph) -> LemmaReport:
    """Neighborhood facts for v-vertices.

    (1) every v-vertex has exactly one neighbor in each Q_k,
    (2) two distinct v-vertices share at most one w-neighbor.
    """
    g = gc.graph
    col = _Collector("nv")
    q_masks = [mask_of(s) for s in gc.q_sets]
    q_all = mask_of(gc.q_vertices)
    p = gc.p_vertices
    for x in p:
        for k, qm in enumerate(q_masks, start=1):
            got = (g.adj[x] & qm).bit_count()
            col.record("nv1", got == 1, lambda: ("nv1", _label(gc, x), f"Q_{k}", got))
    if _pairs_share_at_most_one(g, p, q_all, {}):
        col.passed(len(p) * (len(p) - 1) // 2)
    else:  # some pair fails: walk them all for the count and witnesses
        for a in range(len(p)):
            for b in range(a + 1, len(p)):
                x, y = p[a], p[b]
                shared = (g.adj[x] & g.adj[y] & q_all).bit_count()
                col.record("nv2", shared <= 1,
                           lambda: ("nv2", _label(gc, x), _label(gc, y), shared))
    return col.report()


def check_independence(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Every P_i and every Q_i must be independent in the squared graph."""
    col = _Collector("independence")
    named = [(f"P_{i}", s) for i, s in enumerate(gc.p_sets, start=1)]
    named += [(f"Q_{i}", s) for i, s in enumerate(gc.q_sets, start=1)]
    for name, part in named:
        m = mask_of(part)
        bad = next((v for v in part if sq.adj[v] & m), None)
        col.record("independence", bad is None, lambda: (
            "independence", name, _label(gc, bad),
            _label(gc, next(bits(sq.adj[bad] & m)))))
    return col.report()


def check_pq_adjacency(sq: SimpleGraph, gc: ConstructedGraph) -> LemmaReport:
    """Every v-vertex must be adjacent to every w-vertex in the squared graph."""
    col = _Collector("pq")
    q = gc.q_vertices
    q_mask = mask_of(q)
    for x in gc.p_vertices:
        missing = q_mask & ~sq.adj[x]
        if not missing:
            col.passed(len(q))
            continue
        for y in q:
            col.record("pq", not (missing >> y) & 1,
                       lambda: ("pq", _label(gc, x), _label(gc, y)))
    return col.report()


def check_square_structure(gc: ConstructedGraph, sq: Optional[SimpleGraph] = None
                           ) -> tuple[PartitionWitness, LemmaReport]:
    """The square must be complete multipartite on P_1..P_n, Q_1..Q_{n-1}.

    Checks each vertex's squared adjacency row against "everything outside
    my part", then pins the induced edge counts on the v-side and w-side
    to their exact closed forms.  sq is square(gc.graph), computed here
    when not supplied.
    """
    n = gc.n
    g = square(gc.graph) if sq is None else sq
    witness = PartitionWitness(parts=gc.p_sets + gc.q_sets)
    col = _Collector("structure")
    full = (1 << g.n) - 1
    for part, pm in zip(witness.parts, witness.part_masks()):
        want = full & ~pm
        for v in part:
            col.record("structure", g.adj[v] == want,
                       lambda: ("structure", _label(gc, v), "adjacency row mismatch"))
    p_mask = mask_of(gc.p_vertices)
    q_mask = mask_of(gc.q_vertices)
    e_p = sum((g.adj[v] & p_mask).bit_count() for v in gc.p_vertices) // 2
    e_q = sum((g.adj[v] & q_mask).bit_count() for v in gc.q_vertices) // 2
    want_p = n * n * (n * (n - 1) // 2)
    want_q = n * n * ((n - 1) * (n - 2) // 2)
    col.record("edges_p", e_p == want_p, lambda: ("edges_p", e_p, want_p))
    col.record("edges_q", e_q == want_q, lambda: ("edges_q", e_q, want_q))
    return witness, col.report()


def run_all_checks(gc: ConstructedGraph) -> dict[str, LemmaReport]:
    """All five lemma checks keyed by their CLI selector names."""
    sq = square(gc.graph)
    return {
        "nw": check_lemma_nw(gc),
        "nv": check_lemma_nv(gc),
        "independence": check_independence(sq, gc),
        "pq": check_pq_adjacency(sq, gc),
        "structure": check_square_structure(gc, sq)[1],
    }
