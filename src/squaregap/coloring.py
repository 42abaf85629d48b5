"""List-colorability, choosability-gap certificates, and the exact chromatic
number that the tests check them against.

All searches are deterministic and complete: an UNSAT verdict is issued
only after the whole (pruned) space has been exhausted, with a node
count attached, because the verdicts are consumed as mathematical
certificates rather than best-effort answers.  Color sets live in int
bitmasks throughout; the list solvers give bit i to the i-th smallest
color of the universe, so large color values cost nothing, and refuse a
list that leaves it.  One iterative engine, _search, decides list
coloring and nothing else: both list solvers call it, and the exact
chromatic number asks it one list question per candidate color count.
No function here recurses, so no input depth hits Python's recursion
limit.  Both list solvers enter it through one root function,
_decide_lists, which groups the vertices into twin classes (equal rows):
when some class has no color common to its lists, node 1 applies a
part-demand bound, so both refute the certificate's lists at node 1.
The engine takes the node count so far and returns the count at the end
with its coloring, so the root and the search share one count and one
deadline.  The engine keeps the graph the other way round as
well, one vertex mask per color (has[c]: the uncolored vertices that
still have color c) and per count of colors left (buckets[k]), so forward
checking a node takes a few mask operations instead of a walk over the
neighbors: the dense squares this package refutes cost no more per node
than sparse graphs of the same order.  Its stack holds one tuple per
colored vertex, pushed when a color is taken, and each color is tested
when it is tried, against has[c], whose bits for a colored vertex stay
frozen.  certify_gap calls none of this: it colors, and refutes by
counting, on the parts the structure check verified.
"""

import functools
import itertools
import time
from collections import namedtuple
from operator import and_

from .construction import part_sets
from .errors import SearchBudgetExceeded, clip
from .graphcore import _BIT_TABLE_MAX, SimpleGraph, bits, square_by_blocks
from .verification import check_by_blocks, checked_stars

_DEADLINE_STRIDE = 1024  # nodes between wall-clock checks


class ListAssignment(namedtuple("ListAssignment", "universe lists")):
    """Per-vertex color lists over an ordered integer color universe: universe
    is a tuple of colors, lists maps each vertex to a frozenset of them.

    Nothing is checked here: the list solvers refuse a list that leaves the
    universe (_dense_masks), and answer an empty list as the trivially
    unsatisfiable case, naming the vertex.
    """

    __slots__ = ()


class SearchAttestation(namedtuple("SearchAttestation", "nodes empty_list_vertex",
                                   defaults=(None,))):
    """What a finished search attests to; a budget stop raises instead."""

    __slots__ = ()


class ListColoringResult(namedtuple("ListColoringResult", "coloring attestation")):
    """A list solver's answer: coloring maps each vertex to its color, or is
    None when the lists admit none; attestation is a SearchAttestation."""

    __slots__ = ()

    @property
    def satisfiable(self) -> bool:
        return self.coloring is not None


class GapCertificate(namedtuple("GapCertificate", "n chromatic chromatic_coloring list_bound "
                                                "refuted_assignment blocks")):
    """Machine-checked record that choosability exceeds the chromatic number.

    chromatic comes with a verified proper coloring; list_bound is a size
    s such that the refuted assignment has all lists of size s and admits
    no proper coloring (each part needs two colors, the universe has fewer),
    so the list chromatic number is at least s + 1 and exceeds chromatic by
    at least gap_lower.  Coloring and blocks are tuples, refuted_assignment
    a ListAssignment.  certify_gap proves each fact before it builds one.
    """

    __slots__ = ()

    @property
    def gap_lower(self) -> int:
        return self.list_bound + 1 - self.chromatic


def _check_deadline(deadline: float | None, nodes: int):
    """Raise SearchBudgetExceeded if deadline has passed, reading the clock
    only when nodes is a multiple of _DEADLINE_STRIDE."""
    if deadline is not None and nodes % _DEADLINE_STRIDE == 0 and time.monotonic() > deadline:
        raise SearchBudgetExceeded("search budget exhausted", nodes=nodes)


# -- exact chromatic number -------------------------------------------------


def greedy_clique(g: SimpleGraph) -> list[int]:
    """Deterministic greedy clique: max degree start, densest extension, index ties."""
    if g.n == 0:
        return []
    start = min(range(g.n), key=lambda v: (-g.degree(v), v))
    clique = [start]
    cand = g.adj[start]
    while cand:
        v = min(bits(cand), key=lambda u: (-(g.adj[u] & cand).bit_count(), u))
        clique.append(v)
        cand &= g.adj[v]
    return clique


def _search(g: SimpleGraph, avail: list[int], deadline: float | None,
            nodes: int) -> tuple[list[int] | None, int]:
    """DSATUR-style backtracking (Brelaz, CACM 1979) on an explicit stack.

    avail[v] (consumed) is the mask of colors v may take.  The most
    constrained uncolored vertex goes first (ties by index), its colors
    ascending, one node each, with forward checking: a neighbor left with no
    color fails the branch.  The count goes on from nodes, and the deadline
    is checked by _check_deadline.  Returns (the coloring or None, the
    count at the end).

    Forward checking works on vertex masks, as in bitset DSATUR (San
    Segundo, Comput. Oper. Res. 2012).  Invariant, for every uncolored
    vertex u: u is in free; u is in has[c] exactly when color c is still
    left to it; and u is in buckets[k] exactly when k colors are left.  A
    colored vertex is in no bucket and not in free, and its has bits stay
    frozen from when it was branched on: only free vertices are ever
    taken from has[c].  So each color c of avail[v] is tested when it is
    tried, by has[c] & bit; a color a neighbor has taken is skipped and
    counts no node.

    Coloring v with c takes t = has[c] & adj[v] & free from has[c].  If t
    meets buckets[1], a neighbor had c as its only color left: the node
    fails and changes nothing.  Otherwise t moves down one bucket, bucket
    by bucket from 2 upward so that no vertex moves twice, and the stack
    gets the tuple (v, bit, count, untried, c, t, moves): v's bit and
    count, its colors not yet tried, and the undo record, each move a
    (count, mask) pair.  When v runs out of colors it goes back to its
    bucket and the top tuple is popped: its t is ORed back into has[c],
    each move's mask back up one bucket, and its vertex tries its next
    color.  The vertex to branch on is the low bit of the first non-empty
    bucket, and the scan for it starts at the count of the vertex just
    colored minus one, below which no count can fall.  So a node costs
    O(list size) mask operations, whatever its degree, and no pass over
    all n vertices; setup costs one OR per vertex and one per color of
    each mask object.
    """
    adj = g.adj
    free = (1 << g.n) - 1
    # Group the vertices by mask object (equal lists share one), so each distinct
    # list costs one OR per color: masks as keys can share a hash, as ints do mod 2^61 - 1.
    same: dict[int, list] = {}
    for v, a in enumerate(avail):
        group = same.get(id(a)) or same.setdefault(id(a), [a, 0])
        group[1] |= 1 << v
    groups = same.values()
    buckets = [0] * (max((a.bit_count() for a, _ in groups), default=0) + 1)
    has = [0] * max((a.bit_length() for a, _ in groups), default=0)
    for a, vs in groups:
        buckets[a.bit_count()] |= vs
        while a:
            low = a & -a
            has[low.bit_length() - 1] |= vs
            a ^= low
    stride = _DEADLINE_STRIDE
    check_at = -1 if deadline is None else (nodes // stride + 1) * stride
    stack: list[tuple] = []  # one (v, bit, count, untried, c, t, moves) per colored vertex
    k = 0
    while free:
        while not buckets[k]:
            k += 1
        b = buckets[k]
        bit = b & -b
        buckets[k] = b ^ bit
        free ^= bit
        v = bit.bit_length() - 1
        count, untried = k, avail[v]
        while True:
            while untried:
                low = untried & -untried
                untried ^= low
                c = low.bit_length() - 1
                if has[c] & bit:
                    nodes += 1
                    if nodes == check_at:
                        _check_deadline(deadline, nodes)
                        check_at += stride
                    t = has[c] & adj[v] & free
                    if not t & buckets[1]:  # else a neighbor would be left with no color
                        break
            else:
                buckets[count] |= bit
                free |= bit
                if not stack:
                    return None, nodes
                v, bit, count, untried, c, t, moves = stack.pop()
                has[c] |= t
                for k, m in moves:
                    buckets[k - 1] ^= m
                    buckets[k] |= m
                continue
            break
        has[c] ^= t
        moves = []
        rest, k = t, 2
        while rest:
            m = rest & buckets[k]
            if m:
                buckets[k] ^= m
                buckets[k - 1] |= m
                moves.append((k, m))
                rest ^= m
            k += 1
        stack.append((v, bit, count, untried, c, t, moves))
        k = count - 1
    colors = [0] * g.n
    for v, _, _, _, c, _, _ in stack:
        colors[v] = c
    return colors, nodes


# Only the tests call this, as a cross-check of certify_gap's chromatic
# number; it stays here, beside the engine it drives, until the bench stops
# wrapping it by this module's name (ROADMAP item 1).
def chromatic_number_exact(g: SimpleGraph) -> tuple[int, list[int]]:
    """Minimum proper coloring, as list-coloring questions to _search.

    For k = |clique|, |clique| + 1, ... with clique from greedy_clique, every
    vertex may take the colors 0..k-1, except that the clique's i-th vertex
    may take color i alone; the first k that _search colors is the answer.
    """
    clique = greedy_clique(g)
    nodes = 0
    for k in itertools.count(len(clique)):
        avail = [(1 << k) - 1] * g.n
        for i, v in enumerate(clique):
            avail[v] = 1 << i
        witness, nodes = _search(g, avail, None, nodes)
        if witness is not None:
            return k, witness


# -- list coloring ------------------------------------------------------------


def _dense_masks(assignment: ListAssignment) -> tuple[dict[int, int], list[int]]:
    """Each list as a mask over positions in the sorted universe, and that universe.

    Bit i stands for the i-th smallest color, so masks stay |universe| bits
    wide and colors keep their order: searches branch as on the raw colors.
    Lists often repeat, so each distinct list becomes one mask object that
    its vertices share (_search groups by it): the sum of its colors' bits,
    in C-level map passes with no Python step per color.  Up to
    _BIT_TABLE_MAX colors each color's bit is built once; above the cap a
    bit per color would take U^2 / 16 bytes for U colors, so each color's
    rank is shifted as it is read.  A list that leaves the universe raises
    ValueError naming its first vertex in the assignment's order.
    """
    universe = set(assignment.universe)
    palette = sorted(universe)
    lists = assignment.lists
    try:
        if len(palette) <= _BIT_TABLE_MAX:
            bit = dict(zip(palette, map((1).__lshift__, range(len(palette))))).__getitem__
            mask = {colors: sum(map(bit, colors)) for colors in set(lists.values())}
        else:
            rank = dict(zip(palette, range(len(palette)))).__getitem__
            mask = {colors: sum(map((1).__lshift__, map(rank, colors)))
                    for colors in set(lists.values())}
    except KeyError:
        v = next(v for v, colors in lists.items() if not colors <= universe)
        raise ValueError(f"list of vertex {clip(v)} leaves the universe") from None
    return dict(zip(lists, map(mask.__getitem__, lists.values()))), palette


def _decide_lists(g: SimpleGraph, order: list[int], assignment: ListAssignment,
                  deadline: float | None) -> ListColoringResult:
    """The root both list solvers share: vertex i of g is order[i] of the
    assignment.

    The lists must cover exactly the vertices of order: the first vertex
    of order with no list, else the first list key that is none of them, is
    named in the ValueError.  An empty list is
    UNSAT at no node.  Otherwise the twin classes (the vertices of one row)
    are found in one pass over the rows, keyed by the salted hash of each
    row's bytes: an int hashes as its value mod 2^61 - 1, so rows can be
    built to share a hash, and this keeps the grouping linear.  The
    classes are listed only when some row repeats, since the bound needs a
    class of two or more.  Then, on the color masks: twins are never
    adjacent, and two twin classes are joined completely or not at all,
    so the classes of a clique of classes use disjoint colors: one needs
    one color if its lists share one, else two.  If some class of two or more vertices is needy (no color common
    to its lists), the root, node 1, takes the needy classes and then the
    class of the lowest vertex joined to all chosen, greedily, and refutes
    the lists if the clique's lists hold fewer colors than it needs.
    Otherwise _search decides, from the root or from 0 if no class is
    needy, and the attestation carries the count.  On a complete
    multipartite graph the classes are the parts and the clique is all.
    """
    vertices = set(order)
    if set(assignment.lists) != vertices:
        bare = [v for v in order if v not in assignment.lists]
        offender = (f"vertex {clip(bare[0])} has no list" if bare else
                    f"list key {clip(next(k for k in assignment.lists if k not in vertices))} "
                    "is no vertex")
        raise ValueError(f"lists must cover exactly the graph's vertices: {offender}")
    lists = assignment.lists
    if not all(map(lists.__getitem__, order)):
        v = next(v for v in order if not lists[v])
        return ListColoringResult(None, SearchAttestation(nodes=0, empty_list_vertex=v))
    masks, palette = _dense_masks(assignment)
    avail = list(map(masks.__getitem__, order))
    lowest = {}  # each row's key to its lowest vertex
    width = itertools.repeat((g.n + 7) // 8)
    keys = zip(map(hash, map(int.to_bytes, g.adj, width, itertools.repeat("little"))), g.adj)
    first = list(map(lowest.setdefault, keys, range(g.n)))  # each vertex's lowest twin
    needy = []
    if len(lowest) < g.n:  # some row repeats: the bound needs a class of two
        classes = {u: [] for u in lowest.values()}
        for v, u in enumerate(first):
            classes[u].append(v)
        needy = [vs for vs in classes.values()
                 if len(vs) > 1 and not functools.reduce(and_, map(avail.__getitem__, vs))]
    nodes = 0
    if needy:
        nodes = 1
        _check_deadline(deadline, nodes)  # the root is node 1
        clique, joined = [], -1  # joined: the vertices joined to every class chosen
        for vs in needy:
            if joined >> vs[0] & 1:
                clique.append(vs)
                joined &= g.adj[vs[0]]
        while joined:  # a union of whole classes: twins have one row
            u = (joined & -joined).bit_length() - 1
            clique.append(classes[u])
            joined &= g.adj[u]
        need, union = 0, 0
        for vs in clique:
            common = -1
            for v in vs:
                union |= avail[v]
                common &= avail[v]
            need += 1 if common else 2
        if union.bit_count() < need:
            return ListColoringResult(None, SearchAttestation(nodes=nodes))
    colors, nodes = _search(g, avail, deadline, nodes)
    coloring = None if colors is None else dict(zip(order, map(palette.__getitem__, colors)))
    return ListColoringResult(coloring, SearchAttestation(nodes=nodes))


def is_list_colorable(g: SimpleGraph, assignment: ListAssignment, *,
                      deadline: float | None = None) -> ListColoringResult:
    """Complete decision for proper coloring from per-vertex lists.

    The part-demand bound on twin classes may refute at the root
    (_decide_lists); otherwise UNSAT is returned only after _search
    has exhausted the whole search space.  The attestation carries the
    node count.
    """
    return _decide_lists(g, list(range(g.n)), assignment, deadline)


# No src caller is left; the tests use it as certify_gap's oracle until the bench
# stops wrapping it by this module's name (ROADMAP item 1), which deletes both.
def multipartite_list_colorable(parts: tuple[tuple[int, ...], ...], assignment: ListAssignment,
                                *, deadline: float | None = None) -> ListColoringResult:
    """List-colorability decision on the complete multipartite graph on parts.

    The graph is built on the parts' vertices, relabelled 0, 1, ... part by
    part, and decided as is_list_colorable decides it: its twin classes are
    the parts, in part order, so the root bound refutes the lists at node 1
    if it fires, and _search decides the rest.
    """
    verts = [v for part in parts for v in part]
    if len(set(verts)) != len(verts) or not all(parts):
        raise ValueError("parts must be disjoint and nonempty")
    full, rows = (1 << len(verts)) - 1, []
    for a, b in itertools.pairwise(itertools.accumulate(map(len, parts), initial=0)):
        rows += [full ^ ((1 << b) - (1 << a))] * (b - a)
    g = SimpleGraph._from_rows(len(verts), tuple(rows))
    return _decide_lists(g, verts, assignment, deadline)


# -- the adversarial assignment and the certificate ---------------------------


def vetrik_lower_bound(n: int, r: int) -> int:
    """The list size (n-1) * floor((2r-1)/n) that K_{n*r} provably defeats."""
    if n < 2 or r < 2:
        raise ValueError(f"need n, r >= 2, got n={n}, r={r}")
    return (n - 1) * ((2 * r - 1) // n)


def vetrik_assignment(parts: tuple[tuple[int, ...], ...]
                      ) -> tuple[tuple[tuple[int, ...], ...], ListAssignment]:
    """The color blocks and the adversarial lists on r parts of size n.

    The colors 1..2r-1 are split into n consecutive blocks, larger blocks
    first; the k-th smallest vertex of every part gets the colors outside
    block k, trimmed to vetrik_lower_bound(n, r) by dropping the largest.
    No color is then common to a whole part, so a proper coloring needs two
    colors per part: 2r in total, one more than there are.  Trimming is
    sound: removing colors can only make coloring harder.
    """
    sizes = {len(part) for part in parts}
    if len(sizes) != 1:
        raise ValueError("parts must all have the same size")
    n, r = sizes.pop(), len(parts)
    bound = vetrik_lower_bound(n, r)
    size, extra = divmod(2 * r - 1, n)
    starts = [1 + b * size + min(b, extra) for b in range(n + 1)]
    blocks = tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))
    positions = [frozenset([*range(1, a), *range(b, 2 * r)][:bound])
                 for a, b in zip(starts, starts[1:])]
    distinct: dict[frozenset[int], frozenset[int]] = {}  # equal lists share one object
    positions = [distinct.setdefault(s, s) for s in positions]
    lists = {v: positions[k] for part in parts for k, v in enumerate(sorted(part))}
    return blocks, ListAssignment(universe=tuple(range(1, 2 * r)), lists=lists)


def certify_gap(n: int, budget_seconds: float | None = None) -> GapCertificate:
    """End-to-end certificate that the squared construction has a choosability gap.

    Re-verifies, in block form, that the square of the graph is complete
    multipartite on its r = 2n-1 parts P_1..P_n, Q_1..Q_{n-1}, so every row
    is "everything outside my part": coloring by part index is proper, with
    that check as its one proof, and one vertex per part is a clique, hence
    chromatic number r with no search.  Then counts on those parts (Erdos,
    Rubin and Taylor 1979): vetrik_assignment's lists all have
    vetrik_lower_bound(n, r) colors and no part's lists share one, so the
    parts need 2r colors, more than the universe and lists hold; last, the
    gap lower bound (refuted size + 1) - r must reach n - 1, as it does for
    every odd prime n.  A RuntimeError names the failed count or the gap.
    budget_seconds is read after construct, square and structure check,
    naming the last phase finished.
    """
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds

    def reached(phase: str):
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetExceeded(f"budget exhausted after {phase}")

    stars = checked_stars(n)
    reached("construct")
    rows = square_by_blocks(stars, n)
    reached("square")
    report = check_by_blocks(n, stars, rows, ("structure",))["structure"]
    if not report.passed:
        raise RuntimeError(f"square structure check failed: {report.witness}")
    reached("structure check")
    p_sets, q_sets, _ = part_sets(n)
    parts, r = p_sets + q_sets, 2 * n - 1
    blocks, refuted = vetrik_assignment(parts)
    bound, lists, first = vetrik_lower_bound(n, r), refuted.lists, {}
    for i, part in enumerate(parts):  # each tuple of list objects is checked once
        first.setdefault(tuple(lists[v] for v in part), i)
    for own, i in first.items():
        if any(len(colors) != bound for colors in own):
            raise RuntimeError(f"a list of part {i} does not have {bound} colors")
        if frozenset.intersection(*own):
            raise RuntimeError(f"the lists of part {i} share a color")
    held = set(refuted.universe).union(*itertools.chain.from_iterable(first))
    if len(held) >= 2 * r:
        raise RuntimeError(f"the universe and lists hold {len(held)} >= 2r = {2 * r} colors")
    coloring = tuple(c for c, part in enumerate(parts) for _ in part)  # parts are consecutive
    cert = GapCertificate(n=n, chromatic=r, chromatic_coloring=coloring, list_bound=bound,
                          refuted_assignment=refuted, blocks=blocks)
    if cert.gap_lower < n - 1:
        raise RuntimeError(f"certificate gap {cert.gap_lower} below n-1 = {n - 1}")
    return cert
