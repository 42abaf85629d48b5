"""Exact chromatic number, list-colorability, and choosability-gap certificates.

All searches are deterministic and complete: an UNSAT verdict is issued
only after the whole (pruned) space has been exhausted, with a node
count attached, because the verdicts are consumed as mathematical
certificates rather than best-effort answers.  Color sets live in int
bitmasks throughout; the list solvers give bit i to the i-th smallest
color of the universe, so large color values cost nothing.  One
iterative engine, _search, decides list coloring and nothing else: both
list solvers call it, and the exact chromatic number asks it one list
question per candidate color count.  No function here recurses, so no
input depth hits Python's recursion limit.  Both list solvers enter it
through one root function, _decide_lists, on twin classes (equal rows;
multipartite_list_colorable's are its parts): when some class has no
color common to its lists, node 1 applies a part-demand bound, so both
refute the certificate's lists at node 1.  The engine takes the node
count so far and returns the count at the end with its coloring, so the
chromatic number's questions and the root share one count and one
deadline.  The engine keeps the graph the other way round as well, one
vertex mask per color (has[c]: the uncolored vertices that still have
color c) and per count of colors left (buckets[k]), so forward checking
a node takes a few mask operations instead of a walk over the neighbors:
the dense squares this package refutes cost no more per node than sparse
graphs of the same order.  certify_gap colors by the verified parts and
checks that coloring no further: the structure check is its proof.
"""

import functools
import itertools
import time
from collections import namedtuple
from operator import and_

from .construction import construct_counterexample
from .errors import CapacityError, SearchBudgetExceeded, clip
from .graphcore import SimpleGraph, bits, square
from .verification import check_square_structure

CHROMATIC_MAX_VERTICES = 128
_DEADLINE_STRIDE = 1024  # nodes between wall-clock checks


def _checked_replace(self, **changes):
    """A copy of the record with changes, built through __new__, which checks it."""
    return type(self)(**{**self._asdict(), **changes})


class ListAssignment(namedtuple("ListAssignment", "universe lists")):
    """Per-vertex color lists over an ordered integer color universe: universe
    is a tuple of colors, lists maps each vertex to a frozenset of them.

    Empty lists are allowed: the solvers answer them as the trivially
    unsatisfiable case and name the vertex.
    """

    __slots__ = ()
    _replace = _checked_replace

    def __new__(cls, universe: tuple[int, ...], lists: dict[int, frozenset[int]]):
        u = set(universe)
        if any(c < 0 for c in u):
            raise ValueError("colors must be nonnegative integers")
        for v, colors in lists.items():
            if not colors <= u:
                raise ValueError(f"list of vertex {clip(v)} leaves the universe")
        return super().__new__(cls, universe, lists)


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
                                                "refuted_assignment blocks attestation")):
    """Machine-checked record that choosability exceeds the chromatic number.

    chromatic comes with a verified proper coloring; list_bound is a size
    s such that the refuted assignment has all lists of size s and admits
    no proper coloring (full exhaustion attested), so the list chromatic
    number is at least s + 1 and exceeds chromatic by at least gap_lower.
    The coloring and blocks are tuples, refuted_assignment a ListAssignment.
    """

    __slots__ = ()
    _replace = _checked_replace

    def __new__(cls, *args, **fields):
        self = super().__new__(cls, *args, **fields)
        if self.gap_lower < self.n - 1:
            raise ValueError(f"certificate gap {self.gap_lower} below n-1 = {self.n - 1}")
        return self

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
    as they were when it was branched on, so its colors left are read
    back as the bits c of avail[v] with v in has[c], in O(list size).

    Coloring v with c takes t = has[c] & adj[v] & free from has[c].  If t
    meets buckets[1], a neighbor had c as its only color left: the node
    fails and changes nothing.  Otherwise t moves down one bucket, bucket
    by bucket from 2 upward so that no vertex moves twice.  The undo
    record is the frame's (color, t, moves), each move a (count, mask)
    pair; backtracking ORs t back into has[c] and each mask back up one
    bucket.  The vertex to branch on is the low bit of the first
    non-empty bucket, and the scan for it starts at the parent's count
    minus one, below which no count can fall.  So a node costs O(list
    size) mask operations, whatever its degree, and no pass over all n
    vertices; setup costs one OR per vertex and one per color of each
    distinct list.
    """
    adj = g.adj
    free = (1 << g.n) - 1
    # Group the vertices by mask, so each distinct list costs one OR per color.
    same: dict[int, int] = {}
    for v, a in enumerate(avail):
        same[a] = same.get(a, 0) | 1 << v
    buckets = [0] * (max(map(int.bit_count, same), default=0) + 1)
    has = [0] * max(map(int.bit_length, same), default=0)
    for a, vs in same.items():
        buckets[a.bit_count()] |= vs
        while a:
            low = a & -a
            has[low.bit_length() - 1] |= vs
            a ^= low
    left = g.n
    stride = _DEADLINE_STRIDE
    check_at = -1 if deadline is None else (nodes // stride + 1) * stride
    # frame: [vertex, its count, colors not yet tried,
    #         color tried, the neighbors it took that color from (t), their moves]
    stack: list[list] = []
    descend = True
    while True:
        if descend:
            if not left:
                colors = [0] * g.n
                for v, _, _, low, _, _ in stack:
                    colors[v] = low.bit_length() - 1
                return colors, nodes
            k = stack[-1][1] - 1 if stack else 0
            while not buckets[k]:
                k += 1
            if k:  # bucket 0 holds a vertex only at a root wipeout
                b = buckets[k]
                bit = b & -b
                buckets[k] = b ^ bit
                free ^= bit
                v = bit.bit_length() - 1
                own, a = 0, avail[v]
                while a:
                    low = a & -a
                    if has[low.bit_length() - 1] & bit:
                        own |= low
                    a ^= low
                stack.append([v, k, own, 0, 0, ()])
                left -= 1
        if not stack:
            return None, nodes
        frame = stack[-1]
        v, count, untried, low, t, moves = frame
        if t:
            has[low.bit_length() - 1] |= t
            for k, m in moves:
                buckets[k - 1] ^= m
                buckets[k] |= m
        if not untried:
            stack.pop()
            bit = 1 << v
            buckets[count] |= bit
            free |= bit
            left += 1
            descend = False
            continue
        low = untried & -untried
        nodes += 1
        if nodes == check_at:
            _check_deadline(deadline, nodes)
            check_at += stride
        c = low.bit_length() - 1
        t = has[c] & adj[v] & free
        moves = []
        if t & buckets[1]:  # a neighbor would be left with no color
            descend = False
            t = 0
        else:
            descend = True
            has[c] ^= t
            rest, k = t, 2
            while rest:
                m = rest & buckets[k]
                if m:
                    buckets[k] ^= m
                    buckets[k - 1] |= m
                    moves.append((k, m))
                    rest ^= m
                k += 1
        frame[2] = untried ^ low
        frame[3] = low
        frame[4] = t
        frame[5] = moves


def chromatic_number_exact(g: SimpleGraph, *,
                           deadline: float | None = None) -> tuple[int, list[int]]:
    """Minimum proper coloring, as list-coloring questions to _search.

    For k = |clique|, |clique| + 1, ... with clique from greedy_clique, every
    vertex may take the colors 0..k-1, except that the clique's i-th vertex
    may take color i alone; the first k that _search colors is the answer.
    Raises CapacityError above the vertex guard and SearchBudgetExceeded if
    the deadline passes mid-search, one node count spanning every k.
    """
    if g.n > CHROMATIC_MAX_VERTICES:
        raise CapacityError(
            f"exact chromatic search limited to {CHROMATIC_MAX_VERTICES} vertices, got {g.n}")
    clique = greedy_clique(g)
    nodes = 0
    for k in itertools.count(len(clique)):
        avail = [(1 << k) - 1] * g.n
        for i, v in enumerate(clique):
            avail[v] = 1 << i
        witness, nodes = _search(g, avail, deadline, nodes)
        if witness is not None:
            return k, witness


# -- list coloring ------------------------------------------------------------


def _dense_masks(assignment: ListAssignment) -> tuple[dict[int, int], list[int]]:
    """Each list as a mask over positions in the sorted universe, and that universe.

    Bit i stands for the i-th smallest color, so masks stay |universe| bits
    wide and colors keep their order: searches branch as on the raw colors.
    Lists often repeat, so each distinct list is converted once; its colors
    are distinct, so the sum of their bits is their mask.
    """
    palette = sorted(set(assignment.universe))
    bit = {c: 1 << i for i, c in enumerate(palette)}
    lists = assignment.lists
    mask = {colors: sum(map(bit.__getitem__, colors)) for colors in set(lists.values())}
    return dict(zip(lists, map(mask.__getitem__, lists.values()))), palette


def _decide_lists(g: SimpleGraph, classes: dict[int, list[int]], order: list[int],
                  assignment: ListAssignment, deadline: float | None) -> ListColoringResult:
    """The root both list solvers share: vertex i of g is order[i] of the
    assignment, and classes maps the lowest vertex of each twin class (the
    vertices of one row) to the class, in ascending order.

    The lists must cover exactly the vertices of order.  An empty list is
    UNSAT at no node.  Otherwise, on the color masks:
    twins are never adjacent, and two twin classes are joined completely or
    not at all, so the classes of a clique of classes use disjoint colors:
    one needs one color if its lists share one, else two.  If some class of
    two or more vertices is needy (no color common to its lists), the root,
    node 1, takes the needy classes and then the class of the lowest vertex
    joined to all chosen, greedily, and refutes the lists if the clique's
    lists hold fewer colors than it needs.  Otherwise _search decides, from
    the root or from 0 if no class is needy, and the attestation carries the
    count.  On a complete multipartite graph the classes are the parts and
    the clique is all.
    """
    if set(assignment.lists) != set(order):
        raise ValueError("lists must cover exactly the graph's vertices")
    for v in order:
        if not assignment.lists[v]:
            return ListColoringResult(None, SearchAttestation(nodes=0, empty_list_vertex=v))
    masks, palette = _dense_masks(assignment)
    avail = [masks[v] for v in order]
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
    coloring = None if colors is None else {v: palette[c] for v, c in zip(order, colors)}
    return ListColoringResult(coloring, SearchAttestation(nodes=nodes))


def is_list_colorable(g: SimpleGraph, assignment: ListAssignment, *,
                      deadline: float | None = None) -> ListColoringResult:
    """Complete decision for proper coloring from per-vertex lists.

    The part-demand bound on twin classes may refute at the root
    (_decide_lists); otherwise UNSAT is returned only after _search
    has exhausted the whole search space.  The attestation carries the
    node count.
    """
    # an int hashes as its value mod 2^61 - 1, so rows can be built to share a
    # hash; keyed by the salted hash of its bytes, grouping stays linear
    lowest, classes = {}, {}  # each row's key to its lowest vertex, that to the class
    for v, row in enumerate(g.adj):
        key = hash(row.to_bytes((row.bit_length() + 7) // 8, "little")), row
        classes.setdefault(lowest.setdefault(key, v), []).append(v)
    return _decide_lists(g, classes, list(range(g.n)), assignment, deadline)


def multipartite_list_colorable(parts: tuple[tuple[int, ...], ...], assignment: ListAssignment,
                                *, deadline: float | None = None) -> ListColoringResult:
    """List-colorability decision on the complete multipartite graph on parts.

    The graph is built on the parts' vertices, relabelled 0, 1, ... part by
    part, and decided as is_list_colorable decides it, with the parts as
    the twin classes: the root bound refutes the lists at node 1 if it
    fires, and _search decides the rest.
    """
    verts = [v for part in parts for v in part]
    if len(set(verts)) != len(verts) or not all(parts):
        raise ValueError("parts must be disjoint and nonempty")
    full, rows, classes = (1 << len(verts)) - 1, [], {}
    for a, b in itertools.pairwise(itertools.accumulate(map(len, parts), initial=0)):
        row = full ^ ((1 << b) - (1 << a))
        rows += [row] * (b - a)
        classes[a] = list(range(a, b))
    g = SimpleGraph._from_rows(len(verts), tuple(rows))
    return _decide_lists(g, classes, verts, assignment, deadline)


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


def validate_coloring(g: SimpleGraph, coloring, assignment: ListAssignment | None = None) -> bool:
    """Independent check that a coloring is proper (each row misses the mask of
    its own color class) and list-respecting, if an assignment is given."""
    values = coloring if isinstance(coloring, dict) else dict(enumerate(coloring))
    if set(values) != set(range(g.n)):
        return False
    classes: dict[int, int] = {}
    for v, c in values.items():
        classes[c] = classes.get(c, 0) | 1 << v
    if any(g.adj[v] & classes[c] for v, c in values.items()):
        return False
    return assignment is None or all(c in assignment.lists[v] for v, c in values.items())


def certify_gap(n: int, budget_seconds: float | None = None) -> GapCertificate:
    """End-to-end certificate that the squared construction has a choosability gap.

    Builds the graph and re-verifies that its square is complete multipartite
    on r = 2n-1 parts, so every row is "everything outside my part": coloring
    by part index is proper, with that check as its one proof, and one vertex
    per part is a clique, hence chromatic number r with no search.  Then
    exhaustively refutes the adversarial lists of size vetrik_lower_bound(n, r)
    on the square.  The budget_seconds deadline is read after construct, square
    and structure check, naming the last phase finished, and in the search
    only when _DEADLINE_STRIDE divides the node count (the root is node 1).
    The gap lower bound (refuted size + 1) - r is n - 1 for every prime n >= 3.
    """
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds

    def reached(phase: str):
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetExceeded(f"budget exhausted after {phase}")

    gc = construct_counterexample(n)
    reached("construct")
    sq = square(gc.graph, gc.n)
    reached("square")
    parts, report = check_square_structure(sq, gc)
    if not report.passed:
        raise RuntimeError(f"square structure check failed: {report.witness}")
    reached("structure check")
    r = len(parts)
    part_of = {v: c for c, part in enumerate(parts) for v in part}
    coloring = [part_of[v] for v in range(sq.n)]
    blocks, refuted = vetrik_assignment(parts)
    result = multipartite_list_colorable(parts, refuted, deadline=deadline)
    if result.satisfiable:
        raise RuntimeError("adversarial assignment was unexpectedly colorable")
    return GapCertificate(
        n=n,
        chromatic=r,
        chromatic_coloring=tuple(coloring),
        list_bound=vetrik_lower_bound(n, r),
        refuted_assignment=refuted,
        blocks=blocks,
        attestation=result.attestation,
    )
