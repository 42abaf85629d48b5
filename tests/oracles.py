"""Independent reference implementations used to cross-check the library.

Deliberately naive: plain BFS, dense boolean matrices, full
cartesian-product enumeration.  Slow past tiny sizes, which is fine; they
exist to disagree with the fast code, not to replace it.
"""

import itertools
from typing import Optional

import numpy as np

from squaregap import coloring
from squaregap.construction import vertex_names
from squaregap.errors import clip
from squaregap.graphcore import SimpleGraph, bits, mask_of

SQUARE_ORACLE_MAX_VERTICES = 512


class CapacityError(Exception):
    """An input exceeds an oracle's size guard."""


def bfs_square(g: SimpleGraph) -> SimpleGraph:
    """Distance-at-most-2 power computed by two-level BFS from every vertex."""
    adjacency = [list(bits(g.adj[v])) for v in range(g.n)]
    edges = set()
    for s in range(g.n):
        reach = set(adjacency[s])
        for u in adjacency[s]:
            reach.update(adjacency[u])
        reach.discard(s)
        for t in reach:
            edges.add((min(s, t), max(s, t)))
    return SimpleGraph.from_edges(g.n, sorted(edges))


def square_oracle(g: SimpleGraph) -> SimpleGraph:
    """Independent route to square(g): boolean A OR A@A with the diagonal cleared.

    Dense n x n matrices; refuses graphs beyond the size guard.
    """
    if g.n > SQUARE_ORACLE_MAX_VERTICES:
        raise CapacityError(
            f"square_oracle limited to {SQUARE_ORACLE_MAX_VERTICES} vertices, got {g.n}")
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges():
        a[u, v] = a[v, u] = True
    two = a | (a @ a)
    np.fill_diagonal(two, False)
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(two)))]
    return SimpleGraph.from_edges(g.n, edges)


def enumerate_list_colorable(g: SimpleGraph, lists) -> bool:
    """Try every combination of per-vertex choices; no pruning at all."""
    domains = [sorted(lists[v]) for v in range(g.n)]
    if any(not d for d in domains):
        return False
    edge_list = g.edges()
    for combo in itertools.product(*domains):
        if all(combo[u] != combo[v] for u, v in edge_list):
            return True
    return False


def enumerate_chromatic(g: SimpleGraph) -> int:
    """Smallest k admitting a proper k-coloring, by full enumeration.

    Usable only for a handful of vertices (k**n colorings per candidate k).
    """
    if g.n == 0:
        return 0
    edge_list = g.edges()
    for k in range(1, g.n + 1):
        for combo in itertools.product(range(k), repeat=g.n):
            if all(combo[u] != combo[v] for u, v in edge_list):
                return k
    raise AssertionError("a graph on n vertices is always n-colorable")


def mols_by_formula(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The squares L_1, ..., L_{n-1} entry by entry from the defining formula:
    row j, column k (both from 0) of L_i holds (j + i*k) mod n + 1."""
    return tuple(tuple(tuple((j + i * k) % n + 1 for k in range(n)) for j in range(n))
                 for i in range(1, n))


def neighbourhood_reports_by_walk(gc, squares=None) -> dict[str, tuple]:
    """The nw and nv lemmas recomputed over neighbour sets, every pair by itself.

    For each lemma: (checked_cases, failure_count, item_witnesses), with
    cases met in the order of the lemma's docstring and pairs x < y in
    index order.  nw0 reads the rows of squares, the n - 1 Latin squares
    of the construction by their formula unless given.
    """
    g = gc.graph
    labels = vertex_names(gc.n)
    nbrs = [set(bits(g.adj[v])) for v in range(g.n)]

    def one_in_each(item, x, name, sets):
        for k, s in enumerate(sets, start=1):
            got = len(nbrs[x] & set(s))
            yield item, None if got == 1 else (item, labels[x], f"{name}_{k}", got)

    def pairs(item, xs, centres, limit):
        for x, y in itertools.combinations(sorted(xs), 2):
            shared = len(nbrs[x] & nbrs[y] & centres)
            witness = (item, labels[x], labels[y], shared)
            yield item, None if shared <= limit(x, y) else witness

    def nw_cases():
        for qs, latin in zip(gc.q_sets, squares or mols_by_formula(gc.n)):
            for x, row in zip(qs, latin):
                want = {gc.v_index(k, e) for k, e in enumerate(row, start=1)}
                yield "nw0", None if nbrs[x] == want else (
                    "nw0", labels[x], "neighborhood differs from Latin row")
        for x in gc.q_vertices:
            yield from one_in_each("nw1", x, "P", gc.p_sets)
            yield from one_in_each("nw2", x, "T", gc.t_sets)
        group = {x: i for i, qs in enumerate(gc.q_sets) for x in qs}
        yield from pairs("nw3", gc.q_vertices, set(range(g.n)),
                         lambda x, y: 0 if group[x] == group[y] else 1)

    def nv_cases():
        for x in gc.p_vertices:
            yield from one_in_each("nv1", x, "Q", gc.q_sets)
        yield from pairs("nv2", gc.p_vertices, set(gc.q_vertices), lambda x, y: 1)

    def tally(cases):
        count, failures, first = 0, 0, {}
        for item, witness in cases:
            count += 1
            if witness is not None:
                failures += 1
                first.setdefault(item, witness)
        return count, failures, tuple(first.values())

    return {"nw": tally(nw_cases()), "nv": tally(nv_cases())}


def latin_upper(n: int) -> list[list[int]]:
    """The upper rows of the graph for n, read off the Latin squares as defined.

    w_{i,j} is vertex n^2 + (i-1)n + (j-1), so the w's follow the rows of
    the squares in order, and entry x at position k of w's row names its
    neighbour v_{k,x} = (k-1)n + x - 1; the rest of a v's upper row is the
    later v's of its column.  Each w's upper row is empty.
    """
    nn = n * n
    out = [[*range(v + n, nn, n)] for v in range(nn)]
    for w, row in enumerate(itertools.chain.from_iterable(mols_by_formula(n)), start=nn):
        for base, x in zip(range(-1, nn, n), row):  # base = (k-1)n - 1
            out[base + x].append(w)
    return out + [[] for _ in range(nn - n)]


def stars_by_rule(n: int) -> list[list[int]]:
    """base_stars(n) by the rule its docstring states, one entry at a time:
    v(k, 0) gets v(B, 0) for B != k and w(i, -ik mod n), and w(i, 0) gets
    v(k, ik mod n), each star ascending, where v(k, c) is vertex k*n + c
    and w(i, c) is n^2 + (i-1)n + c."""
    stars = []
    for k in range(n):
        star = []
        for b in range(n):
            if b != k:
                star.append(b * n)
        for i in range(1, n):
            star.append(n * n + (i - 1) * n + (-i * k) % n)
        stars.append(sorted(star))
    for i in range(1, n):
        star = []
        for k in range(n):
            star.append(k * n + (i * k) % n)
        stars.append(sorted(star))
    return stars


def is_proper_coloring(g: SimpleGraph, colors, assignment=None) -> bool:
    """colors, a list or a dict keyed by vertex, colours every vertex of g, no
    edge of g.edges() has both ends in one colour, and, with an assignment,
    every vertex's colour is in its list."""
    c = colors if isinstance(colors, dict) else dict(enumerate(colors))
    return (set(c) == set(range(g.n)) and all(c[u] != c[v] for u, v in g.edges())
            and (assignment is None or all(x in assignment.lists[v] for v, x in c.items())))


def _check_subset(g: SimpleGraph, s) -> int:
    m = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for {g.n} vertices")
        m |= 1 << v
    return m


def induced_subgraph(g: SimpleGraph, s) -> tuple[SimpleGraph, list[int]]:
    """Subgraph on s, reindexed 0..|s|-1; returns (subgraph, new->old index map)."""
    _check_subset(g, s)
    old = sorted(set(s))
    pos = {v: i for i, v in enumerate(old)}
    edges = [(pos[u], pos[v]) for u in old for v in bits(g.adj[u]) if v in pos and u < v]
    return SimpleGraph.from_edges(len(old), edges), old


def is_clique(g: SimpleGraph, s) -> bool:
    m = _check_subset(g, s)
    return all((g.adj[v] | (1 << v)) & m == m for v in bits(m))


def complete_multipartite(part_sizes) -> tuple[SimpleGraph, tuple[tuple[int, ...], ...]]:
    """Canonical K with the given part sizes; parts are consecutive index blocks.

    Built through the checked constructor SimpleGraph(n, rows).
    """
    sizes = list(part_sizes)
    if any(s <= 0 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {sizes}")
    starts = list(itertools.accumulate(sizes, initial=0))
    parts = tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))
    n = starts[-1]
    full = (1 << n) - 1
    rows = []
    for part in parts:
        rows += [full & ~mask_of(part)] * len(part)
    return SimpleGraph(n, tuple(rows)), parts


def vetrik_k3x5(pendant: bool = False) -> tuple[SimpleGraph, coloring.ListAssignment]:
    """The n = 3 square K_{3x5} with its Vetrik lists, parts 3p..3p+2: UNSAT,
    refuted by the twin-class bound at node 1.

    With pendant, vertex 15 is joined to vertex 0 with the list {10}.  Vertex 0
    then leaves its part's twin class, so the bound needs 9 colors against 9
    and does not fire: the search refutes the lists after 35,797 nodes, which
    with the root make 35,798.
    """
    g, parts = complete_multipartite([3] * 5)
    _, a = coloring.vetrik_assignment(parts)
    if not pendant:
        return g, a
    rows = (g.adj[0] | 1 << 15, *g.adj[1:], 1)
    return (SimpleGraph(16, rows),
            coloring.ListAssignment(universe=a.universe + (10,),
                                    lists={**a.lists, 15: frozenset({10})}))


def rows_by_edge_checks(n: int, edges, lines=None) -> tuple[int, ...]:
    """The rows of SimpleGraph.from_edges(n, edges) as it once built them: each
    edge range-checked, then checked for a self-loop, then its two bits set,
    so the first faulty edge raises, named by its message.  Given lines, the
    1-based line number of each edge in a DIMACS file, the edges are 0-based
    as parse_dimacs reads them, and a fault is named as it names one: by its
    line, with its endpoints as written."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {clip(n)}")
    rows = [0] * n
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            if lines is None:
                raise ValueError(f"edge ({clip(u)},{clip(v)}) out of range for {n} vertices")
            raise ValueError(f"line {lines[i]}: edge {clip(u + 1)} {clip(v + 1)} "
                             f"out of range for {n} vertices")
        if u == v:
            if lines is None:
                raise ValueError(f"self-loop at {u} not allowed")
            raise ValueError(f"line {lines[i]}: self-loop at {u + 1} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def random_graph(rng, n: int, p: float) -> SimpleGraph:
    """G(n, p) with edges drawn from the supplied seeded Random instance."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


# -- subdivision and total graph ------------------------------------------
#
# Both return (graph, labels), labels[x] naming the origin of vertex x.  They
# place the original vertices first and one vertex per edge after them,
# edge vertices ordered by lexicographic (u, v) with u < v.  The shared
# deterministic labeling makes "square of subdivision equals total graph"
# an exact graph equality rather than an isomorphism search.

VertexKind = tuple[str, object]  # ("vertex", v) or ("edge", (u, v))


def _expansion_labels(g: SimpleGraph) -> tuple[list[tuple[int, int]], tuple[VertexKind, ...]]:
    edge_list = g.edges()
    labels = tuple(("vertex", v) for v in range(g.n)) + tuple(
        ("edge", e) for e in edge_list)
    return edge_list, labels


def subdivision(g: SimpleGraph) -> tuple[SimpleGraph, tuple[VertexKind, ...]]:
    """Replace every edge uv by the path u - m_uv - v through a fresh midpoint."""
    edge_list, labels = _expansion_labels(g)
    edges = []
    for idx, (u, v) in enumerate(edge_list):
        m = g.n + idx
        edges.append((u, m))
        edges.append((v, m))
    return SimpleGraph.from_edges(g.n + len(edge_list), edges), labels


def total_graph(g: SimpleGraph) -> tuple[SimpleGraph, tuple[VertexKind, ...]]:
    """Vertices plus edges of g; adjacency by vertex-adjacency, edge-adjacency, incidence."""
    edge_list, labels = _expansion_labels(g)
    edges = list(g.edges())
    for idx, (u, v) in enumerate(edge_list):
        m = g.n + idx
        edges.append((u, m))
        edges.append((v, m))
        for jdx in range(idx + 1, len(edge_list)):
            x, y = edge_list[jdx]
            if x in (u, v) or y in (u, v):
                edges.append((m, g.n + jdx))
    return SimpleGraph.from_edges(g.n + len(edge_list), edges), labels


def rescan_search(g: SimpleGraph, avail: list[int], deadline: Optional[float],
                  nodes: int) -> tuple[Optional[list[int]], int]:
    """DSATUR-style backtracking (Brelaz, CACM 1979) on an explicit stack.

    coloring._search without its count buckets and color masks: every node
    rescans the counts of all n vertices to pick the most constrained one,
    and forward checks its neighbors one by one.  Both must pick the same
    vertices, so they agree on every coloring and node count.

    avail[v] (consumed) is the mask of colors v may still take.  The most
    constrained uncolored vertex goes first (ties by index), its colors
    ascending, one node each, with forward checking: a neighbor left with
    no color fails the branch.  The count goes on from nodes, and the
    deadline is checked by coloring._check_deadline.  Returns (the coloring
    or None, the count at the end).
    """
    nbrs: list[Optional[list[int]]] = [None] * g.n  # filled when a vertex is first branched on
    # More set bits than any list and no color bit: a colored vertex is never
    # the most constrained one and never loses a color to forward checking.
    done = ((2 << max(map(int.bit_count, avail), default=0)) - 1
            << max(map(int.bit_length, avail), default=0))
    left = g.n
    # frame: [vertex, its mask, colors not yet tried, color tried, touched]
    stack: list[list] = []
    descend = True
    while True:
        if descend:
            if not left:
                colors = [0] * g.n
                for v, _, _, low, _ in stack:
                    colors[v] = low.bit_length() - 1
                return colors, nodes
            counts = list(map(int.bit_count, avail))
            fewest = min(counts)
            if fewest:
                v = counts.index(fewest)
                stack.append([v, avail[v], avail[v], 0, ()])
                if nbrs[v] is None:
                    nbrs[v] = list(bits(g.adj[v]))
                avail[v] = done
                left -= 1
        if not stack:
            return None, nodes
        frame = stack[-1]
        v, own, untried, low, touched = frame
        for u in touched:
            avail[u] |= low
        if not untried:
            stack.pop()
            avail[v] = own
            left += 1
            descend = False
            continue
        low = untried & -untried
        nodes += 1
        coloring._check_deadline(deadline, nodes)
        touched = []
        descend = True
        for u in nbrs[v]:
            a = avail[u]
            if a & low:
                avail[u] = a ^ low
                touched.append(u)
                if a == low:
                    descend = False
                    break
        frame[2] = untried ^ low
        frame[3] = low
        frame[4] = touched


def list_frame_search(g: SimpleGraph, avail: list[int], deadline: Optional[float],
                      nodes: int) -> tuple[Optional[list[int]], int]:
    """DSATUR-style backtracking (Brelaz, CACM 1979) on an explicit stack.

    coloring._search as it was before its frames became tuples pushed only
    when a color is taken: here each branched vertex gets a list frame that
    is rewritten per color, and its colors left are collected when it is
    branched on.  Both must agree on every coloring and node count.

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
    mask object.
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
    stride = coloring._DEADLINE_STRIDE
    check_at = -1 if deadline is None else (nodes // stride + 1) * stride
    # frame: [vertex, its count, colors not yet tried,
    #         color tried, the neighbors it took that color from (t), their moves]
    stack: list[list] = []
    descend = True
    while True:
        if descend:
            if not free:
                colors = [0] * g.n
                for v, _, _, low, _, _ in stack:
                    colors[v] = low.bit_length() - 1
                return colors, nodes
            k = stack[-1][1] - 1 if stack else 0
            while not buckets[k]:
                k += 1
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
            descend = False
            continue
        low = untried & -untried
        nodes += 1
        if nodes == check_at:
            coloring._check_deadline(deadline, nodes)
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


# -- writers over a sorted pair list ------------------------------------------
#
# The graph writers as they were when edges travelled as sorted (u, v) tuples,
# one line per tuple; serialize's upper-row writers must give the same bytes.


def pairs_to_dimacs(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def pairs_to_dot(n: int, edges: list[tuple[int, int]],
                 labels: Optional[dict[int, str]] = None) -> str:
    lines = ["graph G {"]
    for v in range(n):
        name = labels.get(v) if labels else None
        # a DOT quoted string escapes each backslash and double quote
        name = name and "".join("\\" + ch if ch in '\\"' else ch for ch in name)
        lines.append(f'  {v} [label="{name}"];' if name else f"  {v};")
    lines += [f"  {u} -- {v};" for u, v in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def pairs_to_json_dict(n: int, edges: list[tuple[int, int]], labels: dict[int, str],
                       parts: dict[str, list[int]], cliques: dict[str, list[int]]) -> dict:
    """The graph JSON document with its edges as a plain pair list, for json.dumps."""
    return {
        "n_vertices": n,
        "edges": edges,
        "labels": {str(v): name for v, name in labels.items()},
        "parts": {name: sorted(vs) for name, vs in parts.items()},
        "cliques": {name: sorted(vs) for name, vs in cliques.items()},
    }
