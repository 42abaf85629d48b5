"""The benchmark's own output checker.

Nothing here imports squaregap.  The expected graph is rebuilt from the
paper's definition, expected case counts come from closed forms, and
colourings are checked edge by edge against the generator's own edge
lists, so a wrong answer cannot pass by agreeing with the code under test.
"""

import json


def counterexample_edges(n):
    """Edges (u, v), u < v, of the graph G for prime n, by the paper's definition.

    v_{i,j} has index (i-1)n + (j-1) and w_{i,j} has index n^2 + (i-1)n + (j-1).
    w_{i,j} is joined to v_{k, L_i(j,k)} with L_i(j,k) = (j-1) + i(k-1) mod n, plus 1,
    and every column T_j = {v_{1,j}, ..., v_{n,j}} is a clique.
    """
    edges = set()
    for i in range(1, n):
        for j in range(1, n + 1):
            w = n * n + (i - 1) * n + (j - 1)
            for k in range(1, n + 1):
                edges.add(((k - 1) * n + (j - 1 + i * (k - 1)) % n, w))
    for j in range(n):
        column = [i * n + j for i in range(n)]
        edges.update((a, b) for x, a in enumerate(column) for b in column[x + 1:])
    return edges


def vertex_count(n):
    return 2 * n * n - n


def rows_of(n_vertices, edges):
    rows = [0] * n_vertices
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def square_parts(n):
    """The 2n-1 parts of G^2: rows P_1..P_n of v-vertices, then groups Q_1..Q_{n-1}."""
    return [list(range(p * n, (p + 1) * n)) for p in range(2 * n - 1)]


def square_edges(n):
    """Edges of G^2 by two-step neighbourhood search over counterexample_edges."""
    nbrs = [set() for _ in range(vertex_count(n))]
    for u, v in counterexample_edges(n):
        nbrs[u].add(v)
        nbrs[v].add(u)
    out = set()
    for s, first in enumerate(nbrs):
        reach = set(first)
        for u in first:
            reach |= nbrs[u]
        out.update((s, t) for t in reach if t > s)
    return out


def expected_cases(n):
    """checked_cases of each lemma report, in closed form."""
    q = n * (n - 1)
    return {
        "nw": q + 2 * q * n + q * (q - 1) // 2,
        "nv": n * n * (n - 1) + n * n * (n * n - 1) // 2,
        "independence": 2 * n - 1,
        "pq": n * n * q,
        "structure": vertex_count(n) + 2,
    }


def check_verify(n, code, payload):
    if code != 0:
        return f"exit code {code}, want 0"
    doc = json.loads(payload)
    if doc.get("all_passed") is not True:
        return "all_passed is not true"
    want = expected_cases(n)
    reports = doc["reports"]
    if set(reports) != set(want):
        return f"report names {sorted(reports)}"
    for name, cases in want.items():
        r = reports[name]
        if not r["passed"] or r["failure_count"] != 0 or r["checked_cases"] != cases:
            return f"{name}: {r}, want {cases} passing cases"
    parts = doc["structure_parts"]
    if parts["count"] != 2 * n - 1 or parts["sizes"] != [n] * (2 * n - 1):
        return f"structure_parts {parts}"
    return None


def check_certify(n, code, payload):
    if code != 0:
        return f"exit code {code}, want 0"
    doc = json.loads(payload)
    r = 2 * n - 1
    if doc["chromatic"] != r or doc["gap_lower"] != n - 1 or doc["not_choosable"] != 3 * (n - 1):
        return (f"chromatic {doc['chromatic']}, gap_lower {doc['gap_lower']}, "
                f"not_choosable {doc['not_choosable']}")
    coloring = doc["chromatic_coloring"]
    if len(coloring) != vertex_count(n) or len(set(coloring)) != r:
        return "chromatic colouring has the wrong length or colour count"
    if any(coloring[u] == coloring[v] for u, v in square_edges(n)):
        return "chromatic colouring is not proper on G^2"
    if doc["refutation"]["complete"] is not True:
        return "refutation not complete"
    # Independent proof that the refuted lists are uncolourable: each part's
    # lists share no colour, so every part needs two colours, 2r in all, from
    # a universe of 2r - 1.
    refuted = doc["refuted_lists"]
    universe = set(refuted["universe"])
    lists = {int(v): set(cs) for v, cs in refuted["lists"].items()}
    if len(universe) != 2 * r - 1 or set(lists) != set(range(vertex_count(n))):
        return "refuted lists do not cover G^2 over 2r - 1 colours"
    if any(len(cs) != doc["not_choosable"] or not cs <= universe for cs in lists.values()):
        return "a refuted list has the wrong size or leaves the universe"
    for part in square_parts(n):
        if set.intersection(*(lists[v] for v in part)):
            return f"part {part} has a common colour, so the lists are not refuted"
    return None


def check_solve(truth, code, payload):
    doc = json.loads(payload)
    if truth["sat"]:
        if code != 0 or doc["satisfiable"] is not True:
            return f"SAT instance answered exit {code}, satisfiable {doc['satisfiable']}"
        coloring = {int(v): c for v, c in doc["coloring"].items()}
        if set(coloring) != set(range(truth["n"])):
            return "colouring does not cover every vertex"
        lists = truth["lists"]
        if any(c not in lists[v] for v, c in coloring.items()):
            return "a colour is not drawn from its vertex's list"
        if any(coloring[u] == coloring[v] for u, v in truth["edges"]):
            return "colouring is not proper"
    elif code != 1 or doc["satisfiable"] is not False or "coloring" in doc:
        return f"UNSAT instance answered exit {code}, satisfiable {doc['satisfiable']}"
    if doc["complete"] is not True:
        return "verdict not marked complete"
    return None


def dot_edges(text):
    """(vertex count, edge set) of a DOT file written as 'graph G { u; u -- v; }'."""
    vertices, edges = 0, set()
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if "--" in line:
            u, v = (int(x) for x in line.split("--"))
            edges.add((min(u, v), max(u, v)))
        elif line and line[0].isdigit():
            vertices += 1
    return vertices, edges


def check_roundtrip(n, fmt, code, parsed):
    if code != 0:
        return f"exit code {code}, want 0"
    edges = counterexample_edges(n)
    if fmt == "dot":
        if dot_edges(parsed) != (vertex_count(n), edges):
            return "DOT file does not hold the constructed graph"
        return None
    if parsed.n != vertex_count(n) or tuple(parsed.adj) != rows_of(parsed.n, edges):
        return f"parsed {fmt} graph differs from the constructed graph"
    return None
