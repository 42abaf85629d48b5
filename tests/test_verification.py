import itertools
import random
from collections import namedtuple
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import neighbourhood_reports_by_walk
from squaregap import cli, construction, latin, serialize, verification
from squaregap.construction import base_stars, construct_counterexample, vertex_names
from squaregap.errors import clip
from squaregap.graphcore import SimpleGraph, bits, square, square_by_blocks
from squaregap.latin import build_latin
from squaregap.verification import (LEMMAS, check_by_blocks, checked_stars, check_independence,
                                    check_lemma_nv, check_lemma_nw, check_pq_adjacency,
                                    check_square_structure, run_all_checks)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_all_checks_pass(n):
    gc = construct_counterexample(n)
    reports = run_all_checks(gc)
    assert set(reports) == {"nw", "nv", "independence", "pq", "structure"}
    for name, report in reports.items():
        assert report.passed, f"{name}: {report.witness}"
        assert report.failure_count == 0
        assert report.witness is None


def test_structure_witness_shape():
    for n in (3, 5, 7):
        gc = construct_counterexample(n)
        parts, report = check_square_structure(square(gc.graph), gc)
        assert report.passed
        assert len(parts) == 2 * n - 1
        assert all(len(p) == n for p in parts)


def test_nw_case_count_at_n3():
    # 6 neighborhood equations + 6*3 row counts + 6*3 column counts + 15 pairs
    gc = construct_counterexample(3)
    report = check_lemma_nw(square(gc.graph), gc)
    assert report.checked_cases == 57


def test_nv_and_pq_case_counts_at_n3():
    gc = construct_counterexample(3)
    sq = square(gc.graph)
    # 9 vertices * 2 groups + C(9,2) shared-neighbor pairs
    assert check_lemma_nv(sq, gc).checked_cases == 18 + 36
    assert check_pq_adjacency(sq, gc).checked_cases == 9 * 6
    assert check_independence(sq, gc).checked_cases == 5


def test_structure_pins_edge_counts():
    # 15 adjacency rows + the two induced-edge-count identities
    gc = construct_counterexample(3)
    _, report = check_square_structure(square(gc.graph), gc)
    assert report.checked_cases == 17


@pytest.mark.parametrize("n", [3, 5])
def test_claim_congruence_exhaustive(n):
    # v_{k, L_i(j,k)} is a common neighbour of w_{i,j} and w_{i',j'} exactly
    # when (i - i')(k - 1) = j' - j modulo n, for every i, i', j, j' and k
    gc = construct_counterexample(n)
    adj = gc.graph.adj
    for i, i2 in itertools.product(range(1, n), repeat=2):
        sq = build_latin(n, i)
        for j, j2 in itertools.product(range(1, n + 1), repeat=2):
            shared = adj[gc.w_index(i, j)] & adj[gc.w_index(i2, j2)]
            for k in range(1, n + 1):
                member = bool(shared >> gc.v_index(k, sq[j - 1][k - 1]) & 1)
                congruent = (i - i2) * (k - 1) % n == (j2 - j) % n
                assert member == congruent, (i, i2, j, j2, k)


def test_complete_square_fails_independence():
    gc = construct_counterexample(3)
    n = gc.graph.n
    all_edges = list(itertools.combinations(range(n), 2))
    complete = SimpleGraph.from_edges(n, all_edges)
    report = check_independence(complete, gc)
    assert not report.passed


@pytest.mark.parametrize("n", [3, 5, 7])
def test_case_counts_follow_closed_forms(n):
    # the dense checks count every case they walk
    w, v = n * (n - 1), n * n
    want = {"nw": w + 2 * w * n + comb(w, 2), "nv": v * (n - 1) + comb(v, 2), "pq": v * w}
    reports = run_all_checks(construct_counterexample(n))
    assert {name: reports[name].checked_cases for name in want} == want


# -- block form ---------------------------------------------------------------

PRIMES_TO_61 = [p for p in range(3, 62) if all(p % d for d in range(2, p))]


class FellBack(AssertionError):
    pass


def no_dense_graph(monkeypatch):
    def refuse(n):
        raise FellBack("fell back to the dense checks")
    monkeypatch.setattr(construction, "construct_counterexample", refuse)


@pytest.mark.parametrize("n", PRIMES_TO_61)
def test_block_reports_equal_the_dense_reports(n, monkeypatch):
    # every --lemma value: the lemmas alone and all five, with no fallback
    dense = run_all_checks(construct_counterexample(n))
    stars = checked_stars(n)
    rows = square_by_blocks(stars, n)
    no_dense_graph(monkeypatch)
    assert check_by_blocks(n, stars, rows, LEMMAS) == dense
    for lemma in LEMMAS:
        assert check_by_blocks(n, stars, rows, (lemma,)) == {lemma: dense[lemma]}


def test_all_five_claims_run_the_counting_identity_once(monkeypatch):
    calls = []
    real = verification._pairs_by_blocks
    monkeypatch.setattr(verification, "_pairs_by_blocks", lambda *a: calls.append(a) or real(*a))
    stars = checked_stars(7)
    assert all(r.passed for r in check_by_blocks(7, stars, square_by_blocks(stars, 7), LEMMAS).values())
    assert len(calls) == 1


@pytest.mark.parametrize("fault,arc", [
    ("one-sided", "v_1_1 -> w_1_1 has no reverse"),
    ("own block", "v_1_1 -> v_1_2 stays in its block"),
    ("outside", "v_1_1 -> 9999 leaves the graph"),
    ("twice", "v_1_1 -> v_2_1 is named twice"),
])
@pytest.mark.parametrize("command", ["verify", "certify"])
def test_stars_that_define_no_simple_graph_exit_5_naming_the_arc(monkeypatch, capsys,
                                                                 command, fault, arc):
    stars = base_stars(5)
    if fault == "one-sided":  # v_1_1 = 0 keeps its arc to w_1_1 = 25, not the reverse
        stars[5].remove(0)
    else:
        stars[0].append({"own block": 1, "outside": 9999, "twice": 5}[fault])
    monkeypatch.setattr(construction, "base_stars", lambda m: stars)
    code = cli.main([command, "--n", "5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 5
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (f"squaregap {command}: internal error: "
                                            f"RuntimeError: {clip('base star arc ' + arc)}")


# -- the mutant table ---------------------------------------------------------
#
# Each row is a prime n and one edit of G: "edges" toggles the named edges of
# G, "stars" toggles the whole edge orbit of each named edge in base_stars(n),
# and "latin" replaces build_latin by the edit, with the stars its first rows
# name.  pins are (checked_cases, failure_count, item_witnesses) per lemma of
# the dense reports, and facts name what else holds (FACTS).  check_row takes
# every row through each verifier that applies to it.

Mutant = namedtuple("Mutant", "n kind edit pins facts", defaults=({}, ()))


def shape(report):
    return report.checked_cases, report.failure_count, report.item_witnesses


def indices(n, pairs):
    index = {name: v for v, name in enumerate(vertex_names(n))}
    return [(index[x], index[y]) for x, y in pairs]


def edges_edit(n, pairs):
    """G for n with each named edge added if absent, removed if present."""
    gc = construct_counterexample(n)
    edges = set(gc.graph.edges()) ^ {(min(e), max(e)) for e in indices(n, pairs)}
    return gc._replace(graph=SimpleGraph.from_edges(gc.graph.n, sorted(edges)))


def stars_edit(n, pairs):
    """base_stars(n) with the orbit of each named edge toggled: in the star of
    each end's block, the other end moved back by the first end's place."""
    stars = list(map(set, base_stars(n)))
    for x, u in indices(n, pairs):
        for a, b in ((x, u), (u, x)):
            stars[a // n] ^= {b - b % n + (b - a) % n}
    return list(map(sorted, stars))


def latin_edit(n, build):
    """The edges whose orbits make each Q_i's star the v-set that row 1 of
    build(n, i) names, for stars_edit."""
    names = vertex_names(n)
    row_set = lambda rows: {names[k * n + e - 1] for k, e in enumerate(rows[0])}
    return [(f"w_{i}_1", v) for i in range(1, n)
            for v in sorted(row_set(build_latin(n, i)) ^ row_set(build(n, i)))]


def swapped_rows(m, i):
    """build_latin with rows 2 and 3 of the first square swapped."""
    rows = build_latin(m, i)
    return (rows[0], rows[2], rows[1], *rows[3:]) if i == 1 else rows


def slope_zero_first(m, i):
    """build_latin with the cyclic, non-Latin square of slope 0 first."""
    return tuple((j + 1,) * m for j in range(m)) if i == 1 else build_latin(m, i)


FACTS = {
    "changes no claim": lambda gc, dense, settled: all(r.passed for r in dense.values()),
    # a w-w edge leaves the square untouched; only the exact neighbourhood sees it
    "the square is unchanged": lambda gc, dense, settled:
        square(gc.graph) == square(construct_counterexample(gc.n).graph),
    # so only the same-group test can fail nw3
    "no two w's share two neighbours": lambda gc, dense, settled:
        all((gc.graph.adj[a] & gc.graph.adj[b]).bit_count() <= 1
            for a, b in itertools.combinations(gc.q_vertices, 2)),
    # the counting identity needs no w-w edge, so it settles nothing here
    "the block form leaves nv unsettled": lambda gc, dense, settled: settled["nv"] is None,
}

# every claim but the named ones holds, at n = 5
PASSING_N5 = {"nw": (410, 0, ()), "nv": (400, 0, ()), "independence": (9, 0, ()),
              "pq": (500, 0, ()), "structure": (47, 0, ())}
NW0 = "neighborhood differs from Latin row"
MUTANTS = {
    # -- G's edges at n = 3
    "3 deleted star edge": Mutant(3, "edges", [("w_1_1", "v_1_1")], {"nw": (57, 3, (
        ("nw0", "w_1_1", NW0), ("nw1", "w_1_1", "P_1", 0), ("nw2", "w_1_1", "T_1", 0)))}),
    # v_1_2 gets two neighbours in Q_1
    "3 spurious star edge": Mutant(3, "edges", [("w_1_1", "v_1_2")], {"nv": (54, 2, (
        ("nv1", "v_1_2", "Q_1", 2), ("nv2", "v_1_2", "v_3_3", 2)))}),
    "3 w-w edge": Mutant(3, "edges", [("w_1_1", "w_2_2")],
                         {"nw": (57, 2, (("nw0", "w_1_1", NW0),))}, ("the square is unchanged",)),
    # every row count of w_1_1 broken, and nw0 to nw2 all report
    "3 w_1_1 isolated": Mutant(3, "edges", [("w_1_1", v) for v in ("v_1_1", "v_2_2", "v_3_3")],
                               {"nw": (57, 7, (("nw0", "w_1_1", NW0), ("nw1", "w_1_1", "P_1", 0),
                                               ("nw2", "w_1_1", "T_1", 0)))}),
    # w_1_1 gives up v_1_1 for v_2_3, which it then shares with w_1_2 in its
    # own group, while no two w's share two neighbours
    "3 shared within a group": Mutant(3, "edges", [("w_1_1", "v_1_1"), ("w_1_1", "v_2_3")], {
        "nw": (57, 6, (("nw0", "w_1_1", NW0), ("nw1", "w_1_1", "P_1", 0),
                       ("nw2", "w_1_1", "T_1", 0), ("nw3", "w_1_1", "w_1_2", 1)))},
        ("no two w's share two neighbours",)),
    # v_1_1 and v_2_1 share v-neighbours in their column clique; v_2_1
    # joined to the w-neighbours w_1_1 and w_2_1 of v_1_1 shares two w's
    "3 nv2 counts only w's": Mutant(3, "edges", [("w_1_1", "v_2_1"), ("w_2_1", "v_2_1")], {
        "nv": (54, 5, (("nv1", "v_2_1", "Q_1", 2), ("nv2", "v_1_1", "v_2_1", 2)))}),
    # -- G's edges at n = 5, every report pinned as the plain pair loops gave it
    "5 w-w edge": Mutant(5, "edges", [("w_1_1", "w_2_3")],
                         {**PASSING_N5, "nw": (410, 2, (("nw0", "w_1_1", NW0),))}),
    # w_1_1 and w_1_2 (same group) both joined to w_3_4 now share a neighbour
    "5 w-w edges to a common w": Mutant(5, "edges", [("w_1_1", "w_3_4"), ("w_1_2", "w_3_4")], {
        **PASSING_N5, "nw": (410, 4, (("nw0", "w_1_1", NW0), ("nw3", "w_1_1", "w_1_2", 1))),
        "independence": (9, 1, (("independence", "Q_1", "w_1_1", "w_1_2"),)),
        "structure": (47, 3, (("structure", "w_1_1", "adjacency row mismatch"),
                              ("edges_q", 151, 150)))}),
    # the square's structure and independence see a v-v edge
    "5 v-v edge": Mutant(5, "edges", [("v_1_1", "v_2_2")], {
        **PASSING_N5, "independence": (9, 2, (("independence", "P_1", "v_1_1", "v_1_2"),)),
        "structure": (47, 5, (("structure", "v_1_1", "adjacency row mismatch"),
                              ("edges_p", 252, 250)))}),
    # w_1_1 joined to v_1_2, a neighbour of w_1_2: a shared neighbour on the
    # w side and a second shared w-neighbour on the v side
    "5 w-v edge": Mutant(5, "edges", [("w_1_1", "v_1_2")], {
        **PASSING_N5, "nw": (410, 7, (("nw0", "w_1_1", NW0), ("nw1", "w_1_1", "P_1", 2),
                                      ("nw2", "w_1_1", "T_2", 2), ("nw3", "w_1_1", "w_1_2", 1))),
        "nv": (400, 4, (("nv1", "v_1_2", "Q_1", 2), ("nv2", "v_1_2", "v_3_3", 2))),
        "independence": (9, 2, (("independence", "P_1", "v_1_1", "v_1_2"),)),
        "structure": (47, 6, (("structure", "v_1_1", "adjacency row mismatch"),
                              ("edges_p", 251, 250), ("edges_q", 151, 150)))}),
    # a deleted star edge leaves v_1_1 and w_1_1 apart in the square; every
    # pair passes, with no w-w edge, while other items fail
    "5 deleted w-v edge": Mutant(5, "edges", [("w_1_1", "v_1_1")], {
        "nw": (410, 3, (("nw0", "w_1_1", NW0), ("nw1", "w_1_1", "P_1", 0),
                        ("nw2", "w_1_1", "T_1", 0))),
        "nv": (400, 1, (("nv1", "v_1_1", "Q_1", 0),)), "independence": (9, 0, ()),
        "pq": (500, 5, (("pq", "v_1_1", "w_1_1"),)),
        "structure": (47, 15, (("structure", "v_1_1", "adjacency row mismatch"),
                               ("edges_p", 246, 250), ("edges_q", 147, 150)))}),
    # w_1_1's edge in P_4 moves along P_4, and w_3_5 gets a second v in P_3:
    # item_witnesses put nw2 first, though w_3_5 fails nw1 too
    "5 nw2 before nw1": Mutant(5, "edges", [("v_3_2", "w_3_5"), ("v_4_1", "w_1_1"),
                                            ("v_4_4", "w_1_1")], {
        "nw": (410, 14, (("nw0", "w_1_1", NW0), ("nw2", "w_1_1", "T_1", 2),
                         ("nw1", "w_3_5", "P_3", 2), ("nw3", "w_1_1", "w_1_3", 1))),
        "nv": (400, 9, (("nv1", "v_3_2", "Q_3", 2), ("nv2", "v_1_5", "v_3_2", 2)))}),
    # -- nw0 at the first and last rows of the family, in their first (P_1)
    # and last (P_11) column: w's star edge in P_k moved one place along P_k
    **{f"11 {where} row of the {where} square, P_{k}": Mutant(11, "edges", [(w, v), (w, moved)], {
        "nw": (8525, 13, (("nw0", w, NW0), ("nw2", w, "T_1", t), pair))})
       for where, k, w, v, moved, t, pair in [
           ("first", 1, "w_1_1", "v_1_1", "v_1_2", 0, ("nw3", "w_1_1", "w_1_2", 1)),
           ("first", 11, "w_1_1", "v_11_11", "v_11_1", 2, ("nw3", "w_1_1", "w_1_2", 1)),
           ("last", 1, "w_10_11", "v_1_11", "v_1_1", 2, ("nw3", "w_1_1", "w_10_11", 2)),
           ("last", 11, "w_10_11", "v_11_1", "v_11_2", 0, ("nw3", "w_1_3", "w_10_11", 2))]},
    "11 w-w edge from a middle row": Mutant(11, "edges", [("w_5_6", "w_9_2")],
                                            {"nw": (8525, 2, (("nw0", "w_5_6", NW0),))}),
    # -- for the block form
    # row 1 of the first square still matches Q_1's star, so only the cycle
    # test sees the swap, and the dense nw0 names both w rows
    **{f"{n} rows 2 and 3 of the first square swapped": Mutant(n, "latin", swapped_rows, {
        "nw": (cases, 2, (("nw0", "w_1_2", NW0),))}) for n, cases in ((3, 57), (7, 1491))},
    # Q_1 from a cyclic square that is not Latin: nw0 and nw1 hold, but each
    # w_1_j meets one column n times
    **{f"{n} the first square of slope 0": Mutant(n, "latin", slope_zero_first, {
        "nw": (cases, n * n, (("nw2", "w_1_1", "T_1", n),))}) for n, cases in ((3, 57), (5, 410))},
    # v_1_1 moves its Q_1 edge from w_1_1 to w_1_2, and a w-w orbit joins Q_1
    # to Q_2: nv1 still holds and the pair counts balance, yet v_1_1 and v_2_3
    # share two w's.  Without its w-w guard the identity would pass nv.
    "3 a w-w orbit and a moved Q_1 edge": Mutant(3, "stars", [
        ("v_1_1", "w_1_1"), ("v_1_1", "w_1_2"), ("w_1_1", "w_2_1")], {
        "nv": (54, 3, (("nv2", "v_1_1", "v_2_3", 2),))}),
    "3 a w-w orbit alone": Mutant(3, "stars", [("w_1_1", "w_2_1")], {"nv": (54, 0, ())},
                                  ("the block form leaves nv unsettled",)),
    # w_1_j takes the v-set of Latin row j + 1: the graph is the same up to
    # renaming Q_1, so every claim but nw0 holds
    "5 Q_1's star one place along its square": Mutant(5, "stars", [
        ("w_1_1", f"v_{k}_{j}") for k in range(1, 6) for j in (k, k % 5 + 1)], {
        **PASSING_N5, "nw": (410, 5, (("nw0", "w_1_1", NW0),))}),
}
MUTANTS.update(
    (f"3 toggle {x}~{y}", Mutant(3, "edges", [(x, y)]))
    for x, y in itertools.combinations(vertex_names(3), 2))


def seeded_toggles(n, count):
    """count sets of 2 and 3 toggled pairs at random.  Every third starts
    with a star edge of one w moved inside its P-row (that w keeps one
    neighbour in each P_k but not in each T_k), and every third with one w
    joined to two w's of two other groups (those two then share a w and a v)."""
    gc = construct_counterexample(n)
    names, rng = vertex_names(n), random.Random(n)
    for m in range(count):
        pairs = set()
        if m % 3 == 0:
            x = rng.choice(gc.q_vertices)
            v = rng.choice(list(bits(gc.graph.adj[x])))
            moved = rng.choice([u for u in range(v - v % n, v - v % n + n) if u != v])
            pairs |= {(v, x), (moved, x)}
        elif m % 3 == 1:
            x, y, z = (rng.choice(qs) for qs in rng.sample(gc.q_sets, 3))
            pairs |= {tuple(sorted((x, y))), tuple(sorted((x, z)))}
        while len(pairs) < 2 + m % 2:
            pairs.add(tuple(sorted(rng.sample(range(gc.graph.n), 2))))
        yield [(names[u], names[v]) for u, v in sorted(pairs)]


def seeded_orbits(n, count):
    """count orbit edits of base_stars(n), in turn one whole edge orbit added,
    one removed, and two edges of a Q star swapped between their P blocks'
    places (which keeps every "exactly one" claim)."""
    rng, names, stars = random.Random(f"orbits-{n}"), vertex_names(n), base_stars(n)
    r, made = len(stars), 0
    while made < count:
        b = rng.randrange(r)
        kind = made % 3
        if kind == 0:  # add an edge to another block
            u = rng.randrange(r * n)
            if u // n == b or u in stars[b]:
                continue
            arcs = [u]
        elif kind == 1:  # remove one of b's star edges
            arcs = [rng.choice(stars[b])]
        else:  # v(k, x), v(k', x') in a Q star become v(k, x'), v(k', x)
            b = rng.randrange(n, r)
            u, v = rng.sample(stars[b], 2)
            arcs = [u, u - u % n + v % n, v, v - v % n + u % n]
        made += 1
        yield [(names[b * n], names[u]) for u in arcs]


for n in (5, 7):
    MUTANTS.update((f"{n} toggles #{m}", Mutant(n, "edges", pairs))
                   for m, pairs in enumerate(seeded_toggles(n, 150)))
for n in (3, 5, 7, 11, 13):
    MUTANTS[f"{n} G itself"] = Mutant(n, "stars", [], facts=("changes no claim",))
    MUTANTS.update((f"{n} orbits #{m}", Mutant(n, "stars", pairs))
                   for m, pairs in enumerate(seeded_orbits(n, 24)))

SQUARE_CLAIMS = ("independence", "pq", "structure")


def check_row(row, monkeypatch, capsys):
    n = row.n
    if row.kind == "edges":
        gc = edges_edit(n, row.edit)
    else:
        pairs = row.edit
        if row.kind == "latin":
            pairs = latin_edit(n, row.edit)
            monkeypatch.setattr(latin, "build_latin", row.edit)
            monkeypatch.setattr(verification, "build_latin", row.edit)
        stars = stars_edit(n, pairs)
        monkeypatch.setattr(construction, "base_stars", lambda m: stars)
        gc = construct_counterexample(n)
    # the dense checks find each vertex's failing partners with one tally;
    # the walk takes every pair by itself
    dense = run_all_checks(gc)
    squares = [row.edit(n, i) for i in range(1, n)] if row.kind == "latin" else None
    assert {lemma: shape(dense[lemma]) for lemma in ("nw", "nv")} == \
        neighbourhood_reports_by_walk(gc, squares)
    assert {lemma: shape(dense[lemma]) for lemma in row.pins} == row.pins
    passed = all(r.passed for r in dense.values())
    assert not passed or "changes no claim" in row.facts
    settled = {}
    if row.kind != "edges":
        # the block form settles a claim only where it passes, and names
        # every failure as the dense checks do; the row test alone settles
        # the square claims, all three together
        stars = checked_stars(n)
        rows = square_by_blocks(stars, n)

        def unread(*args):
            raise AssertionError("ran a fact no requested claim needs")

        def settle(lemma):
            try:
                return check_by_blocks(n, stars, rows, (lemma,))[lemma]
            except FellBack:
                return None
        with monkeypatch.context() as mp:
            no_dense_graph(mp)
            settled = {lemma: settle(lemma) for lemma in ("nw", "nv")}
            mp.setattr(verification, "_latin_rows_match", unread)
            mp.setattr(verification, "_pairs_by_blocks", unread)
            settled |= {lemma: settle(lemma) for lemma in SQUARE_CLAIMS}
        for lemma, report in settled.items():
            assert report is None or (dense[lemma].passed and report == dense[lemma]), lemma
        assert {settled[lemma] is not None for lemma in SQUARE_CLAIMS} == \
            {dense["structure"].passed}
        assert check_by_blocks(n, stars, rows, LEMMAS) == dense
        assert cli.main(["verify", "--n", str(n)]) == (0 if passed else 1)
        assert capsys.readouterr().out == serialize.json_dumps({
            "n": n, "lemma": "all", "all_passed": passed,
            "reports": {name: serialize.report_to_json_dict(r) for name, r in dense.items()},
            "structure_parts": {"count": 2 * n - 1, "sizes": [n] * (2 * n - 1)}})
        assert cli.main(["certify", "--n", str(n)]) == (0 if dense["structure"].passed else 5)
        capsys.readouterr()
    for fact in row.facts:
        assert FACTS[fact](gc, dense, settled), fact


@pytest.mark.parametrize("row", MUTANTS.values(), ids=MUTANTS)
def test_mutant(row, monkeypatch, capsys):
    check_row(row, monkeypatch, capsys)


@st.composite
def orbit_rows(draw):
    """1 to 3 distinct edge orbits of base_stars(n) toggled, for n in 3..11:
    each a star arc b*n -> u out of block b, keyed by its orbit."""
    n = draw(st.sampled_from([3, 5, 7, 11]))
    r = 2 * n - 1
    arcs = st.tuples(st.integers(0, r - 1), st.integers(0, r * n - 1)).filter(
        lambda arc: arc[1] // n != arc[0])
    chosen = draw(st.lists(arcs, min_size=1, max_size=3, unique_by=lambda arc: min(
        arc, (arc[1] // n, arc[0] * n + -arc[1] % n))))
    names = vertex_names(n)
    return Mutant(n, "stars", [(names[b * n], names[u]) for b, u in chosen])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(row=orbit_rows())
def test_orbit_mutants_from_hypothesis(row, monkeypatch, capsys):
    with monkeypatch.context() as mp:
        check_row(row, mp, capsys)
