import itertools
import random
from math import comb

import pytest

from oracles import neighbourhood_reports_by_walk
from squaregap.construction import base_stars, construct_counterexample, vertex_names
from squaregap.errors import clip
from squaregap import cli, coloring, construction, latin, serialize, verification
from squaregap.graphcore import SimpleGraph, bits, mask_of, square, square_by_blocks
from squaregap.latin import build_latin
from squaregap.verification import (
    LEMMAS,
    check_by_blocks,
    checked_stars,
    check_independence,
    check_lemma_nv,
    check_lemma_nw,
    check_pq_adjacency,
    check_square_structure,
    run_all_checks,
)


def toggled(gc, u, v):
    """gc with the single edge {u, v} added if absent, removed if present."""
    edges = set(gc.graph.edges())
    edges.symmetric_difference_update({(min(u, v), max(u, v))})
    return gc._replace(graph=SimpleGraph.from_edges(gc.graph.n, sorted(edges)))


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


def test_deleted_star_edge_is_caught_by_nw():
    gc = construct_counterexample(3)
    w = gc.w_index(1, 1)
    v = next(bits(gc.graph.adj[w]))
    mutant = toggled(gc, w, v)
    report = check_lemma_nw(square(mutant.graph), mutant)
    assert not report.passed
    assert report.witness is not None
    assert report.failure_count > 0


def test_spurious_star_edge_is_caught_by_nv():
    gc = construct_counterexample(3)
    # w_1_1 is not adjacent to v_1_2 (index 1); adding that edge gives
    # v_1_2 two neighbors in Q_1
    w, v = gc.w_index(1, 1), gc.v_index(1, 2)
    assert not gc.graph.adj[w] >> v & 1
    mutant = toggled(gc, w, v)
    assert not check_lemma_nv(square(mutant.graph), mutant).passed


def test_w_w_edge_is_caught_by_neighborhood_equation():
    # adding an edge between w-vertices in different groups leaves the
    # square untouched; only the exact-neighborhood item notices
    gc = construct_counterexample(3)
    mutated = toggled(gc, gc.w_index(1, 1), gc.w_index(2, 2))
    report = check_lemma_nw(square(mutated.graph), mutated)
    assert not report.passed
    assert report.witness[0] == "nw0"
    assert square(mutated.graph) == square(gc.graph)


def test_complete_square_fails_independence():
    gc = construct_counterexample(3)
    n = gc.graph.n
    all_edges = list(itertools.combinations(range(n), 2))
    complete = SimpleGraph.from_edges(n, all_edges)
    report = check_independence(complete, gc)
    assert not report.passed


def test_reports_collect_all_failures():
    gc = construct_counterexample(3)
    w = gc.w_index(1, 1)
    neighbors = list(bits(gc.graph.adj[w]))
    mutated = gc
    for v in neighbors:  # isolate w_1_1 entirely
        mutated = toggled(mutated, w, v)
    report = check_lemma_nw(square(mutated.graph), mutated)
    assert not report.passed
    assert report.failure_count >= 3  # every row count broken, at least
    assert len(report.item_witnesses) >= 2  # nw0 and nw1 both report


def test_every_single_edge_mutation_is_caught():
    # all C(15,2) toggles at n=3; each must break at least one check
    gc = construct_counterexample(3)
    names = vertex_names(3)
    for u in range(15):
        for v in range(u + 1, 15):
            reports = run_all_checks(toggled(gc, u, v))
            assert not all(r.passed for r in reports.values()), \
                f"undetected mutation {names[u]} ~ {names[v]}"


def pair_lemma_reports(mutant):
    """{(lemma, caller): (checked_cases, failure_count, witness, item_witnesses)}
    for nw and nv, from run_all_checks (as verify --lemma all) and alone."""
    everything = run_all_checks(mutant)
    sq = square(mutant.graph)
    out = {}
    for name, check in (("nw", check_lemma_nw), ("nv", check_lemma_nv)):
        for caller, r in (("all", everything[name]), ("alone", check(sq, mutant))):
            out[name, caller] = (r.checked_cases, r.failure_count, r.witness, r.item_witnesses)
    return out


def shapes(mutant, want):
    """The routes a mutant sends the pair checks down, named as in the tests below."""
    adj = mutant.graph.adj
    q_mask = sum(1 << x for x in mutant.q_vertices)
    items = [w[0] for w in want["nw"][3]]
    return {
        # a w-neighbour of a w: two w's may share a w
        "w-w edge": any(adj[x] & q_mask for x in mutant.q_vertices),
        # two w's of one Q-group meet in the square: nw3 fails, nv2 may not
        "shared within a group": any(adj[x] & adj[y] for qs in mutant.q_sets
                                     for x, y in itertools.combinations(qs, 2)),
        # item_witnesses put nw2 first although nw1 fails too
        "nw2 before nw1": "nw1" in items and "nw2" in items
                          and items.index("nw2") < items.index("nw1"),
        # every pair passes, with no w-w edge, yet another item fails
        "only the pairs pass": not any(adj[x] & q_mask for x in mutant.q_vertices)
                               and want["nw"][1] + want["nv"][1] > 0
                               and all(w[0] not in ("nw3", "nv2")
                                       for w in want["nw"][3] + want["nv"][3]),
    }


def test_pair_lemmas_match_the_pair_walk_on_every_single_edge_toggle():
    # the dense checks find each vertex's failing partners with one tally;
    # the oracle walks every pair by itself
    gc = construct_counterexample(3)
    names = vertex_names(3)
    failing = 0
    reached = dict.fromkeys(["w-w edge", "shared within a group", "only the pairs pass"], 0)
    for u, v in itertools.combinations(range(gc.graph.n), 2):
        mutant = toggled(gc, u, v)
        want = neighbourhood_reports_by_walk(mutant)
        for (name, caller), got in pair_lemma_reports(mutant).items():
            assert got == want[name], (names[u], names[v], name, caller)
            failing += got[1] > 0
        for shape, hit in shapes(mutant, want).items():
            if shape in reached:
                reached[shape] += hit
    assert failing > 200  # most toggles break nw or nv, so the failure path is exercised
    assert all(reached.values()), reached


@pytest.mark.parametrize("n", [5, 7])
def test_pair_lemmas_match_the_pair_walk_on_seeded_multi_edge_toggles(n):
    # 2 and 3 toggled pairs at random; every third mutant starts with a star
    # edge of one w moved inside its P-row (that w keeps one neighbour in each
    # P_k but not in each T_k), and every third with one w joined to two w's
    # of two other groups (those two then share a w and a v)
    gc = construct_counterexample(n)
    rng = random.Random(n)
    reached = dict.fromkeys(["w-w edge", "shared within a group", "nw2 before nw1",
                             "only the pairs pass"], 0)
    for m in range(150):
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
            u, v = sorted(rng.sample(range(gc.graph.n), 2))
            pairs.add((u, v))
        edges = set(gc.graph.edges()) ^ pairs
        mutant = gc._replace(graph=SimpleGraph.from_edges(gc.graph.n, sorted(edges)))
        want = neighbourhood_reports_by_walk(mutant)
        for (name, caller), got in pair_lemma_reports(mutant).items():
            assert got == want[name], (sorted(pairs), name, caller)
        for shape, hit in shapes(mutant, want).items():
            reached[shape] += hit
    assert all(reached.values()), reached


def test_a_shared_neighbour_within_a_group_fails_nw3_when_no_pair_shares_two():
    # w_1_1 gives up v_1_1 for v_2_3; at n = 3 the one group-2 neighbour of
    # both is w_2_1, so w_1_1 now shares v_2_3 with w_1_2 in its own group
    # while no two w's share two neighbours: only the same-group test
    # fails nw3
    gc = construct_counterexample(3)
    x, v, moved = gc.w_index(1, 1), gc.v_index(1, 1), gc.v_index(2, 3)
    mutant = edited(gc, add=[(x, moved)], remove=[(x, v)])
    adj = mutant.graph.adj
    assert all((adj[a] & adj[b]).bit_count() <= 1
               for a, b in itertools.combinations(mutant.q_vertices, 2))
    want = neighbourhood_reports_by_walk(mutant)
    for (name, caller), got in pair_lemma_reports(mutant).items():
        assert got == want[name], (name, caller)
    assert ("nw3", "w_1_1", "w_1_2", 1) in want["nw"][3]


def test_nv2_counts_only_shared_w_neighbours():
    # v_1_1 and v_2_1 lie in one column clique, so they share v-neighbours too;
    # joining v_2_1 to two w-neighbours of v_1_1 makes them share two w's
    gc = construct_counterexample(3)
    x, y = gc.v_index(1, 1), gc.v_index(2, 1)
    ws = [w for w in bits(gc.graph.adj[x]) if w in gc.q_vertices][:2]
    mutant = edited(gc, add=[(w, y) for w in ws])
    r = check_lemma_nv(square(mutant.graph), mutant)
    assert (r.checked_cases, r.failure_count, r.witness, r.item_witnesses) == \
        neighbourhood_reports_by_walk(mutant)["nv"]
    assert ("nv2", "v_1_1", "v_2_1", 2) in r.item_witnesses


@pytest.mark.parametrize("n", [3, 5, 7])
def test_case_counts_follow_closed_forms(n):
    # the dense checks count every case they walk
    w, v = n * (n - 1), n * n
    want = {"nw": w + 2 * w * n + comb(w, 2), "nv": v * (n - 1) + comb(v, 2), "pq": v * w}
    reports = run_all_checks(construct_counterexample(n))
    assert {name: reports[name].checked_cases for name in want} == want


def edited(gc, add=(), remove=()):
    edges = set(gc.graph.edges())
    edges |= {(min(u, v), max(u, v)) for u, v in add}
    edges -= {(min(u, v), max(u, v)) for u, v in remove}
    return gc._replace(graph=SimpleGraph.from_edges(gc.graph.n, sorted(edges)))


# (checked_cases, failure_count, item_witnesses) of every report at n = 5,
# as the plain pair loops gave them
NO_FAILURES = {"nv": (400, 0, ()), "pq": (500, 0, ()), "independence": (9, 0, ())}
MUTANTS_N5 = {
    # one w-w edge: only the neighbourhood equations see it
    "w-w edge": (
        lambda gc: edited(gc, add=[(gc.w_index(1, 1), gc.w_index(2, 3))]),
        {**NO_FAILURES,
         "nw": (410, 2, (("nw0", "w_1_1", "neighborhood differs from Latin row"),)),
         "structure": (47, 0, ())}),
    # w_1_1 and w_1_2 (same group) both joined to w_3_4 now share a neighbour
    "w-w edges to a common w": (
        lambda gc: edited(gc, add=[(gc.w_index(1, 1), gc.w_index(3, 4)),
                                   (gc.w_index(1, 2), gc.w_index(3, 4))]),
        {**NO_FAILURES,
         "nw": (410, 4, (("nw0", "w_1_1", "neighborhood differs from Latin row"),
                         ("nw3", "w_1_1", "w_1_2", 1))),
         "independence": (9, 1, (("independence", "Q_1", "w_1_1", "w_1_2"),)),
         "structure": (47, 3, (("structure", "w_1_1", "adjacency row mismatch"),
                               ("edges_q", 151, 150)))}),
    # one v-v edge: the square's structure and independence see it
    "v-v edge": (
        lambda gc: edited(gc, add=[(gc.v_index(1, 1), gc.v_index(2, 2))]),
        {**NO_FAILURES,
         "nw": (410, 0, ()),
         "independence": (9, 2, (("independence", "P_1", "v_1_1", "v_1_2"),)),
         "structure": (47, 5, (("structure", "v_1_1", "adjacency row mismatch"),
                               ("edges_p", 252, 250)))}),
    # w_1_1 joined to v_1_2, a neighbour of w_1_2: a shared neighbour on
    # the w side and a second shared w-neighbour on the v side
    "w-v edge": (
        lambda gc: edited(gc, add=[(gc.w_index(1, 1), gc.v_index(1, 2))]),
        {"nw": (410, 7, (("nw0", "w_1_1", "neighborhood differs from Latin row"),
                         ("nw1", "w_1_1", "P_1", 2), ("nw2", "w_1_1", "T_2", 2),
                         ("nw3", "w_1_1", "w_1_2", 1))),
         "nv": (400, 4, (("nv1", "v_1_2", "Q_1", 2), ("nv2", "v_1_2", "v_3_3", 2))),
         "independence": (9, 2, (("independence", "P_1", "v_1_1", "v_1_2"),)),
         "pq": (500, 0, ()),
         "structure": (47, 6, (("structure", "v_1_1", "adjacency row mismatch"),
                               ("edges_p", 251, 250), ("edges_q", 151, 150)))}),
    # a deleted star edge leaves v_1_1 and w_1_1 apart in the square
    "deleted w-v edge": (
        lambda gc: edited(gc, remove=[(gc.w_index(1, 1), gc.v_index(1, 1))]),
        {"nw": (410, 3, (("nw0", "w_1_1", "neighborhood differs from Latin row"),
                         ("nw1", "w_1_1", "P_1", 0), ("nw2", "w_1_1", "T_1", 0))),
         "nv": (400, 1, (("nv1", "v_1_1", "Q_1", 0),)),
         "independence": (9, 0, ()),
         "pq": (500, 5, (("pq", "v_1_1", "w_1_1"),)),
         "structure": (47, 15, (("structure", "v_1_1", "adjacency row mismatch"),
                                ("edges_p", 246, 250), ("edges_q", 147, 150)))}),
}


@pytest.mark.parametrize("name", MUTANTS_N5)
def test_mutant_reports_match_the_pair_loops(name):
    mutate, want = MUTANTS_N5[name]
    reports = run_all_checks(mutate(construct_counterexample(5)))
    got = {k: (r.checked_cases, r.failure_count, r.item_witnesses) for k, r in reports.items()}
    assert got == want


def moved_star_edge(gc, i, j, k):
    """gc with the edge from w_{i,j} to its neighbour in P_k moved to the next v of P_k."""
    w, part = gc.w_index(i, j), gc.p_sets[k - 1]
    v = next(bits(gc.graph.adj[w] & mask_of(part)))
    return edited(gc, add=[(w, part[(part.index(v) + 1) % gc.n])], remove=[(w, v)])


# mutants at the first and last rows of the family, in their first (P_1)
# and last (P_11) column, and a w-w edge from a middle row
BOUNDARY_MUTANTS_N11 = {
    "first row of the first square, P_1": (lambda gc: moved_star_edge(gc, 1, 1, 1), "w_1_1"),
    "first row of the first square, P_11": (lambda gc: moved_star_edge(gc, 1, 1, 11), "w_1_1"),
    "last row of the last square, P_1": (lambda gc: moved_star_edge(gc, 10, 11, 1), "w_10_11"),
    "last row of the last square, P_11": (lambda gc: moved_star_edge(gc, 10, 11, 11), "w_10_11"),
    "w-w edge from a middle row": (
        lambda gc: edited(gc, add=[(gc.w_index(5, 6), gc.w_index(9, 2))]), "w_5_6"),
}


@pytest.mark.parametrize("name", BOUNDARY_MUTANTS_N11)
def test_nw_matches_the_walk_at_the_square_boundaries(name):
    mutate, row = BOUNDARY_MUTANTS_N11[name]
    mutant = mutate(construct_counterexample(11))
    r = check_lemma_nw(square(mutant.graph), mutant)
    assert (r.checked_cases, r.failure_count, r.witness, r.item_witnesses) == \
        neighbourhood_reports_by_walk(mutant)["nw"]
    assert r.witness == ("nw0", row, "neighborhood differs from Latin row")


# -- block form ---------------------------------------------------------------

PRIMES_TO_61 = [p for p in range(3, 62) if all(p % d for d in range(2, p))]


class FellBack(AssertionError):
    pass


def no_dense_graph(monkeypatch):
    def refuse(n):
        raise FellBack("fell back to the dense checks")
    monkeypatch.setattr(construction, "construct_counterexample", refuse)


def block_verdict(n, stars, rows, lemma):
    """check_by_blocks' report on lemma alone when the block form settles it,
    else None (it would fall back to the dense checks)."""
    with pytest.MonkeyPatch.context() as mp:
        no_dense_graph(mp)
        try:
            return check_by_blocks(n, stars, rows, (lemma,))[lemma]
        except FellBack:
            return None


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


def patched_stars(monkeypatch, stars):
    monkeypatch.setattr(construction, "base_stars", lambda m: stars)


def orbit_toggled(stars, n, b, u):
    """stars with the arc b*n -> u and its reverse both added, or both removed."""
    out = [set(star) for star in stars]
    reverse = b * n + -u % n
    out[b] ^= {u}
    out[u // n] ^= {reverse}
    return [sorted(star) for star in out]


def seeded_orbit_mutants(n, count):
    """count star sets from base_stars(n), in turn with one whole edge orbit
    added, one removed, and two edges of a Q star swapped between their P
    blocks' places (which keeps every "exactly one" claim)."""
    rng = random.Random(f"orbits-{n}")
    stars = base_stars(n)
    r = len(stars)
    out = []
    while len(out) < count:
        b = rng.randrange(r)
        kind = len(out) % 3
        if kind == 0:  # add an edge to another block
            u = rng.randrange(r * n)
            if u // n == b or u in stars[b]:
                continue
            out.append(orbit_toggled(stars, n, b, u))
        elif kind == 1:  # remove one of b's star edges
            out.append(orbit_toggled(stars, n, b, rng.choice(stars[b])))
        else:  # v(k, x), v(k', x') in a Q star become v(k, x'), v(k', x)
            b = rng.randrange(n, r)
            u, v = rng.sample(stars[b], 2)
            swapped = stars
            for old, new in ((u, u - u % n + v % n), (v, v - v % n + u % n)):
                swapped = orbit_toggled(orbit_toggled(swapped, n, b, old), n, b, new)
            out.append(swapped)
    return out


def verify_payload(n, reports):
    """verify --lemma all's stdout for these reports."""
    doc = {"n": n, "lemma": "all", "all_passed": all(r.passed for r in reports.values()),
           "reports": {name: serialize.report_to_json_dict(r) for name, r in reports.items()},
           "structure_parts": {"count": 2 * n - 1, "sizes": [n] * (2 * n - 1)}}
    return serialize.json_dumps(doc)


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
def test_orbit_mutants_fail_in_block_form_as_the_dense_checks_do(n, monkeypatch, capsys):
    # each lemma the dense checks fail on a mutant fails in block form too, and
    # then verify's payload is the dense checks' payload.  A block check may
    # fail where the dense one passes (a w-w edge leaves the counting identity
    # unsettled for nv), but never the other way round.  Removing a T-clique
    # orbit alone changes no claim, in either form.  The dense pair lemmas
    # match the walk over every pair, on the graph and on each mutant.
    caught = 0
    for mutant in [base_stars(n), *seeded_orbit_mutants(n, 24)]:
        patched_stars(monkeypatch, mutant)
        gc = construct_counterexample(n)
        want = neighbourhood_reports_by_walk(gc)
        for (name, caller), got in pair_lemma_reports(gc).items():
            assert got == want[name], (name, caller)
        dense = run_all_checks(gc)
        stars = checked_stars(n)
        rows = square_by_blocks(stars, n)
        for lemma, report in dense.items():
            settled = block_verdict(n, stars, rows, lemma)
            assert settled is None or (report.passed and settled == report), lemma
        failed = not all(r.passed for r in dense.values())
        caught += failed
        assert cli.main(["verify", "--n", str(n)]) == (1 if failed else 0)
        assert capsys.readouterr().out == verify_payload(n, dense)
    assert caught >= 16


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
def test_the_row_test_settles_independence_pq_and_structure_together(n, monkeypatch):
    # one fact, every block row of G^2 everything outside its block, settles
    # the three square claims: on each mutant they settle or fall back
    # together, with neither the counting identity nor nw0 run, and neither
    # runs in certify_gap, which asks for structure alone
    def unread(*args):
        raise AssertionError("ran a fact no requested claim needs")
    monkeypatch.setattr(verification, "_latin_rows_match", unread)
    monkeypatch.setattr(verification, "_pairs_by_blocks", unread)
    outcomes = set()
    for mutant in [base_stars(n), *seeded_orbit_mutants(n, 24)]:
        patched_stars(monkeypatch, mutant)
        stars = checked_stars(n)
        rows = square_by_blocks(stars, n)
        settled = {block_verdict(n, stars, rows, lemma) is not None
                   for lemma in ("independence", "pq", "structure")}
        assert len(settled) == 1
        outcomes |= settled
    assert outcomes == {True, False}
    monkeypatch.setattr(construction, "base_stars", base_stars)
    assert coloring.certify_gap(n).gap_lower == n - 1


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
    patched_stars(monkeypatch, stars)
    code = cli.main([command, "--n", "5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 5
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (f"squaregap {command}: internal error: "
                                            f"RuntimeError: {clip('base star arc ' + arc)}")


@pytest.mark.parametrize("n", [3, 7])
def test_a_latin_square_out_of_cycle_fails_nw0_in_block_form(n, monkeypatch):
    # rows 1 and 2 of the first square swapped: row 0 still matches Q_1's star,
    # so only the cycle test sees it, and the dense nw0 names both w rows
    real = latin.build_latin

    def swapped(m, i):
        rows = list(real(m, i))
        if i == 1:
            rows[1], rows[2] = rows[2], rows[1]
        return tuple(rows)
    monkeypatch.setattr(latin, "build_latin", swapped)
    monkeypatch.setattr(verification, "build_latin", swapped)
    stars = checked_stars(n)
    rows = square_by_blocks(stars, n)
    assert block_verdict(n, stars, rows, "nw") is None
    report = check_by_blocks(n, stars, rows, ("nw",))["nw"]
    assert report == run_all_checks(construct_counterexample(n))["nw"]
    assert report.failure_count == 2
    assert report.witness == ("nw0", "w_1_2", "neighborhood differs from Latin row")


def test_a_w_w_edge_keeps_the_counting_identity_from_settling_nv_in_block_form(monkeypatch):
    # v_1_1 moves its Q_1 edge from w_1_1 to w_1_2, and a w-w orbit joins Q_1
    # to Q_2: nv1 still holds and the pair counts balance, yet v_1_1 and
    # v_2_3 share two w's.  Without its w-w guard the identity would pass nv.
    n = 3
    stars = base_stars(n)
    for b, u in ((0, 9), (0, 10), (3, 12)):
        stars = orbit_toggled(stars, n, b, u)
    patched_stars(monkeypatch, stars)
    dense = run_all_checks(construct_counterexample(n))
    assert dense["nv"].witness == ("nv2", "v_1_1", "v_2_3", 2)
    stars = checked_stars(n)
    rows = square_by_blocks(stars, n)
    assert block_verdict(n, stars, rows, "nv") is None
    assert check_by_blocks(n, stars, rows, LEMMAS) == dense


@pytest.mark.parametrize("n", [3, 5])
def test_a_consistent_non_latin_family_fails_nw2_in_block_form(n, monkeypatch):
    # Q_1 built from the cyclic, non-Latin square of slope 0, and its stars to
    # match: nw0 and nw1 hold, but each w_1_j meets one column n times
    real = latin.build_latin

    def slope_zero_first(m, i):
        return tuple((j + 1,) * m for j in range(m)) if i == 1 else real(m, i)
    monkeypatch.setattr(latin, "build_latin", slope_zero_first)
    monkeypatch.setattr(verification, "build_latin", slope_zero_first)
    stars = base_stars(n)
    nn = n * n
    for k in range(n):  # v(k, c) takes w(1, c) in Q_1
        stars[k] = sorted({u for u in stars[k] if not nn <= u < nn + n} | {nn})
    stars[n] = [k * n for k in range(n)]
    patched_stars(monkeypatch, stars)
    dense = run_all_checks(construct_counterexample(n))
    assert [w[0] for w in dense["nw"].item_witnesses] == ["nw2"]
    stars = checked_stars(n)
    rows = square_by_blocks(stars, n)
    assert block_verdict(n, stars, rows, "nw") is None
    assert check_by_blocks(n, stars, rows, LEMMAS) == dense


def test_a_q_star_one_place_along_its_square_fails_only_nw0_in_block_form(monkeypatch):
    # w_1_j takes the v-set of Latin row j + 1: the graph is the same up to
    # renaming Q_1, so every claim but nw0 holds, in either form
    n = 5
    stars = base_stars(n)
    for u in list(stars[n]):
        stars = orbit_toggled(orbit_toggled(stars, n, n, u), n, n, u - u % n + (u + 1) % n)
    patched_stars(monkeypatch, stars)
    dense = run_all_checks(construct_counterexample(n))
    assert [r.passed for r in dense.values()] == [False, True, True, True, True]
    assert (dense["nw"].failure_count, dense["nw"].witness[0]) == (n, "nw0")
    stars = checked_stars(n)
    rows = square_by_blocks(stars, n)
    assert block_verdict(n, stars, rows, "nw") is None
    assert check_by_blocks(n, stars, rows, LEMMAS) == dense
