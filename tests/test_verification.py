import itertools
import random
from math import comb

import pytest

from oracles import neighbourhood_reports_by_walk
from squaregap.construction import construct_counterexample
from squaregap import verification
from squaregap.graphcore import SimpleGraph, bits, mask_of, square
from squaregap.latin import build_latin
from squaregap.verification import (
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


@pytest.mark.parametrize("n", [3, 5, 7])
def test_the_square_settles_the_pair_items_without_a_walk(n, monkeypatch):
    def walk(*args):
        raise AssertionError("the pair walk ran although every pair passes")

    identities = []
    settle = verification._no_two_w_share_two

    def counted(*args):
        identities.append(settle(*args))
        return identities[-1]

    monkeypatch.setattr(verification, "_share_at_most_one", walk)
    monkeypatch.setattr(verification, "_no_two_w_share_two", counted)
    reports = run_all_checks(construct_counterexample(n))
    assert reports["nw"].passed and reports["nv"].passed
    assert identities == [True, True]  # each pair lemma reads the count itself


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
    for u in range(15):
        for v in range(u + 1, 15):
            reports = run_all_checks(toggled(gc, u, v))
            assert not all(r.passed for r in reports.values()), \
                f"undetected mutation {gc.labels[u]} ~ {gc.labels[v]}"


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
        # a w-neighbour of a w: the counting identity cannot apply
        "w-w edge": any(adj[x] & q_mask for x in mutant.q_vertices),
        # two w's of one Q-group meet in the square: nw3 fails, nv2 may not
        "shared within a group": any(adj[x] & adj[y] for qs in mutant.q_sets
                                     for x, y in itertools.combinations(qs, 2)),
        # item_witnesses put nw2 first although nw1 fails too
        "nw2 before nw1": "nw1" in items and "nw2" in items
                          and items.index("nw2") < items.index("nw1"),
        # every pair passes, so the square settles both pair items, yet
        # another item fails
        "settled by the square": not any(adj[x] & q_mask for x in mutant.q_vertices)
                                 and want["nw"][1] + want["nv"][1] > 0
                                 and all(w[0] not in ("nw3", "nv2")
                                         for w in want["nw"][3] + want["nv"][3]),
    }


def test_pair_lemmas_match_the_pair_walk_on_every_single_edge_toggle():
    # failures, their count and their witnesses come from the square and
    # the walk that names failing pairs; the oracle walks every pair by itself
    gc = construct_counterexample(3)
    failing = 0
    reached = dict.fromkeys(["w-w edge", "shared within a group", "settled by the square"], 0)
    for u, v in itertools.combinations(range(gc.graph.n), 2):
        mutant = toggled(gc, u, v)
        want = neighbourhood_reports_by_walk(mutant)
        for (name, caller), got in pair_lemma_reports(mutant).items():
            assert got == want[name], (gc.labels[u], gc.labels[v], name, caller)
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
                             "settled by the square"], 0)
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
    # while no two w's share two neighbours: the counting identity holds
    # and only the same-group test stops the square from settling nw3
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
    # the bitset identities count every pair they settle, like the pair loops
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
# captured from the plain pair loops that the bitset identities now skip
# whenever every pair passes
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


# nw0 writes each w row as a string, last column first: these mutants touch
# the first and last rows of the family, at the end (P_1) and the start (P_11)
# of the row's string, and a w-w edge lengthens a middle row's string
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
