"""Acceptance gate: the nine capabilities the package must deliver.

Each test prints one PASS line with the measured quantities; pytest -v
adds its own per-criterion verdict line.  Tolerances are exact integer
equalities throughout except for the stated wall-clock budgets.
"""

import itertools
import json
import random
import time

from oracles import (
    bfs_square,
    complete_multipartite,
    enumerate_list_colorable,
    induced_subgraph,
    is_proper_coloring,
    random_graph,
    square_oracle,
    subdivision,
    total_graph,
)
from squaregap.cli import main as cli_main
from squaregap.coloring import (
    ListAssignment,
    certify_gap,
    is_list_colorable,
    multipartite_list_colorable,
)
from squaregap.construction import construct_counterexample, vertex_names
from squaregap.graphcore import SimpleGraph, square
from squaregap.latin import are_orthogonal, build_latin, build_mols_family, is_latin
from squaregap.verification import run_all_checks

PUBLISHED_ORDER3 = {
    1: [[1, 2, 3], [2, 3, 1], [3, 1, 2]],
    2: [[1, 3, 2], [2, 1, 3], [3, 2, 1]],
}
PUBLISHED_ORDER5 = {
    1: [[1, 2, 3, 4, 5], [2, 3, 4, 5, 1], [3, 4, 5, 1, 2], [4, 5, 1, 2, 3], [5, 1, 2, 3, 4]],
    2: [[1, 3, 5, 2, 4], [2, 4, 1, 3, 5], [3, 5, 2, 4, 1], [4, 1, 3, 5, 2], [5, 2, 4, 1, 3]],
    3: [[1, 4, 2, 5, 3], [2, 5, 3, 1, 4], [3, 1, 4, 2, 5], [4, 2, 5, 3, 1], [5, 3, 1, 4, 2]],
    4: [[1, 5, 4, 3, 2], [2, 1, 5, 4, 3], [3, 2, 1, 5, 4], [4, 3, 2, 1, 5], [5, 4, 3, 2, 1]],
}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1_square_structure_desk_scale(capsys):
    budgets = {3: 1.0, 5: 10.0, 7: 10.0}
    for n, budget in budgets.items():
        started = time.perf_counter()
        code, out = run_cli(capsys, "verify", "--n", str(n), "--lemma", "all")
        elapsed = time.perf_counter() - started
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["structure_parts"] == {"count": 2 * n - 1, "sizes": [n] * (2 * n - 1)}
        assert elapsed < budget, f"n={n} took {elapsed:.1f}s"
    print("PASS criterion 1: verify --lemma all clean for n in {3,5,7}, "
          "square is complete multipartite with part size n")


def test_criterion_2_edge_count_identities():
    for n in (3, 5, 7):
        gc = construct_counterexample(n)
        sq = square(gc.graph)
        p_side, _ = induced_subgraph(sq, gc.p_vertices)
        q_side, _ = induced_subgraph(sq, gc.q_vertices)
        assert p_side.edge_count == n ** 3 * (n - 1) // 2
        assert q_side.edge_count == n ** 2 * (n - 1) * (n - 2) // 2
    print("PASS criterion 2: induced square edge counts match "
          "n^3(n-1)/2 and n^2(n-1)(n-2)/2 exactly for n in {3,5,7}")


def test_criterion_3_gap_certificate_n3(capsys):
    started = time.perf_counter()
    code, out = run_cli(capsys, "certify", "--n", "3")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 10.0
    doc = json.loads(out)
    assert doc["chromatic"] == 5
    assert doc["not_choosable"] == 6
    assert doc["gap_lower"] >= 2
    assert doc["refutation"]["complete"] is True
    assert all(len(colors) == 6 for colors in doc["refuted_lists"]["lists"].values())
    cert = certify_gap(3)
    sq = square(construct_counterexample(3).graph)
    assert is_proper_coloring(sq, list(cert.chromatic_coloring))
    print(f"PASS criterion 3: n=3 certificate chromatic=5, size-6 lists refuted "
          f"by complete exhaustion, gap >= 2, in {elapsed:.2f}s")


def test_criterion_4_gap_certificate_n5(capsys):
    started = time.perf_counter()
    code, out = run_cli(capsys, "certify", "--n", "5", "--budget-seconds", "300")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 300.0
    doc = json.loads(out)
    assert doc["chromatic"] == 9
    assert doc["not_choosable"] == 12
    assert doc["gap_lower"] >= 4
    assert doc["refutation"]["complete"] is True
    print(f"PASS criterion 4: n=5 certificate chromatic=9, size-12 lists refuted "
          f"on the 9-part square, gap >= 4, in {elapsed:.2f}s")


def test_criterion_5_mols_correctness():
    for n in (3, 5, 7, 11, 13):
        family = build_mols_family(n)
        assert len(family) == n - 1
        for sq in family:
            assert is_latin(sq)
        for a, b in itertools.combinations(family, 2):
            assert are_orthogonal(a, b)
    for slope, expected in PUBLISHED_ORDER3.items():
        assert build_latin(3, slope) == tuple(map(tuple, expected))
    for slope, expected in PUBLISHED_ORDER5.items():
        assert build_latin(5, slope) == tuple(map(tuple, expected))
    print("PASS criterion 5: families Latin and pairwise orthogonal for "
          "primes up to 13; orders 3 and 5 match the published squares cell-for-cell")


def test_criterion_6_square_oracle_equivalence():
    rng = random.Random(60606)
    trials = 200
    for _ in range(trials):
        g = random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.15, 0.35, 0.7]))
        fast = square(g)
        assert fast == square_oracle(g)
        assert fast == bfs_square(g)
    print(f"PASS criterion 6: bitset square identical to matrix oracle "
          f"and BFS oracle on {trials} seeded random graphs up to 40 vertices")


def test_criterion_7_list_coloring_oracle_equivalence():
    rng = random.Random(70707)
    trials = 500
    for _ in range(trials):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        universe = tuple(range(rng.randint(2, 6)))
        lists = {v: frozenset(rng.sample(universe, rng.randint(1, min(3, len(universe)))))
                 for v in range(n)}
        a = ListAssignment(universe=universe, lists=lists)
        assert is_list_colorable(g, a).satisfiable == enumerate_list_colorable(g, lists)

    g33, w33 = complete_multipartite([3, 3, 3])
    for _ in range(trials):
        universe = tuple(range(rng.randint(2, 7)))
        lists = {v: frozenset(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
                 for v in range(9)}
        a = ListAssignment(universe=universe, lists=lists)
        assert (multipartite_list_colorable(w33, a).satisfiable
                == is_list_colorable(g33, a).satisfiable)
    print(f"PASS criterion 7: solver vs full enumeration on {trials} instances; "
          f"multipartite vs generic solver on {trials} assignments over K_3*3")


def test_criterion_8_subdivision_total_identity():
    slots = list(itertools.combinations(range(6), 2))
    count = 0
    for picks in itertools.product([0, 1], repeat=len(slots)):
        g = SimpleGraph.from_edges(6, [e for e, take in zip(slots, picks) if take])
        sub, sub_labels = subdivision(g)
        tot, tot_labels = total_graph(g)
        assert sub_labels == tot_labels
        assert square(sub) == tot
        count += 1
    assert count == 2 ** 15
    print(f"PASS criterion 8: square of subdivision equals total graph on all "
          f"{count} graphs over 6 labeled vertices, shared labeling exact")


def test_criterion_9_mutation_sensitivity():
    gc = construct_counterexample(3)
    names = vertex_names(3)
    base_edges = set(gc.graph.edges())
    mutations = 0
    for u in range(15):
        for v in range(u + 1, 15):
            edges = set(base_edges)
            edges.symmetric_difference_update({(u, v)})
            mutated = gc._replace(graph=SimpleGraph.from_edges(15, sorted(edges)))
            reports = run_all_checks(mutated)
            assert not all(r.passed for r in reports.values()), \
                f"mutation {names[u]} ~ {names[v]} undetected"
            mutations += 1
    assert mutations == 105
    print(f"PASS criterion 9: every one of the {mutations} single-edge "
          f"mutations at n=3 is caught by at least one check")
