"""Why the construction matters: its square is complete multipartite.

Squaring joins any two vertices at distance at most 2.  The Latin
structure makes every cross-group pair reach distance 2 while keeping
each P_i and Q_i internally at distance 3 or more, so the square is
exactly the complete multipartite graph with 2n-1 parts of size n.
The checks below re-derive that mechanically, case by case.
"""

from squaregap import (
    construct_counterexample,
    run_all_checks,
    check_square_structure,
    square,
)
from squaregap.graphcore import square_by_blocks
from squaregap.verification import check_by_blocks, checked_stars


def main():
    for n in (3, 5, 7):
        gc = construct_counterexample(n)
        sq = square(gc.graph)  # walks every row of G
        parts, report = check_square_structure(sq, gc)
        print(f"n={n}: square has {sq.n} vertices, {sq.edge_count} edges; "
              f"complete {len(parts)}-partite with parts of size {n}: {report.passed} "
              f"({report.checked_cases} cases)")

    # verify and certify check the same claim in block form: rotating each
    # P_k and Q_i is an automorphism of G, so the base stars and one row of
    # the square per block decide every row, with no dense G or G^2
    n = 31
    stars = checked_stars(n)
    rows = square_by_blocks(stars, n)
    report = check_by_blocks(n, stars, rows, ("structure",))["structure"]
    print(f"\nn={n} in block form: {len(rows)} rows of the square for "
          f"{len(rows) * n} vertices; structure passed={report.passed} "
          f"({report.checked_cases} cases)")

    print("\nper-lemma verification at n=3:")
    gc = construct_counterexample(3)
    for name, report in run_all_checks(gc).items():
        print(f"  {name:12s} {report.checked_cases:3d} cases  "
              f"{'pass' if report.passed else 'FAIL'}")

    # a broken construction is caught with a concrete witness
    from squaregap import SimpleGraph

    edges = [e for e in gc.graph.edges() if e != (0, 9)]  # drop one star edge
    broken = gc._replace(graph=SimpleGraph.from_edges(15, edges))
    report = run_all_checks(broken)["nw"]
    print(f"\nafter deleting one star edge: nw passed={report.passed}, "
          f"witness={report.witness}")


if __name__ == "__main__":
    main()
