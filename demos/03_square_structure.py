"""Why the construction matters: its square is complete multipartite.

Squaring joins any two vertices at distance at most 2.  The Latin
structure makes every cross-group pair reach distance 2 while keeping
each P_i and Q_i internally at distance 3 or more, so the square is
exactly the complete multipartite graph with 2n-1 parts of size n.
The checks below re-derive that mechanically, case by case.
"""

from squaregap import (
    construct_counterexample,
    is_complete_multipartite,
    run_all_checks,
    check_square_structure,
    square,
)


def main():
    for n in (3, 5, 7):
        gc = construct_counterexample(n)
        sq = square(gc.graph, n)  # walks one row per P_k and Q_i, as verify does
        parts, _ = check_square_structure(sq, gc)
        ok = is_complete_multipartite(sq, parts)
        print(f"n={n}: square has {sq.n} vertices, {sq.edge_count} edges; "
              f"complete {len(parts)}-partite with parts of size {n}: {ok}")

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
