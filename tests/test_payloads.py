"""Stdout of certify, verify and solve-list, pinned byte for byte.

Each digest is the SHA-256 of a command's stdout.  The payloads carry
search node counts, SAT colourings and the chromatic witness, so a change
to the search order or to pruning shows here even when every verdict
stays the same.
"""

import hashlib
import itertools

import pytest

from squaregap import serialize
from squaregap.cli import main
from squaregap.coloring import ListAssignment, vetrik_assignment, vetrik_on_witness
from squaregap.graphcore import SimpleGraph, complete_multipartite


def vetrik_k3x5():
    """The n = 3 square K_{3x5} with its Vetrik lists: UNSAT after 35,796 nodes."""
    g, witness = complete_multipartite([3] * 5)
    return g, vetrik_on_witness(vetrik_assignment(3, 5), witness)


def backtracking_sat():
    """16 vertices with 3-lists over 6 colours: SAT, found after 103 nodes."""
    n = 16
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if (31 * i * i + 17 * j * j + 37 * i * j + 259) % 97 < 55]
    lists = {v: frozenset({37 * v % 6, (v * v + 37) % 6, (3 * v + 75) % 6})
             for v in range(n)}
    return SimpleGraph.from_edges(n, edges), ListAssignment(universe=tuple(range(6)),
                                                            lists=lists)


SOLVE_INSTANCES = {"vetrik-K3x5": vetrik_k3x5, "backtracking-sat": backtracking_sat}

PINNED = [
    (["certify", "--n", "3"], 0,
     "f254744a2b8a29819d46bb65efe52e9817c0b62ba39825fbcc845568707814f3"),
    (["certify", "--n", "5"], 0,
     "6f76db7f9fc8bbd74ba35e75abbce868bc61e1c52dbc40c9dc1bcbfba6a4a8bb"),
    (["certify", "--n", "7"], 0,
     "35fd3ed39ffe775a8682809c77c9f670bebc4651f7666e323d9957e65cbcf031"),
    (["verify", "--n", "3", "--lemma", "all"], 0,
     "b3fcf6e751748f758582fde12e8d3be1de9b91cb5d9f127d9470fc0f66489d98"),
    (["verify", "--n", "5", "--lemma", "all"], 0,
     "4628b4223529199f84d145719f9c2d9cdc59b28b0af83db522de78325ccee959"),
    (["verify", "--n", "7", "--lemma", "all"], 0,
     "2421bb0220ecc2d8727c602abdf961178eb0837c087a21022800bb0a3105dc37"),
    (["solve-list", "vetrik-K3x5"], 1,
     "05807e3620a77ff567a055a1111f15a9407b071ea23be9208ec5f2f8042aad2d"),
    (["solve-list", "backtracking-sat"], 0,
     "0558ba923dd998995ea840642598e23e3d2852396448d4c053831f10b3b88655"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED, ids=[" ".join(a) for a, _, _ in PINNED])
def test_stdout_digest(tmp_path, capsys, argv, code, digest):
    if argv[0] == "solve-list":
        g, assignment = SOLVE_INSTANCES[argv[1]]()
        graph_path = tmp_path / "graph.col"
        graph_path.write_text(serialize.graph_to_dimacs(g))
        lists_path = tmp_path / "lists.json"
        lists_path.write_text(serialize.json_dumps(serialize.lists_to_json_dict(assignment)))
        argv = ["solve-list", "--graph", str(graph_path), "--lists", str(lists_path)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
