"""Stdout of certify, verify, solve-list, mols and construct, pinned byte for byte.

Each digest is the SHA-256 of a command's stdout.  The payloads carry
search node counts, SAT colourings and the chromatic witness, so a change
to the search order or to pruning shows here even when every verdict
stays the same.
"""

import hashlib
import itertools
import random
import sys

import pytest

from oracles import vetrik_k3x5
from squaregap import construction, graphcore, latin, serialize
from squaregap.cli import main
from squaregap.coloring import ListAssignment
from squaregap.graphcore import SimpleGraph


def backtracking_sat():
    """16 vertices with 3-lists over 6 colours: SAT, found after 103 nodes."""
    n = 16
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if (31 * i * i + 17 * j * j + 37 * i * j + 259) % 97 < 55]
    lists = {v: frozenset({37 * v % 6, (v * v + 37) % 6, (3 * v + 75) % 6})
             for v in range(n)}
    return SimpleGraph.from_edges(n, edges), ListAssignment(universe=tuple(range(6)),
                                                            lists=lists)


def path_1100():
    """A path through 1,100 vertices in the order 367 * i mod 1100, every list {2, 9}:
    SAT in 1,100 nodes, one per vertex."""
    n = 1100
    order = [367 * i % n for i in range(n)]
    lists = {v: frozenset({2, 9}) for v in range(n)}
    return (SimpleGraph.from_edges(n, list(zip(order, order[1:]))),
            ListAssignment(universe=tuple(range(12)), lists=lists))


def planted_800():
    """800 vertices, edges only between different colours of a planted 12-colouring
    (about 9 per vertex), each list its vertex's colour and 3 more: SAT in 800 nodes.
    Drawn with random() alone, whose sequence Python keeps across versions."""
    n, colours = 800, 12
    rng = random.Random(800)
    plant = [int(rng.random() * colours) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if plant[u] != plant[v] and rng.random() < 10 / n]
    lists = {}
    for v, c in enumerate(plant):
        chosen = {c}
        while len(chosen) < 4:
            chosen.add(int(rng.random() * colours))
        lists[v] = frozenset(chosen)
    return (SimpleGraph.from_edges(n, edges),
            ListAssignment(universe=tuple(range(colours)), lists=lists))


SOLVE_INSTANCES = {"vetrik-K3x5": vetrik_k3x5,
                   "vetrik-K3x5-pendant": lambda: vetrik_k3x5(pendant=True),
                   "backtracking-sat": backtracking_sat, "path-1100": path_1100,
                   "planted-800": planted_800}

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
    (["verify", "--n", "11", "--lemma", "all"], 0,
     "bf8f42b862a964c5c8f134024d763ad546965c3bdfc28b601fd99e195a64f336"),
    (["verify", "--n", "13", "--lemma", "all"], 0,
     "f45605048b34c950d34f9ad82493cb7312df4b1663763829b0dd0fcf5b342655"),
    (["verify", "--n", "17", "--lemma", "all"], 0,
     "2772307f6d6d17e2e39a3b674964e8e8583203d86a387c8cbe6255db61c401b7"),
    (["verify", "--n", "31", "--lemma", "all"], 0,
     "22dd8c2f7b3f4a6bb113740afa39287d23ada8ac6c9de894157e37ecc527f8fd"),
    (["verify", "--n", "7", "--lemma", "nw"], 0,
     "c50c741700ac0a3b4a1dde9f1a047ab939135cae56d86517b10afa3d4d291f34"),
    (["verify", "--n", "7", "--lemma", "nv"], 0,
     "23a212966224465f791d5769a7f680e48b42bb570238b8143d72a755beb85b0a"),
    (["verify", "--n", "7", "--lemma", "independence"], 0,
     "3c5dd1f38d048cea4182349ca15ef711d69a89d7bddc76b18472def81ef62341"),
    (["verify", "--n", "7", "--lemma", "pq"], 0,
     "2bdaf4935777976fda312f6957b19a9e8a18e7c2bcfeb966d8658e8415708b36"),
    (["verify", "--n", "7", "--lemma", "structure"], 0,
     "18d84776b69fb2e2960bb59474daff8da447c092aea3978d2a1a5929dd2e1330"),
    (["solve-list", "vetrik-K3x5"], 1,
     "e819d898de0b648999ff6d9170815dcd484ed7acc80168ab3599f11391c6e1fa"),
    (["solve-list", "vetrik-K3x5-pendant"], 1,
     "e3ee81de3f19f6e5735d3b089b3c5522ad428780730ade9e337abdbaf6fa9682"),
    (["solve-list", "backtracking-sat"], 0,
     "0558ba923dd998995ea840642598e23e3d2852396448d4c053831f10b3b88655"),
    (["solve-list", "path-1100"], 0,
     "4d2e1cb7a263c790ebba2ffaa468be6194400d3167d90483692e1b2087e87ee3"),
    (["solve-list", "planted-800"], 0,
     "cd125e6a8b15d3108079e7e9531284e55a6d79e5126ce2aad267b341672f4aa9"),
    (["mols", "--n", "5", "--check"], 0,
     "eee29644f2fac5d6571ad9ca341b97fdb14d28b9362e2fbb9914f64a0146a88a"),
    (["mols", "--n", "7"], 0,
     "7b31828a2697dd1fd7a76324902393398b01e16cc5e590b2256d44e54dc726a3"),
    (["construct", "--n", "5", "--format", "json"], 0,
     "b809c5f8779ec386bbcb363ee672bfe25f308c6a55fad450d6c61ca7e9983a7f"),
    (["construct", "--n", "5", "--format", "dimacs"], 0,
     "460dc942d73b636b89e6d1f38130a9a36ef816a72fcd9bf89fc7367df73462dd"),
    (["construct", "--n", "5", "--format", "dot"], 0,
     "c118bd03ca48644e5d03e16e1d4b7a16abfecd9e4d2fd3246d5c4394b4ef09a4"),
    (["construct", "--n", "7", "--format", "json"], 0,
     "e5cc4288d636c14df69daa1f05533cca9dfeddb0188f761275768f9b6d24c782"),
    (["construct", "--n", "31", "--format", "json"], 0,
     "a897011b14c692a73df338be8c01c4017e3a91f1d4189ac9383cc67d0f5a514a"),
    (["construct", "--n", "31", "--format", "dimacs"], 0,
     "0f67c62374ef2ea1d68b466712620a8b8384d958f89a34b519bb8b4c79cc76d5"),
    (["construct", "--n", "31", "--format", "dot"], 0,
     "07402252c966d4cb49e4595d8580f68de6e4b08a442529b319a1b9925b6651b6"),
    (["certify", "--n", "11"], 0,
     "2ce1552a389135812e0ab6538c5e4e0700bce58bac01b4d262ea29e6073807f9"),
    (["certify", "--n", "31"], 0,
     "96dd3effc75afc0bc9e524ca246b5836b90ed6ee31e4c20623690cd557945021"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED, ids=[" ".join(a) for a, _, _ in PINNED])
def test_stdout_digest(tmp_path, capsys, argv, code, digest):
    if argv[0] == "solve-list":
        g, assignment = SOLVE_INSTANCES[argv[1]]()
        graph_path = tmp_path / "graph.col"
        graph_path.write_text(serialize.graph_to_dimacs(g.n, g.upper()))
        lists_path = tmp_path / "lists.json"
        lists_path.write_text(serialize.json_dumps(serialize.lists_to_json_dict(assignment)))
        argv = ["solve-list", "--graph", str(graph_path), "--lists", str(lists_path)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def refuse_everywhere(monkeypatch, fn, refuse):
    """Bind refuse in place of fn in every squaregap module that binds fn."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "squaregap":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, refuse)


def refuse_latin(monkeypatch):
    """Make latin.build_latin raise in every squaregap module that binds it;
    build_mols_family calls it, so no Latin square can be built."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a Latin square")
    refuse_everywhere(monkeypatch, latin.build_latin, refuse)


CONSTRUCT_PINNED = [entry for entry in PINNED if entry[0][0] == "construct"]


@pytest.mark.parametrize("argv,code,digest", CONSTRUCT_PINNED,
                         ids=[" ".join(a) for a, _, _ in CONSTRUCT_PINNED])
def test_construct_builds_no_graph(monkeypatch, capsys, argv, code, digest):
    # construct writes from the upper rows alone: no SimpleGraph, no bit row, no Latin square
    def refuse(*args, **kwargs):
        raise AssertionError("construct built a graph")
    monkeypatch.setattr(SimpleGraph, "__init__", refuse)
    monkeypatch.setattr(SimpleGraph, "_from_rows", refuse)
    refuse_everywhere(monkeypatch, construction.construct_counterexample, refuse)
    monkeypatch.setattr(construction, "mask_of", refuse)
    refuse_latin(monkeypatch)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certify_builds_no_latin_square(monkeypatch, capsys):
    # certify checks the square's structure, not nw0, so it needs no Latin square
    argv, code, digest = next(entry for entry in PINNED if entry[0] == ["certify", "--n", "5"])
    refuse_latin(monkeypatch)
    with pytest.raises(AssertionError, match="built a Latin square"):
        latin.build_mols_family(5)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest



DENSE_FREE = [entry for entry in PINNED if entry[0][0] in ("verify", "certify")]


@pytest.mark.parametrize("argv,code,digest", DENSE_FREE, ids=[" ".join(a) for a, _, _ in DENSE_FREE])
def test_verify_and_certify_build_no_dense_row(monkeypatch, capsys, argv, code, digest):
    # the block form reads the stars and one row of the square per block: no
    # dense G and no dense square.  Neither builds a SimpleGraph at all:
    # certify refutes its lists by counting on the verified parts.
    def refuse(*args, **kwargs):
        raise AssertionError("built a dense row")
    refuse_everywhere(monkeypatch, construction.construct_counterexample, refuse)
    refuse_everywhere(monkeypatch, graphcore.square, refuse)
    monkeypatch.setattr(SimpleGraph, "__init__", refuse)
    monkeypatch.setattr(SimpleGraph, "_from_rows", refuse)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
