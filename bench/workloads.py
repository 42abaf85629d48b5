"""The four workloads and the seeded instances they run.

Every verdict is known by construction, never by running the solver under
test: a planted colouring makes an instance satisfiable, and a core whose
parts' lists share no colour (Vetrik's pigeonhole argument) or an odd cycle
with one 2-colour list makes it unsatisfiable.  Instance files are written
before any timing starts, so the program receives only the files.

An operation is a dict: ``id``, ``argv`` for ``squaregap.cli.main``,
``keys`` naming its inputs (no worker runs two operations that share a
key), ``check`` for the checker, and optionally ``parse`` (the format of
the written ``--output`` file, parsed inside the timed region) and
``largest`` (the operation reported as ``largest_op_s``).
"""

import json
import os
import random

VERIFY_PRIMES = (3, 5, 7, 11, 13, 17, 31)
IO_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
CERTIFY_PRIMES = (3, 5, 7)

NAMES = ("verify-sweep", "refute", "solve", "io-roundtrip")


def build(name, seed, workdir):
    """The operations of one pass over workload `name`, inputs written to workdir."""
    rng = random.Random(f"{name}:{seed}")
    return {
        "verify-sweep": _verify_sweep,
        "refute": _refute,
        "solve": _solve,
        "io-roundtrip": _io_roundtrip,
    }[name](rng, workdir)


def worker_groups(ops):
    """Split ops, in order, into groups in which no two operations share an input key."""
    groups = []
    for op in ops:
        for group in groups:
            if not any(set(op["keys"]) & set(other["keys"]) for other in group):
                group.append(op)
                break
        else:
            groups.append([op])
    return groups


# -- workloads ----------------------------------------------------------------


def _verify_sweep(rng, workdir):
    return [{"id": f"verify-{n}", "argv": ["verify", "--n", str(n), "--lemma", "all"],
             "keys": [f"n{n}"], "check": {"kind": "verify", "n": n},
             "largest": n == max(VERIFY_PRIMES)} for n in VERIFY_PRIMES]


def _io_roundtrip(rng, workdir):
    ops = []
    for fmt in ("json", "dimacs", "dot"):
        for n in IO_PRIMES:
            path = os.path.join(workdir, f"construct-{n}.{fmt}")
            ops.append({"id": f"construct-{fmt}-{n}",
                        "argv": ["construct", "--n", str(n), "--format", fmt, "--output", path],
                        "keys": [f"n{n}"], "check": {"kind": "roundtrip", "n": n, "fmt": fmt},
                        "parse": None if fmt == "dot" else fmt, "output": path,
                        "largest": fmt == "json" and n == max(IO_PRIMES)})
    return ops


def _refute(rng, workdir):
    ops = [{"id": f"certify-{n}", "argv": ["certify", "--n", str(n)],
            "keys": [f"n{n}"] + (["K3x5"] if n == 3 else []),
            "check": {"kind": "certify", "n": n}} for n in CERTIFY_PRIMES]
    # The n = 3 square K_{3x5} with its Vetrik lists, labelled as certify builds it.
    parts = [list(range(3 * p, 3 * p + 3)) for p in range(5)]
    canonical = _vetrik(parts, list(range(1, 10)), None)
    ops.append(_solve_op("vetrik-K3x5", canonical, workdir, "dimacs", keys=["K3x5"],
                         largest=True))
    for i, (m, r) in enumerate([(2, 6), (3, 4), (3, 4)]):
        inst = _vetrik(_random_parts(m, r, m * r, rng), list(range(2 * r - 1)), rng)
        ops.append(_solve_op(f"vetrik-K{m}x{r}-{i}", inst, workdir, ("json", "dimacs")[i % 2]))
    for i in range(3):
        inst = _hidden_odd_cycle(400, rng.randrange(5, 21), rng)
        ops.append(_solve_op(f"hidden-cycle-{i}", inst, workdir, ("dimacs", "json")[i % 2]))
    for i in range(2):
        inst = _hidden_vetrik(300, 3, 4, rng)
        ops.append(_solve_op(f"hidden-vetrik-{i}", inst, workdir, ("json", "dimacs")[i % 2]))
    return ops


def _solve(rng, workdir):
    specs = [("planted-800", 800, 12, 10, 4, True)]
    specs += [(f"planted-500-{i}", 500, 12, 10, 4, False) for i in range(3)]
    specs += [(f"planted-2list-{i}", 150, 3, 5, 2, False) for i in range(6)]
    ops = []
    for i, (op_id, n, colours, degree, size, largest) in enumerate(specs):
        inst = _planted(n, colours, degree, size, rng)
        ops.append(_solve_op(op_id, inst, workdir, ("json", "dimacs")[i % 2], largest=largest))
    # Deeper than the interpreter's default recursion limit: a recursive solver
    # fails here, and the benchmark reports that failure rather than skip it.
    ops.append(_solve_op("path-1100", _path(1100, 12, rng), workdir, "dimacs"))
    return ops


# -- instances ----------------------------------------------------------------
#
# An instance is {"n", "edges", "lists", "universe", "sat"}; lists[v] is the
# list of vertex v.


def _random_parts(m, r, n, rng):
    """r disjoint parts of size m at random positions among vertices 0..n-1."""
    chosen = rng.sample(range(n), m * r)
    return [chosen[p * m:(p + 1) * m] for p in range(r)]


def _multipartite_edges(parts):
    return [(u, v) for i, a in enumerate(parts) for b in parts[i + 1:] for u in a for v in b]


def _vetrik(parts, universe, rng, n=None):
    """K_{m x r} on `parts` with lists whose intersection over each part is empty.

    |universe| = 2r - 1 is split into m near-equal blocks (per part, after a
    seeded shuffle when rng is given); position k of a part gets the universe
    minus block k, cut to (m-1) * floor((2r-1)/m) colours.  Each part then
    needs two colours, 2r in all, so no colouring exists.
    """
    m, r = len(parts[0]), len(parts)
    bound = (m - 1) * ((2 * r - 1) // m)
    size, extra = divmod(2 * r - 1, m)
    n = sum(len(p) for p in parts) if n is None else n
    lists = [[] for _ in range(n)]
    for part in parts:
        order = list(universe)
        if rng is not None:
            rng.shuffle(order)
        start = 0
        for k, v in enumerate(part):
            width = size + (1 if k < extra else 0)
            rest = sorted(set(universe) - set(order[start:start + width]))
            start += width
            lists[v] = sorted(rng.sample(rest, bound)) if rng is not None else rest[:bound]
    return {"n": n, "edges": _multipartite_edges(parts), "lists": lists,
            "universe": sorted(universe), "sat": False}


def _random_edges(n, degree, rng, allowed):
    p = degree / n
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if allowed(u, v) and rng.random() < p]


def _hide(core, n, core_colours, rng):
    """Embed an unsatisfiable core in a random graph on n vertices.

    The other vertices get 5-colour lists from colours disjoint from the
    core's, so the core stays unsatisfiable, and every outside list stays
    longer than every core list.
    """
    members = {v for v, cs in enumerate(core["lists"]) if cs}
    outer = list(range(core_colours, core_colours + 10))
    edges = core["edges"] + _random_edges(
        n, 8, rng, lambda u, v: not (u in members and v in members))
    lists = [cs or sorted(rng.sample(outer, 5)) for cs in core["lists"]]
    return {"n": n, "edges": edges, "lists": lists,
            "universe": sorted(set(core["universe"]) | set(outer)), "sat": False}


def _hidden_odd_cycle(n, k, rng):
    """An odd cycle of length 2k+1 whose vertices all have the list {0, 1}."""
    cycle = rng.sample(range(n), 2 * k + 1)
    lists = [[] for _ in range(n)]
    for v in cycle:
        lists[v] = [0, 1]
    edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    return _hide({"edges": edges, "lists": lists, "universe": [0, 1]}, n, 2, rng)


def _hidden_vetrik(n, m, r, rng):
    core = _vetrik(_random_parts(m, r, n, rng), list(range(2 * r - 1)), rng, n=n)
    return _hide(core, n, 2 * r - 1, rng)


def _planted(n, colours, degree, size, rng):
    """A random graph that edges only differently planted vertices; lists hold the plant."""
    plant = [rng.randrange(colours) for _ in range(n)]
    edges = _random_edges(n, degree, rng, lambda u, v: plant[u] != plant[v])
    lists = [sorted([c] + rng.sample([x for x in range(colours) if x != c], size - 1))
             for c in plant]
    return {"n": n, "edges": edges, "lists": lists, "universe": list(range(colours)),
            "sat": True}


def _path(n, colours, rng):
    """A path through the vertices in seeded order, every list the same two colours."""
    order = list(range(n))
    rng.shuffle(order)
    pair = sorted(rng.sample(range(colours), 2))
    return {"n": n, "edges": list(zip(order, order[1:])), "lists": [pair] * n,
            "universe": list(range(colours)), "sat": True}


# -- files --------------------------------------------------------------------


def _solve_op(op_id, inst, workdir, fmt, keys=None, largest=False):
    graph = os.path.join(workdir, f"{op_id}.{'col' if fmt == 'dimacs' else 'json'}")
    lists = os.path.join(workdir, f"{op_id}.lists.json")
    edges = sorted((min(u, v), max(u, v)) for u, v in inst["edges"])
    with open(graph, "w", encoding="utf-8") as fh:
        if fmt == "dimacs":
            fh.write(f"c {op_id}\np edge {inst['n']} {len(edges)}\n")
            fh.writelines(f"e {u + 1} {v + 1}\n" for u, v in edges)
        else:
            json.dump({"n_vertices": inst["n"], "edges": edges}, fh)
    with open(lists, "w", encoding="utf-8") as fh:
        json.dump({"universe": inst["universe"],
                   "lists": {str(v): cs for v, cs in enumerate(inst["lists"])}}, fh)
    truth = {"n": inst["n"], "edges": edges, "lists": inst["lists"], "sat": inst["sat"]}
    return {"id": op_id, "argv": ["solve-list", "--graph", graph, "--lists", lists],
            "keys": keys or [op_id], "check": {"kind": "solve", "truth": truth},
            "largest": largest}
