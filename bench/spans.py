"""Spans around calls into squaregap's public functions, for the traced run only.

A span is [name, start, end, parent index, operation id], its times read
from the worker's CPU clock (the program is single-threaded).  Wrappers are
installed in every squaregap module namespace that binds a wrapped function
(cli and coloring import ``square`` by name, for example), so a call is
traced whichever module makes it.  Per-element helpers such as
``graphcore.bits`` are left alone.
"""

import functools
import sys
from collections import Counter
from time import process_time

WRITERS = ("json_dumps", "graph_to_dimacs", "graph_to_dot", "graph_to_json_dict",
           "constructed_to_json_dict", "constructed_labels", "lists_to_json_dict",
           "report_to_json_dict", "certificate_to_json_dict")
READERS = ("parse_dimacs", "parse_graph_json", "parse_lists_json")
CHECKS = ("check_lemma_nw", "check_lemma_nv", "check_independence", "check_pq_adjacency",
          "check_square_structure")
SOLVERS = ("is_list_colorable", "multipartite_list_colorable")

WRAPPED = {
    "latin": ("build_mols_family",),
    "construction": ("construct_counterexample",),
    "graphcore": ("square",),
    "verification": CHECKS,
    "coloring": SOLVERS + ("chromatic_number_exact", "certify_gap"),
    "serialize": WRITERS + READERS,
    "cli": ("main",),
}


def _observe(counts, fname, args, result):
    """Work counts taken from a wrapped call's arguments and result."""
    if fname in CHECKS:
        report = result[1] if fname == "check_square_structure" else result
        counts["verification.cases"] += report.checked_cases
    elif fname in SOLVERS:
        counts["coloring.nodes"] += result.attestation.nodes
        if result.satisfiable:
            counts["coloring.sat_vertices"] += len(result.coloring)
            counts["coloring.sat_nodes"] += result.attestation.nodes
    elif fname in ("json_dumps", "graph_to_dimacs", "graph_to_dot"):
        counts["serialize.bytes_written"] += len(result.encode())
    elif fname in READERS:
        counts["serialize.bytes_read"] += len(args[0].encode())


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()

    def _wrap(self, name, fname, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                stack.pop()
            _observe(counts, fname, args, result)
            return result
        return traced

    def install(self):
        """Wrap the functions in WRAPPED, plus SimpleGraph construction, everywhere bound."""
        modules = [m for name, m in sys.modules.items()
                   if name == "squaregap" or name.startswith("squaregap.")]
        for short, fnames in WRAPPED.items():
            home = sys.modules[f"squaregap.{short}"]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        graph = sys.modules["squaregap.graphcore"].SimpleGraph
        graph.__init__ = self._wrap("graphcore.SimpleGraph", "SimpleGraph", graph.__init__)
        from_edges = vars(graph)["from_edges"].__func__
        graph.from_edges = classmethod(self._wrap("graphcore.from_edges", "from_edges",
                                                  from_edges))


def self_times(spans):
    """{name: (total self seconds, calls)}; self time is a span minus its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start - inner), calls + 1)
    return out
