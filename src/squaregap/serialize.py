"""Deterministic text formats: DOT, DIMACS .col, and the JSON schemas.

Everything here is byte-stable: edges sorted (u, v) with u < v, JSON
emitted with sorted keys, no timestamps or machine-local data in any
payload.  The graph writers take a graph as its upper rows (upper[u] is
the ascending list of u's neighbours above u, as SimpleGraph.upper()
gives them) and write one vertex's edge lines with a single str.join.
"""

import json
from json.encoder import encode_basestring_ascii as _encode_str

from .coloring import GapCertificate, ListAssignment
from .construction import ConstructedGraph
from .errors import clip
from .graphcore import SimpleGraph
from .verification import LemmaReport

# Larger vertex counts are refused before any row is allocated: n bit rows can
# take up to n^2/8 bytes, even when the file that asks for them is small.  The
# same bound caps a list file's colour universe, since the list search keeps
# one vertex mask per colour.
MAX_INPUT_VERTICES = 2**16


def _vertex_count(n: int) -> int:
    """n, checked against MAX_INPUT_VERTICES before any row is allocated."""
    if n > MAX_INPUT_VERTICES:
        raise ValueError(f"vertex count {clip(n)} exceeds the limit of {MAX_INPUT_VERTICES}")
    return n


def _edge_lines(upper: list[list[int]], names: list[str], template: str,
                sep: str = "\n") -> list[str]:
    """One string per vertex u with neighbours above it: template with {u} and
    {v} replaced by names[u] and names[v], for each v in upper[u], joined by sep."""
    head, _, tail = template.partition("{v}")
    out = []
    for u, row in enumerate(upper):
        if row:
            lead = head.replace("{u}", names[u])
            out.append(lead + f"{tail}{sep}{lead}".join(map(names.__getitem__, row)) + tail)
    return out


class EdgeRows:
    """A graph's edges as its upper rows, which json_dumps writes as the sorted
    list of [u, v] pairs that json.dumps would write for them."""

    __slots__ = ("upper",)

    def __init__(self, upper: list[list[int]]):
        self.upper = upper

    def __len__(self) -> int:
        return sum(map(len, self.upper))


def json_dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) plus a newline,
    where an EdgeRows value stands for its list of [u, v] pairs.

    The standard library indents only in its pure-Python encoder, one
    generator step per token.  This writer joins each list of ints in one
    str.join and walks other lists and str-keyed dicts itself; every other
    value goes to json.dumps, re-indented to its depth, which is safe
    because encoded JSON holds no raw newline inside a string.
    """
    return _indented(obj, "") + "\n"


def _indented(obj, pad: str) -> str:
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return str(obj)
    inner = pad + "  "
    if kind is EdgeRows:
        if not any(obj.upper):
            return "[]"
        deeper = inner + "  "
        pairs = _edge_lines(obj.upper, list(map(str, range(len(obj.upper)))),
                            f"{inner}[\n{deeper}{{u}},\n{deeper}{{v}}\n{inner}]", ",\n")
        return "[\n" + ",\n".join(pairs) + f"\n{pad}]"
    if (kind is list or kind is tuple) and obj:
        if set(map(type, obj)) == {int}:
            return f"[\n{inner}" + f",\n{inner}".join(map(str, obj)) + f"\n{pad}]"
        return (f"[\n{inner}" + f",\n{inner}".join([_indented(x, inner) for x in obj])
                + f"\n{pad}]")
    if kind is dict and obj and all(type(k) is str for k in obj):
        return (f"{{\n{inner}"
                + f",\n{inner}".join([f"{_encode_str(k)}: {_indented(obj[k], inner)}"
                                       for k in sorted(obj)])
                + f"\n{pad}}}")
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


# -- DIMACS .col --------------------------------------------------------------


def graph_to_dimacs(n: int, upper: list[list[int]]) -> str:
    """DIMACS .col text of the graph on n vertices with upper rows upper, 1-based."""
    lines = [f"p edge {n} {sum(map(len, upper))}"]
    lines += _edge_lines(upper, list(map(str, range(1, n + 1))), "e {u} {v}")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> SimpleGraph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        try:  # int() refuses a field that is no integer: the line is malformed, below
            if len(fields) == 3 and fields[0] == "e":
                edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
                continue
            # the edge count must be a count, but it is not matched against
            # the e lines: files from other tools often disagree with them
            if len(fields) == 4 and fields[:2] == ["p", "edge"] and fields[3].isdecimal():
                n = int(fields[2])  # a later problem line overrides this one
                continue
        except ValueError:
            pass
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            raise ValueError(f"line {lineno}: malformed problem line {clip(raw.strip())}")
        if fields[0] == "e":
            raise ValueError(f"line {lineno}: malformed edge line {clip(raw.strip())}")
        raise ValueError(f"line {lineno}: unknown record {clip(fields[0])}")
    if n is None:
        raise ValueError("missing 'p edge' problem line")
    return SimpleGraph.from_edges(_vertex_count(n), edges)


# -- DOT ----------------------------------------------------------------------


def graph_to_dot(n: int, upper: list[list[int]],
                 labels: dict[int, str] | None = None) -> str:
    """DOT text of the graph on n vertices with upper rows upper; a vertex with
    a non-empty label gets it as its label attribute, a quoted string with
    its backslashes and double quotes escaped."""
    lines = ["graph G {"]
    for v in range(n):
        name = ((labels or {}).get(v) or "").replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{name}"];' if name else f"  {v};")
    lines += _edge_lines(upper, list(map(str, range(n))), "  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- graph JSON ---------------------------------------------------------------


def graph_to_json_dict(n: int, upper: list[list[int]], labels: dict[int, str],
                       parts: dict[str, list[int]], cliques: dict[str, list[int]]) -> dict:
    """The graph JSON document, for json_dumps: its edges are EdgeRows(upper)."""
    return {
        "n_vertices": n,
        "edges": EdgeRows(upper),
        "labels": {str(v): name for v, name in labels.items()},
        "parts": {name: sorted(vs) for name, vs in parts.items()},
        "cliques": {name: sorted(vs) for name, vs in cliques.items()},
    }


def named_sets(p_sets, q_sets, t_sets) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """The counterexample's graph JSON "parts" (P_i, Q_i) and "cliques" (T_j)."""
    parts = {f"P_{i}": list(s) for i, s in enumerate(p_sets, start=1)}
    parts.update({f"Q_{i}": list(s) for i, s in enumerate(q_sets, start=1)})
    return parts, {f"T_{j}": list(s) for j, s in enumerate(t_sets, start=1)}


def constructed_labels(gc: ConstructedGraph) -> dict[int, str]:
    return dict(enumerate(gc.labels))


def constructed_to_json_dict(gc: ConstructedGraph) -> dict:
    """The graph JSON document of gc."""
    return graph_to_json_dict(gc.graph.n, gc.graph.upper(), constructed_labels(gc),
                              *named_sets(gc.p_sets, gc.q_sets, gc.t_sets))


def _read_json(text: str, kind: str, keys: tuple[str, str]) -> dict:
    """The JSON object in text, which must carry keys.

    Nesting too deep to decode raises RecursionError, which leaves as
    ValueError like any other malformed input.  Callers check the type of
    every value they read.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed {kind} JSON: nested too deep") from None
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        raise ValueError(f"{kind} JSON must carry {keys[0]} and {keys[1]}")
    return doc


def _ints(values, what: str) -> list:
    """values, which must be a JSON array of integers (true and false are not)."""
    if type(values) is not list or not all(type(x) is int for x in values):
        raise ValueError(f"{what} must be an array of integers")
    return values


def parse_graph_json(text: str) -> tuple[SimpleGraph, dict]:
    doc = _read_json(text, "graph", ("n_vertices", "edges"))
    n, edges = doc["n_vertices"], doc["edges"]
    if type(n) is not int:
        raise ValueError("graph JSON n_vertices must be an integer")
    if type(edges) is not list or not all(
            type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in edges):
        raise ValueError("graph JSON edges must be an array of integer pairs")
    return SimpleGraph.from_edges(_vertex_count(n), edges), doc


# -- list-assignment JSON -----------------------------------------------------


def lists_to_json_dict(assignment: ListAssignment) -> dict:
    return {
        "universe": sorted(assignment.universe),
        "lists": {str(v): sorted(colors) for v, colors in assignment.lists.items()},
    }


def _distinct(values: list, what: str, *args: int) -> frozenset:
    """values as a set, refused if any colour appears twice.  The message names
    values as what.format with args clipped, built only when it is raised."""
    found = frozenset(values)
    if len(found) != len(values):
        seen = set()
        for x in values:
            if x in seen:
                raise ValueError(f"{what.format(*map(clip, args))} repeats colour {clip(x)}")
            seen.add(x)
    return found


def parse_lists_json(text: str) -> ListAssignment:
    doc = _read_json(text, "lists", ("universe", "lists"))
    lists = doc["lists"]
    if not isinstance(lists, dict):
        raise ValueError("lists JSON must map vertices to colour lists")
    universe = _ints(doc["universe"], "lists JSON universe")
    if len(universe) > MAX_INPUT_VERTICES:
        raise ValueError(f"lists JSON universe has {len(universe)} colours, "
                         f"over the limit of {MAX_INPUT_VERTICES}")
    universe = tuple(sorted(_distinct(universe, "lists JSON universe")))
    converted = {}
    for key, colors in lists.items():
        v = int(key)
        if str(v) != key:
            raise ValueError(f"vertex key {clip(key)} is not a canonical integer")
        converted[v] = _distinct(_ints(colors, "each list in lists JSON"),
                                 "the list of vertex {}", v)
    return ListAssignment(universe=universe, lists=converted)


# -- reports and certificates -------------------------------------------------


def report_to_json_dict(report: LemmaReport) -> dict:
    return {
        "lemma_id": report.lemma_id,
        "checked_cases": report.checked_cases,
        "passed": report.passed,
        "witness": list(report.witness) if report.witness is not None else None,
        "failure_count": report.failure_count,
    }


def certificate_to_json_dict(cert: GapCertificate) -> dict:
    return {
        "n": cert.n,
        "chromatic": cert.chromatic,
        "chromatic_coloring": list(cert.chromatic_coloring),
        "not_choosable": cert.list_bound,
        "gap_lower": cert.gap_lower,
        "blocks": [list(b) for b in cert.blocks],
        "refuted_lists": lists_to_json_dict(cert.refuted_assignment),
        "refutation": {
            "nodes": cert.attestation.nodes,
            "complete": True,  # a budget stop raises, so every refutation is whole
        },
    }
