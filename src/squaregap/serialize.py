"""Deterministic text formats: DOT, DIMACS .col, and the JSON schemas.

Everything here is byte-stable: edges sorted (u, v) with u < v, JSON
emitted with sorted keys, no timestamps or machine-local data in any
payload.  The graph writers take a graph as its upper rows (upper[u] is
the ascending list of u's neighbours above u, as SimpleGraph.upper()
gives them) and write one vertex's edge lines with a single str.join.
"""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import ne

from .coloring import GapCertificate, ListAssignment
from .construction import part_sets, vertex_names
from .errors import clip
from .graphcore import SimpleGraph, edge_rows
from .verification import LemmaReport

# Larger vertex counts are refused before any row is allocated: n bit rows can
# take up to n^2/8 bytes, even when the file that asks for them is small.  The
# same bound caps a list file's colour universe, since the list search keeps
# one vertex mask per colour.
MAX_INPUT_VERTICES = 2**16
# Colours are JSON-safe integers, 0..COLOUR_BOUND - 1: below 2^61 - 1 an int
# hashes as itself, so no set or tuple of colours can be made slow.
COLOUR_BOUND = 2**53


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


def json_dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) plus a newline,
    where an EdgeRows value stands for its list of [u, v] pairs.

    The standard library indents only in its pure-Python encoder, one
    generator step per token.  This writer writes true, false and null
    directly, joins each list of ints in one str.join and walks other lists
    and str-keyed dicts itself; every other value goes to json.dumps,
    re-indented to its depth, which is safe because encoded JSON holds no
    raw newline inside a string.

    Each list of ints is rendered once per object and depth: memo maps
    (id(list), pad) to its text for this one call.  An id names one object
    only while it lives, which is sound because obj keeps every object in
    the document alive until the call returns; a list that _indented builds
    itself must never be memoized, as its id could be reused.
    """
    return _indented(obj, "", {}) + "\n"


def _indented(obj, pad: str, memo: dict) -> str:
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = pad + "  "
    if kind is EdgeRows:
        if not any(obj.upper):
            return "[]"
        deeper = inner + "  "
        pairs = _edge_lines(obj.upper, list(map(str, range(len(obj.upper)))),
                            f"{inner}[\n{deeper}{{u}},\n{deeper}{{v}}\n{inner}]", ",\n")
        return "[\n" + ",\n".join(pairs) + f"\n{pad}]"
    if (kind is list or kind is tuple) and obj:
        key = (id(obj), pad)
        text = memo.get(key)
        if text is not None:
            return text
        if set(map(type, obj)) == {int}:
            text = memo[key] = f"[\n{inner}" + f",\n{inner}".join(map(str, obj)) + f"\n{pad}]"
            return text
        return (f"[\n{inner}" + f",\n{inner}".join([_indented(x, inner, memo) for x in obj])
                + f"\n{pad}]")
    if kind is dict and obj and all(type(k) is str for k in obj):
        return (f"{{\n{inner}"
                + f",\n{inner}".join([f"{_encode_str(k)}: {_indented(obj[k], inner, memo)}"
                                       for k in sorted(obj)])
                + f"\n{pad}}}")
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


# -- DIMACS .col --------------------------------------------------------------


def graph_to_dimacs(n: int, upper: list[list[int]]) -> str:
    """DIMACS .col text of the graph on n vertices with upper rows upper, 1-based."""
    lines = [f"p edge {n} {sum(map(len, upper))}"]
    lines += _edge_lines(upper, list(map(str, range(1, n + 1))), "e {u} {v}")
    return "\n".join(lines) + "\n"


# _edge_block's map from a canonical edge block to the body of a JSON array
_EDGE_BLOCK_JSON = bytes.maketrans(b"e \n", b" , ")


def _dimacs_records(lines: list[str]) -> tuple[int | None, list[tuple[int, int]]]:
    """The vertex count of the last problem line in lines (None if there is
    none) and their edges, 0-based, in file order; the first malformed line
    raises, named by its number from 1."""
    n = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        # int() also reads "1_0" and non-ASCII digits: on an ASCII line with no
        # "_" it reads exactly a sign and ASCII digits, and refuses any other
        # field, so the line is malformed, below
        if raw.isascii() and "_" not in raw:
            try:
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
    return n, edges


def _edge_block(body: str) -> list[int] | None:
    """The endpoints of body, u1, v1, u2, v2, ..., as written, if it is a
    canonical edge block: lines "e u v", each ending in a newline, with
    single spaces and endpoints in canonical decimal.  Anything else gives
    None.  The endpoints are not checked against any vertex count.

    body, which starts with "e ", is checked and decoded by C-level bytes
    methods and one json.loads, with no Python step per line.  With its
    digits deleted, a canonical block is "e  \n" once per line, and every
    newline but the last is followed by "e ": so every line starts with
    "e " and the block ends in a newline, digits aside.  That pins where
    every "e", space and newline stands and leaves no other character.
    One translate then makes each "e" a space, each space a comma and each
    newline a space, and json.loads refuses an empty endpoint, a leading
    zero and digits after the last newline, so each line gives exactly two
    non-negative integers.
    """
    if not body.isascii():
        return None
    raw = body.encode()
    skeleton = raw.translate(None, b"0123456789")
    lines = len(skeleton) // 4
    if skeleton != b"e  \n" * lines or raw.count(b"\ne ") != lines - 1:
        return None
    try:
        return json.loads(b"[" + raw[2:].translate(_EDGE_BLOCK_JSON) + b"]")
    except ValueError:  # JSON refuses the line, or an endpoint over 4300 digits
        return None


def parse_dimacs(text: str) -> SimpleGraph:
    """The graph of a DIMACS .col text, in the dialect of Johnson & Trick
    (eds.), Cliques, Coloring, and Satisfiability, DIMACS Series 26 (1996).

    Accepted: comment lines (any line whose first field starts with "c")
    and blank lines anywhere; a problem line "p edge <n> <m>", where the
    last one in the file wins and m must be a count but is not matched
    against the edge lines; edge lines "e <u> <v>" with 1-based vertices,
    anywhere in the file, also before the problem line.  A problem or edge
    line is ASCII with no "_", so each of its integers is ASCII digits
    after an optional sign.  Fields may be separated by any whitespace
    (ASCII on those lines), and lines end in any line break.  A
    malformed line raises ValueError naming its number; so do a missing
    problem line, a vertex count over MAX_INPUT_VERTICES, and an edge out
    of range or a self-loop.

    A text as graph_to_dimacs writes it takes the bulk path: its header,
    the lines up to the first newline followed by "e ", goes through the
    line loop, and the rest must be a canonical edge block (_edge_block),
    decoded in one json.loads.  Its 1-based endpoints fill n + 1 bit rows
    (edge_rows), which is their only check: an endpoint above n or a
    self-loop fails the fill, and an endpoint 0 leaves row 0 set.  Any
    other text, one whose header lacks a problem line or holds an edge (a
    first line "e 1 2", or an edge spelled otherwise), and one whose block
    fails those checks are read by the line loop alone, which names the
    first failure.
    """
    cut = text.find("\ne ") + 1  # where the edge block starts; 0 if none does
    if cut:
        n, edges = _dimacs_records(text[:cut].splitlines())
        ends = None if edges or n is None else _edge_block(text[cut:])
        if ends is not None:
            rows = edge_rows(_vertex_count(n) + 1, zip(ends[::2], ends[1::2]))
            if rows is not None and not rows[0]:
                # vertex 0 is bare: drop its row and shift the others down one bit
                return SimpleGraph._from_rows(n, tuple([row >> 1 for row in rows[1:]]))
    n, edges = _dimacs_records(text.splitlines())
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


def constructed_labels(n: int) -> dict[int, str]:
    """Index -> name of the counterexample graph for n (vertex_names)."""
    return dict(enumerate(vertex_names(n)))


def constructed_to_json_dict(n: int, upper: list[list[int]]) -> dict:
    """The graph JSON document of the counterexample graph for n, whose upper
    rows are upper: its "parts" are P_i and Q_i, its "cliques" T_j."""
    p_sets, q_sets, t_sets = part_sets(n)
    parts = {f"P_{i}": s for i, s in enumerate(p_sets, start=1)}
    parts.update({f"Q_{i}": s for i, s in enumerate(q_sets, start=1)})
    cliques = {f"T_{j}": s for j, s in enumerate(t_sets, start=1)}
    return graph_to_json_dict(len(upper), upper, constructed_labels(n), parts, cliques)


def _first_repeat(values: list):
    """The first of values that equals an earlier one."""
    seen = set()
    return next(x for x in values if x in seen or seen.add(x))


def _read_json(text: str, kind: str, keys: tuple[str, str]) -> dict:
    """The JSON object in text, which must carry keys.

    An object that names a key twice is refused: json.loads alone keeps the
    last value, so a vertex's second list would silently replace its first.
    Every fault of the text leaves as a ValueError that starts "malformed
    <kind> JSON:", so a message names the file at fault.  A syntax error
    keeps the decoder's words and position; three faults that json.loads
    reports in Python's own terms are named instead: nesting too deep to
    decode (a RecursionError), an integer longer than Python converts, and
    a text that starts with U+FEFF (whose message asks for a codec that the
    caller cannot choose).  Callers check the type of every value they read.
    """
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            key = _first_repeat([k for k, _ in pairs])
            raise ValueError(f"malformed {kind} JSON: key {clip(key)} appears twice")
        return obj

    if text.startswith("\ufeff"):
        raise ValueError(f"malformed {kind} JSON: starts with a byte-order mark (U+FEFF)")
    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        raise ValueError(f"malformed {kind} JSON: nested too deep") from None
    except json.JSONDecodeError as exc:  # a syntax error: name the file it is in
        raise ValueError(f"malformed {kind} JSON: {exc}") from None
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ValueError(f"malformed {kind} JSON: integer with more than 4,300 digits") from None
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        raise ValueError(f"{kind} JSON must carry {keys[0]} and {keys[1]}")
    return doc


def parse_graph_json(text: str) -> tuple[SimpleGraph, dict]:
    """The graph of a graph JSON text, {"n_vertices": n, "edges": [[u, v],
    ...]}, and the whole document, whose other keys are not read.

    Its rules, in this order, and the first rule broken raises ValueError:
    the text is a JSON object with both keys, none named twice; n_vertices
    is a JSON integer; edges is an array of pairs of JSON integers (true
    and false are not); n_vertices is at most MAX_INPUT_VERTICES, then not
    negative; each endpoint is in 0..n_vertices - 1, and no edge is a
    self-loop, the first faulty edge named as SimpleGraph.from_edges names it.

    A text that holds neither "true" nor "false" holds no bool, and
    from_edges refuses every other endpoint that is no int, so such a text
    goes straight to from_edges.  Each word is looked for from the first
    "t" or "f" on (a one-letter find runs by memchr; with no such letter
    the search starts at the last character and finds nothing).  Only when
    from_edges fails, or when the text could hold a bool, are the edges'
    types checked one by one, so that a refusal keeps the rule order above.
    """
    doc = _read_json(text, "graph", ("n_vertices", "edges"))
    n, edges = doc["n_vertices"], doc["edges"]
    if type(n) is not int:
        raise ValueError("graph JSON n_vertices must be an integer")
    if (type(edges) is list and text.find("true", text.find("t")) < 0
            and text.find("false", text.find("f")) < 0):
        try:
            return SimpleGraph.from_edges(_vertex_count(n), edges), doc
        except (TypeError, ValueError):
            pass  # the type rule comes first: check it, then raise again below
    if type(edges) is not list or not all(
            type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in edges):
        raise ValueError("graph JSON edges must be an array of integer pairs")
    return SimpleGraph.from_edges(_vertex_count(n), edges), doc


# -- list-assignment JSON -----------------------------------------------------


def lists_to_json_dict(assignment: ListAssignment) -> dict:
    """The lists JSON document of assignment.  Each distinct colour set is
    sorted once, so vertices with equal lists share one list object, which
    json_dumps renders once.  A list that leaves the universe raises
    ValueError naming its first vertex in the assignment's order, as
    parse_lists_json would refuse the file."""
    lists = assignment.lists
    palette = frozenset(assignment.universe)
    rows = {colors: sorted(colors) for colors in set(lists.values())}
    if not all(map(palette.issuperset, rows)):
        v = next(v for v, colors in lists.items() if not palette.issuperset(colors))
        raise ValueError(f"list of vertex {clip(v)} leaves the universe")
    return {
        "universe": sorted(assignment.universe),
        "lists": {str(v): rows[colors] for v, colors in lists.items()},
    }


def _canonical(key: str) -> bool:
    """Whether key is an integer in canonical decimal ("7", not "07" or "x")."""
    try:
        return str(int(key)) == key
    except ValueError:  # not decimal, or over 4,300 digits
        return False


def parse_lists_json(text: str) -> ListAssignment:
    """The list assignment of a lists JSON text: {"universe": [colours],
    "lists": {"<vertex>": [colours]}}.

    One pass checks each rule over the whole document by C-level map, set,
    min and max, in this order, and the first rule broken raises ValueError
    naming its first offender in document order, searched for only then:
    lists is an object; the universe is an array of at most
    MAX_INPUT_VERTICES JSON integers (true and false are not), each in
    0..COLOUR_BOUND - 1, none repeated; each vertex key is a canonical
    decimal integer ("7", not "07", " 7", "+7", "7_0", nor over 4,300 digits)
    in 0..MAX_INPUT_VERTICES - 1; each list is an array of integers, each in
    the universe, none repeated.  Colours and keys are range-checked before
    any set or dict holds them (ints that differ by a multiple of 2^61 - 1
    share one hash).  Equal lists share one frozenset.
    """
    doc = _read_json(text, "lists", ("universe", "lists"))
    universe, lists = doc["universe"], doc["lists"]
    if not isinstance(lists, dict):
        raise ValueError("lists JSON must map vertices to colour lists")
    if type(universe) is not list or not set(map(type, universe)) <= {int}:
        raise ValueError("lists JSON universe must be an array of integers")
    if len(universe) > MAX_INPUT_VERTICES:
        raise ValueError(f"lists JSON universe has {len(universe)} colours, "
                         f"over the limit of {MAX_INPUT_VERTICES}")
    if universe and not 0 <= min(universe) <= max(universe) < COLOUR_BOUND:
        colour = next(c for c in universe if not 0 <= c < COLOUR_BOUND)
        raise ValueError(f"lists JSON universe colour {clip(colour)} is outside "
                         f"0..{COLOUR_BOUND - 1}")
    palette = frozenset(universe)
    if len(palette) != len(universe):
        raise ValueError(f"lists JSON universe repeats colour {clip(_first_repeat(universe))}")
    keys = list(lists)
    try:
        vertices = list(map(int, keys))
    except ValueError:  # so some key is not canonical
        vertices = []
    if list(map(str, vertices)) != keys:
        key = next(k for k in keys if not _canonical(k))
        raise ValueError(f"vertex key {clip(key)} is not a canonical integer")
    if vertices and not 0 <= min(vertices) <= max(vertices) < MAX_INPUT_VERTICES:
        v = next(v for v in vertices if not 0 <= v < MAX_INPUT_VERTICES)
        raise ValueError(f"vertex key {clip(v)} is outside 0..{MAX_INPUT_VERTICES - 1}")
    values = list(lists.values())
    flat = list(chain.from_iterable(values)) if set(map(type, values)) <= {list} else [None]
    if not set(map(type, flat)) <= {int}:
        v = next(v for v, colours in zip(vertices, values)
                 if type(colours) is not list or not set(map(type, colours)) <= {int})
        raise ValueError(f"the list of vertex {v} is not an array of integers")
    if not all(map(palette.__contains__, flat)):  # so every listed colour is in range
        v = next(v for v, colours in zip(vertices, values)
                 if not all(map(palette.__contains__, colours)))
        raise ValueError(f"list of vertex {v} leaves the universe")
    rows = list(map(tuple, values))
    distinct = set(rows)
    frozen = dict(zip(distinct, map(frozenset, distinct)))
    if any(map(ne, map(len, frozen), map(len, frozen.values()))):
        v, colours = next((v, c) for v, c in zip(vertices, values) if len(set(c)) != len(c))
        raise ValueError(f"the list of vertex {v} repeats colour {clip(_first_repeat(colours))}")
    return ListAssignment(universe=tuple(sorted(palette)),
                          lists=dict(zip(vertices, map(frozen.__getitem__, rows))))


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
            "nodes": 1,  # the count refutes at the root, as the solvers' node 1 does
            "complete": True,  # a budget stop raises, so every refutation is whole
        },
    }
