"""Deterministic text formats: DOT, DIMACS .col, and the JSON schemas.

Everything here is byte-stable: edges sorted (u, v) with u < v, JSON
emitted with sorted keys, no timestamps or machine-local data in any
payload.  The graph writers take a graph as its upper rows (upper[u] is
the ascending list of u's neighbours above u, as SimpleGraph.upper()
gives them) and write one vertex's edge lines with a single str.join.
Each writer yields its text in pieces (json_chunks, dimacs_chunks,
dot_chunks), which the CLI streams, and the graph readers decode the
layouts these writers give in pieces of about _PIECE characters.
"""

import json
from collections.abc import Iterator
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import ne

from .coloring import GapCertificate, ListAssignment
from .construction import part_sets, vertex_names
from .errors import clip
from .graphcore import SimpleGraph, _first_faulty_edge, edge_rows
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
    """n, checked against MAX_INPUT_VERTICES, then for its sign, before any
    row is allocated."""
    if n > MAX_INPUT_VERTICES:
        raise ValueError(f"vertex count {clip(n)} exceeds the limit of {MAX_INPUT_VERTICES}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {clip(n)}")
    return n


def _edge_lines(upper: list[list[int]], names: list[str], template: str,
                sep: str = "\n", end: str = "") -> Iterator[str]:
    """One string per vertex u with neighbours above it: template with {u} and
    {v} replaced by names[u] and names[v], for each v in upper[u], joined by
    sep, then end."""
    head, _, tail = template.partition("{v}")
    for u, row in enumerate(upper):
        if row:
            lead = head.replace("{u}", names[u])
            glue = f"{tail}{sep}{lead}"
            yield f"{lead}{glue.join(map(names.__getitem__, row))}{tail}{end}"


class EdgeRows:
    """A graph's edges as its upper rows, which json_dumps writes as the sorted
    list of [u, v] pairs that json.dumps would write for them."""

    __slots__ = ("upper",)

    def __init__(self, upper: list[list[int]]):
        self.upper = upper


# An int list of up to this many ints is one piece of json_chunks, rendered once
# per call; a longer one, which no payload repeats, comes one int at a time.
_LIST_PIECE = 1024


def json_dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) plus a newline,
    where an EdgeRows value stands for its list of [u, v] pairs: the pieces
    of json_chunks(obj), joined."""
    return "".join(json_chunks(obj))


def json_chunks(obj) -> Iterator[str]:
    """The text of json_dumps(obj) in pieces: a str-keyed dict comes one
    entry at a time, an EdgeRows value one vertex at a time, any other list
    one element at a time, and an int list of at most _LIST_PIECE ints, like
    every other value, as one piece.

    The standard library indents only in its pure-Python encoder, one
    generator step per token.  This writer walks lists and str-keyed dicts
    itself, writes true, false and null directly and joins each list of ints
    in one str.join; every other value goes to json.dumps, re-indented to its
    depth, which is safe because encoded JSON holds no raw newline inside a
    string.

    Each int list piece is rendered once per object and depth: memo maps
    (id(list), pad) to its text for this one call.  An id names one object
    only while it lives, which is sound because obj keeps every object in
    the document alive until the last piece is taken; a list that the writer
    builds itself must never be memoized, as its id could be reused.
    """
    memo = {}
    text = _indented(obj, "", memo)
    if text is None:
        yield from _chunks(obj, "", memo, "")
    else:
        yield text
    yield "\n"


def _chunks(obj, pad: str, memo: dict, lead: str) -> Iterator[str]:
    """json_chunks's pieces of obj, a value that _indented gives no text,
    at indent pad, the first one after lead."""
    inner = pad + "  "
    if type(obj) is EdgeRows:
        deeper = inner + "  "
        lead += "[\n"
        for line in _edge_lines(obj.upper, list(map(str, range(len(obj.upper)))),
                                f"{inner}[\n{deeper}{{u}},\n{deeper}{{v}}\n{inner}]", ",\n"):
            yield lead
            yield line
            lead = ",\n"
        yield f"\n{pad}]"
        return
    if type(obj) is dict:
        keys = sorted(obj)
        items = zip([f"{_encode_str(key)}: " for key in keys], map(obj.__getitem__, keys))
        lead, close = f"{lead}{{\n{inner}", "}"
    else:
        items = zip(repeat(""), obj)
        lead, close = f"{lead}[\n{inner}", "]"
    for head, value in items:
        text = _indented(value, inner, memo)
        if text is None:
            yield from _chunks(value, inner, memo, lead + head)
        else:
            yield f"{lead}{head}{text}"
        lead = ",\n" + inner
    yield f"\n{pad}{close}"


def _indented(obj, pad: str, memo: dict) -> str | None:
    """The text of obj at indent pad if it is one piece of json_chunks: a
    leaf, an empty container or an int list of at most _LIST_PIECE ints.
    None for a value that _chunks walks: a non-empty str-keyed dict, an
    EdgeRows value with an edge, or any other non-empty list."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is EdgeRows:
        return None if any(obj.upper) else "[]"
    if kind is dict and obj and all(type(k) is str for k in obj):
        return None
    if (kind is list or kind is tuple) and obj:
        key = (id(obj), pad)
        text = memo.get(key)
        if text is None and len(obj) <= _LIST_PIECE and set(map(type, obj)) == {int}:
            inner = pad + "  "
            text = memo[key] = f"[\n{inner}" + f",\n{inner}".join(map(str, obj)) + f"\n{pad}]"
        return text
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


# -- DIMACS .col --------------------------------------------------------------


def graph_to_dimacs(n: int, upper: list[list[int]]) -> str:
    """DIMACS .col text of the graph on n vertices with upper rows upper, 1-based."""
    return "".join(dimacs_chunks(n, upper))


def dimacs_chunks(n: int, upper: list[list[int]]) -> Iterator[str]:
    """The text of graph_to_dimacs(n, upper) in pieces: the problem line, then
    one piece per vertex with neighbours above it."""
    yield f"p edge {n} {sum(map(len, upper))}\n"
    yield from _edge_lines(upper, list(map(str, range(1, n + 1))), "e {u} {v}", end="\n")


# Input text is decoded _PIECE characters or a little more at a time (_pieces)
_PIECE = 1 << 16


def _pieces(text: str, start: int, end: int, mark: str, keep: int) -> Iterator[str]:
    """text[start:end] in pieces, each cut at the first mark that starts at
    least _PIECE characters past the last cut: a piece ends keep characters
    into its mark, and the next starts one character into it."""
    while (cut := text.find(mark, start + _PIECE, end)) >= 0:
        yield text[start:cut + keep]
        start = cut + 1
    yield text[start:end]


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


def _edge_block(body: str) -> Iterator[tuple[int, int]]:
    """The edges of body, as written, if it is a canonical edge block: lines
    "e u v", each ending in a newline, with single spaces and endpoints in
    canonical decimal.  Anything else raises ValueError, which edge_rows
    takes as a faulty edge.  The endpoints are not checked against any
    vertex count.

    body, which starts with "e ", is checked and decoded by C-level bytes
    methods and one json.loads, with no Python step per line.  With its
    digits deleted, a canonical block is "e  \n" once per line, and every
    newline but the last is followed by "e ": so every line starts with
    "e " and the block ends in a newline, digits aside.  That pins where
    every "e", space and newline stands and leaves no other character.
    One translate then makes each "e" a space, each space a comma and each
    newline a space, and json.loads refuses an empty endpoint, a leading
    zero and digits after the last newline, so each line gives exactly two
    non-negative integers (an endpoint over 4300 digits raises ValueError
    too).
    """
    if not body.isascii():
        raise ValueError("not a canonical edge block")
    raw = body.encode()
    skeleton = raw.translate(None, b"0123456789")
    lines = len(skeleton) // 4
    if skeleton != b"e  \n" * lines or raw.count(b"\ne ") != lines - 1:
        raise ValueError("not a canonical edge block")
    ends = json.loads(b"[" + raw[2:].translate(_EDGE_BLOCK_JSON) + b"]")
    return zip(ends[::2], ends[1::2])


def _record_lines(lines: list[str], kind: str) -> Iterator[int]:
    """The numbers, from 1, of the lines whose first field is kind, among
    lines the line loop read without a fault: so each is a record of that
    kind."""
    return (k for k, raw in enumerate(lines, start=1) if raw.split()[:1] == [kind])


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
    malformed line raises ValueError naming its number; so do a vertex
    count over MAX_INPUT_VERTICES or below 0, naming the problem line in
    force, and an edge out of range and a self-loop, with the endpoints as
    written; a missing problem line raises it too.

    A text as graph_to_dimacs writes it takes the bulk path: its header,
    the lines up to the first newline followed by "e ", goes through the
    line loop, and the rest must be a canonical edge block (_edge_block),
    decoded in pieces of about _PIECE characters, each cut before a line
    "e ..." and decoded in one json.loads, so no list of every endpoint is
    held.  Their 1-based endpoints fill n + 1 bit rows (edge_rows), which is
    their only check: an endpoint above n or a self-loop fails the fill,
    and an endpoint 0 leaves row 0 set.  Any other text, one whose header
    lacks a problem line or holds an edge (a first line "e 1 2", or an edge
    spelled otherwise) or a vertex count out of range, and one with a piece
    that fails those checks are read by the line loop alone, which names the
    first failure.
    """
    cut = text.find("\ne ") + 1  # where the edge block starts; 0 if none does
    if cut:
        n, edges = _dimacs_records(text[:cut].splitlines())
        if not edges and n is not None and 0 <= n <= MAX_INPUT_VERTICES:
            rows = edge_rows(n + 1, chain.from_iterable(
                map(_edge_block, _pieces(text, cut, len(text), "\ne ", 1))))
            if rows is not None and not rows[0]:
                # vertex 0 is bare: drop its row and shift the others down one bit
                return SimpleGraph._from_rows(n, tuple([row >> 1 for row in rows[1:]]))
    lines = text.splitlines()
    n, edges = _dimacs_records(lines)
    if n is None:
        raise ValueError("missing 'p edge' problem line")
    try:
        _vertex_count(n)
    except ValueError as exc:  # name the problem line in force, the last one
        raise ValueError(f"line {max(_record_lines(lines, 'p'))}: {exc}") from None
    rows = edge_rows(n, edges)
    if rows is None:  # name the first faulty edge by its line, with its endpoints as written
        index, u, v, out_of_range = _first_faulty_edge(n, edges)
        message = (f"edge {clip(u + 1)} {clip(v + 1)} out of range for {n} vertices"
                   if out_of_range else f"self-loop at {u + 1} not allowed")
        raise ValueError(f"line {next(islice(_record_lines(lines, 'e'), index, None))}: {message}")
    return SimpleGraph._from_rows(n, tuple(rows))


# -- DOT ----------------------------------------------------------------------


def graph_to_dot(n: int, upper: list[list[int]],
                 labels: dict[int, str] | None = None) -> str:
    """DOT text of the graph on n vertices with upper rows upper; a vertex with
    a non-empty label gets it as its label attribute, a quoted string with
    its backslashes and double quotes escaped."""
    return "".join(dot_chunks(n, upper, labels))


def dot_chunks(n: int, upper: list[list[int]],
               labels: dict[int, str] | None = None) -> Iterator[str]:
    """The text of graph_to_dot(n, upper, labels) in pieces: one per vertex
    line, then one per vertex with neighbours above it."""
    yield "graph G {\n"
    for v in range(n):
        name = ((labels or {}).get(v) or "").replace("\\", "\\\\").replace('"', '\\"')
        yield f'  {v} [label="{name}"];\n' if name else f"  {v};\n"
    yield from _edge_lines(upper, list(map(str, range(n))), "  {u} -- {v};", end="\n")
    yield "}\n"


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


def _read_json(text: str, kind: str, keys: tuple[str, str], parse_constant=None) -> dict:
    """The JSON object in text, which must carry keys; parse_constant, if
    given, reads NaN, Infinity and -Infinity.

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
        doc = json.loads(text, object_pairs_hook=unique, parse_constant=parse_constant)
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


# The layout json_dumps gives a graph document's edges: the array opens after
# _EDGES_KEY, each pair is _PAIR once its digits are deleted, pairs are joined
# by a comma, and the array closes at _EDGES_END.
_EDGES_KEY = '\n  "edges": ['
_EDGES_END = "\n  ]"
_PAIR = b"\n    [\n      ,\n      \n    ]"
_EDGES = object()  # what the bulk path reads for the NaN put in place of the edges


def _json_pairs(piece: str) -> Iterator[tuple[int, int]]:
    """The pairs of a piece of a graph JSON edge array in json_dumps's layout:
    "[\n      u,\n      v\n    ]" at indent 4, joined by commas, with u and
    v in canonical decimal.  Any other piece raises ValueError, which
    edge_rows takes as a faulty edge.

    With its digits deleted the piece must read as _PAIR once per pair, and
    with them, start and end as the pattern does and join its pairs by the
    pattern's own "],\n    [": so digits stand only inside brackets.  With
    the brackets deleted one json.loads then refuses an empty slot, a
    leading zero and digits that run together, so each pair gives exactly
    two non-negative integers, in its brackets as the full reader reads them.
    """
    raw = piece.encode()
    skeleton = raw.translate(None, b"0123456789") + b","
    count = len(skeleton) // (len(_PAIR) + 1)
    if (skeleton != (_PAIR + b",") * count or raw.count(b"],\n    [") != count - 1
            or not raw.startswith(b"\n    [") or not raw.endswith(b"]")):
        raise ValueError("not json_dumps's layout of an edge array")
    ends = json.loads(b"[" + raw.translate(None, b"[]") + b"]")
    return zip(ends[::2], ends[1::2])


def _graph_json_bulk(text: str) -> tuple[SimpleGraph, dict] | None:
    """What parse_graph_json gives for text, if text holds its edges as
    json_dumps writes them, else None.

    The edge array is taken to open at the first _EDGES_KEY and to close at
    the last _EDGES_END.  The rest of the text, with NaN in place of that
    array, goes to _read_json, which reads NaN as _EDGES; the array's inside
    goes to edge_rows in pieces of about _PIECE characters, each cut before
    a pair and read by _json_pairs.  That reads text exactly as the full
    reader would when neither side of the array holds NaN and the document's
    top-level "edges" value is _EDGES: then the NaN stood where an array
    stands in the full text, and its key is the top-level one, named once (a
    nested "edges" key, a repeated key or text after the array fails).  The
    pairs are in range and no self-loop when the fill succeeds, and
    n_vertices is an int in 0..MAX_INPUT_VERTICES.  Every other text gives
    None, and so the full reader names its first fault.
    """
    head = text.find(_EDGES_KEY)
    start, end = head + len(_EDGES_KEY), text.rfind(_EDGES_END)
    if head < 0 or end < start or text.find("NaN", 0, start) >= 0 or text.find("NaN", end) >= 0:
        return None
    try:
        doc = _read_json(f"{text[:start - 1]}NaN{text[end + len(_EDGES_END):]}", "graph",
                         ("n_vertices", "edges"),
                         lambda name: _EDGES if name == "NaN" else float(name))
    except ValueError:
        return None
    n = doc["n_vertices"]
    if doc["edges"] is not _EDGES or type(n) is not int or not 0 <= n <= MAX_INPUT_VERTICES:
        return None
    rows = edge_rows(n, chain.from_iterable(
        map(_json_pairs, _pieces(text, start, end, ",\n    [", 0))))
    if rows is None:
        return None
    del doc["edges"]
    return SimpleGraph._from_rows(n, tuple(rows)), doc


def parse_graph_json(text: str) -> tuple[SimpleGraph, dict]:
    """The graph of a graph JSON text, {"n_vertices": n, "edges": [[u, v],
    ...]}, and the document without its edges, whose other keys are not read.

    Its rules, in this order, and the first rule broken raises ValueError:
    the text is a JSON object with both keys, none named twice; n_vertices
    is a JSON integer; edges is an array of pairs of JSON integers (true
    and false are not); n_vertices is at most MAX_INPUT_VERTICES, then not
    negative; each endpoint is in 0..n_vertices - 1, and no edge is a
    self-loop, the first faulty edge named as SimpleGraph.from_edges names it.

    A text as json_dumps writes it is read in bulk (_graph_json_bulk), with
    no list of its edges.  Any other text, the compact JSON of json.dumps
    among them, goes to the full reader.  A text there that holds neither
    "true" nor "false" holds no bool, and from_edges refuses every other
    endpoint that is no int, so such a text goes straight to from_edges.
    Each word is looked for from the first "t" or "f" on (a one-letter find
    runs by memchr; with no such letter the search starts at the last
    character and finds nothing).  Only when from_edges fails, or when the
    text could hold a bool, are the edges' types checked one by one, so
    that a refusal keeps the rule order above.
    """
    bulk = _graph_json_bulk(text)
    if bulk is not None:
        return bulk
    doc = _read_json(text, "graph", ("n_vertices", "edges"))
    n, edges = doc["n_vertices"], doc.pop("edges")
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
