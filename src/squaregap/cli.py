"""Command-line surface: construct, verify, certify, solve-list, mols.

Payloads go to stdout and are byte-identical across identical
invocations; the run envelope (outcome, elapsed milliseconds) goes to
stderr.  Exit codes: 0 pass, 1 check failure or UNSAT, 2 invalid
parameters or unparsable input, 3 I/O failure, 4 time budget or memory
exhausted, 5 internal error (any other exception, reported without a
traceback).

Each command's handler, help and options live in one table, _COMMANDS,
and main dispatches through it.  A plain command line (the command, then
each option at most once by its exact name as ``--flag`` or ``--option
VALUE``, no VALUE empty or starting with '-') is read from the table
directly.  Any other (help, an abbreviation, ``--opt=value``, a usage
error) goes to an argparse parser built from the same table, so
argparse, loaded only then, words every message.

Each handler builds its whole document before it returns, so every check
that can exit 1, 2 or 4 runs before the first byte is written; it returns
the payload as pieces of text, which main writes in batches of about
_BATCH characters, to stdout or to --output.  Output is partial only when
a write fails, which exits 3.
"""

import contextlib
import errno
import itertools
import json
import math
import sys
import time
from collections.abc import Iterable
from types import SimpleNamespace

from . import coloring, serialize, verification
from .construction import counterexample_upper
from .errors import SearchBudgetExceeded, clip
from .graphcore import SimpleGraph, square_by_blocks
from .latin import are_orthogonal, build_mols_family, is_latin

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

# payload pieces are joined into writes of about this many characters
_BATCH = 1 << 16


def _envelope(command: str, parameters: dict, outcome: str, elapsed_ms: int) -> str:
    """The run envelope's JSON line; outcome is pass, fail or error."""
    return json.dumps({"command": command, "parameters": parameters, "outcome": outcome,
                       "elapsed_ms": elapsed_ms}, sort_keys=True, allow_nan=False)


def _os_message(exc: OSError) -> str:
    """str(exc), with the file name in it clipped: a path can be any length."""
    if exc.strerror is None or not isinstance(exc.filename, str):
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: {clip(exc.filename)}"


def _budget_seconds(text: str) -> float:
    """argparse type for --budget-seconds: a finite number of seconds, at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below with the same message
    if not 0 <= value < math.inf:
        import argparse  # only a refused value loads argparse
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds >= 0, got {clip(text)}")
    return value


def _order(text: str) -> int:
    """argparse type for --n: an integer whose 2n^2 - n vertex graph, if n > 0, is
    within serialize.MAX_INPUT_VERTICES, checked before any primality test or allocation."""
    try:
        value = int(text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(f"must be an integer, got {clip(text)}") from None
    if value > 0 and 2 * value * value - value > serialize.MAX_INPUT_VERTICES:
        import argparse
        raise argparse.ArgumentTypeError(
            f"the graph for n = {clip(value)} would exceed {serialize.MAX_INPUT_VERTICES} vertices")
    return value


def _read_args(argv):
    """The attributes argparse would set for a plain argv, else None.

    Plain: a command, then each of its options at most once by its exact
    name, as --flag or --option VALUE, every VALUE non-empty, not starting
    with '-', inside its choices and accepted by its type, and every
    required option given.  None sends argv to _parse_args unchanged."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    given = {}
    words = iter(argv[1:])
    for flag in words:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # store_true
            given[flag] = True
            continue
        text = next(words, "")  # a missing value falls back like an empty one
        if not text or text[0] == "-" or ("choices" in spec and text not in spec["choices"]):
            return None
        try:
            given[flag] = spec.get("type", str)(text)
        except Exception:  # argparse runs the type again and names the fault
            return None
    if any(spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    return SimpleNamespace(command=argv[0], **{flag[2:].replace("-", "_"): given.get(
        flag, spec.get("default")) for flag, spec in options.items()})


def _parse_args(argv):
    """argparse's reading of argv, by a parser built from _COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="squaregap",
        description="Construct graphs whose squares are complete multipartite "
                    "and certify the gap between choosability and chromatic number.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
    return parser.parse_args(argv)


def _cmd_construct(args) -> tuple[str, Iterable[str]]:
    # the payload reads only the upper rows, labels and sets, all without the graph
    upper = counterexample_upper(args.n)
    if args.format == "dimacs":
        return "pass", serialize.dimacs_chunks(len(upper), upper)
    if args.format == "dot":
        return "pass", serialize.dot_chunks(len(upper), upper,
                                            serialize.constructed_labels(args.n))
    return "pass", serialize.json_chunks(serialize.constructed_to_json_dict(args.n, upper))


def _cmd_verify(args) -> tuple[str, Iterable[str]]:
    # block form: the stars and one row of the square per block, no dense G or G^2
    stars = verification.checked_stars(args.n)
    rows = square_by_blocks(stars, args.n)
    lemmas = verification.LEMMAS if args.lemma == "all" else (args.lemma,)
    reports = verification.check_by_blocks(args.n, stars, rows, lemmas)
    all_passed = all(r.passed for r in reports.values())
    doc = {
        "n": args.n,
        "lemma": args.lemma,
        "reports": {name: serialize.report_to_json_dict(r) for name, r in reports.items()},
        "all_passed": all_passed,
    }
    if "structure" in reports:  # the parts it verified: 2n - 1 blocks of n vertices
        doc["structure_parts"] = {"count": 2 * args.n - 1, "sizes": [args.n] * (2 * args.n - 1)}
    return ("pass" if all_passed else "fail"), serialize.json_chunks(doc)


def _cmd_certify(args) -> tuple[str, Iterable[str]]:
    cert = coloring.certify_gap(args.n, budget_seconds=args.budget_seconds)
    return "pass", serialize.json_chunks(serialize.certificate_to_json_dict(cert))


def _load_graph_file(path: str) -> SimpleGraph:
    # utf-8-sig's text (one leading BOM dropped) through the codec loaded at start-up
    with open(path, encoding="utf-8") as fh:
        text = fh.read().removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        g, _ = serialize.parse_graph_json(text)
        return g
    return serialize.parse_dimacs(text)


def _cmd_solve_list(args) -> tuple[str, Iterable[str]]:
    deadline = None if args.budget_seconds is None else time.monotonic() + args.budget_seconds
    g = _load_graph_file(args.graph)
    with open(args.lists, encoding="utf-8") as fh:
        assignment = serialize.parse_lists_json(fh.read().removeprefix("\ufeff"))
    result = coloring.is_list_colorable(g, assignment, deadline=deadline)
    doc = {
        "satisfiable": result.satisfiable,
        "nodes": result.attestation.nodes,
        "complete": True,  # a budget stop raises instead of returning
    }
    if result.satisfiable:
        doc["coloring"] = {str(v): c for v, c in result.coloring.items()}
    if result.attestation.empty_list_vertex is not None:
        doc["empty_list_vertex"] = result.attestation.empty_list_vertex
    return ("pass" if result.satisfiable else "fail"), serialize.json_chunks(doc)


def _cmd_mols(args) -> tuple[str, Iterable[str]]:
    squares = build_mols_family(args.n)
    lines = []
    for i, sq in enumerate(squares, start=1):
        lines.append(f"L_{i}")
        for row in sq:
            lines.append(" ".join(map(str, row)))
        lines.append("")
    outcome = "pass"
    if args.check:
        latin_ok = all(map(is_latin, squares))
        orth_ok = all(are_orthogonal(a, b)
                      for a, b in itertools.combinations(squares, 2))
        lines.append(f"latin: {'ok' if latin_ok else 'FAILED'}")
        lines.append(f"orthogonal: {'ok' if orth_ok else 'FAILED'}")
        if not (latin_ok and orth_ok):
            outcome = "fail"
    return outcome, ("\n".join(lines), "\n")


# each command's handler, its help and, per option, the keyword arguments of its add_argument
_COMMANDS = {
    "construct": (_cmd_construct, "build the graph and serialize it", {
        "--n": {"type": _order, "required": True, "help": "prime order, at least 3"},
        "--format": {"choices": ["dot", "dimacs", "json"], "default": "json"},
        "--output": {"help": "write here instead of stdout"},
    }),
    "verify": (_cmd_verify, "run the structural checks", {
        "--n": {"type": _order, "required": True},
        "--lemma": {"choices": ["all", *verification.LEMMAS], "default": "all"},
    }),
    "certify": (_cmd_certify, "emit a choosability-gap certificate", {
        "--n": {"type": _order, "required": True},
        "--budget-seconds": {"type": _budget_seconds, "default": None},
    }),
    "solve-list": (_cmd_solve_list, "decide list-colorability of a graph file", {
        "--graph": {"required": True, "help": "graph in DIMACS .col or graph JSON"},
        "--lists": {"required": True, "help": "list assignment JSON"},
        "--budget-seconds": {"type": _budget_seconds, "default": None},
    }),
    "mols": (_cmd_mols, "print the orthogonal Latin square family", {
        "--n": {"type": _order, "required": True},
        "--check": {"action": "store_true", "default": False,
                    "help": "re-validate Latin and orthogonality properties"},
    }),
}


def _write(fh, pieces: Iterable[str]) -> None:
    """Write pieces to fh in batches of about _BATCH characters."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            fh.write("".join(batch))
            batch, size = [], 0
    fh.write("".join(batch))


def main(argv=None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv) or _parse_args(argv)
    started = time.perf_counter()
    # an order below 3 or a path reaches here at any length; the envelope clips it
    parameters = {k: clip(v) if isinstance(v, (int, str)) and len(str(v)) > 60 else v
                  for k, v in vars(args).items() if k != "command"}
    message = None  # set by a failure, printed before the envelope
    try:
        outcome, pieces = _COMMANDS[args.command][0](args)
        code = EXIT_PASS if outcome == "pass" else EXIT_FAIL
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as fh:
                _write(fh, pieces)
        elif sys.stdout is None or sys.stdout.closed:  # None: closed at startup
            raise OSError(errno.EBADF, "stdout is closed")
        else:
            _write(sys.stdout, pieces)
            sys.stdout.flush()
    except ValueError as exc:
        message, code = str(exc), EXIT_BAD_PARAMS
    except SearchBudgetExceeded as exc:
        message, code = f"{exc} (nodes={exc.nodes})", EXIT_BUDGET
    except OSError as exc:
        message, code = _os_message(exc), EXIT_IO
    except MemoryError:  # a resource stop, like the budget, not a bug
        message, code = "out of memory", EXIT_BUDGET
    except Exception as exc:  # last resort: exit 1 would read as UNSAT
        message = f"internal error: {type(exc).__name__}: {clip(str(exc))}"
        code = EXIT_INTERNAL
    if message is not None:
        outcome = "error"
    report = _envelope(args.command, parameters, outcome,
                       int((time.perf_counter() - started) * 1000))
    if message is not None:
        report = f"squaregap {args.command}: {message}\n{report}"
    # print(file=None) would write to stdout; a closed stderr costs only the report
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(report, file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
