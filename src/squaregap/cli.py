"""Command-line surface: construct, verify, certify, solve-list, mols.

Payloads go to stdout and are byte-identical across identical
invocations; the run envelope (outcome, elapsed milliseconds) goes to
stderr.  Exit codes: 0 pass, 1 check failure or UNSAT, 2 invalid
parameters or unparsable input, 3 I/O failure, 4 time budget or memory
exhausted, 5 internal error (any other exception, reported without a
traceback).
"""

import argparse
import contextlib
import errno
import itertools
import json
import math
import sys
import time

from . import coloring, serialize, verification
from .construction import (construct_counterexample, counterexample_upper, part_sets,
                           vertex_names)
from .errors import SearchBudgetExceeded, clip
from .graphcore import SimpleGraph, square
from .latin import are_orthogonal, build_mols_family, is_latin

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


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
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds >= 0, got {clip(text)}")
    return value


def _order(text: str) -> int:
    """argparse type for --n: an integer whose 2n^2 - n vertex graph, if n > 0, is
    within serialize.MAX_INPUT_VERTICES, checked before any primality test or allocation."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {clip(text)}") from None
    if value > 0 and 2 * value * value - value > serialize.MAX_INPUT_VERTICES:
        raise argparse.ArgumentTypeError(
            f"the graph for n = {clip(value)} would exceed {serialize.MAX_INPUT_VERTICES} vertices")
    return value


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="squaregap",
        description="Construct graphs whose squares are complete multipartite "
                    "and certify the gap between choosability and chromatic number.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the graph and serialize it")
    p.add_argument("--n", type=_order, required=True, help="prime order, at least 3")
    p.add_argument("--format", choices=["dot", "dimacs", "json"], default="json")
    p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("verify", help="run the structural checks")
    p.add_argument("--n", type=_order, required=True)
    p.add_argument("--lemma", choices=["all", *verification.LEMMAS], default="all")

    p = sub.add_parser("certify", help="emit a choosability-gap certificate")
    p.add_argument("--n", type=_order, required=True)
    p.add_argument("--budget-seconds", type=_budget_seconds, default=None)

    p = sub.add_parser("solve-list", help="decide list-colorability of a graph file")
    p.add_argument("--graph", required=True, help="graph in DIMACS .col or graph JSON")
    p.add_argument("--lists", required=True, help="list assignment JSON")
    p.add_argument("--budget-seconds", type=_budget_seconds, default=None)

    p = sub.add_parser("mols", help="print the orthogonal Latin square family")
    p.add_argument("--n", type=_order, required=True)
    p.add_argument("--check", action="store_true",
                   help="re-validate Latin and orthogonality properties")

    return parser.parse_args(argv)


def _cmd_construct(args) -> tuple[str, str]:
    # the payload reads only the upper rows, labels and sets, all without the graph
    upper = counterexample_upper(args.n)
    if args.format == "dimacs":
        return "pass", serialize.graph_to_dimacs(len(upper), upper)
    labels = dict(enumerate(vertex_names(args.n)))
    if args.format == "dot":
        return "pass", serialize.graph_to_dot(len(upper), upper, labels)
    doc = serialize.graph_to_json_dict(len(upper), upper, labels,
                                       *serialize.named_sets(*part_sets(args.n)))
    return "pass", serialize.json_dumps(doc)


def _cmd_verify(args) -> tuple[str, str]:
    gc = construct_counterexample(args.n)
    sq = square(gc.graph, gc.n)
    lemmas = verification.LEMMAS if args.lemma == "all" else (args.lemma,)
    reports = {lemma: verification.run_check(lemma, sq, gc) for lemma in lemmas}
    all_passed = all(r.passed for r in reports.values())
    doc = {
        "n": args.n,
        "lemma": args.lemma,
        "reports": {name: serialize.report_to_json_dict(r) for name, r in reports.items()},
        "all_passed": all_passed,
    }
    if "structure" in reports:
        parts = gc.p_sets + gc.q_sets  # the parts check_square_structure verified
        doc["structure_parts"] = {
            "count": len(parts),
            "sizes": [len(p) for p in parts],
        }
    return ("pass" if all_passed else "fail"), serialize.json_dumps(doc)


def _cmd_certify(args) -> tuple[str, str]:
    cert = coloring.certify_gap(args.n, budget_seconds=args.budget_seconds)
    return "pass", serialize.json_dumps(serialize.certificate_to_json_dict(cert))


def _load_graph_file(path: str) -> SimpleGraph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        g, _ = serialize.parse_graph_json(text)
        return g
    return serialize.parse_dimacs(text)


def _cmd_solve_list(args) -> tuple[str, str]:
    deadline = None if args.budget_seconds is None else time.monotonic() + args.budget_seconds
    g = _load_graph_file(args.graph)
    with open(args.lists, encoding="utf-8") as fh:
        assignment = serialize.parse_lists_json(fh.read())
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
    return ("pass" if result.satisfiable else "fail"), serialize.json_dumps(doc)


def _cmd_mols(args) -> tuple[str, str]:
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
    return outcome, "\n".join(lines) + "\n"


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "solve-list": _cmd_solve_list,
    "mols": _cmd_mols,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    # an order below 3 or a path reaches here at any length; the envelope clips it
    parameters = {k: clip(v) if isinstance(v, (int, str)) and len(str(v)) > 60 else v
                  for k, v in vars(args).items() if k != "command"}
    message = None  # set by a failure, printed before the envelope
    try:
        outcome, payload = _HANDLERS[args.command](args)
        code = EXIT_PASS if outcome == "pass" else EXIT_FAIL
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        elif sys.stdout is None or sys.stdout.closed:  # None: closed at startup
            raise OSError(errno.EBADF, "stdout is closed")
        else:
            sys.stdout.write(payload)
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
