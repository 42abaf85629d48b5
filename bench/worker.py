"""Run one group of benchmark operations in a fresh interpreter.

Usage: python3 worker.py JOB.json RESULT.json TRACE

TRACE is 1 to record spans (see spans.py), else 0.

The job lists operations that share no input, so nothing cached by one
can serve another.  Each operation is timed around ``squaregap.cli.main``
(plus parsing the written file, for round trips), by wall clock and by CPU
time.  In untraced runs the host-speed probe (speed.py) samples the
processor during the operations; its own time is taken out of both clocks,
and the wall time is also given scaled to the reference speed.  Outputs are checked only after every operation has run, and peak
memory is read before the checks, so neither the checker's time nor its
memory is counted.
"""

import contextlib
import io
import json
import resource
import sys
import time

import check
import speed


def _run(op, cli, serialize):
    """(exit code, stdout payload, parsed graph, error) of one operation."""
    out, code, parsed = io.StringIO(), None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op["argv"])
        if op.get("parse"):
            with open(op["output"], encoding="utf-8") as fh:
                text = fh.read()
            if op["parse"] == "dimacs":
                parsed = serialize.parse_dimacs(text)
            else:
                parsed, _ = serialize.parse_graph_json(text)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # counted as a failed operation, never aborts the run
        return code, out.getvalue(), parsed, f"{type(exc).__name__}: {str(exc)[:200]}"
    return code, out.getvalue(), parsed, None


def _check(op, code, payload, parsed):
    spec = op["check"]
    if spec["kind"] == "verify":
        return check.check_verify(spec["n"], code, payload)
    if spec["kind"] == "certify":
        return check.check_certify(spec["n"], code, payload)
    if spec["kind"] == "solve":
        return check.check_solve(spec["truth"], code, payload)
    if spec["fmt"] == "dot":
        with open(op["output"], encoding="utf-8") as fh:
            parsed = fh.read()
    return check.check_roundtrip(spec["n"], spec["fmt"], code, parsed)


def main(job_path, result_path, trace):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import squaregap
    from squaregap import cli, serialize

    if not squaregap.__file__.startswith(job["src"]):
        raise SystemExit(f"squaregap imported from {squaregap.__file__}, not {job['src']}")
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    probe = None if tracer else speed.Probe()
    if probe:
        probe.start()
    outputs, records, intervals = [], [], []
    for op in job["ops"]:
        if tracer:
            tracer.op = op["id"]
        start, start_cpu = time.perf_counter(), time.process_time()
        code, payload, parsed, error = _run(op, cli, serialize)
        end, end_cpu = time.perf_counter(), time.process_time()
        intervals.append((start, end))
        records.append({"id": op["id"], "seconds": end - start,
                        "cpu_s": end_cpu - start_cpu, "error": error})
        outputs.append((code, payload, parsed))
    if probe:
        probe.stop()
        for record, (start, end) in zip(records, intervals):
            spent, kernel_s = probe.measure(start, end)
            record["seconds"] -= spent
            record["cpu_s"] -= spent
            record.update(probe_s=spent, kernel_s=kernel_s,
                          scaled_s=record["seconds"] * speed.NOMINAL_S / kernel_s)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for op, record, (code, payload, parsed) in zip(job["ops"], records, outputs):
        if record["error"] is None:
            try:
                record["wrong"] = _check(op, code, payload, parsed)
            except Exception as exc:  # malformed output the checker cannot read
                record["wrong"] = f"unreadable output: {type(exc).__name__}: {exc}"
    result = {"ops": records, "peak_rss_mb": peak_kb / 1024}
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
