"""squaregap benchmark: one workload, a closed loop with one client.

Usage (from the repository root):

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Workloads: verify-sweep, refute, solve, io-roundtrip (see bench/NOTES.md).
Each pass runs every operation of the workload once through
``squaregap.cli.main`` in fresh worker interpreters, one operation in
flight at a time, and checks every output.  Passes repeat until
``--seconds`` have gone by.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, times scaled to the reference speed of speed.py;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object.  The full record, with environment and
spans, goes to bench/results/.
"""

import argparse
import collections
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9  # set-up time is the median of this many fresh interpreters
IMPORTTIME_SPAWNS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the program does


def _median(values):
    """Median; of whole numbers, the lower middle value, so counts stay exact."""
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _tail(values):
    """(p, value) for the highest percentile with at least ten samples above it, else None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(1, math.ceil(p * n / 100)) - 1]


def _environment():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit or None}


def _worker_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SQUAREGAP_LOG")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


# After the import, the child reads the clock (CLOCK_MONOTONIC, shared by all
# processes) and times the host-speed kernel on the processor it ran on.
_SETUP_CHILD = ("import time; import squaregap.cli; done = time.perf_counter(); "
                f"import sys; sys.path.insert(0, {str(BENCH)!r}); import speed; "
                "print(done, speed.burst())")


def _spawn_import(env, importtime, deadline):
    """Spawn an interpreter that imports squaregap.cli.

    Returns (seconds from spawn to finished import, the same scaled to the
    reference speed, stderr); with `importtime` only the stderr is measured.
    """
    cmd = [sys.executable] + (["-X", "importtime", "-c", "import squaregap.cli"]
                              if importtime else ["-c", _SETUP_CHILD])
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"import squaregap.cli failed: {proc.stderr.strip()[-500:]}")
    if importtime:
        return None, None, proc.stderr
    done, kernel_s = map(float, proc.stdout.split())
    return done - start, (done - start) * speed.NOMINAL_S / kernel_s, proc.stderr


def _import_seconds(stderr):
    """(numpy, squaregap without numpy) cumulative import seconds from -X importtime."""
    numpy_us, total_us = 0, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = int(cumulative)
        if name.startswith(" squaregap"):  # top level: one space after the bar
            total_us += int(cumulative)
    return numpy_us / 1e6, (total_us - numpy_us) / 1e6


def _run_pass(jobs, traced, env, deadline):
    """Run every worker group once; returns the pass record."""
    ops, peak, span_list, counts = [], 0.0, [], {}
    for job_path, group in jobs:
        result_path = job_path.with_suffix(".result.json")
        result_path.unlink(missing_ok=True)
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path),
                                   str(result_path), str(int(traced))],
                                  env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(1.0, deadline - time.perf_counter()))
            problem = proc.stderr.strip()[-500:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            problem = "worker stopped at the run's time limit"
        if problem is None:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            ops += result["ops"]
            peak = max(peak, result["peak_rss_mb"])
            offset = len(span_list)
            span_list += [[n, s, e, None if p is None else p + offset, o]
                          for n, s, e, p, o in result.get("spans", [])]
            for key, value in result.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
        else:
            ops += [{"id": op["id"], "seconds": 0.0, "cpu_s": 0.0, "scaled_s": 0.0,
                     "error": f"worker failed: {problem}"} for op in group]
    return {"traced": traced, "ops": ops, "peak_rss_mb": peak,
            "wall_s": None if traced else sum(op["scaled_s"] for op in ops),
            "raw_wall_s": sum(op["seconds"] for op in ops),
            "cpu_s": sum(op["cpu_s"] for op in ops), "spans": span_list, "counts": counts}


def _layer_values(record):
    """Per-layer values of one traced pass, keyed by metric name."""
    own = spans.self_times(record["spans"])
    names = [f"{short}.{f}" for short, fs in spans.WRAPPED.items() for f in fs]
    names += ["graphcore.SimpleGraph", "graphcore.from_edges"]
    values = {}
    for name in names:
        values[f"{name}.self_s"], values[f"{name}.calls"] = own.get(name, (0.0, 0))

    def self_sum(short, fnames):
        return sum(values[f"{short}.{f}.self_s"] for f in fnames)

    counts = record["counts"]
    cases, nodes = counts.get("verification.cases", 0), counts.get("coloring.nodes", 0)
    check_s, solve_s = self_sum("verification", spans.CHECKS), self_sum("coloring", spans.SOLVERS)
    sat_nodes = counts.get("coloring.sat_nodes", 0)
    values.update({
        "serialize.write.self_s": self_sum("serialize", spans.WRITERS),
        "serialize.read.self_s": self_sum("serialize", spans.READERS),
        "serialize.bytes_written": counts.get("serialize.bytes_written", 0),
        "serialize.bytes_read": counts.get("serialize.bytes_read", 0),
        "verification.cases": cases,
        "verification.cases_per_s": cases / check_s if check_s else 0.0,
        "coloring.nodes": nodes,
        "coloring.nodes_per_s": nodes / solve_s if solve_s else 0.0,
        "coloring.sat_vertices_per_node":
            counts.get("coloring.sat_vertices", 0) / sat_nodes if sat_nodes else 0.0,
    })
    return values


def _measure(args, env, workdir):
    ops = workloads.build(args.workload, args.seed, str(workdir))
    largest = next(op["id"] for op in ops if op.get("largest"))
    jobs = []
    for i, group in enumerate(workloads.worker_groups(ops)):
        path = workdir / f"job-{i}.json"
        path.write_text(json.dumps({"src": str(SRC), "ops": group}), encoding="utf-8")
        jobs.append((path, group))

    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = [_spawn_import(env, False, deadline)[:2] for _ in range(SETUP_SPAWNS)]
    imports = [_import_seconds(_spawn_import(env, True, deadline)[2])
               for _ in range(IMPORTTIME_SPAWNS if args.trace else 0)]
    passes = []
    loop_start = time.perf_counter()
    while (len(passes) < 1 + args.trace or time.perf_counter() - loop_start < args.seconds) \
            and time.perf_counter() < deadline:
        passes.append(_run_pass(jobs, bool(args.trace and len(passes) % 2), env, deadline))
    return ops, largest, setup, imports, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "squaregap" / "cli.py").is_file():
        print(f"bench: no squaregap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        ops, largest, setup, imports, passes = _measure(args, env=_worker_env(),
                                                        workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or bool(args.trace) != bool(traced):
        print("bench: set-up left no time for the passes", file=sys.stderr)
        return 1
    all_ops = [op for p in passes for op in p["ops"]]
    ok = sum(op["error"] is None and op.get("wrong") is None for op in all_ops)
    largest_ops = [next(op for op in p["ops"] if op["id"] == largest) for p in plain]
    samples = {  # name: samples per pass (per spawn for setup_s), of which the median counts
        "setup_s": [scaled for _, scaled in setup],
        "raw_setup_s": [raw for raw, _ in setup],
        "wall_s": [p["wall_s"] for p in plain],
        "raw_wall_s": [p["raw_wall_s"] for p in plain],
        "largest_op_s": [op["scaled_s"] for op in largest_ops],
        "raw_largest_op_s": [op["seconds"] for op in largest_ops],
        "cpu_s": [p["cpu_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    values = {name: _median(v) for name, v in samples.items()}
    values["ok_ratio"] = ok / len(all_ops)
    if traced:
        layers = [_layer_values(p) for p in traced]
        values.update({key: _median([v[key] for v in layers]) for key in layers[0]})
        values["import.numpy_s"] = _median([n for n, _ in imports])
        values["import.squaregap_s"] = _median([s for _, s in imports])
        values["trace.overhead_ratio"] = (
            _median([p["cpu_s"] for p in traced]) / values["cpu_s"] - 1)
        counts = [{k: v for k, v in layer.items() if isinstance(v, int)} for layer in layers]
        counts_repeat = all(c == counts[0] for c in counts)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced  operations per pass {len(ops)}  largest {largest}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<16} {_fmt(values[m['name']])} {m['unit']}")
    print(f"  cpu_s            {_fmt(values['cpu_s'])} s (CPU time of a pass, for comparison)")
    for name in ("setup_s", "wall_s", "largest_op_s"):
        print(f"  {'raw_' + name:<16} {_fmt(values['raw_' + name])} s "
              f"(not scaled to the reference speed)")
    for name in ("wall_s", "largest_op_s"):
        tail = _tail(samples[name])
        print(f"  {name} over {len(samples[name])} passes: median {values[name]:.6g} s, " + (
            f"p{tail[0]} {tail[1]:.6g} s" if tail else "no percentile has ten samples above it"))
    if traced:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<48} {_fmt(values[m['name']])} {m['unit']}")
        if not counts_repeat:
            print("  warning: call and work counts differ between traced passes")
    failures = collections.Counter((op["id"], op["error"] or op.get("wrong")) for op in all_ops
                                   if op["error"] or op.get("wrong"))
    for (op_id, reason), times in sorted(failures.items()):
        print(f"  FAILED {op_id} in {times} of {len(passes)} passes: {reason}")

    (BENCH / "results").mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(), "values": values,
              "setup_s_samples": setup, "import_samples": imports, "passes": passes}
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not any(op.get("wrong") for op in all_ops),
                      "attempted": len(all_ops), "failed": len(all_ops) - ok,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
