"""The narrative demos and README's library tour run to completion, the CLI
starts without numpy, logging, dataclasses, inspect or typing, and the bench
tracer reads what it wraps.

Each check runs in a fresh interpreter with PYTHONPATH=src, so it sees
the package exactly as a user of the source tree does.  It writes no
bytecode, so the bench directory the tracer check imports from is left
as it was.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_import_leaves_numpy_out():
    proc = run_python("-c", "import sys, squaregap.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: a site hook (a .pth file) may import typing itself and hide a regression
    proc = run_python("-S", "-c", "import squaregap.cli, sys; "
                      "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_cli_imports_no_logging_and_main_adds_no_root_handler():
    # a fresh interpreter: pytest's own handlers on the root logger would hide one
    proc = run_python("-c", "import sys, squaregap.cli as cli; print('logging' in sys.modules); "
                            "import logging; cli.main(['mols', '--n', '3']); "
                            "print(logging.getLogger().handlers)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "[]")


TRACED_RUN = """
import collections, contextlib, io, json, sys
from squaregap import cli, serialize
sys.path.insert(0, "bench")
import spans
tracer = spans.Tracer()
tmp = sys.argv[1]
with open(f"{tmp}/g.col", "w") as fh:
    fh.write("p edge 2 1\\ne 1 2\\n")
with open(f"{tmp}/lists.json", "w") as fh:
    fh.write('{"universe": [1, 2], "lists": {"0": [1, 2], "1": [1, 2]}}')
solve = ["solve-list", "--graph", f"{tmp}/g.col", "--lists", f"{tmp}/lists.json"]
runs = [["verify", "--n", "3"], ["verify", "--n", "3", "--lemma", "nw"], ["certify", "--n", "3"],
        ["construct", "--n", "3", "--output", f"{tmp}/g.json"], solve]

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv), out.getvalue()

untraced = json.loads(run(solve)[1])["nodes"]
tracer.install()
done = []
for argv in runs:
    first, before = len(tracer.spans), collections.Counter(tracer.counts)
    code, out = run(argv)
    done.append({"code": code, "stdout": out, "counts": tracer.counts - before,
                 "spans": sorted({s[0] for s in tracer.spans[first:]})})
with open(f"{tmp}/g.json") as fh:
    serialize.parse_graph_json(fh.read())
print(json.dumps({"runs": done, "counts": tracer.counts, "untraced_nodes": untraced}))
"""
CHECKS = ("check_lemma_nw", "check_lemma_nv", "check_independence", "check_pq_adjacency",
          "check_square_structure")


def test_the_bench_tracer_reads_every_hooked_result(tmp_path):
    # spans._observe reads the return shapes of the checks, solvers, writers
    # and readers it wraps; a changed shape would otherwise surface only in
    # a traced bench run.  Each check must get a span, which a table of the
    # checks built at import (before the tracer rebinds them) would miss.
    proc = run_python("-c", TRACED_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    verify_all, verify_nw, _, _, solve = got["runs"]
    assert [r["code"] for r in got["runs"]] == [0, 0, 0, 0, 0]
    for count in ("verification.cases", "coloring.nodes", "serialize.bytes_written",
                  "serialize.bytes_read"):
        assert got["counts"].get(count, 0) > 0, count
    assert {f"verification.{name}" for name in CHECKS} <= set(verify_all["spans"])
    assert "verification.check_lemma_nw" in verify_nw["spans"]
    traced_nodes = json.loads(solve["stdout"])["nodes"]
    assert traced_nodes == got["untraced_nodes"] == solve["counts"]["coloring.nodes"]


def test_the_readme_library_tour_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S)
    assert tour, "README has no python block under Library tour"
    proc = run_python("-c", tour.group(1))
    assert proc.returncode == 0, proc.stderr[-2000:]
