"""Which ``src/repro`` functions does no run ever call?

    python benchmarks/reach.py        # or: make reach   (~10 min, not in CI)

A *run* is what ``tests/test_unreachable.py`` calls one: each example,
one good invocation of each CLI verb, the bench gate's ci rows, each
ledger workload at ``--seconds 1`` and the experiment benches (which
rewrite ``benchmarks/results/`` as ``make test-experiments`` does).
Each runs in a child process whose temporary ``sitecustomize.py``
records every called code object with ``sys.setprofile``.  A forked
pool worker leaves through ``os._exit`` without running ``atexit``, so the
recorder also dumps there; the ``sweep`` run uses a two-worker pool so
both the pool's code and its workers' code count as called.  A run
that exits non-zero is named at the end and fails the report (exit 1),
since its missing calls would pass for unreached code.

The report lists, per module, every function or method no run called,
with its line count (abstract methods left out).  It is the input to
ROADMAP item 8, not a deletion list: a surveyed technique no run
measures may deserve a run that does.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

RECORDER = """
import atexit, os, sys, threading
seen = set()
def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
def dump():
    sys.setprofile(None)
    rows = {f"{os.path.realpath(c.co_filename)}:{c.co_firstlineno}" for c in seen}
    with open(os.path.join(os.environ["REACH_OUT"], str(os.getpid())), "w") as out:
        out.write("\\n".join(r for r in rows if r.startswith(os.environ["REACH_SRC"])))
def exit_after_dump(code, _exit=os._exit):
    dump()
    _exit(code)
sys.setprofile(record)
threading.setprofile(record)
atexit.register(dump)
os._exit = exit_after_dump
"""

CLI = [
    "figure", "tables all", "demo --horizon 10", "features",
    "classify acts_at_runtime pauses_running_request",
    "cluster --nodes 2 --seed 7 --horizon 10 --kill-node n1 --kill-at 5",
    "sweep --policies cost,least --seeds 42 43 --horizon 10 --nodes 3 --workers 2",
    "scenario list", "scenario run --name noisy_neighbor --policy baseline",
    "scenario sweep", "scenario report --out {tmp}/survival.md",
    "backend run --workloads oltp,bi --horizon 60 --time-scale 0.002 --mpl 2 --rows 1000"
    " --cost-limit 1 --trace-out {tmp}/trace.jsonl",
    "backend calibrate --trace-in {tmp}/trace.jsonl",
    "backend compare --workloads oltp,bi --horizon 60 --time-scale 0.002 --mpl 2"
    " --rows 1000 --cost-limit 1 --sleep-fraction 0.5",
]


def runs(tmp: str):
    yield from ([str(path)] for path in sorted((ROOT / "examples").glob("*.py")))
    yield from (["-m", "repro", *line.format(tmp=tmp).split()] for line in CLI)
    yield ["-m", "benchmarks.perf"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        yield ["benchmarks/ledger/run.py", "--workload", workload["name"], "--seconds", "1"]
    yield ["-m", "pytest", "benchmarks/", "--ignore=benchmarks/ledger", "-p", "no:cacheprovider"]


def called_code(tmp: str, failed: list) -> set:
    """``"path:first line"`` of every src/repro code object any run called;
    appends each run that exited non-zero to ``failed``."""
    Path(tmp, "sitecustomize.py").write_text(RECORDER)
    out = Path(tmp, "calls")
    out.mkdir()
    env = dict(os.environ, REACH_OUT=str(out), REACH_SRC=str(SRC),
               PYTHONPATH=os.pathsep.join([tmp, str(ROOT / "src"), str(ROOT)]))
    for argv in runs(tmp):
        start = time.perf_counter()
        code = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        print(f"{time.perf_counter() - start:7.1f}s  exit {code}  {' '.join(argv)}", flush=True)
        if code:
            failed.append(f"exit {code}  {' '.join(argv)}")
    return {line for path in out.iterdir() for line in path.read_text().split("\n")}


def functions(tree: ast.AST, prefix: str = ""):
    """``(qualname, first line with decorators, lines)`` of each non-abstract
    function and method; a nested function counts with its definer."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(ast.unparse(d).endswith("abstractmethod") for d in node.decorator_list):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield f"{prefix}{node.name}", first, node.end_lineno - first + 1


def main() -> int:
    failed: list = []
    with tempfile.TemporaryDirectory() as tmp:
        called = called_code(tmp, failed)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        missed = [row for row in functions(ast.parse(path.read_text()))
                  if f"{path}:{row[1]}" not in called]
        if missed:
            total += sum(lines for _, _, lines in missed)
            print(f"\n{path.relative_to(SRC.parent)}  ({sum(r[2] for r in missed)} lines)")
            for name, first, lines in missed:
                print(f"  {lines:5d}  {name}  (line {first})")
    print(f"\n{total} lines in functions no run called")
    if failed:
        print(f"\nINCOMPLETE: {len(failed)} run(s) failed, so the list above overstates:")
        print("\n".join(f"  {run}" for run in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
