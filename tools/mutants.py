"""Mutation run over one module of finkite.

Lists the mutants of a module from a fixed operator set, writes each one
into a copy of the repository's `src/` and `tests/` under a scratch
directory, and runs the named test files against it with `-x -q`, one
process at a time and under a timeout per mutant.  It writes one JSON
line per mutant: its place, its operator and change, and its outcome,
which is the node id of the test that killed it, `survived` or
`timeout`.

    python tools/mutants.py --list src/finkite/limits.py
    python tools/mutants.py src/finkite/limits.py > mutants.jsonl
    python tools/mutants.py src/finkite/finmaps.py \\
        --tests tests/test_finmaps.py > mutants.jsonl

The tests default to tests/test_limits.py and
tests/test_reference_oracles.py.  The timeout per mutant is five times
the unmutated run plus 30 s, and the counts of killed, surviving and
timed-out mutants go to stderr at the end.

Operators: `<` <-> `<=` (and `>` <-> `>=`), `==` <-> `!=`, an integer
constant +1 and -1, the first two arguments of a call swapped,
`reversed` added to a loop's iterable or removed from a call, an early
`return` removed, and an `if` body dropped.  A mutant is the module
after one change, written back with `ast.unparse`, so the unmutated
module is first run the same way and must pass.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}


def _is_reversed(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "reversed" and len(node.args) == 1


def sites(tree: ast.Module):
    """Every mutant of tree as (node, operator, change, apply), in source
    order; apply() makes the change in tree itself.  Parsing the same
    source again gives the same list, so mutant k is found by its index."""
    found = []

    def add(node, operator, change, apply):
        found.append((node, operator, change, apply))

    def set_field(parent, name, value):
        return lambda: setattr(parent, name, value)

    def set_item(seq, i, value):
        return lambda: seq.__setitem__(i, value)

    def put(parent, name, i):
        """The change that puts a new node at parent.name, or at its
        item i when that field is a list."""
        if i is None:
            return lambda new: set_field(parent, name, new)
        return lambda new: set_item(getattr(parent, name), i, new)

    def visit(node, final):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            last = node.body[-1]
            final = last if isinstance(last, ast.Return) else None
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    new = FLIPS[type(op)]
                    add(node, "compare",
                        f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}",
                        set_item(node.ops, i, new()))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                add(node, "constant", f"{node.value} -> {node.value + delta}",
                    set_field(node, "value", node.value + delta))
        elif isinstance(node, ast.Call):
            a = node.args
            if len(a) >= 2 and not any(isinstance(x, ast.Starred)
                                       for x in a[:2]) \
                    and ast.dump(a[0]) != ast.dump(a[1]):
                add(node, "swap-args",
                    f"{ast.unparse(a[0])}, {ast.unparse(a[1])} swapped",
                    set_field(node, "args", [a[1], a[0], *a[2:]]))
        elif isinstance(node, ast.If):
            add(node, "drop-if-body", f"if {ast.unparse(node.test)}: pass",
                set_field(node, "body", [ast.Pass()]))
        for name, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for i, child in enumerate(children):
                if not isinstance(child, ast.AST):
                    continue
                at = put(node, name, i if children is value else None)
                if isinstance(child, ast.Return) and child is not final:
                    add(child, "drop-return", f"{ast.unparse(child)} removed",
                        at(ast.Pass()))
                if _is_reversed(child):
                    add(child, "reversed", f"{ast.unparse(child)} -> "
                        f"{ast.unparse(child.args[0])}", at(child.args[0]))
                elif name == "iter":      # of a for loop or a comprehension
                    add(child, "reversed", f"{ast.unparse(child)} -> "
                        f"reversed({ast.unparse(child)})",
                        at(ast.Call(ast.Name("reversed", ast.Load()),
                                    [child], [])))
                visit(child, final)

    visit(tree, None)
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset))


def mutants(source: str):
    """(line, col, operator, change, mutated source) for every mutant."""
    for k, (node, operator, change, _) in enumerate(sites(ast.parse(source))):
        tree = ast.parse(source)
        sites(tree)[k][3]()
        yield (node.lineno, node.col_offset + 1, operator, change,
               ast.unparse(ast.fix_missing_locations(tree)))


def run_tests(workdir: Path, tests, timeout: float) -> str:
    """The node id of the first failing test, `survived`, or `timeout`."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", *tests, "-x", "-q",
             "-p", "no:cacheprovider"],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "survived"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return f"exit {proc.returncode}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="path of the module, under src/")
    ap.add_argument("--list", action="store_true",
                    help="only list the mutants; run no tests")
    ap.add_argument("--tests", nargs="+",
                    default=["tests/test_limits.py",
                             "tests/test_reference_oracles.py"])
    args = ap.parse_args(argv)

    path = Path(args.module).resolve()
    rel = path.relative_to(ROOT / "src")
    source = path.read_text(encoding="utf-8")

    def emit(line, col, operator, change, outcome=None):
        row = {"place": f"src/{rel.as_posix()}:{line}:{col}",
               "operator": operator, "change": change}
        if outcome is not None:
            row["outcome"] = outcome
        print(json.dumps(row), flush=True)

    if args.list:
        for line, col, operator, change, text in mutants(source):
            compile(text, str(rel), "exec")
            emit(line, col, operator, change)
        return 0

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        workdir = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", workdir / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", workdir / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", workdir)
        target = workdir / "src" / rel
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        start = time.monotonic()
        clean = run_tests(workdir, args.tests, None)
        if clean != "survived":
            print(f"the unmutated module fails: {clean}", file=sys.stderr)
            return 2
        timeout = 5 * (time.monotonic() - start) + 30
        counts = {}
        for line, col, operator, change, text in mutants(source):
            target.write_text(text, encoding="utf-8")
            outcome = run_tests(workdir, args.tests, timeout)
            emit(line, col, operator, change, outcome)
            kind = outcome if outcome in ("survived", "timeout") else "killed"
            counts[kind] = counts.get(kind, 0) + 1
    print(json.dumps(counts, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
