"""List the statements of src/viscoplate that the tier-1 suite never runs.

Usage: python tools/uncovered.py [<pytest args>...]

Runs pytest in this process (default: the whole tests/ directory) under
sys.settrace and threading.settrace, and records line events only in
frames whose code lies under src/viscoplate, so the rest of the suite runs
untraced.  Then it prints each executable statement of the package that
no test reached, as file:line, with the `raise` statements listed apart.
A statement counts as reached when any line of its header ran: the whole
statement for a simple one, the lines before the first body statement
for a compound one.  Docstrings and def, class and import lines are not
listed, and neither are `try:`, `global`, `nonlocal` and `pass`, which
emit no line event of their own.  Tests that run the package in a
subprocess (`python -m viscoplate.cli`, a sweep's worker processes) are
not traced, so what only they reach is listed as never run.  Line
coverage without the `coverage` package; needs the checkout only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "viscoplate")

_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try, ast.Global, ast.Nonlocal, ast.Pass)


def statements(path: str) -> list:
    """(first line, header lines, is raise) of each listed statement of one module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SILENT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring, or a bare string that compiles to nothing
        inner = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = min(inner) - 1 if inner else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1), isinstance(node, ast.Raise)))
    return sorted(out)


def trace_tests(args: list) -> tuple:
    """Run pytest on args under the tracer: (exit code, {path: set of lines run})."""
    import pytest

    hits, mine = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        code = frame.f_code
        inside = mine.get(code.co_filename)
        if inside is None:
            inside = mine[code.co_filename] = os.path.realpath(code.co_filename).startswith(PACKAGE + os.sep)
        if not inside:
            return None
        hits.setdefault(code.co_filename, set())
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [os.path.join(ROOT, "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {}
    for name, seen in hits.items():
        lines.setdefault(os.path.realpath(name), set()).update(seen)
    return code, lines


def main(argv: list) -> int:
    code, lines = trace_tests(argv)
    missed, raises, total = [], [], 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        seen = lines.get(os.path.realpath(path), set())
        for first, span, is_raise in statements(path):
            total += 1
            if not seen.intersection(span):
                (raises if is_raise else missed).append(f"src/viscoplate/{name}:{first}")
    print(f"\n{len(missed) + len(raises)} of {total} statements never run ({len(raises)} of them raise)")
    print("\n".join(missed))
    print("raise statements never run:")
    print("\n".join(raises))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
