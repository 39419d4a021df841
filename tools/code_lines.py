"""Count the lines and code lines of each module of src/viscoplate.

Usage: python tools/code_lines.py [<ref>]

Without a ref it counts the working tree.  Given a ref, it also counts
that commit's modules, read with `git show <ref>:<path>` without a
checkout, and prints the difference.  A code line is a line that is not
blank, not a comment-only line and not part of a docstring; docstrings
(module, class and function) are found through `ast`.  Needs git and the
checkout only: no network.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/viscoplate"


def count(text: str) -> tuple:
    """(lines, code lines) of one module's source."""
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1 for i, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and i not in docs
    )
    return len(lines), code


def tree_counts() -> dict:
    """Module name -> (lines, code lines) in the working tree."""
    out = {}
    for name in sorted(os.listdir(os.path.join(ROOT, PACKAGE))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, PACKAGE, name), encoding="utf-8") as fh:
                out[name] = count(fh.read())
    return out


def ref_counts(ref: str) -> dict:
    """Module name -> (lines, code lines) at a commit, read without a checkout."""
    listing = subprocess.run(
        ["git", "ls-tree", "--name-only", f"{ref}:{PACKAGE}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    out = {}
    for name in sorted(listing):
        if name.endswith(".py"):
            text = subprocess.run(
                ["git", "show", f"{ref}:{PACKAGE}/{name}"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            out[name] = count(text)
    return out


def total(counts: dict) -> tuple:
    return tuple(sum(c[i] for c in counts.values()) for i in range(2))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    here = tree_counts()
    if not argv:
        print(f"{'module':16s} {'lines':>6s} {'code':>6s}")
        for name, (lines, code) in here.items():
            print(f"{name:16s} {lines:6d} {code:6d}")
        print(f"{'total':16s} {total(here)[0]:6d} {total(here)[1]:6d}")
        return 0
    there = ref_counts(argv[0])
    print(f"{'module':16s} {'lines':>13s} {'code':>13s}   (ref -> working tree)")
    for name in sorted(set(here) | set(there)):
        a, b = there.get(name, (0, 0)), here.get(name, (0, 0))
        print(
            f"{name:16s} {a[0]:5d} -> {b[0]:5d} {a[1]:5d} -> {b[1]:5d}"
            f"   {b[0] - a[0]:+d} lines, {b[1] - a[1]:+d} code"
        )
    a, b = total(there), total(here)
    print(
        f"{'total':16s} {a[0]:5d} -> {b[0]:5d} {a[1]:5d} -> {b[1]:5d}"
        f"   {b[0] - a[0]:+d} lines, {b[1] - a[1]:+d} code"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
