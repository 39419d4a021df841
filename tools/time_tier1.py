"""Time the tier-1 suite end to end, in fresh interpreters.

Usage: python tools/time_tier1.py [<ref>] [--runs N]

Runs the tier-1 command of ROADMAP.md,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

with the pytest cache plugin off, from the root of this checkout, N times
(default 3) after one untimed warm-up run that also compiles the bytecode,
each in a fresh interpreter, and prints each run's wall time and the
suite's summary line ("451 passed in ..."), then the median.  Given a ref,
it exports that commit with `git archive` into a temporary directory,
times it the same way, run by run, alternating which tree goes first, and
prints the ratio this/ref of the medians: the host's speed drifts over
minutes, so alternation keeps a drift from landing on one tree.  The
interpreters inherit this process's environment, BLAS thread variables
included, which the machine facts line prints.  Needs git and the
checkout only: no network.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def facts() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (
        f"{os.cpu_count()} CPUs, {platform.processor() or platform.machine()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__} with {blas.get('name')} {blas.get('version')}; {threads}"
    )


def run_suite(tree: str) -> tuple:
    """(wall seconds, pytest's summary line) of one tier-1 run in tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *COMMAND], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return wall, lines[-1].strip("= ") if lines else f"no output, exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="commit to compare with")
    parser.add_argument("--runs", type=int, default=3, help="timed runs per tree after the warm-up (at least 1)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(facts())
    with tempfile.TemporaryDirectory(prefix="time-tier1-") as work:
        trees = {"this": ROOT}
        if args.ref:
            trees["ref"] = os.path.join(work, "ref")
            os.makedirs(trees["ref"])
            archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", trees["ref"]], input=archive.stdout, check=True)
        for tree in trees.values():
            run_suite(tree)
        walls = {label: [] for label in trees}
        for i in range(args.runs):
            for label in list(trees) if i % 2 == 0 else list(reversed(trees)):
                wall, summary = run_suite(trees[label])
                walls[label].append(wall)
                print(f"run {i + 1} {label:4s} {wall:7.2f} s  {summary}", flush=True)
        medians = {label: statistics.median(w) for label, w in walls.items()}
        print("median " + "  ".join(f"{label} {m:.2f} s" for label, m in medians.items()), end="")
        print(f"  this/ref {medians['this'] / medians['ref']:.3f}" if args.ref else "")
    return 0


if __name__ == "__main__":
    sys.exit(main())
