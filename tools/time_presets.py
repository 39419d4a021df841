"""Time the eight presets end to end, in process.

Usage: python tools/time_presets.py [<ref>] [--runs N]

For each preset it prints the median wall time of `viscoplate.cli.run_scenario`
over N runs (default 3) after one warm-up run, all in one fresh interpreter
per preset and tree, with its step count, and the machine facts (CPU count,
Python, numpy and its BLAS, the BLAS thread variables).  Given a ref, it
exports that commit with `git archive` into a temporary directory, times it
the same way, preset by preset and alternating which tree goes first, and
prints the ratio this/ref.  Outputs go to a temporary directory.  Needs git
and the checkout only: no network.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = (
    "exp-linear", "exp-cubic", "power-linear", "power-cubic",
    "exp-fast-linear", "power-steep-cubic", "conservative", "well-certified",
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD = """
import json, statistics, sys, time
from viscoplate import cli, dynamics
from viscoplate.scenario import PRESETS, with_overrides
name, out, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
scn = with_overrides(PRESETS[name], out_dir=out)
times = []
for _ in range(runs + 1):
    t0 = time.perf_counter()
    cli.run_scenario(scn)
    times.append(time.perf_counter() - t0)
print(json.dumps({"median_s": statistics.median(times[1:]), "steps": dynamics.step_count(scn.dt, scn.T)}))
"""


def facts() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (
        f"{os.cpu_count()} CPUs, {platform.processor() or platform.machine()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__} with {blas.get('name')} {blas.get('version')}; {threads}"
    )


def time_preset(tree: str, name: str, out: str, runs: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, name, out, str(runs)], cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{name} in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="commit to compare with")
    parser.add_argument("--runs", type=int, default=3, help="timed runs after the warm-up (at least 3)")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    print(facts())
    with tempfile.TemporaryDirectory(prefix="time-presets-") as work:
        trees = {"this": ROOT}
        if args.ref:
            trees["ref"] = os.path.join(work, "ref")
            os.makedirs(trees["ref"])
            archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", trees["ref"]], input=archive.stdout, check=True)
        header = f"{'preset':18s} {'steps':>6s} {'this s':>8s}"
        print(header + (f" {'ref s':>8s} {'this/ref':>8s}" if args.ref else ""))
        for i, name in enumerate(PRESETS):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            got = {label: time_preset(trees[label], name, os.path.join(work, label, name), args.runs) for label in order}
            line = f"{name:18s} {got['this']['steps']:6d} {got['this']['median_s']:8.3f}"
            if args.ref:
                ratio = got["this"]["median_s"] / got["ref"]["median_s"]
                line += f" {got['ref']['median_s']:8.3f} {ratio:8.3f}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
