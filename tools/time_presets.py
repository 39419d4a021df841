"""Time the eight presets, two long runs, a 2D run, a fallback run and C01 end to end, in process.

Usage: python tools/time_presets.py [<ref>] [--runs N]

The cases are the eight presets, two long runs, a 2D run, a fallback run
and acceptance criterion C01: `power-linear` at dt = 1e-3, T = 20 (20000
steps), whose memory load is a product with the whole g history at every
step, so it shows how the history is laid out; `exp-linear` at dt = 1e-3, T = 5 (5000
steps), the physics of the benchmark's memory-long workload, where
stepping takes most of a run; `plate-2d`, the physics of the benchmark's
2D workload: `exp-fast-linear` in 2D at n = 8 (64 modes, 1024 quadrature
points), dt = 0.01, T = 10, where the step's products with the quadrature
table dominate; `fallback-power dt=1.9`, power(0.4,3.0) at dt = 1.9,
T = 1900, 236 of whose 1000 steps take the substep fallback, so the
fallback is timed; and C01's configuration (exp(0.5,1.0), damp-linear(1),
rho = 1, sigma = 0, dt = 1e-3, T = 5) run with three refinement levels,
35000 steps in all.  For each case it prints the median wall time of
`viscoplate.cli.run_scenario` over N runs (default 3) after one warm-up
run, in each of INTERPRETERS fresh interpreters per case and tree, with its
step count over all levels, the median time of its stepping (`dynamics.run`,
which `run_scenario` calls once per level) summed over the levels, and that
time in microseconds per step; each printed time is the median over the
interpreters, because one process's time varies more than a change of 20 %
between runs of the same code.  Each interpreter runs with the BLAS thread
variables of CHILD_THREADS, one thread, so that stepping does not switch
between thread pools from one process to the next.  It also prints the
machine facts (CPU count, Python, numpy and its BLAS, the BLAS thread
variables of this process and of the interpreters).  Given a
ref, it exports that commit with `git archive` into a temporary directory
and times it the same way, interpreter by interpreter and alternating which
tree goes first, and prints the ratios this/ref of the median run_scenario
times and, under "steps", of the median stepping times, then under "min"
the smallest per-interpreter stepping ratio, this/ref of the two
interpreters that ran one after the other, to read beside the median when
a process of a short case is slow.  Outputs go to a temporary directory.
Needs git and the checkout only: no network.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = (
    "exp-linear", "exp-cubic", "power-linear", "power-cubic",
    "exp-fast-linear", "power-steep-cubic", "conservative", "well-certified",
)
# case name -> (preset, overrides, refinement levels)
CASES = {name: (name, {}, 0) for name in PRESETS}
CASES["power-linear T=20"] = ("power-linear", {"dt": 1e-3, "T": 20.0}, 0)
CASES["exp-linear T=5"] = ("exp-linear", {"dt": 1e-3, "T": 5.0}, 0)
CASES["plate-2d"] = ("exp-fast-linear", {"spatial_dim": 2, "n": 8, "T": 10.0}, 0)
CASES["fallback-power dt=1.9"] = ("exp-linear", {"kernel": "power(0.4,3.0)", "dt": 1.9, "T": 1900.0}, 0)
# exp-linear with a unset is the Scenario defaults that C01 starts from
CASES["C01"] = ("exp-linear", {"rho": 1.0, "sigma": 0.0, "dt": 1e-3, "T": 5.0, "a": None}, 3)
# fresh interpreters per case and tree; the printed times are their medians
INTERPRETERS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD = """
import json, statistics, sys, time
from viscoplate import cli, dynamics
from viscoplate.scenario import PRESETS, with_overrides
name, overrides, refine = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
out, runs = sys.argv[4], int(sys.argv[5])
scn = with_overrides(PRESETS[name], out_dir=out, **overrides)
steps = sum(dynamics.step_count(scn.dt / 2**level, scn.T) for level in range(max(refine, 1)))
times, stepping = [], []

def timed_run(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return dynamics.run(*args, **kwargs)
    finally:
        stepping[-1] += time.perf_counter() - t0

cli.simulate = timed_run
for _ in range(runs + 1):
    stepping.append(0.0)
    t0 = time.perf_counter()
    cli.run_scenario(scn, refine=refine)
    times.append(time.perf_counter() - t0)
step_s = statistics.median(stepping[1:])
print(json.dumps({
    "median_s": statistics.median(times[1:]), "steps": steps,
    "step_s": step_s, "step_us": 1e6 * step_s / max(steps, 1),
}))
"""


def facts() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    child = ", ".join(f"{v}={n}" for v, n in CHILD_THREADS.items())
    return (
        f"{os.cpu_count()} CPUs, {platform.processor() or platform.machine()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__} with {blas.get('name')} {blas.get('version')}; {threads}; "
        f"timed interpreters: {child}"
    )


def time_case(tree: str, name: str, out: str, runs: int) -> dict:
    preset, overrides, refine = CASES[name]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1", **CHILD_THREADS)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, preset, json.dumps(overrides), str(refine), out, str(runs)],
        cwd=tree, env=env, capture_output=True, text=True,
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
        header = f"{'case':21s} {'steps':>6s} {'this s':>8s} {'step s':>8s} {'us/step':>8s}"
        ratios = f" {'this/ref':>8s} {'steps':>8s} {'min':>8s}"
        print(header + (f" {'ref s':>8s} {'step s':>8s} {'us/step':>8s}{ratios}" if args.ref else ""))
        for i, name in enumerate(CASES):
            samples = {label: [] for label in trees}
            for j in range(INTERPRETERS):
                for label in list(trees) if (i + j) % 2 == 0 else list(reversed(trees)):
                    samples[label].append(time_case(trees[label], name, os.path.join(work, label, name), args.runs))
            got = {
                label: dict(runs[0], **{key: statistics.median(r[key] for r in runs) for key in ("median_s", "step_s", "step_us")})
                for label, runs in samples.items()
            }
            this = got["this"]
            line = f"{name:21s} {this['steps']:6d} {this['median_s']:8.3f} {this['step_s']:8.3f} {this['step_us']:8.1f}"
            if args.ref:
                ref = got["ref"]
                line += f" {ref['median_s']:8.3f} {ref['step_s']:8.3f} {ref['step_us']:8.1f}"
                line += f" {this['median_s'] / ref['median_s']:8.3f}"
                line += f" {this['step_us'] / ref['step_us']:8.3f}"
                line += f" {min(x['step_us'] / y['step_us'] for x, y in zip(samples['this'], samples['ref'])):8.3f}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
