"""Check that a change gives the same numbers as an earlier commit.

Usage: python tools/same_numbers.py <parent-ref>

Exports <parent-ref> with `git archive` into a temporary directory, then
runs `viscoplate run` on each case below in that tree and in this
checkout's working tree, with OPENBLAS_NUM_THREADS=1:

- the eight presets;
- exp-linear with --refine 3;
- dt = 2, T = 8 with kernels exp(0.5,1.0) and power(0.4,3.0), which take
  the substep fallback on every step;
- exp-linear with lyap_eps = 1000, whose Lyapunov search fails past 2^10;
- exp-linear with modulus = pow(2,0.1), whose domain edge 0.1 lies below
  b(0) = 0.5, so H2 fails through a DomainError and the run is skipped;
- the three perfbench workloads at seed 3, from the scenario files that
  perfbench/harness.write_scenario writes (into the temporary directory).

For each case it prints whether timeseries.csv has the same bytes,
report.json is equal apart from wall_clock_s and the output directory,
and the exit codes match.  Exits 0 when every case matches, else 1.
Needs git and the checkout only: no network.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = (
    "exp-linear", "exp-cubic", "power-linear", "power-cubic",
    "exp-fast-linear", "power-steep-cubic", "conservative", "well-certified",
)
FALLBACK = "[time]\ndt = 2.0\nT = 8.0\n[physics]\nkernel = {kernel}\n"
# case name -> scenario file; exp-linear is the defaults with a = 0.25
SCENARIOS = {
    "fallback-exp": FALLBACK.format(kernel="exp(0.5,1.0)"),
    "fallback-power": FALLBACK.format(kernel="power(0.4,3.0)"),
    "lyapunov-fail": "[diagnostics]\na = 0.25\nlyap_eps = 1000.0\n",
    "h2-domain-error": "[physics]\nmodulus = pow(2,0.1)\n[diagnostics]\na = 0.25\n",
}
SEED = 3
RUN = "import sys; from viscoplate.cli import main; sys.exit(main(sys.argv[1:]))"


def cases(work: str) -> dict:
    """Case name -> `viscoplate run` arguments; scenario files go under work."""
    out = {name: [name] for name in PRESETS}
    out["exp-linear --refine 3"] = ["exp-linear", "--refine", "3"]
    for name, text in SCENARIOS.items():
        path = os.path.join(work, f"{name}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out[name] = [path]
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    import harness

    here = os.getcwd()
    os.chdir(work)  # write_scenario writes below the current directory
    try:
        for workload in harness.WORKLOADS:
            out[f"{workload} seed {SEED}"] = [os.path.abspath(harness.write_scenario(workload, SEED))]
    finally:
        os.chdir(here)
    return out


def run(tree: str, args: list, out_dir: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", RUN, "run", *args, "--out", out_dir],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode


def artifacts(out_dir: str) -> tuple:
    """(timeseries.csv bytes, report.json without wall clock and output directory); None if absent."""
    csv = report = None
    if os.path.exists(os.path.join(out_dir, "timeseries.csv")):
        with open(os.path.join(out_dir, "timeseries.csv"), "rb") as fh:
            csv = fh.read()
    if os.path.exists(os.path.join(out_dir, "report.json")):
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("wall_clock_s", None)
        report.get("scenario", {}).pop("out_dir", None)
    return csv, report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-numbers-") as work:
        parent = os.path.join(work, "parent")
        os.makedirs(parent)
        archive = subprocess.run(["git", "archive", argv[0]], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)
        all_same = True
        for name, args in cases(work).items():
            side = []
            for label, tree in (("parent", parent), ("change", ROOT)):
                out_dir = os.path.join(work, "out", label, name.replace(" ", "_"))
                code = run(tree, args, out_dir)
                side.append((code, *artifacts(out_dir)))
            (code_a, csv_a, rep_a), (code_b, csv_b, rep_b) = side
            same = (csv_a == csv_b, rep_a == rep_b, code_a == code_b)
            all_same &= all(same)
            print(
                f"{name:28s} timeseries.csv {'same' if same[0] else 'DIFFERS'}  "
                f"report.json {'same' if same[1] else 'DIFFERS'}  "
                f"exit {code_a}/{code_b} {'same' if same[2] else 'DIFFERS'}",
                flush=True,
            )
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
