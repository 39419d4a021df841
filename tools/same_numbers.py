"""Check that a change gives the same numbers as an earlier commit.

Usage: python tools/same_numbers.py <parent-ref>

Exports <parent-ref> with `git archive` into a temporary directory, then
runs `viscoplate run` on each case below in that tree and in this
checkout's working tree, with OPENBLAS_NUM_THREADS=1:

- the eight presets;
- exp-linear with --refine 3;
- dt = 2, T = 8 with kernels exp(0.5,1.0) and power(0.4,3.0), which take
  the substep fallback on every step;
- power(0.4,3.0) at dt = 1.9, T = 1900 with a = 0.25: 236 of its 1000
  steps take the fallback, at node times that are not dyadic, so it shows
  a change in how the fallback rounds its lags;
- exp-linear with lyap_eps = 1000, whose Lyapunov search fails past 2^10;
- exp-linear with modulus = pow(2,0.1), whose domain edge 0.1 lies below
  b(0) = 0.5, so H2 fails through a DomainError and the run is skipped;
- exp-linear at n = 32 modes, so a change to the basis is compared at a
  second size, off the default n = 8;
- the three perfbench workloads at seed 3, from the scenario files that
  perfbench/harness.write_scenario writes (into the temporary directory).

For each case it prints whether timeseries.csv has the same bytes,
report.json is equal apart from wall_clock_s and the output directory,
the verdict maps are equal and the exit codes match.  Where the bytes or
the reports differ it also prints how much: the largest |diff| /
max|column| over the CSV columns and the next largest, each with its
column, and the largest relative difference over the report's numbers,
with its key.  A column or number whose |diff| is at most 1e3 eps
max|E| of its case (E from the parent's timeseries.csv), or that over
the sample spacing for a rate residual, which is a difference quotient
of E, is counted apart, after "rounding", so that noise such as
conservative's rate_residual and max_drift is not read as a real move.
Exits 0 when every case matches, else 1, rounding included.  Needs git
and the checkout only: no network.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

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
    "fallback-power dt=1.9": "[time]\ndt = 1.9\nT = 1900.0\n[physics]\nkernel = power(0.4,3.0)\n"
    "[diagnostics]\na = 0.25\n",
    "lyapunov-fail": "[diagnostics]\na = 0.25\nlyap_eps = 1000.0\n",
    "h2-domain-error": "[physics]\nmodulus = pow(2,0.1)\n[diagnostics]\na = 0.25\n",
    "exp-linear n=32": "[space]\nn = 32\n[diagnostics]\na = 0.25\n",
}
SEED = 3
# a number that moves by at most this times max|E| of its case moves by rounding
ROUNDING = 1e3 * np.finfo(float).eps
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


def _table(csv: bytes) -> tuple:
    """(column names, float array) of a timeseries.csv."""
    head, *rows = csv.decode().splitlines()
    return head.split(","), np.array([row.split(",") for row in rows], dtype=float).reshape(len(rows), -1)


def rounding_floor(csv: bytes | None):
    """The rounding floor of a case, as a function of a column or report key.

    It is ROUNDING times max|E| of the case's timeseries.csv, and that over
    the sample spacing for a rate residual (a difference quotient of E);
    0 without a CSV.
    """
    if csv is None:
        return lambda name: 0.0
    names, table = _table(csv)
    floor = ROUNDING * float(np.nanmax(np.abs(table[:, names.index("E")]), initial=0.0))
    spacing = float(table[1, 0] - table[0, 0]) if len(table) > 1 else 1.0
    return lambda name: floor / spacing if "residual" in name else floor


def csv_gaps(a: bytes, b: bytes) -> list:
    """(max |diff| / max|column|, max |diff|, column) of each column of two
    timeseries.csv that differs, largest first.

    A column whose nan entries differ has gaps inf; CSVs with other columns
    or row counts give the one entry (inf, inf, "columns or rows").
    """
    (head_a, A), (head_b, B) = _table(a), _table(b)
    if head_a != head_b or A.shape != B.shape:
        return [(math.inf, math.inf, "columns or rows")]
    gaps = []
    for j, name in enumerate(head_a):
        x, y = A[:, j], B[:, j]
        known = ~np.isnan(x)
        diff = np.where(x == y, 0.0, np.abs(x - y))[known]
        scale = np.abs(x[known]).max(initial=0.0)
        if not np.array_equal(known, ~np.isnan(y)) or (diff.any() and scale == 0.0):
            gaps.append((math.inf, math.inf, name))
        elif diff.any():
            gaps.append((diff.max() / scale, diff.max(), name))
    return sorted(gaps, reverse=True)


def _numbers(tree, path=""):
    """Path -> value of every number in a report."""
    if isinstance(tree, dict):
        return {k: v for key in tree for k, v in _numbers(tree[key], f"{path}.{key}" if path else key).items()}
    if isinstance(tree, list):
        return {k: v for i, item in enumerate(tree) for k, v in _numbers(item, f"{path}[{i}]").items()}
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return {path: float(tree)}
    return {}


def report_gaps(a: dict, b: dict) -> list:
    """(relative difference, |diff|, path) of each number that differs
    between two reports, largest first; a number present in one report
    only has gaps inf."""
    x, y = _numbers(a), _numbers(b)
    gaps = []
    for path in sorted(set(x) | set(y)):
        if path not in x or path not in y:
            gaps.append((math.inf, math.inf, path))
            continue
        p, q = x[path], y[path]
        if p == q or (math.isnan(p) and math.isnan(q)):
            continue
        diff = abs(p - q)
        gaps.append((diff / max(abs(p), abs(q)), diff, path))
    return sorted(gaps, reverse=True)


def note(gaps: list, floor, measure: str) -> str:
    """The two largest gaps above the rounding floor, then how many are at
    or below it, naming the first three; empty when no number differs."""
    real = [f"{g:.1e} in {name}" for g, d, name in gaps if d > floor(name)][:2]
    noise = [name for _, d, name in gaps if d <= floor(name)]
    parts = [f"{measure} " + ", then ".join(real)] if real else []
    if noise:
        more = f" and {len(noise) - 3} more" if len(noise) > 3 else ""
        parts.append(f"rounding in {', '.join(noise[:3])}{more}")
    return f" ({'; '.join(parts)})" if parts else ""


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
            verdicts_a, verdicts_b = ((rep or {}).get("verdicts") for rep in (rep_a, rep_b))
            same = (csv_a == csv_b, rep_a == rep_b, verdicts_a == verdicts_b, code_a == code_b)
            all_same &= all(same)
            csv_note = rep_note = ""
            floor = rounding_floor(csv_a)
            if not same[0] and csv_a is not None and csv_b is not None:
                csv_note = note(csv_gaps(csv_a, csv_b), floor, "max |diff|/max|column|")
            if not same[1] and rep_a is not None and rep_b is not None:
                rep_note = note(report_gaps(rep_a, rep_b), floor, "max relative")
            print(
                f"{name:28s} timeseries.csv {'same' if same[0] else 'DIFFERS'}{csv_note}  "
                f"report.json {'same' if same[1] else 'DIFFERS'}{rep_note}  "
                f"verdicts {'same' if same[2] else 'DIFFERS'}  "
                f"exit {code_a}/{code_b} {'same' if same[3] else 'DIFFERS'}",
                flush=True,
            )
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
