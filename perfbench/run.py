"""viscoplate benchmark: `viscoplate.cli.run_scenario` end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a viscoplate checkout.  Load model: closed loop, one
client; every operation is a fresh single-process child that inherits the
machine's BLAS threading.  The run writes the seeded scenario as an INI
file, warms up once, then repeats whole runs (set-up included, timed apart)
while the next one is expected to end within S seconds, and at least
MIN_REPEATS times; every run is checked against the stored per-seed
reference.  With --trace 1 it also makes TRACED runs with spans around each
layer and reports per-layer metrics instead.

The speed of a shared host drifts by tens of percent over minutes, so the
reported times are calibrated: each run child times a fixed calibration
workload (child.calibrate) right after its set-up and after its run, and
each measured time is scaled by CALIB_REF_S / that calibration time, giving
seconds on a machine where the calibration takes CALIB_REF_S.  The raw
times are in the DETAIL line.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it (prefix DETAIL) carries the machine
facts, every sample and the sample count behind each median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import harness

MIN_REPEATS = 3
# Calibration seconds that the reported times are scaled to (about what
# child.calibrate takes on the 2-vCPU Xeon the benchmark was written on).
CALIB_REF_S = 0.6
TRACED = 2
BUDGET_S = 170.0
DETAIL = "DETAIL "

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# Counts that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = (
    "dynamics.steps", "dynamics.residual_calls", "diagnostics.analyze_calls",
    "kernels.envelope_points", "cli.artifact_bytes",
)
LAYER_UNITS = {
    "kernels.envelope_points": "count",
    "kernels.envelope_us_per_point": "us",
    "spectral.modes": "count",
    "spectral.quad_points": "count",
    "spectral.phi_bytes": "B_computed",
    "dynamics.steps": "count",
    "dynamics.step_ms": "ms",
    "dynamics.residual_calls": "count",
    "dynamics.residual_per_step": "ratio",
    "dynamics.jacobian_calls": "count",
    "dynamics.factor_calls": "count",
    "diagnostics.analyze_calls": "count",
    "diagnostics.analyze_ms_per_call": "ms",
    "cli.artifact_bytes": "B",
    "cli.csv_rows": "count",
    "trace.overhead_frac": "ratio",
}


class Session:
    """Attempts, failures and samples of one benchmark invocation."""

    def __init__(self, ini: str, ref: dict, deadline: harness.Deadline):
        self.ini, self.ref, self.deadline = ini, ref, deadline
        self.attempted = self.failed = 0
        self.problems: list = []
        self.durations: list = []

    def attempt(self, mode: str):
        """One operation; None when it raised, exited non-zero or failed the gate."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = harness.run_child(mode, self.ini, self.deadline.left())
        except harness.ChildError as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        finally:
            self.durations.append(time.perf_counter() - t0)
        bad = harness.gate(res["summary"], self.ref) if "summary" in res else []
        if bad:
            self.failed += 1
            self.problems.extend(f"{mode}: {p}" for p in bad)
            return None
        return res


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list) -> dict:
    out = {"n": len(values), "median": _median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _calibrated(res: dict) -> dict:
    """The run's times scaled to calibration speed CALIB_REF_S, and its memory."""
    run_scale = CALIB_REF_S / (0.5 * (res["calib_before_s"] + res["calib_after_s"]))
    return {
        "wall_s": res["wall_s"] * run_scale,
        "cpu_s": res["cpu_s"] * run_scale,
        "setup_s": res["setup_s"] * CALIB_REF_S / res["calib_before_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _traced_metrics(session: Session, wall_median: float) -> dict:
    runs = [r for r in (session.attempt("trace") for _ in range(TRACED)) if r is not None]
    for r in runs:
        if not r["span_check"]["ok"]:
            session.problems.append(f"span children exceed their span: {r['span_check']}")
    for key in EXACT_COUNTS:
        seen = {r["layers"][key] for r in runs}
        if len(seen) > 1:
            session.problems.append(f"{key} differs between traced runs: {sorted(seen)}")
    layers = {}
    for key in runs[0]["layers"] if runs else ():
        layers[key] = _median([r["layers"][key] for r in runs])
    traced_wall = _median([r["layers"]["cli.run_scenario_s"] * CALIB_REF_S / r["calib_s"] for r in runs])
    layers["trace.overhead_frac"] = traced_wall / wall_median - 1.0 if wall_median else 0.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "viscoplate", "__init__.py")):
        print("perfbench: src/viscoplate not found; run from a viscoplate checkout root", file=sys.stderr)
        return 2
    deadline = harness.Deadline(BUDGET_S)
    ref = harness.reference_for(harness.load_reference(), args.workload, args.seed)
    ini = harness.write_scenario(args.workload, args.seed)
    session = Session(ini, ref, deadline)

    # Warm-up: fills the file cache and writes bytecode; not counted.
    try:
        facts = harness.machine_facts(harness.run_child("setup", ini, deadline.left())["facts"])
    except harness.ChildError as exc:
        print(f"perfbench: warm-up failed: {exc}", file=sys.stderr)
        return 1

    samples = {k: [] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    raw = {k: [] for k in ("wall_s", "cpu_s", "setup_s", "calib_before_s", "calib_after_s")}
    reserve = 1 + (TRACED if args.trace else 0)
    t0 = time.perf_counter()
    repeats = 0
    first = None
    while True:
        typical = _median(session.durations)
        if repeats >= MIN_REPEATS and time.perf_counter() - t0 + typical > args.seconds:
            break
        if deadline.left() < reserve * max(session.durations, default=0.0):
            session.problems.append(f"time budget ran out after {repeats} runs")
            break
        res = session.attempt("run")
        repeats += 1
        if res is None:
            continue
        first = first or res["summary"]
        for key, value in _calibrated(res).items():
            samples[key].append(value)
        for key in raw:
            raw[key].append(res[key])
    if first is not None and not harness.gate_trips_on_perturbed(first, ref):
        session.problems.append("correctness gate passed a perturbed reference")

    if args.trace:
        metrics = {
            k: {"value": v, "unit": LAYER_UNITS.get(k, "s")}
            for k, v in _traced_metrics(session, _median(samples["wall_s"])).items()
        }
    else:
        metrics = {k: {"value": _median(samples[k]), "unit": END_TO_END[k]} for k in samples}
        metrics["ok_frac"] = {"value": 1.0 - session.failed / session.attempted, "unit": "ratio"}

    counts = {k: _spread(v) for k, v in samples.items()}
    failed_frac = session.failed / session.attempted
    print(f"perfbench {args.workload} seed={args.seed} u={harness.initial_u(args.seed)} "
          f"seconds={args.seconds:g} trace={args.trace} (times at calibration {CALIB_REF_S:g} s)")
    for key, s in counts.items():
        print(f"  {key:<12} {s['median']:>12.6g} {END_TO_END[key]:<5} median of {s['n']}")
    print(f"  {'failed_frac':<12} {failed_frac:>12.6g} {'ratio':<5} "
          f"{session.failed} failed of {session.attempted} operations")
    raw_counts = {k: _spread(v) for k, v in raw.items()}
    for key in ("wall_s", "cpu_s", "setup_s", "calib_before_s"):
        print(f"  uncalibrated {key:<14} {raw_counts[key]['median']:>10.6g} s median of {raw_counts[key]['n']}")
    for problem in session.problems:
        print(f"  problem: {problem}")
    detail = {"facts": facts, "calib_ref_s": CALIB_REF_S, "samples": samples, "spread": counts,
              "raw_samples": raw, "raw_spread": raw_counts, "problems": session.problems,
              "failed_frac": failed_frac, "repeats": repeats}
    print(DETAIL + json.dumps(detail))
    print(json.dumps({
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
