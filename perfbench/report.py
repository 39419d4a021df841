"""All workloads in one command: end-to-end and per-layer metrics.

    python3 perfbench/report.py [--seed 0] [--seconds 60] [--out FILE]

Run from the checkout root.  For each workload this runs run.py once with
--trace 0 and once with --trace 1, prints every end-to-end metric with its
unit and sample count (failed_frac included; times calibrated, see
README.md, and uncalibrated medians after them), the layer shares that the
workloads were chosen for, and every per-layer metric.  --out also writes
all of it, with the machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import harness
from run import DETAIL

HERE = os.path.dirname(os.path.abspath(__file__))

# Layers each printed as a share of cli.run_scenario_s: the workloads were
# chosen so that one of these dominates each of them.
SHARES = ("diagnostics.analyze_s", "kernels.envelope_s", "dynamics.run_s")


def _bench(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len(DETAIL):])
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in harness.WORKLOADS:
        e2e, detail = _bench(workload, args.seed, args.seconds, 0)
        layers, _ = _bench(workload, args.seed, args.seconds, 1)
        record["facts"] = detail["facts"]
        record["workloads"][workload] = {
            "correct": e2e["correct"] and layers["correct"],
            "end_to_end": e2e["metrics"], "spread": detail["spread"],
            "uncalibrated": detail["raw_spread"],
            "failed_frac": detail["failed_frac"], "per_layer": layers["metrics"],
        }
        print(f"{workload} (seed {args.seed}, correct={e2e['correct'] and layers['correct']})")
        for key, m in e2e["metrics"].items():
            n = detail["spread"].get(key, {}).get("n", e2e["attempted"])
            print(f"  {key:<14} {m['value']:>12.6g} {m['unit']:<6} n={n}")
        print(f"  {'failed_frac':<14} {detail['failed_frac']:>12.6g} {'ratio':<6} n={e2e['attempted']}")
        for key, sp in detail["raw_spread"].items():
            print(f"  uncalibrated {key:<14} {sp['median']:>10.6g} s      n={sp['n']}")
        total = layers["metrics"]["cli.run_scenario_s"]["value"]
        for key in SHARES:
            print(f"  share {key:<26} {layers['metrics'][key]['value'] / total:7.1%} of cli.run_scenario_s")
        for key, m in layers["metrics"].items():
            print(f"    {key:<34} {m['value']:>12.6g} {m['unit']}")
    print("machine:", json.dumps(record.get("facts")))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
