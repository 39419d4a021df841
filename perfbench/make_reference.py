"""Write the per-seed reference results the correctness gate compares with.

    python3 perfbench/make_reference.py [--out perfbench/reference.json]

Run from the checkout root at the commit whose results are the reference.
Every workload runs once for each entry of the seed table, each in a fresh
child; an entry whose run exits non-zero or has a failing verdict is an
error, because no benchmark operation may fail on a correct program.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

KEYS = ("initial_u", "verdicts", "E0", "E_final", "decay_c", "max_residual")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=harness.REFERENCE)
    args = parser.parse_args(argv)
    refs: dict = {}
    for workload in harness.WORKLOADS:
        refs[workload] = {}
        for index in range(harness.TABLE_SIZE):
            ini = harness.write_scenario(workload, index)
            summary = harness.run_child("run", ini, timeout=600)["summary"]
            if summary["exit_code"] != 0 or "fail" in summary["verdicts"].values():
                print(f"{workload} seed {index} fails: {summary}", file=sys.stderr)
                return 1
            refs[workload][str(index)] = {k: summary[k] for k in KEYS}
            print(workload, index, summary["E_final"], flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
