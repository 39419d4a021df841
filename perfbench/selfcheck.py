"""Checks that the correctness gate tells right results from wrong ones.

    python3 perfbench/selfcheck.py

Run from the checkout root.  For every workload at seed 0:

- the run passes the gate with OPENBLAS_NUM_THREADS set to 1 and to 2, so
  a change of BLAS summation order is let through;
- a run with the relaxation kernel's rate moved by 1%, and one with the
  damping coefficient (inertia exponent on envelope-nonlinear, whose cubic
  damping has no coefficient) moved by 1%, fail the gate.

Every benchmark run also checks that the gate trips on a perturbed
reference, and every traced run checks span nesting and that its counts
repeat exactly, so those are not repeated here.  Exits 1 on any surprise.
"""

from __future__ import annotations

import os
import sys

import harness

WRONG = {
    "memory-long": {"kernel": "exp(0.5,1.01)", "damping": "damp-linear(1.01)"},
    "envelope-nonlinear": {"kernel": "power(0.4,3.03)", "rho": 1.01},
    "plate-2d": {"kernel": "exp(0.3,2.02)", "damping": "damp-linear(0.505)"},
}


def main() -> int:
    refs = harness.load_reference()
    surprises = 0
    for workload in harness.WORKLOADS:
        ref = harness.reference_for(refs, workload, 0)
        for threads in ("1", "2"):
            ini = harness.write_scenario(workload, 0)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            summary = harness.run_child("run", ini, timeout=600, env=env)["summary"]
            problems = harness.gate(summary, ref)
            rel = {k: abs(summary[k] - ref[k]) / abs(ref[k]) for k in harness.RTOL}
            print(f"{workload} threads={threads}: {'pass' if not problems else problems} rel={rel}")
            surprises += bool(problems)
        for field, spec in WRONG[workload].items():
            ini = harness.write_scenario(workload, 0, **{field: spec})
            summary = harness.run_child("run", ini, timeout=600)["summary"]
            problems = harness.gate(summary, ref)
            print(f"{workload} {field}={spec}: {'caught' if problems else 'NOT CAUGHT'} {problems}")
            surprises += not problems
    print("selfcheck:", "ok" if not surprises else f"{surprises} surprises")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main())
