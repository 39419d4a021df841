"""Workloads, child processes and the correctness gate of the benchmark.

Everything here runs in the parent process and never imports viscoplate:
each operation runs `child.py` in a fresh interpreter, which imports the
package from `src/` of the current directory (the checkout root).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_ROOT = ".perfbench"

# Seeds map onto a fixed table of initial amplitudes, so every input the
# benchmark can generate has a stored reference result.  Seed 15 (every
# seed that is 15 mod 16) is held out: never used while writing a change,
# so that later claims can be re-checked on it.
TABLE_SIZE = 16

# Each workload is a complete INI scenario (every field written out, so a
# later change to a preset or a Scenario default cannot move the input).
# `{u}` is the seeded initial displacement, `{out}` the artifact directory.
_SCENARIO = """\
[space]
dim = {dim}
n = 8
L = 1.0

[time]
dt = {dt}
T = {T}

[physics]
rho = {rho}
k = 0.5
sigma = {sigma}
kernel = {kernel}
damping = {damping}

[initial]
u = {u}
v = zero

[output]
dir = {out}
stride = 1

[diagnostics]
a = 0.25
eps0 = 0.5
eps1 = 0.5
t0 = 0.0
delta = 0.5
lyap_eps = 0.01
"""

WORKLOADS = {
    # preset exp-linear with dt = 1e-3, T = 5 (5001 samples)
    "memory-long": dict(
        dim=1, dt=0.001, T=5.0, rho=0.0, sigma=1e-08,
        kernel="exp(0.5,1.0)", damping="damp-linear(1)",
    ),
    # preset power-steep-cubic unchanged (1001 samples)
    "envelope-nonlinear": dict(
        dim=1, dt=0.01, T=10.0, rho=1.0, sigma=0.0,
        kernel="power(0.4,3.0)", damping="damp-cubic(0.5)",
    ),
    # preset exp-fast-linear in 2D: 64 modes, 1024 quadrature points
    "plate-2d": dict(
        dim=2, dt=0.01, T=10.0, rho=1.0, sigma=0.0,
        kernel="exp(0.3,2.0)", damping="damp-linear(0.5)",
    ),
}

# Relative tolerance of each reference number.  Reversing the order of the
# memory sums moved E_final and decay_c by under 2e-15 and max_residual by
# under 4e-7; a 1% change of the kernel rate, the damping or the inertia
# exponent moves E_final by over 7e-7 (see selfcheck.py and README.md).
RTOL = {"E0": 1e-9, "E_final": 1e-8, "decay_c": 1e-8, "max_residual": 1e-3}


def amplitudes(seed: int) -> tuple:
    """(A1, A2) of u = mode(1, A1) + mode(2, A2); seed 0 is the preset's own."""
    index = seed % TABLE_SIZE
    if index == 0:
        return 0.04, 0.0
    rng = random.Random(index)
    return round(rng.uniform(0.035, 0.045), 6), round(rng.uniform(0.0, 0.005), 6)


def initial_u(seed: int) -> str:
    a1, a2 = amplitudes(seed)
    return f"mode(1,{a1!r})" if a2 == 0.0 else f"mode(1,{a1!r})+mode(2,{a2!r})"


def workload_dir(workload: str) -> str:
    return os.path.join(WORK_ROOT, workload)


def write_scenario(workload: str, seed: int, **overrides) -> str:
    """Write the seeded scenario as an INI file; returns its path."""
    fields = dict(WORKLOADS[workload], u=initial_u(seed), out=os.path.join(workload_dir(workload), "out"))
    fields.update(overrides)
    os.makedirs(workload_dir(workload), exist_ok=True)
    path = os.path.join(workload_dir(workload), "scenario.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_SCENARIO.format(**fields))
    return path


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(refs: dict, workload: str, seed: int) -> dict:
    return refs[workload][str(seed % TABLE_SIZE)]


class ChildError(RuntimeError):
    pass


def run_child(mode: str, ini: str, timeout: float, env: dict | None = None) -> dict:
    """Run one operation in a fresh interpreter and return its JSON result.

    Raises ChildError when the child exits non-zero, times out or prints no
    result; subprocess.run kills and reaps a child that times out.
    """
    if timeout <= 0:
        raise ChildError("no time left for another operation")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, ini],
            capture_output=True, text=True, timeout=timeout, env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildError(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} child printed no result")
    return json.loads(lines[-1])


def gate(summary: dict, ref: dict) -> list:
    """Problems found comparing one run's outcome with its reference."""
    problems = []
    if summary["exit_code"] != 0:
        problems.append(f"exit code {summary['exit_code']}")
    if summary["initial_u"] != ref["initial_u"]:
        problems.append(f"initial data {summary['initial_u']} != {ref['initial_u']}")
    if summary["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {summary['verdicts']} != {ref['verdicts']}")
    for key, rtol in RTOL.items():
        got, want = summary.get(key), ref[key]
        if got is None or not abs(got - want) <= rtol * abs(want):
            problems.append(f"{key} = {got!r}, reference {want!r} (rtol {rtol:g})")
    return problems


def gate_trips_on_perturbed(summary: dict, ref: dict) -> bool:
    """True when the gate rejects a reference moved by 10x its tolerance."""
    for key, rtol in RTOL.items():
        moved = dict(ref, **{key: ref[key] * (1.0 + 10.0 * rtol)})
        if not gate(summary, moved):
            return False
    return bool(gate(summary, dict(ref, verdicts={})))


def machine_facts(child_facts: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads_env = {
        k: os.environ.get(k)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VISCOPLATE_THREADS")
    }
    return dict(child_facts, nproc=os.cpu_count(), cpu_model=model, blas_thread_env=threads_env)


class Deadline:
    """Wall-clock budget of one benchmark invocation."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()
