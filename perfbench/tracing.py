"""Spans around the public calls into each viscoplate layer.

The wrappers are installed from outside the package by rebinding module
attributes, so nothing under src/ changes.  `cli` binds its imports by
name, so those are patched in viscoplate.cli; functions that their own
module calls through a global are patched on that module, which also
catches the module's internal calls.

A span is [name, start, end, parent index]; spans stay in memory until the
run ends.  Self time is a span's duration minus the time its children
cover.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._open: list = []

    def wrap(self, fn, name: str, on_result=None):
        """fn recording one span per call; on_result(counts, args, result) runs after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def check_nesting(self) -> dict:
        """Each span's children must sum to no more than the span itself."""
        kids = self._child_time()
        excess = [kids[i] - (end - start) for i, (_, start, end, _) in enumerate(self.spans)]
        worst = max(excess, default=0.0)
        return {"ok": worst <= 0.0, "spans": len(self.spans), "worst_excess_s": worst}

    def _child_time(self) -> list:
        kids = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                kids[parent] += end - start
        return kids


def _count_points(counts, args, _result):
    counts["envelope_points"] = counts.get("envelope_points", 0) + int(np.size(args[1]))


def _basis_sizes(counts, _args, basis):
    counts["modes"] = basis.dim
    counts["quad_points"] = int(basis.qw.size)
    counts["phi_bytes"] = int(basis.phi.nbytes)


def install(tracer: Tracer) -> None:
    from viscoplate import cli, diagnostics, dynamics, kernels, scenario

    def patch(owner, attr, name, on_result=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, on_result))

    patch(scenario, "load_scenario", "scenario.load")
    patch(scenario, "build_basis", "spectral.build_basis", _basis_sizes)
    patch(cli, "run_scenario", "cli.run_scenario")
    patch(cli, "assemble_grams", "spectral.assemble_grams")
    patch(cli, "estimate_cp", "spectral.estimate_cp")
    for attr in ("validate_h1", "validate_h2", "validate_h3"):
        patch(cli, attr, "kernels.validate")
    for attr in ("envelope_linear_B", "envelope_nonlinear_B", "envelope_nonlinear_both"):
        patch(cli, attr, "kernels.envelope")
    patch(kernels.DecayEnvelope, "__call__", "kernels.envelope", _count_points)
    patch(cli, "simulate", "dynamics.run")
    patch(dynamics, "step", "dynamics.step")
    patch(dynamics, "residual", "dynamics.residual")
    patch(dynamics, "inertia_mass", "dynamics.jacobian")
    patch(dynamics, "cho_factor", "dynamics.factor")
    patch(dynamics, "cho_solve", "dynamics.factor")
    patch(diagnostics, "analyze", "diagnostics.analyze")
    patch(diagnostics, "well_constants", "diagnostics.well_constants")
    patch(diagnostics, "check_well", "diagnostics.check_well")
    patch(diagnostics, "find_lyapunov_N", "diagnostics.lyapunov")
    patch(diagnostics, "lyapunov_series", "diagnostics.lyapunov")
    patch(diagnostics, "fit_decay", "diagnostics.fit_decay")


def _artifact_bytes(out_dir: str) -> int:
    """Bytes of every artifact, report.json counted with wall_clock_s = 0.

    The wall clock is the only artifact field that changes between identical
    runs, and its printed length varies, so it is held fixed here.
    """
    total = 0
    for entry in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, entry)
        if entry == "report.json":
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            report["wall_clock_s"] = 0.0
            text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
            total += len(text.encode("utf-8"))
        else:
            total += os.path.getsize(path)
    return total


def layer_metrics(tracer: Tracer, out_dir: str) -> dict:
    spans = tracer.spans
    kids = tracer._child_time()

    def nested_in_same(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def total(name):
        return sum(e - s for i, (n, s, e, _) in enumerate(spans) if n == name and not nested_in_same(i))

    def self_time(name):
        return sum(e - s - kids[i] for i, (n, s, e, _) in enumerate(spans) if n == name)

    def calls(name):
        return sum(1 for n, *_ in spans if n == name)

    verify = sum(
        e - s for n, s, e, p in spans
        if n.startswith("diagnostics.") and p >= 0 and spans[p][0] == "cli.run_scenario"
    )
    with open(os.path.join(out_dir, "timeseries.csv"), encoding="utf-8") as fh:
        csv_rows = sum(1 for _ in fh) - 1

    c = tracer.counts
    steps = calls("dynamics.step")
    env_s, points = total("kernels.envelope"), c.get("envelope_points", 0)
    analyze_calls = calls("diagnostics.analyze")
    residual_calls = calls("dynamics.residual")
    return {
        "kernels.envelope_s": env_s,
        "kernels.envelope_points": points,
        "kernels.envelope_us_per_point": 1e6 * env_s / points if points else 0.0,
        "kernels.validate_s": total("kernels.validate"),
        "spectral.build_basis_s": total("spectral.build_basis"),
        "spectral.assemble_grams_s": total("spectral.assemble_grams"),
        "spectral.estimate_cp_s": total("spectral.estimate_cp"),
        "spectral.modes": c["modes"],
        "spectral.quad_points": c["quad_points"],
        "spectral.phi_bytes": c["phi_bytes"],
        "dynamics.run_s": total("dynamics.run"),
        "dynamics.steps": steps,
        "dynamics.step_ms": 1e3 * total("dynamics.step") / steps,
        "dynamics.residual_calls": residual_calls,
        "dynamics.residual_s": total("dynamics.residual"),
        "dynamics.residual_per_step": residual_calls / steps,
        "dynamics.jacobian_calls": calls("dynamics.jacobian"),
        "dynamics.jacobian_s": total("dynamics.jacobian"),
        "dynamics.factor_calls": calls("dynamics.factor"),
        "dynamics.factor_s": total("dynamics.factor"),
        "dynamics.step_self_s": self_time("dynamics.step"),
        "diagnostics.analyze_calls": analyze_calls,
        "diagnostics.analyze_s": total("diagnostics.analyze"),
        "diagnostics.analyze_ms_per_call": 1e3 * total("diagnostics.analyze") / analyze_calls,
        "diagnostics.check_well_s": total("diagnostics.check_well"),
        "diagnostics.lyapunov_s": total("diagnostics.lyapunov"),
        "diagnostics.fit_decay_self_s": self_time("diagnostics.fit_decay"),
        "diagnostics.verify_s": verify,
        "scenario.load_s": total("scenario.load"),
        "cli.run_scenario_s": total("cli.run_scenario"),
        "cli.self_s": self_time("cli.run_scenario"),
        "cli.artifact_bytes": _artifact_bytes(out_dir),
        "cli.csv_rows": csv_rows,
    }
