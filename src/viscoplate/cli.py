"""Command-line front end: validate, simulate, diagnose, fit, and report.

`viscoplate run <config-or-preset>` executes one scenario end to end and
writes timeseries.csv, report.json and effective.ini into the output
directory.  `viscoplate sweep <config> --axis key=v1,v2,...` runs the
Cartesian product of axis values with a bounded worker pool and writes one
summary.csv over all cells.

Exit codes: 0 all applicable verdicts pass, 1 at least one fails, 2 on
execution errors (bad config, divergence, artifacts that cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import diagnostics as dg
from .dynamics import run as simulate
from .errors import DivergedError, DomainError, InputError, ScenarioError, ViscoplateError
from .kernels import (
    envelope_linear_B,
    envelope_nonlinear_B,
    envelope_nonlinear_both,
    split_top,
    validate_h1,
    validate_h2,
    validate_h3,
)
from .scenario import PRESETS, Scenario, effective_config, load_scenario, parse_field, with_overrides
from .spectral import assemble_grams, estimate_cp

# timeseries.csv columns in order: SeriesBundle fields, but for t (times),
# L (the Lyapunov series), G (damping_avg) and M (memory_tail)
CSV_COLUMNS = (
    "t", "E", "J", "I", "kin_rho", "bend", "bend_rate", "mass", "logterm", "memory",
    "psi1", "psi2", "L", "G", "M", "dissipation", "rate_residual",
)
CSV_HEADER = ",".join(CSV_COLUMNS)
CSV_BLOCK_ROWS = 4096  # rows formatted at once, bounding the text held in memory
MONOTONE_TOL = 1e-10
OVERSHOOT_TOL = 1e-6
# half-width of the window around each zero crossing of u that the
# refinement slope leaves out: there the log source caps the residual
# at first order (see diagnostics.zero_crossings)
CROSSING_HALFWIDTH = 0.05
# a rate residual at most this times max|E| / dt is rounding in the central difference of E
RATE_ROUNDING = 1e3 * np.finfo(float).eps


def _num(x):
    """json-safe scalar: finite floats stay, nan/inf become None."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _fmt(x) -> str:
    return "%.17g" % float(x)


# --- hypothesis validation ----------------------------------------------


def _hypotheses(scn: Scenario, params) -> dict:
    def entry(violations: list) -> dict:
        return {"verdict": "fail" if violations else "pass", "violations": violations}

    out = {}
    grid = np.linspace(0.0, max(30.0, scn.T), 2001)
    sym = np.linspace(-3.0, 3.0, 1201)
    if params.kernel.is_zero:
        out["H1"] = {"verdict": "n/a"}
        out["H2"] = {"verdict": "n/a"}
    else:
        out["H1"] = entry(validate_h1(params.kernel, grid))
        try:
            out["H2"] = entry(validate_h2(params.kernel, scn.memory_modulus(), scn.xi_weight(), grid))
        except (DomainError, InputError) as exc:
            out["H2"] = entry([str(exc)])
    if params.damping.is_none:
        out["H3"] = {"verdict": "n/a"}
    else:
        out["H3"] = entry(validate_h3(params.damping, sym))
    return out


def _build_envelope(case: str, scn: Scenario, params):
    xi = scn.xi_weight()
    if case == "linear":
        return envelope_linear_B(xi, scn.eps0, 1.0, scn.t0)
    if case == "nonlinear-B":
        t1 = max(scn.tail_start(), scn.t0 + scn.dt)
        return envelope_nonlinear_B(
            xi, scn.eps0, scn.eps1, 1.0, 1.0, scn.t0, t1, scn.memory_modulus()
        )
    return envelope_nonlinear_both(  # the one case left, "nonlinear-both"
        xi, scn.eps0, scn.eps1, 1.0, scn.t0,
        scn.memory_modulus(), params.damping.convexifier(),
    )


# --- artifacts -----------------------------------------------------------


def _write_csv(path: str, bundle, L: np.ndarray | None, stride: int) -> None:
    """CSV_COLUMNS of every stride-th sample; a missing L or memory tail is nan."""
    named = {"t": bundle.times, "L": L, "G": bundle.damping_avg, "M": bundle.memory_tail}
    cols = [named[c] if c in named else getattr(bundle, c) for c in CSV_COLUMNS]
    table = np.column_stack([np.full_like(bundle.times, math.nan) if c is None else c for c in cols])[::stride]
    # the bytes of np.savetxt(fmt="%.17g", delimiter=","), formatted a block
    # of rows per % operation instead of one row per Python iteration
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[i : i + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _distance_to_nearest(times: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each time to the nearest of the ascending points (inf if none)."""
    if len(points) == 0:
        return np.full(times.shape, math.inf)
    j = np.searchsorted(points, times)
    left = points[np.maximum(j - 1, 0)]
    right = points[np.minimum(j, len(points) - 1)]
    return np.minimum(np.abs(times - left), np.abs(times - right))


def _rate_level(dt: float, traj, rate_residual: np.ndarray) -> dict:
    """Rate-residual maxima of one refinement level, split at the crossings of u."""
    crossings = dg.zero_crossings(traj)
    dist = _distance_to_nearest(traj.times, crossings)
    near = dist <= CROSSING_HALFWIDTH
    absr = np.abs(rate_residual)
    has = ~np.isnan(absr)

    def worst(mask):
        return float(absr[mask & has].max()) if np.any(mask & has) else math.nan

    i_worst = int(np.nanargmax(absr)) if has.any() else None
    windows = []
    for c in crossings:
        lo, hi = max(c - CROSSING_HALFWIDTH, 0.0), min(c + CROSSING_HALFWIDTH, traj.times[-1])
        if windows and lo <= windows[-1][1]:
            windows[-1][1] = hi
        else:
            windows.append([lo, hi])
    return {
        "dt": dt,
        "max_residual": worst(has),
        "max_residual_smooth": worst(~near),
        "max_residual_near": worst(near),
        "excluded_frac": float(near.mean()),
        "excluded_windows": windows,
        "worst_t": None if i_worst is None else float(traj.times[i_worst]),
        "worst_crossing_distance": None if i_worst is None else float(dist[i_worst]),
    }


def _slope(levels: list, key: str) -> float:
    dts = np.array([lv["dt"] for lv in levels])
    worsts = np.array([lv[key] for lv in levels])
    if not np.all(np.isfinite(worsts) & (worsts > 0.0)):
        return math.nan
    return float(np.polyfit(np.log(dts), np.log(worsts), 1)[0])


def run_scenario(scn: Scenario, refine: int = 0, dump_grams: bool = False):
    """Execute one scenario; returns (report dict, exit code)."""
    if refine < 0 or refine == 1:
        raise InputError(f"refine must be 0 or >= 2, got {refine}")
    t_begin = time.perf_counter()
    params = scn.physical_params()
    report: dict = {"scenario": asdict(scn), "diverged": False}
    verdicts: dict = {}

    hyp = _hypotheses(scn, params)
    report["hypotheses"] = hyp
    for name in ("H1", "H2", "H3"):
        verdicts[name] = hyp[name]["verdict"]

    def artifact(name):
        # the directory is made by the first write, so a run refused before
        # it writes (a basis or trajectory too large) leaves no directory
        os.makedirs(scn.out_dir, exist_ok=True)
        return os.path.join(scn.out_dir, name)

    basis = scn.make_basis()
    grams = assemble_grams(basis)
    cp = estimate_cp(grams)
    report["cp"] = cp
    if dump_grams:
        np.savez(artifact("grams.npz"), M0=grams.M0, M1=grams.M1, M2=grams.M2)

    k0 = dg.log_source_bound(params, cp)
    if params.k > 0.0:
        verdicts["H4"] = "pass" if params.k < k0 else "fail"
    else:
        verdicts["H4"] = "n/a"
    report["k0"] = k0

    def finish(code):
        # written with the report, so a run refused while sizing leaves neither
        with open(artifact("effective.ini"), "w", encoding="utf-8") as fh:
            fh.write(effective_config(scn))
        report["verdicts"] = verdicts
        report["wall_clock_s"] = time.perf_counter() - t_begin
        with open(artifact("report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return report, code

    if any(v == "fail" for v in verdicts.values()):
        report["note"] = "hypothesis validation failed; simulation skipped"
        return finish(1)

    try:
        traj = simulate(scn, basis=basis, grams=grams)
    except DivergedError as exc:
        report["diverged"] = True
        report["note"] = f"simulation diverged: {exc}"
        return finish(2)

    t1 = scn.tail_start()
    bundle = dg.analyze(traj, t1=t1 if t1 < scn.T else None)

    max_inc = float(np.max(np.diff(bundle.E))) if len(traj) > 1 else 0.0
    verdicts["monotone"] = "pass" if max_inc <= MONOTONE_TOL else "fail"
    report["energy"] = {
        "E0": _num(bundle.E[0]),
        "E_final": _num(bundle.E[-1]),
        "max_increase": _num(max_inc),
        "max_drift": _num(np.max(np.abs(bundle.E - bundle.E[0]))),
    }

    # potential well
    wc = None
    if params.k > 0.0:
        wc = dg.well_constants(params, cp, a=scn.a)
        wrep = dg.check_well(bundle, wc)
        report["well"] = {
            "a": wc.a, "Q0": wc.Q0, "rho_bar": wc.rho_bar, "d": wc.d,
            "d_positive": wc.d_positive, "window": list(wc.window),
            "certified": wrep.certified, "reason": wrep.reason,
            "first_violation_time": wrep.first_violation_time,
            "violation_count": len(wrep.violations),
        }
        if not wc.d_positive or not wrep.certified:
            verdicts["well"] = "n/a"
        else:
            verdicts["well"] = "pass" if wrep.passed else "fail"
    else:
        verdicts["well"] = "n/a"
        report["well"] = {"certified": False, "reason": "k = 0: no well argument"}

    # logarithmic Sobolev gap along the run
    a_used = scn.a if scn.a is not None else (wc.a if wc is not None else None)
    if a_used is not None:
        gap_min = float(np.min(dg.log_sobolev_series(bundle, a_used, cp)))
        verdicts["log_sobolev"] = "pass" if gap_min >= -dg.GAP_TOL else "fail"
        report["log_sobolev"] = {"a": a_used, "gap_min": _num(gap_min)}
    else:
        verdicts["log_sobolev"] = "n/a"
        report["log_sobolev"] = {"a": None, "gap_min": None}

    # Lyapunov weight search; n/a when no sample has energy to bound
    lrep = None
    report["lyapunov"] = {"N": None, "eps": scn.lyap_eps, "ratio_min": None, "ratio_max": None}
    try:
        lrep = dg.find_lyapunov_N(bundle, scn.lyap_eps)
        verdicts["lyapunov"] = "n/a" if lrep is None else "pass"
    except DomainError as exc:
        verdicts["lyapunov"] = "fail"
        report["lyapunov"] = {"error": str(exc)}
    if lrep is not None:
        report["lyapunov"].update(N=lrep.N, ratio_min=_num(lrep.ratio_min), ratio_max=_num(lrep.ratio_max))

    # decay fit
    case = scn.decay_case()
    if case == "none" or scn.T <= 0.0:
        verdicts["decay"] = "n/a"
        report["decay"] = {"case": case}
    else:
        try:
            env = _build_envelope(case, scn, params)
            fit = dg.fit_decay((bundle.times, bundle.E), env)
            verdicts["decay"] = (
                "n/a" if fit.skipped else ("pass" if fit.overshoot <= OVERSHOOT_TOL else "fail")
            )
            report["decay"] = {
                "case": case, "c": _num(fit.c), "overshoot": _num(fit.overshoot),
                "exponent": _num(fit.exponent), "window": [_num(w) for w in fit.window],
                "n_samples": fit.n_samples,
            }
        except (InputError, DomainError) as exc:
            verdicts["decay"] = "n/a"
            report["decay"] = {"case": case, "error": str(exc)}

    # rate residual, optional refinement study.  The order is judged on the
    # samples outside each level's crossing windows (same half-width at every
    # level); slope_all and slope_near keep the whole run and the windows.
    max_rr = float(np.nanmax(np.abs(bundle.rate_residual))) if len(traj) > 2 else math.nan
    rate_block = {"max_residual": _num(max_rr)}
    if refine >= 2:
        levels = [_rate_level(scn.dt, traj, bundle.rate_residual)]
        for level in range(1, refine):
            finer = with_overrides(scn, dt=scn.dt / 2**level)
            traj_f = simulate(finer, basis=basis, grams=grams)
            levels.append(_rate_level(finer.dt, traj_f, dg.analyze(traj_f).rate_residual))
        slope = _slope(levels, "max_residual_smooth")
        rate_block["crossing_halfwidth"] = CROSSING_HALFWIDTH
        rate_block["slope"] = _num(slope)
        rate_block["slope_all"] = _num(_slope(levels, "max_residual"))
        rate_block["slope_near"] = _num(_slope(levels, "max_residual_near"))
        rate_block["levels"] = [
            {key: (_num(val) if isinstance(val, float) else val) for key, val in lv.items()}
            for lv in levels
        ]
        floor = RATE_ROUNDING * float(np.max(np.abs(bundle.E)))
        if math.isnan(slope):
            verdicts["rate_slope"] = "n/a"
            rate_block["note"] = "no positive residual maximum outside the crossing windows"
        elif all(lv["max_residual_smooth"] <= floor / lv["dt"] for lv in levels):
            verdicts["rate_slope"] = "n/a"
            rate_block["note"] = "every level's residual maximum is rounding, at most 1e3 eps max|E| / dt"
        else:
            verdicts["rate_slope"] = "pass" if abs(slope - 2.0) <= 0.1 else "fail"
    report["rate"] = rate_block

    _write_csv(artifact("timeseries.csv"), bundle, None if lrep is None else lrep.L, scn.stride)
    return finish(1 if any(v == "fail" for v in verdicts.values()) else 0)


# --- sweep ---------------------------------------------------------------


def _cell_name(idx: int, assignment: dict) -> str:
    parts = [f"{k}={v}" for k, v in assignment.items()]
    safe = "_".join(parts).replace(os.sep, "-").replace(" ", "")
    return f"cell-{idx:03d}_{safe}"


def _run_cell(args):
    idx, scn = args
    try:
        report, code = run_scenario(scn)
    except ViscoplateError as exc:
        return idx, 2, {"error": str(exc)}
    decay = report.get("decay", {})
    energy = report.get("energy", {})
    return idx, code, {
        "E0": energy.get("E0"), "E_final": energy.get("E_final"),
        "case": decay.get("case"), "c": decay.get("c"),
        "overshoot": decay.get("overshoot"), "exponent": decay.get("exponent"),
    }


def sweep(base: Scenario, axes: dict, out_root: str) -> int:
    """Cartesian product of axis assignments; one cell directory each.

    Returns 2 when any cell's run raised (its row's exit code is 2), else
    1 when any cell failed a verdict, else 0: the codes of `viscoplate run`.
    """
    if not axes:
        raise InputError("sweep needs at least one --axis")
    env_cap = os.environ.get("VISCOPLATE_THREADS")
    try:
        workers = int(env_cap) if env_cap else (os.cpu_count() or 1)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InputError(f"VISCOPLATE_THREADS must be a positive integer, got {env_cap!r}")
    keys = list(axes)
    cells = []
    for idx, combo in enumerate(itertools.product(*(axes[k] for k in keys))):
        assignment = dict(zip(keys, combo))
        cell_dir = os.path.join(out_root, _cell_name(idx, assignment))
        try:
            cells.append((idx, with_overrides(base, out_dir=cell_dir, **assignment)))
        except ScenarioError as exc:
            raise ScenarioError(f"sweep cell {os.path.basename(cell_dir)}: {exc}") from None
    os.makedirs(out_root, exist_ok=True)

    workers = max(1, min(workers, len(cells)))
    if workers == 1:
        results = [_run_cell(c) for c in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, cells))

    results.sort(key=lambda r: r[0])
    summary_path = os.path.join(out_root, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        # a sweep value such as exp(0.25,0.5) holds commas, so fields are quoted where needed
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell", "exit_code", *keys, "E0", "E_final", "case", "c", "overshoot", "exponent"])
        for (idx, scn), (_, code, extra) in zip(cells, results):
            row = [idx, code, *(str(getattr(scn, k)) for k in keys)]
            row += [None if extra.get(f) is None else _fmt(extra[f]) for f in ("E0", "E_final")]
            row.append(extra.get("case"))  # None, as in the numeric fields, writes ""
            row += [None if extra.get(f) is None else _fmt(extra[f]) for f in ("c", "overshoot", "exponent")]
            writer.writerow(row)
    return max(code for _, code, _ in results)


# --- entry point ---------------------------------------------------------


def _parse_axes(specs) -> dict:
    axes = {}
    valid = {f for f in Scenario.__dataclass_fields__ if f != "out_dir"}
    for spec in specs:
        if "=" not in spec:
            raise InputError(f"axis {spec!r} must look like key=v1,v2,...")
        key, _, rest = spec.partition("=")
        key = key.strip()
        if key not in valid:
            raise InputError(f"unknown sweep axis {key!r}")
        if key in axes:
            raise InputError(f"sweep axis {key!r} given twice")
        values = split_top(rest, ",")
        if values == [""]:
            raise InputError(f"axis {key!r} has no values")
        if "" in values:
            raise InputError(f"empty value in axis {spec!r}")
        axes[key] = [parse_field(key, v) for v in values]
    return axes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscoplate",
        description="Spectral simulator for a viscoelastic plate with "
        "logarithmic forcing, plus inequality diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario (preset name or config path)")
    p_run.add_argument("config", help=f"config file or preset: {', '.join(sorted(PRESETS))}")
    p_run.add_argument("--out", help="output directory override")
    p_run.add_argument("--stride", type=int, help="write every K-th sample to timeseries.csv")
    p_run.add_argument("--refine", type=int, default=0,
                       help="refinement levels for the rate-residual order check (0: none, or >= 2)")
    p_run.add_argument("--dump-grams", action="store_true", help="also write grams.npz")

    p_sweep = sub.add_parser("sweep", help="Cartesian sweep over scenario fields")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", action="append", required=True,
                         help="key=v1,v2,... (repeatable)")
    p_sweep.add_argument("--out", help="root output directory")

    args = parser.parse_args(argv)
    try:
        scn = load_scenario(args.config)
        if args.command == "run":
            if args.out:
                scn = with_overrides(scn, out_dir=args.out)
            if args.stride is not None:
                scn = with_overrides(scn, stride=args.stride)
            report, code = run_scenario(scn, refine=args.refine, dump_grams=args.dump_grams)
            verdicts = report.get("verdicts", {})
            for name in sorted(verdicts):
                print(f"{name}: {verdicts[name]}")
            print(f"artifacts in {scn.out_dir}")
            return code
        out_root = args.out or scn.out_dir
        return sweep(scn, _parse_axes(args.axis), out_root)
    except (ViscoplateError, OSError) as exc:  # OSError: artifacts that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
