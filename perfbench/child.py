"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py setup|run|trace <scenario.ini>

Run from the checkout root; viscoplate is imported from ./src and from
nowhere else.  Prints one JSON object as the last line of stdout.

setup  import viscoplate, load_scenario, make_basis, assemble_grams
run    setup, then one timed run_scenario call between two calibrations
trace  load_scenario and run_scenario with spans around every layer,
       between two calibrations

A calibration times a fixed piece of work that does not use viscoplate:
an interpreter loop, small dense solves, history-length vector products
and blocks of a kernel-times-history product (large arrays, threaded
BLAS), the kinds of work the workloads do.  It measures how fast the
machine is at the moment of the run; run.py divides each timing by it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _import_viscoplate():
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, src)
    import viscoplate

    if not os.path.realpath(viscoplate.__file__).startswith(src + os.sep):
        raise SystemExit(f"viscoplate was imported from {viscoplate.__file__}, not from {src}")
    return viscoplate


def _facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array and large-array numpy work."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    h = rng.standard_normal((5001, 8))
    w = rng.random(5001)
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1_200_000):
        s += (i * 0.5) % 3.0
    for k in range(9000):
        x = np.linalg.solve(a, h[k % 5001])
        s += float(np.sqrt(np.abs(x)).sum())
    for k in range(6000):
        c = w[k % 300 + 1:] @ h[: -(k % 300 + 1)]
        s += float(c @ (a @ c))
    times = np.arange(5001) * 1e-3
    for r in range(0, 128 * 20, 128):
        lags = times[r:r + 128, None] - times[None, :]
        vals = np.exp(-0.5 * np.clip(lags, 0.0, None)) * (lags >= 0.0)
        s += float((vals @ h).sum() + vals.sum())
    return time.perf_counter() - t0


def _summary(report: dict, code: int) -> dict:
    """The outcome the correctness gate compares with its reference."""
    return {
        "exit_code": code,
        "initial_u": report["scenario"]["initial_u"],
        "verdicts": report["verdicts"],
        "E0": report.get("energy", {}).get("E0"),
        "E_final": report.get("energy", {}).get("E_final"),
        "decay_c": report.get("decay", {}).get("c"),
        "max_residual": report.get("rate", {}).get("max_residual"),
    }


def setup(ini: str) -> tuple:
    """(seconds, scenario) for the work every `viscoplate run` does first."""
    _import_viscoplate()
    from viscoplate.scenario import load_scenario
    from viscoplate.spectral import assemble_grams

    scn = load_scenario(ini)
    assemble_grams(scn.make_basis())
    return time.perf_counter() - T_START, scn


def run(ini: str) -> dict:
    setup_s, scn = setup(ini)
    from viscoplate.cli import run_scenario

    calib_before = calibrate()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    report, code = run_scenario(scn)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "calib_before_s": calib_before,
        "calib_after_s": calibrate(),
        "summary": _summary(report, code),
    }


def trace(ini: str) -> dict:
    _import_viscoplate()
    from viscoplate import cli, scenario

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    scn = scenario.load_scenario(ini)
    calib_before = calibrate()
    report, code = cli.run_scenario(scn)
    calib_after = calibrate()
    return {
        "layers": tracing.layer_metrics(tracer, scn.out_dir),
        "calib_s": 0.5 * (calib_before + calib_after),
        "span_check": tracer.check_nesting(),
        "summary": _summary(report, code),
    }


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "run", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, ini = argv
    if mode == "setup":
        result = {"setup_s": setup(ini)[0], "facts": _facts()}
    elif mode == "run":
        result = run(ini)
    else:
        result = trace(ini)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
