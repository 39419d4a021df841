import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viscoplate
import viscoplate.diagnostics as dg
from viscoplate.cli import CSV_HEADER, _parse_axes, _split_values, main, run_scenario
from viscoplate.errors import InputError
from viscoplate.scenario import load_scenario, with_overrides


DISSIPATIVE = """
[space]
dim = 1
n = 6
[time]
dt = 0.01
T = 1.0
[physics]
rho = 0.0
k = 0.5
kernel = exp(0.5,1.0)
damping = damp-linear(1)
[initial]
u = mode(1,0.04)
"""

CONSERVATIVE = """
[space]
dim = 1
n = 6
[time]
dt = 0.001
T = 6.283
[physics]
rho = 0.0
k = 0.0
sigma = 0.0
kernel = none
damping = none
[initial]
u = mode(1,0.1)
"""


def write_cfg(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def test_run_writes_artifacts_and_passes(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    for artifact in ("report.json", "timeseries.csv", "effective.ini"):
        assert os.path.exists(os.path.join(out, artifact)), artifact
    rep = read_report(out)
    verdicts = rep["verdicts"]
    for name in ("H1", "H2", "H3", "H4", "monotone", "log_sobolev", "lyapunov"):
        assert verdicts[name] == "pass", name
    assert all(v in ("pass", "fail", "n/a") for v in verdicts.values())


def test_conservative_run_exit_zero_tiny_drift(tmp_path):
    cfg = write_cfg(tmp_path, CONSERVATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    rep = read_report(out)
    assert rep["energy"]["max_drift"] <= 1e-6
    assert rep["verdicts"]["decay"] == "n/a"
    assert rep["verdicts"]["well"] == "n/a"
    assert rep["verdicts"]["H1"] == "n/a"


def test_k_above_threshold_fails_h4_and_skips_run(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace("k = 0.5", "k = 5000"))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 1
    rep = read_report(out)
    assert rep["verdicts"]["H4"] == "fail"
    assert "skipped" in rep["note"]
    assert not os.path.exists(os.path.join(out, "timeseries.csv"))


def test_divergence_exits_two_with_flagged_report(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace("mode(1,0.04)", "mode(1,1e200)"))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 2
    rep = read_report(out)
    assert rep["diverged"] is True
    assert "diverge" in rep["note"]


def test_overflowing_step_exits_two_with_flagged_report(tmp_path):
    # dt = T = 1e10: every trial state overflows, also after the substep retries
    scn = with_overrides(
        load_scenario(write_cfg(tmp_path, DISSIPATIVE)), dt=1e10, T=1e10, out_dir=str(tmp_path / "out")
    )
    report, code = run_scenario(scn)
    assert code == 2
    rep = read_report(scn.out_dir)
    assert rep["diverged"] is True
    assert rep["note"].startswith("simulation diverged:")
    assert not os.path.exists(os.path.join(scn.out_dir, "timeseries.csv"))


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no scenario integrates by quadrature, so start-up need not load it
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscoplate.__file__)))
    probe = "import sys, viscoplate.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "False"


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[time]\ndt = -3\nT = 1.0\n")
    assert main(["run", cfg]) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "unparsable", "non-finite", "three-columns", "two-dimensional"])
def test_bad_initial_table_refused_before_running(tmp_path, capsys, case):
    table = tmp_path / "profile.csv"
    if case == "unparsable":
        table.write_text("0.0,0.0\nhalf,0.1\n1.0,0.0\n")
    elif case == "non-finite":
        table.write_text("0.0,0.0\n0.5,nan\n1.0,0.0\n")
    elif case == "three-columns":
        table.write_text("0.0,0.0,1\n0.5,0.1,1\n1.0,0.0,1\n")
    elif case == "two-dimensional":
        table.write_text("0.0,0.0\n0.5,0.1\n1.0,0.0\n")
    text = DISSIPATIVE.replace("u = mode(1,0.04)", f"u = table({table})")
    if case == "two-dimensional":
        text = text.replace("dim = 1", "dim = 2")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text + f"[output]\ndir = {out}\n")
    assert main(["run", cfg]) == 2
    assert "error: initial.u" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_preset_exits_two(capsys):
    assert main(["run", "definitely-not-a-preset"]) == 2
    assert "preset" in capsys.readouterr().err.lower()


def test_rerun_identical_bytes_except_wall_clock(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    csv1 = Path(out, "timeseries.csv").read_bytes()
    rep1 = Path(out, "report.json").read_text().splitlines(keepends=True)
    assert main(["run", cfg, "--out", out]) == 0
    csv2 = Path(out, "timeseries.csv").read_bytes()
    rep2 = Path(out, "report.json").read_text().splitlines(keepends=True)
    assert csv1 == csv2
    kept1 = [l for l in rep1 if "wall_clock" not in l]
    kept2 = [l for l in rep2 if "wall_clock" not in l]
    assert kept1 == kept2


def test_csv_schema_and_stride(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--stride", "10"]) == 0
    lines = Path(out, "timeseries.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) - 1 == 11  # rows 0,10,...,100 of 101 samples
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    assert float(first[0]) == 0.0
    # rate residual endpoint is nan by definition
    assert first[-1] == "nan"
    # 17 significant digits survive the round trip
    e0 = float(lines[1].split(",")[1])
    rep = read_report(out)
    assert e0 == rep["energy"]["E0"]


def test_negative_stride_exits_two_before_running(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--stride", "-1"]) == 2
    assert "output.stride must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_dump_grams(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--dump-grams"]) == 0
    z = np.load(os.path.join(out, "grams.npz"))
    assert sorted(z.files) == ["M0", "M1", "M2"]
    assert np.allclose(z["M0"], np.eye(6), atol=1e-12)


def test_refine_reports_second_order_slope(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace("dt = 0.01", "dt = 0.004"))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--refine", "3"]) == 0
    rep = read_report(out)
    assert len(rep["rate"]["levels"]) == 3
    assert abs(rep["rate"]["slope"] - 2.0) <= 0.1
    assert rep["verdicts"]["rate_slope"] == "pass"


def test_refine_judges_slope_outside_zero_crossings(tmp_path):
    # u changes sign near t = 1.8: the whole-run maximum converges below
    # second order there, the samples outside the crossing window do not
    text = DISSIPATIVE.replace("dt = 0.01", "dt = 0.002").replace("T = 1.0", "T = 2.5")
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--refine", "3"]) == 0
    rate = read_report(out)["rate"]
    assert len(rate["levels"]) == 3
    assert abs(rate["slope"] - 2.0) <= 0.1
    assert abs(rate["slope_all"] - 2.0) > 0.1
    assert rate["slope_near"] >= 0.9
    base = rate["levels"][0]
    assert base["max_residual"] == rate["max_residual"]
    assert base["max_residual"] >= base["max_residual_smooth"]
    assert base["excluded_windows"] and 0.0 < base["excluded_frac"] <= 0.05
    lo, hi = base["excluded_windows"][0]
    assert hi - lo == pytest.approx(2 * rate["crossing_halfwidth"])
    assert rate["levels"][-1]["worst_crossing_distance"] <= rate["crossing_halfwidth"]


def test_rest_run_lyapunov_not_applicable(tmp_path):
    # zero data: no sample carries energy, so there is no L/E ratio to bound
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace("mode(1,0.04)", "mode(1,0.0)"))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    rep = read_report(out)
    assert rep["energy"]["E0"] == 0.0
    assert rep["verdicts"]["lyapunov"] == "n/a"
    assert rep["lyapunov"] == {"N": None, "eps": 0.01, "ratio_min": None, "ratio_max": None}


@pytest.mark.parametrize("refine, calls", [(0, 1), (3, 3)])
def test_run_analyzes_each_trajectory_once(tmp_path, monkeypatch, refine, calls):
    seen = []
    analyze = dg.analyze

    def counting(traj, *args, **kwargs):
        seen.append(len(traj))
        return analyze(traj, *args, **kwargs)

    monkeypatch.setattr(dg, "analyze", counting)
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    scn = with_overrides(load_scenario(cfg), out_dir=str(tmp_path / "out"))
    _, code = run_scenario(scn, refine=refine)
    assert code == 0
    assert len(seen) == calls
    assert len(set(seen)) == calls  # one call per refinement level


def test_effective_ini_reparses_to_same_scenario(tmp_path):
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    eff = load_scenario(os.path.join(out, "effective.ini"))
    orig = with_overrides(load_scenario(cfg), out_dir=out)
    assert eff == orig


def test_sweep_single_cell_matches_run(tmp_path, monkeypatch):
    monkeypatch.setenv("VISCOPLATE_THREADS", "1")
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    run_out = str(tmp_path / "run-out")
    sweep_out = str(tmp_path / "sweep-out")
    assert main(["run", cfg, "--out", run_out]) == 0
    assert main(["sweep", cfg, "--axis", "k=0.5", "--out", sweep_out]) == 0
    cells = [d for d in os.listdir(sweep_out) if d.startswith("cell-")]
    assert len(cells) == 1
    assert filecmp.cmp(
        os.path.join(sweep_out, cells[0], "timeseries.csv"),
        os.path.join(run_out, "timeseries.csv"),
        shallow=False,
    )
    lines = Path(sweep_out, "summary.csv").read_text().splitlines()
    assert len(lines) == 2


def test_sweep_three_cells_with_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("VISCOPLATE_THREADS", "2")
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--axis", "k=0.25,0.5,1.0", "--out", out]) == 0
    cells = sorted(d for d in os.listdir(out) if d.startswith("cell-"))
    assert len(cells) == 3
    for cell in cells:
        assert os.path.exists(os.path.join(out, cell, "report.json"))
    lines = Path(out, "summary.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("cell,exit_code,k,")


def test_sweep_records_cell_failure_and_continues(tmp_path, monkeypatch):
    monkeypatch.setenv("VISCOPLATE_THREADS", "1")
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "sw")
    # middle cell trips the H4 guard, others succeed
    assert main(["sweep", cfg, "--axis", "k=0.5,5000,1.0", "--out", out]) == 1
    rows = Path(out, "summary.csv").read_text().splitlines()[1:]
    codes = [int(r.split(",")[1]) for r in rows]
    assert codes == [0, 1, 0]


def test_sweep_kernel_rate_ordering(tmp_path, monkeypatch):
    # Faster kernel decay couples less dissipation into the plate: the
    # rotational-inertia term pins every modal frequency near one, so kernels
    # with rate beyond that resonance drain energy more slowly.
    monkeypatch.setenv("VISCOPLATE_THREADS", "3")
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace("T = 1.0", "T = 10.0"))
    out = str(tmp_path / "sw")
    code = main([
        "sweep", cfg,
        "--axis", "kernel=exp(0.25,0.5),exp(0.25,1.0),exp(0.25,2.0)",
        "--out", out,
    ])
    assert code == 0
    rows = Path(out, "summary.csv").read_text().splitlines()[1:]
    exponents = [float(r.split(",")[-1]) for r in rows]
    assert len(exponents) == 3
    assert exponents[0] > exponents[1] > exponents[2] > 0.0


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
def test_sweep_rejects_bad_thread_cap(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("VISCOPLATE_THREADS", value)
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--axis", "k=0.5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "VISCOPLATE_THREADS" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "axis, problem",
    [
        ("lyap_eps=0.01,0", "diagnostics.lyap_eps must be positive"),
        ("dt=0.01,-1", "time.dt must be positive"),
        ("stride=1,0", "output.stride must be >= 1"),
        ("delta=0.5,1.5", "diagnostics.delta must lie in (0, 1)"),
        ("dt=0.01,abc", "[time] dt: cannot parse 'abc' as float"),
        ("n=6,2.5", "[space] n: cannot parse '2.5' as int"),
    ],
)
def test_sweep_validates_every_cell_before_running(tmp_path, monkeypatch, capsys, axis, problem):
    # cell 0 is valid, cell 1 is not: nothing may run or be created.  A value
    # of the wrong type is refused while the axis is parsed, before any cell.
    monkeypatch.setenv("VISCOPLATE_THREADS", "1")
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--axis", axis, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err
    assert "cannot parse" in problem or "cell-001" in err
    assert not os.path.exists(out)


def test_axis_parser_keeps_parenthesized_values_whole():
    assert _split_values("exp(0.25,0.5),exp(0.25,1.0)") == [
        "exp(0.25,0.5)",
        "exp(0.25,1.0)",
    ]
    axes = _parse_axes(["k=0.5,1", "kernel=exp(0.5,1.0),none"])
    assert axes["k"] == [0.5, 1]
    assert axes["kernel"] == ["exp(0.5,1.0)", "none"]


def test_axis_parser_rejects_unknown_key_and_empty():
    with pytest.raises(InputError, match="unknown sweep axis"):
        _parse_axes(["warp=1,2"])
    with pytest.raises(InputError, match="no values"):
        _parse_axes(["k="])
    with pytest.raises(InputError, match="key=v1"):
        _parse_axes(["just-values"])


def test_run_scenario_api_returns_report_and_code(tmp_path):
    scn = with_overrides(
        load_scenario("exp-linear"), dt=0.01, T=0.5, out_dir=str(tmp_path / "api")
    )
    report, code = run_scenario(scn)
    assert code == 0
    assert report["verdicts"]["monotone"] == "pass"
    assert report["energy"]["E0"] > 0.0
