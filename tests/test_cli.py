import csv
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
from viscoplate.cli import CSV_HEADER, _parse_axes, main, run_scenario
from viscoplate.errors import InputError
from viscoplate.kernels import split_top
from viscoplate.scenario import PRESETS, load_scenario, with_overrides


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


# Admissible data whose discrete energy rises: k = 2816 is below the
# threshold k0 = 4743, but dt under-resolves the source k u ln|u| (the
# time-exact energy of this system falls everywhere)
UNDER_RESOLVED_SOURCE = """
[space]
dim = 1
n = 4
[time]
dt = 0.01
T = 0.3
[physics]
rho = 0.0
k = 2816
kernel = exp(0.01,0.2)
damping = damp-linear(0.05)
[initial]
u = mode(1,0.01) + mode(2,0.003)
"""


def test_monotone_fails_on_an_under_resolved_source(tmp_path):
    # the negative control of `monotone`: it fails with every other verdict
    # passing or n/a, and the energy's largest rise shrinks under halving
    scn = load_scenario(write_cfg(tmp_path, UNDER_RESOLVED_SOURCE))
    rises = []
    for dt in (0.01, 0.005, 0.0025):
        report, code = run_scenario(with_overrides(scn, dt=dt, out_dir=str(tmp_path / f"dt-{dt}")))
        rises.append(report["energy"]["max_increase"])
        if dt == 0.01:
            verdicts = report["verdicts"]
            assert code == 1 and verdicts["monotone"] == "fail"
            assert all(verdicts[h] == "pass" for h in ("H1", "H2", "H3", "H4"))
            assert all(v in ("pass", "n/a") for name, v in verdicts.items() if name != "monotone")
    assert rises == pytest.approx([7.330e-6, 1.744e-6, 1.942e-7], rel=1e-3)
    assert rises[0] > 2.0 * rises[1] > 4.0 * rises[2] > 0.0


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
    # numpy serves every FFT, factorization and eigensolve, so start-up
    # loads no scipy module at all (scipy.integrate included)
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscoplate.__file__)))
    probe = "import sys, viscoplate.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]"


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[time]\ndt = -3\nT = 1.0\n")
    assert main(["run", cfg]) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case",
    ["missing", "empty", "unparsable", "whitespace", "non-finite", "three-columns", "two-dimensional"],
)
def test_bad_initial_table_refused_before_running(tmp_path, capsys, recwarn, case):
    table = tmp_path / "profile.csv"
    if case == "empty":
        table.write_text("")
    elif case == "unparsable":
        table.write_text("0.0,0.0\nhalf,0.1\n1.0,0.0\n")
    elif case == "whitespace":
        table.write_text("0.0 0.0\n0.5 0.1\n1.0 0.0\n")
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
    err = capsys.readouterr().err
    assert "error: initial.u" in err
    if case in ("unparsable", "whitespace", "three-columns"):
        assert "rows must be comma-separated x,value pairs" in err
    assert not out.exists()
    assert not recwarn.list


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


@pytest.mark.parametrize("stride, with_tail", [(1, True), (3, False)])
def test_csv_writer_matches_savetxt_bytes(tmp_path, stride, with_tail):
    # 12301 rows (4101 at stride 3) cross the writer's 4096-row blocks; the
    # table holds nan, +-inf, -0.0, a subnormal and values of every scale
    from types import SimpleNamespace

    from viscoplate.cli import _write_csv

    rng = np.random.default_rng(11)
    table = rng.standard_normal((12301, 17)) * 10.0 ** rng.integers(-300, 300, (12301, 17))
    table[0, :6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.0]
    table[-1, -5:] = [1.0, 0.1, 1 / 3, -2.5e-310, 1e308]
    names = (
        "times E J I kin_rho bend bend_rate mass logterm memory psi1 psi2 L "
        "damping_avg memory_tail dissipation rate_residual"
    ).split()
    cols = dict(zip(names, table.T))
    if not with_tail:
        cols["memory_tail"] = None
        table[:, 14] = np.nan
    L = cols.pop("L")
    path = tmp_path / "got.csv"
    _write_csv(str(path), SimpleNamespace(**cols), L, stride)
    want = tmp_path / "want.csv"
    with open(want, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table[::stride], fmt="%.17g", delimiter=",", header=CSV_HEADER, comments="")
    assert path.read_bytes() == want.read_bytes()


def test_negative_stride_exits_two_before_running(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--stride", "-1"]) == 2
    assert "output.stride must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "option, problem",
    [
        (["--refine", "1"], "refine must be 0 or >= 2, got 1"),
        (["--refine", "-2"], "refine must be 0 or >= 2, got -2"),
        (["--stride", "0"], "output.stride must be >= 1"),
    ],
    ids=["refine-1", "refine-negative", "stride-0"],
)
def test_bad_refine_or_stride_exits_two_before_running(tmp_path, capsys, option, problem):
    # --refine 1 has no level to compare with, and --stride 0 is not "unset"
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err
    assert not os.path.exists(out)


def test_run_scenario_refuses_one_refinement_level(tmp_path):
    scn = with_overrides(load_scenario(write_cfg(tmp_path, DISSIPATIVE)), out_dir=str(tmp_path / "out"))
    with pytest.raises(InputError, match="refine must be 0 or >= 2"):
        run_scenario(scn, refine=1)
    assert not os.path.exists(scn.out_dir)


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


def test_refine_conserved_energy_slope_not_applicable(tmp_path):
    # a conserved E leaves only rounding in its central difference, a few
    # 1e-12 at every level: no order to judge, so no failing slope
    scn = with_overrides(PRESETS["conservative"], T=1.0, out_dir=str(tmp_path / "out"))
    report, code = run_scenario(scn, refine=3)
    assert code == 0
    assert report["verdicts"]["rate_slope"] == "n/a"
    assert "rounding" in report["rate"]["note"]
    assert all(0.0 < lv["max_residual_smooth"] < 1e-10 for lv in report["rate"]["levels"])


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


def test_sweep_leaves_case_empty_for_a_cell_without_decay_fit(tmp_path, monkeypatch):
    # k = 1e6 fails the hypotheses before any simulation: that row has no
    # energy and no decay block, and its case field is empty like the others
    monkeypatch.setenv("VISCOPLATE_THREADS", "1")
    cfg = write_cfg(tmp_path, DISSIPATIVE)
    out = str(tmp_path / "sw")
    assert main(["sweep", cfg, "--axis", "k=0.5,1e6", "--out", out]) == 1
    with open(Path(out, "summary.csv"), newline="") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(r) == len(header) for r in rows)
    fields = {name: [r[header.index(name)] for r in rows] for name in header}
    assert fields["exit_code"] == ["0", "1"]
    assert fields["case"] == ["linear", ""]
    for name in ("E0", "E_final", "c", "overshoot", "exponent"):
        assert fields[name][1] == ""


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
    with open(Path(out, "summary.csv"), newline="") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(r) == len(header) for r in rows)
    assert [r[header.index("kernel")] for r in rows] == ["exp(0.25,0.5)", "exp(0.25,1.0)", "exp(0.25,2.0)"]
    exponents = [float(r[header.index("exponent")]) for r in rows]
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
        ("sigma=0,-1", "physics: regularization sigma must be >= 0"),
        ("quad_order=20,5", "space: quad_order 5 under-resolves 6 modes"),
        ("T=1,1.005", "time: 1.005 is not an integer number of steps of 0.01"),
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
    assert split_top("exp(0.25,0.5),exp(0.25,1.0)", ",") == [
        "exp(0.25,0.5)",
        "exp(0.25,1.0)",
    ]
    # the splitter initial-data sums share: a "+" inside mode(...) is an exponent sign
    assert split_top("mode(1,1e+16) + mode(2,-0.1)", "+") == ["mode(1,1e+16)", "mode(2,-0.1)"]
    axes = _parse_axes(["k=0.5,1", "kernel=exp(0.5,1.0),none"])
    assert axes["k"] == [0.5, 1]
    assert axes["kernel"] == ["exp(0.5,1.0)", "none"]


@pytest.mark.parametrize(
    "text, problem",
    [
        (DISSIPATIVE.replace("rho = 0.0", "rho = 0.0\nsigma = -1"), "regularization sigma must be >= 0"),
        (DISSIPATIVE.replace("rho = 0.0", "rho = 0.5\nsigma = 0"), "rho in (0,1) needs sigma > 0"),
        (DISSIPATIVE.replace("n = 6", "n = 4\nquad_order = 5"), "quad_order 5 under-resolves 4 modes"),
        (DISSIPATIVE + "[diagnostics]\na = 0\n", "diagnostics.a must be positive"),
        (
            DISSIPATIVE.replace("k = 0.5", "k = 0").replace("exp(0.5,1.0)", "none")
            + "[diagnostics]\na = -0.5\n",
            "diagnostics.a must be positive",
        ),
        (DISSIPATIVE.replace("T = 1.0", "T = 1.005"), "time: 1.005 is not an integer number of steps of 0.01"),
        (
            DISSIPATIVE.replace("dt = 0.01", "dt = 1e-300"),
            "time: 1.0 is 1e+300 steps of 1e-300, more than an array can hold",
        ),
    ],
    ids=[
        "sigma-negative", "rho-half-sigma-zero", "quad-order-5", "a-zero", "a-negative-no-source",
        "T-not-whole-steps", "steps-beyond-array-length",
    ],
)
def test_run_refuses_out_of_range_input_before_any_output(tmp_path, capsys, text, problem):
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err
    assert not os.path.exists(out)


def test_run_too_long_for_memory_exits_two(tmp_path, capsys):
    # 1e15 steps pass validation (an array can index them), but their
    # trajectory arrays need about 1.5e17 bytes, beyond the address space,
    # so the allocation fails at once without touching memory
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace("dt = 0.01", "dt = 1e-15"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 1000000000000000 steps of 6 coefficients need 1.52e+17 bytes")
    assert not out.exists()  # refused before the first write: no directory


def _assert_same_under_blas_threads(tmp_path, config):
    """`viscoplate run config` under 1 and 2 OpenBLAS threads: the same bytes and verdicts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscoplate.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "viscoplate.cli", "run", config, "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(((out / "timeseries.csv").read_bytes(), read_report(out)["verdicts"]))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_verdicts_do_not_depend_on_blas_threads(tmp_path):
    # one 1000-step 1D preset
    _assert_same_under_blas_threads(tmp_path, "exp-linear")


# the physics of the plate-2d benchmark workload over 200 steps: 64 modes on
# 1024 quadrature points, products large enough for OpenBLAS to use threads
PLATE_2D = """
[space]
dim = 2
n = 8
[time]
dt = 0.01
T = 2.0
[physics]
rho = 1.0
k = 0.5
sigma = 0.0
kernel = exp(0.3,2.0)
damping = damp-linear(0.5)
[initial]
u = mode(1,0.04)
[diagnostics]
a = 0.25
"""


def test_2d_verdicts_do_not_depend_on_blas_threads(tmp_path):
    _assert_same_under_blas_threads(tmp_path, write_cfg(tmp_path, PLATE_2D))


def test_axis_parser_rejects_unknown_key_and_empty():
    with pytest.raises(InputError, match="unknown sweep axis"):
        _parse_axes(["warp=1,2"])
    with pytest.raises(InputError, match="no values"):
        _parse_axes(["k="])
    for spec in ("k=0.5,,1", "k=0.5,"):
        with pytest.raises(InputError, match="empty value"):
            _parse_axes([spec])
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


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_output_that_cannot_be_created_exits_two(tmp_path, monkeypatch, capsys, command, target):
    # an existing file where the output directory should go, or below it:
    # an execution error (exit 2) with an error line, not a traceback
    monkeypatch.setenv("VISCOPLATE_THREADS", "1")
    (tmp_path / "file").write_text("")
    out = str(tmp_path / target)
    argv = ["run", "exp-linear"] if command == "run" else ["sweep", "exp-linear", "--axis", "T=0.5"]
    assert main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and out in err
    assert (tmp_path / "file").read_text() == ""


def test_sweep_refuses_an_axis_given_twice(tmp_path, capsys):
    # the later k axis used to replace the earlier one without a word
    out = str(tmp_path / "sw")
    assert main(["sweep", "exp-linear", "--axis", "k=0.25", "--axis", "k=0.5", "--axis", "T=0.5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'k' given twice" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "old, new, problem",
    [
        ("kernel = exp(0.5,1.0)", "kernel = power(0.5,1e17)", "physics.kernel: power kernel exponent 1e+17 too large"),
        ("damping = damp-linear(1)", "damping = damp-linear(1)\nmodulus = pow(2,-1)",
         "physics.modulus: modulus domain edge r1 must be positive, got -1.0"),
        ("damping = damp-linear(1)", "damping = damp-linear(1)\nmodulus = pow(1.5,0)",
         "physics.modulus: modulus domain edge r1 must be positive, got 0.0"),
        ("[initial]", "[diagnostics]\nt1 = -1.0\n[initial]", "diagnostics.t1 must be >= 0"),
        ("n = 6", "n = 226", "space: 226 modes per axis overflow the mode tables"),
        ("dim = 1\nn = 6", "dim = 2\nn = 226", "space: 226 modes per axis overflow the mode tables"),
    ],
    ids=["power-exponent-1e17", "modulus-edge-negative", "modulus-edge-zero", "t1-negative", "1d-n226", "2d-n226"],
)
def test_inputs_that_used_to_run_exit_two_before_any_output(tmp_path, capsys, old, new, problem):
    # the first two used to fail H2 with a message about the modulus (exit 1),
    # t1 = -1 to run with its tail start snapped to 0 (exit 0), and n = 226
    # to overflow its mode tables (numpy warnings, then exit 2 from Gram assembly)
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace(old, new))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "space, problem",
    [
        ("quad_order = 10000000", "need a 8e+14-byte table, more than can be allocated"),
        ("L = 1e-300", "Gram assembly produced invalid entries: non-finite values"),
    ],
    ids=["quad-order-1e7", "L-1e-300"],
)
def test_basis_that_cannot_be_built_exits_two_with_one_error_line(tmp_path, capsys, space, problem):
    # these used to end in an uncaught MemoryError (exit 1) and in numpy
    # RuntimeWarnings (errors in this suite); the quadrature rule of order 1e7
    # needs a 1e7 x 1e7 matrix, past any machine's memory, so nothing is
    # allocated.  The output directory is created only once the basis and
    # its Grams are built, so the refused run leaves none
    cfg = write_cfg(tmp_path, DISSIPATIVE.replace("n = 6", "n = 6\n" + space))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err and len(err.splitlines()) == 1
    assert not os.path.exists(out)


def test_lyapunov_search_past_2_to_10_fails_the_run(tmp_path):
    scn = with_overrides(PRESETS["exp-linear"], T=2.0, lyap_eps=1000.0, out_dir=str(tmp_path / "out"))
    report, code = run_scenario(scn)
    assert code == 1
    assert report["verdicts"]["lyapunov"] == "fail"
    assert report["lyapunov"] == {"error": "no N up to 2^10 gives a positive Lyapunov ratio"}
    assert [v for k, v in report["verdicts"].items() if k != "lyapunov"].count("fail") == 0
    with open(os.path.join(scn.out_dir, "timeseries.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["L"] == "nan" for row in rows)


def test_modulus_domain_below_kernel_range_fails_h2_and_skips_run(tmp_path):
    scn = with_overrides(PRESETS["exp-linear"], T=2.0, modulus="pow(2,0.1)", out_dir=str(tmp_path / "out"))
    report, code = run_scenario(scn)
    assert code == 1
    assert report["hypotheses"]["H2"] == {
        "verdict": "fail", "violations": ["kernel range max 0.5 exceeds modulus domain edge 0.1"],
    }
    assert "skipped" in report["note"]
    assert not os.path.exists(os.path.join(scn.out_dir, "timeseries.csv"))


def test_nonlinear_both_envelope_through_run_scenario(tmp_path):
    scn = with_overrides(PRESETS["power-cubic"], T=2.0, out_dir=str(tmp_path / "out"))
    report, code = run_scenario(scn)
    assert code == 0
    assert report["decay"]["case"] == "nonlinear-both"
    assert report["verdicts"]["decay"] == "pass"
    c = report["decay"]["c"]
    assert c is not None and np.isfinite(c) and c > 0.0


def test_modulus_without_continuation_leaves_decay_not_applicable(tmp_path):
    # validate accepts the modulus, as it holds on (0, r1]; the envelope,
    # which needs it past r1, reports why it cannot be built
    modulus = "modulus = pow(1.3407807929942597e+154)"
    text = DISSIPATIVE.replace("damping = damp-linear(1)", "damping = damp-linear(1)\n" + modulus)
    out = str(tmp_path / "out")
    main(["run", write_cfg(tmp_path, text), "--out", out])
    report = read_report(out)
    assert report["verdicts"]["decay"] == "n/a"
    assert report["decay"] == {"case": "nonlinear-B", "error": "modulus second derivative not finite at r1"}


_POWER_CUBIC = DISSIPATIVE.replace("exp(0.5,1.0)", "power(0.5,2.0)").replace("damp-linear(1)", "damp-cubic(0.5)")


@pytest.mark.parametrize(
    "text, problem",
    [
        (DISSIPATIVE, "eps0 = 5\n"),
        (DISSIPATIVE, "t0 = -1\n"),
        (DISSIPATIVE.replace("exp(0.5,1.0)", "power(0.5,2.0)"), "eps0 = -0.5\n"),
        (_POWER_CUBIC, "eps1 = 0\n"),
        (_POWER_CUBIC, "eps1 = -0.5\n"),
    ],
    ids=["linear-eps0-5", "linear-t0-negative", "power-linear-eps0-negative", "cubic-eps1-0", "cubic-eps1-negative"],
)
def test_decay_parameters_out_of_range_exit_two_before_any_output(tmp_path, capsys, text, problem):
    # each used to reach the decay fit and come out as a verdict
    cfg = write_cfg(tmp_path, text.replace("T = 1.0", "T = 2.0") + "[diagnostics]\n" + problem)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"diagnostics: {problem.split()[0]} must" in err
    assert not os.path.exists(out)
