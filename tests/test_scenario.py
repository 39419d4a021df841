import re

import numpy as np
import pytest

from viscoplate.errors import ScenarioError
from viscoplate.scenario import (
    PRESETS,
    Scenario,
    effective_config,
    load_scenario,
    parse_scenario,
    parse_scenario_text,
    with_overrides,
)
from viscoplate.spectral import assemble_grams, eval_field


MINIMAL = """
[space]
dim = 1
n = 6
[time]
dt = 0.01
T = 0.5
"""


def test_minimal_config_gets_defaults():
    scn = parse_scenario_text(MINIMAL)
    assert scn.n == 6
    assert scn.dt == 0.01
    assert scn.T == 0.5
    # untouched fields keep their documented defaults
    assert scn.kernel == "exp(0.5,1.0)"
    assert scn.damping == "damp-linear(1)"
    assert scn.initial_u == "mode(1,0.04)"
    assert scn.stride == 1
    assert scn.rho == 0.0


def test_unknown_key_is_named():
    bad = MINIMAL + "\n[physics]\ndampng = damp-linear(1)\n"
    with pytest.raises(ScenarioError, match="dampng"):
        parse_scenario_text(bad)


def test_unknown_section_is_named():
    bad = MINIMAL + "\n[plotting]\nstyle = fancy\n"
    with pytest.raises(ScenarioError, match="plotting"):
        parse_scenario_text(bad)


def test_semantic_errors_listed_exhaustively():
    bad = """
[space]
n = 0
[time]
dt = -1
T = -2
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(bad)
    msg = str(err.value)
    assert "n" in msg and "dt" in msg and "T" in msg


@pytest.mark.parametrize("value", ["0", "-0.01"])
def test_nonpositive_lyap_eps_rejected(value):
    with pytest.raises(ScenarioError, match="diagnostics.lyap_eps must be positive"):
        parse_scenario_text(MINIMAL + f"[diagnostics]\nlyap_eps = {value}\n")


@pytest.mark.parametrize(
    "section, key, value, problem",
    [
        ("time", "dt", "nan", "time.dt must be finite"),
        ("time", "T", "inf", "time.T must be finite"),
        ("physics", "k", "nan", "physics.k must be finite"),
        ("diagnostics", "a", "-inf", "diagnostics.a must be finite"),
        ("physics", "kernel", "exp(nan,1.0)", "physics.kernel: non-finite argument"),
        ("physics", "kernel", "exp(0.5,inf)", "physics.kernel: non-finite argument"),
        ("physics", "damping", "damp-linear(nan)", "physics.damping: non-finite argument"),
        ("physics", "xi", "const(inf)", "physics.xi: non-finite argument"),
        ("initial", "u", "mode(1,nan)", "initial.u: mode amplitude"),
    ],
)
def test_non_finite_number_rejected(section, key, value, problem):
    with pytest.raises(ScenarioError, match=re.escape(problem)):
        parse_scenario_text(f"[{section}]\n{key} = {value}\n")


def test_type_error_names_section_and_key():
    with pytest.raises(ScenarioError, match=r"\[time\] T"):
        parse_scenario_text("[time]\nT = abc\n")


def test_kernel_spec_reaches_physics():
    scn = parse_scenario_text(MINIMAL + "[physics]\nkernel = exp(0.5,1.0)\n")
    params = scn.physical_params()
    assert params.kernel.l == pytest.approx(0.5, abs=1e-15)
    assert params.kernel.total_integral == pytest.approx(0.5, abs=1e-15)


def test_bad_kernel_spec_rejected():
    with pytest.raises(ScenarioError, match="kernel"):
        parse_scenario_text(MINIMAL + "[physics]\nkernel = exp(0.5)\n")


def test_effective_config_round_trip():
    scn = parse_scenario_text(MINIMAL + "[physics]\nrho = 1.0\nsigma = 0.0\nk = 0.25\n")
    text = effective_config(scn)
    again = parse_scenario_text(text)
    assert again == scn
    # twice through the loop is a fixed point
    assert effective_config(again) == text


def test_effective_config_round_trip_all_presets():
    for name, scn in PRESETS.items():
        again = parse_scenario_text(effective_config(scn))
        assert again == scn, name


def test_initial_mode_sum():
    scn = parse_scenario_text(MINIMAL + "[initial]\nu = mode(1,0.3)+mode(2,-0.1)\n")
    basis = scn.make_basis()
    g0, v0 = scn.initial_coeffs(basis, assemble_grams(basis))
    assert g0[0] == pytest.approx(0.3)
    assert g0[1] == pytest.approx(-0.1)
    assert np.all(g0[2:] == 0.0)
    assert np.all(v0 == 0.0)


def test_initial_zero():
    scn = parse_scenario_text(MINIMAL + "[initial]\nu = zero\nv = zero\n")
    basis = scn.make_basis()
    g0, v0 = scn.initial_coeffs(basis, assemble_grams(basis))
    assert np.all(g0 == 0.0) and np.all(v0 == 0.0)


def test_initial_table_projection(tmp_path):
    # tabulate the first basis mode itself; projection must recover it
    base = parse_scenario_text(MINIMAL)
    basis = base.make_basis()
    xs = np.linspace(0.0, 1.0, 4001)
    ys = 0.2 * eval_field(np.eye(basis.dim)[0], basis, xs.reshape(-1, 1))
    path = tmp_path / "profile.csv"
    np.savetxt(path, np.column_stack([xs, ys]), delimiter=",")
    scn = parse_scenario_text(MINIMAL + f"[initial]\nu = table({path})\n")
    g0, _ = scn.initial_coeffs(basis, assemble_grams(basis))
    assert abs(g0[0] - 0.2) < 1e-4
    assert np.all(np.abs(g0[1:]) < 1e-4)


def test_initial_bad_mode_index():
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario_text(MINIMAL + "[initial]\nu = mode(9,0.1)\n")


def test_initial_garbage_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario_text(MINIMAL + "[initial]\nu = wavelet(3)\n")


def test_load_scenario_preset_and_path(tmp_path):
    scn = load_scenario("exp-linear")
    assert scn == PRESETS["exp-linear"]
    path = tmp_path / "case.ini"
    path.write_text(MINIMAL)
    scn2 = load_scenario(str(path))
    assert scn2.n == 6
    assert parse_scenario(str(path)) == scn2


def test_load_scenario_unknown_lists_presets():
    with pytest.raises(ScenarioError) as err:
        load_scenario("no-such-case")
    assert "exp-linear" in str(err.value)


def test_with_overrides():
    base = PRESETS["exp-linear"]
    scn = with_overrides(base, dt=0.005, out_dir="/tmp/elsewhere")
    assert scn.dt == 0.005
    assert scn.out_dir == "/tmp/elsewhere"
    assert scn.kernel == base.kernel


@pytest.mark.parametrize(
    "override, message",
    [
        ({"dt": "abc"}, "time.dt must be float, got 'abc'"),
        ({"n": 2.5}, "space.n must be int, got 2.5"),
        ({"kernel": 3}, "physics.kernel must be str, got 3"),
        ({"stride": 1.5}, "output.stride must be int, got 1.5"),
    ],
    ids=["dt", "n", "kernel", "stride"],
)
def test_with_overrides_rejects_wrong_type(override, message):
    with pytest.raises(ScenarioError) as err:
        with_overrides(PRESETS["exp-linear"], **override)
    assert str(err.value) == message


def test_presets_all_valid():
    for name, scn in PRESETS.items():
        assert scn.validate() == [], name
        params = scn.physical_params()
        assert params.k >= 0.0


def test_tail_start_default_is_quarter_horizon():
    scn = parse_scenario_text(MINIMAL)
    assert scn.tail_start() == pytest.approx(0.125)
    scn2 = parse_scenario_text(MINIMAL + "[diagnostics]\nt1 = 0.3\n")
    assert scn2.tail_start() == pytest.approx(0.3)


def test_two_dimensional_scenario_builds():
    scn = parse_scenario_text("[space]\ndim = 2\nn = 3\n[time]\ndt = 0.01\nT = 0.1\n")
    basis = scn.make_basis()
    assert basis.dim == 9
    g0, _ = scn.initial_coeffs(basis, assemble_grams(basis))
    assert g0[0] != 0.0
