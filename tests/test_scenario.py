import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscoplate.dynamics import run
from viscoplate.errors import InputError, ScenarioError
from viscoplate.kernels import parse_damping_spec, parse_kernel_spec, parse_modulus_spec, parse_xi_spec
from viscoplate.scenario import (
    PRESETS,
    Scenario,
    _parse_initial,
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


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _spec(head, *args):
    return st.tuples(*args).map(lambda vals: f"{head}({','.join(map(repr, vals))})")


_ANY, _NONNEG = _finite(), _finite(min_value=0.0)
_POS = _finite(min_value=0.0, exclude_min=True)
_ABOVE_ONE = _finite(min_value=1.0, exclude_min=True)
_UNIT = _finite(min_value=0.0, max_value=1.0, exclude_min=True)  # (0, 1]
_OPEN_UNIT = _finite(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_POWER_Q = _ABOVE_ONE.filter(lambda q: (q + 1.0) / q > 1.0)  # from q ~ 1e16, (q + 1)/q rounds to 1
_KERNELS = st.just("none") | _spec("exp", _POS, _POS) | _spec("power", _POS, _POWER_Q)
_DAMPINGS = st.just("none") | _spec("damp-linear", _POS) | _spec("damp-cubic", _UNIT)
_XIS = st.none() | _spec("const", _POS) | _spec("rational", _UNIT) | _spec("rational", _UNIT, _POS)
_MODULI = st.none() | _spec("linear", _POS) | _spec("pow", _ABOVE_ONE) | _spec("pow", _ABOVE_ONE, _POS)


@st.composite
def valid_scenarios(draw):
    """A preset with every field redrawn from the values validate accepts."""
    dim, n = draw(st.sampled_from([1, 2])), draw(st.integers(1, 12))
    mode = _spec("mode", st.integers(1, n**dim), _ANY)
    initial = st.just("zero") | st.lists(mode, min_size=1, max_size=3).map("+".join)
    rho = draw(_NONNEG)
    dt = draw(_finite(min_value=0.0, max_value=1e300, exclude_min=True))  # T = steps * dt stays finite
    scn = replace(
        draw(st.sampled_from(list(PRESETS.values()))),
        spatial_dim=dim, n=n, L=draw(_POS), quad_order=draw(st.none() | st.integers(2 * n + 4, 64)),
        dt=dt, T=draw(st.integers(0, 10**6)) * dt,
        rho=rho, k=draw(_NONNEG), sigma=draw(_POS if 0.0 < rho < 1.0 else _NONNEG),
        kernel=draw(_KERNELS), damping=draw(_DAMPINGS), xi=draw(_XIS), modulus=draw(_MODULI),
        initial_u=draw(initial), initial_v=draw(initial),
        out_dir=draw(st.text("abz019/._-", min_size=1, max_size=12)), stride=draw(st.integers(1, 10**6)),
        a=draw(st.none() | _POS), eps1=draw(_POS), t0=draw(_NONNEG), t1=draw(st.none() | _NONNEG),
        delta=draw(_OPEN_UNIT), lyap_eps=draw(_POS),
    )
    # eps0 lies below 1 where the decay envelope is the linear one
    return replace(scn, eps0=draw(_OPEN_UNIT if scn.decay_case() == "linear" else _POS))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(valid_scenarios())
def test_effective_config_round_trip_random_scenarios(scn):
    assert scn.validate() == []
    assert parse_scenario_text(effective_config(scn)) == scn


_NOT_POS = _finite(max_value=0.0) | st.sampled_from([math.nan, math.inf, -math.inf])
_BAD_KERNELS = (
    _spec("exp", _NOT_POS, _ANY) | _spec("exp", _POS, _NOT_POS)
    | _spec("power", _NOT_POS, _ANY) | _spec("power", _POS, _finite(max_value=1.0))
    | st.sampled_from(["exp(0.5)", "power(0.5,2,3)", "exp(0.5,1.0", "gauss(1,1)"])
)
_BAD_DAMPINGS = (
    _spec("damp-linear", _NOT_POS) | _spec("damp-cubic", _NOT_POS)
    | _spec("damp-cubic", _finite(min_value=1.0, exclude_min=True))
    | st.sampled_from(["damp-linear()", "damp-cubic(0.5,1)", "damp-quintic(1)"])
)


@st.composite
def invalid_runs(draw):
    """(kernel, damping, dt, T, which) with `which` naming the invalid ones, at least one."""
    which = draw(st.sets(st.sampled_from(["kernel", "damping", "dt", "T"]), min_size=1))
    kernel = draw(_BAD_KERNELS if "kernel" in which else _KERNELS)
    damping = draw(_BAD_DAMPINGS if "damping" in which else _DAMPINGS)
    good_dt = draw(st.sampled_from([0.01, 0.1, 0.25]))
    dt = draw(_NOT_POS) if "dt" in which else good_dt
    steps = draw(st.integers(0, 20))
    if "T" in which:  # negative, or a fractional number of steps
        fraction = st.floats(0.01, 0.99).map(lambda f: (steps + f) * good_dt)
        T = draw(_finite(max_value=0.0, exclude_max=True) | fraction)
    else:
        T = steps * good_dt
    return kernel, damping, dt, T, which


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(invalid_runs())
def test_invalid_physics_and_time_raise_only_scenario_errors(case):
    kernel, damping, dt, T, which = case
    if "kernel" in which:
        with pytest.raises(InputError):
            parse_kernel_spec(kernel)
    if "damping" in which:
        with pytest.raises(InputError):
            parse_damping_spec(damping)
    # validate refuses every draw, a horizon that is not a whole number of steps too
    with pytest.raises(ScenarioError):
        with_overrides(Scenario(n=2), kernel=kernel, damping=damping, dt=dt, T=T)
    if which == {"T"} and T > 0:  # run, handed an unvalidated scenario, refuses it by the same rule
        with pytest.raises(InputError, match="integer number of steps"):
            run(replace(Scenario(n=2), kernel=kernel, damping=damping, dt=dt, T=T))


_PARSER_OF = {
    "kernel": parse_kernel_spec,
    "damping": parse_damping_spec,
    "xi": parse_xi_spec,
    "modulus": parse_modulus_spec,
    "initial_u": lambda spec: _parse_initial(spec, 1, 8),
}


@pytest.mark.parametrize(
    "field, spec",
    [
        ("kernel", "exp(0.5,,1.0)"),
        ("kernel", "exp(,0.5,1.0,)"),
        ("kernel", "power(0.5,2,)"),
        ("damping", "damp-linear(,1)"),
        ("xi", "rational(0.5,)"),
        ("modulus", "pow(2,,)"),
        ("initial_u", "mode(1,,0.04)"),
    ],
)
def test_empty_spec_argument_refused(field, spec):
    with pytest.raises(InputError, match="empty argument"):
        _PARSER_OF[field](spec)
    with pytest.raises(ScenarioError, match="empty argument"):
        with_overrides(Scenario(), **{field: spec})


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


def test_invalid_space_skips_initial_data_checks():
    # a mode index has no range without a valid space: the initial-data
    # checks wait for the space check, so n**spatial_dim is never formed
    scn = replace(PRESETS["exp-linear"], spatial_dim=10**7, initial_u="mode(0,0.1)")
    assert [p.split(":")[0] for p in scn.validate()] == ["space"]


def test_initial_mode_index_must_be_integer():
    problem = "initial.u: mode term 'mode(1.0,0.04)' needs an integer index"
    with pytest.raises(ScenarioError, match=re.escape(problem)):
        parse_scenario_text(MINIMAL + "[initial]\nu = mode(1.0,0.04)\n")


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
