"""Diagnostics tests: energy ledger, inequality gaps, well certification, fits.

Oracles: oversampled Gauss-Legendre quadrature for log integrals, python-loop
re-summation for convolutions, dense grid maximization for the s|ln s| bound,
closed-form envelopes for the decay fits.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viscoplate.diagnostics as dg
from viscoplate.dynamics import HistoryBuffer, PhysicalParams, PlateState, run
from viscoplate.errors import DomainError, HypothesisError, InputError
from viscoplate.kernels import (
    ConvexModulus,
    DampingLaw,
    RelaxationKernel,
    XiWeight,
    envelope_linear_B,
    validate_h1,
    validate_h2,
    validate_h3,
)
from viscoplate.scenario import PRESETS, Scenario, with_overrides
from viscoplate.spectral import _mode_tables, assemble_grams, build_basis, estimate_cp

MODE1_LOG_INTEGRAL = 0.24920705743221752  # int w1^2 ln|w1| for the normalized first mode

CONSERVATIVE = PhysicalParams(
    rho=0.0, k=0.0, kernel=RelaxationKernel.zero(), damping=DampingLaw.none(), sigma=0.0
)


class Scn:
    def __init__(self, params, dt, T, g0, v0, n=6):
        self.params, self.dt, self.T = params, dt, T
        self._g0, self._v0, self._n = np.asarray(g0, float), np.asarray(v0, float), n

    def make_basis(self):
        return build_basis(1, self._n)

    def physical_params(self):
        return self.params

    def initial_coeffs(self, basis, grams):
        return self._g0, self._v0


@pytest.fixture(scope="module")
def setup6():
    basis = build_basis(1, 6)
    return basis, assemble_grams(basis)


DISSIPATIVE = PhysicalParams(
    1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0
)


def mode1_run(params, dt, T):
    g0 = np.zeros(6)
    g0[0] = 0.04
    return run(Scn(params, dt, T, g0, np.zeros(6)))


@pytest.fixture(scope="module")
def dissipative_run():
    return mode1_run(DISSIPATIVE, 1e-3, 3.0)


@pytest.fixture(scope="module")
def dissipative_bundle(dissipative_run):
    return dg.analyze(dissipative_run)


@pytest.fixture(scope="module")
def certified_run():
    params = PhysicalParams(
        0.0, 2.0, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0
    )
    g0 = np.zeros(6)
    g0[0] = 0.04
    return run(Scn(params, 1e-3, 2.0, g0, np.zeros(6)))


# --- energy ledger -------------------------------------------------------


def test_energy_zero_state(setup6):
    basis, grams = setup6
    z = np.zeros(6)
    es = dg.energy(PlateState(0.0, z, z, z), CONSERVATIVE, grams, basis)
    for name in ("kin_rho", "bend", "bend_rate", "mass", "logterm", "memory", "E", "J", "I"):
        assert getattr(es, name) == 0.0


def test_energy_single_mode_closed_form(setup6):
    basis, grams = setup6
    c = 0.8
    k = 0.5
    g = np.zeros(6)
    g[0] = c
    params = PhysicalParams(0.0, k, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    es = dg.energy(PlateState(0.0, g, np.zeros(6), np.zeros(6)), params, grams, basis)
    bend = c * c * (basis.beam_roots[0] / basis.L) ** 4
    # int (c w1)^2 ln|c w1| = c^2 (ln c + int w1^2 ln|w1|) for unit-norm w1
    logterm = c * c * (math.log(c) + MODE1_LOG_INTEGRAL)
    expect = 0.5 * (bend + c * c) - 0.5 * k * logterm + 0.25 * k * c * c
    assert abs(es.bend - bend) < 1e-8 * bend
    assert abs(es.logterm - logterm) < 1e-10
    assert abs(es.E - expect) < 1e-8

    # independent oversampled quadrature for the log integral
    from numpy.polynomial.legendre import leggauss

    t, wt = leggauss(10 * basis.quad_order)
    x, wx = 0.5 * (t + 1.0), 0.5 * wt
    W, _ = _mode_tables(basis.beam_roots, x, basis.L)
    u = c * (W[0] * basis.axis_scale[0])
    ref = float(wx @ (u * u * np.log(np.abs(u) + (u == 0.0))))
    assert abs(es.logterm - ref) < 1e-9


def test_energy_identities_along_run(dissipative_bundle):
    b = dissipative_bundle
    assert np.max(np.abs(b.E - (b.kin_rho + b.J))) < 1e-12
    assert np.max(np.abs(b.J - (0.5 * b.I + 0.25 * 0.5 * b.mass))) < 1e-12


def test_energy_single_sample_matches_series(dissipative_run, dissipative_bundle):
    traj, b = dissipative_run, dissipative_bundle
    hist = traj.history()
    for i in (0, 700, 3000):
        es = dg.energy(traj.state(i), traj.params, traj.grams, traj.basis, history=hist)
        assert abs(es.E - b.E[i]) < 1e-12
        assert abs(es.memory - b.memory[i]) < 1e-12


def test_energy_monotone_dissipative(dissipative_bundle):
    E = dissipative_bundle.E
    assert np.max(np.diff(E)) <= 1e-10
    assert E[-1] < 0.5 * E[0]


@st.composite
def _dissipative_scenarios(draw):
    """Random admissible dissipative physics at n = 4, dt = 0.01, T = 0.3.

    The kernel's integral is below 1 (H1) and the decay law holds with the
    family's natural modulus (H2).  k is below k0 and at most 100: with k
    near k0 (about 4700 at n = 4) the stiffness k ln|u| of the source makes
    dt = 0.01 too coarse and the discrete energy rises by up to 1e-3 in a
    step, at the time-integration error and not by a fault of the stepper.
    """
    frac = draw(st.floats(0.05, 0.9))
    if draw(st.booleans()):
        rate = draw(st.floats(0.2, 5.0))
        kernel = f"exp({frac * rate!r},{rate!r})"
    else:
        q = draw(st.floats(1.5, 4.0))
        kernel = f"power({frac * (q - 1.0)!r},{q!r})"
    if draw(st.booleans()):
        damping = f"damp-linear({draw(st.floats(0.05, 2.0))!r})"
    else:
        damping = f"damp-cubic({draw(st.floats(0.1, 1.0))!r})"
    a1, a2 = draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.01, 0.01))
    scn = with_overrides(
        PRESETS["exp-linear"], n=4, dt=0.01, T=0.3, rho=draw(st.sampled_from([0.0, 1.0])),
        sigma=0.0, kernel=kernel, damping=damping, initial_u=f"mode(1,{a1!r})+mode(2,{a2!r})",
    )
    return scn, draw(st.floats(0.0, 0.9))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_dissipative_scenarios())
def test_energy_monotone_on_random_dissipative_physics(drawn):
    scn, k_frac = drawn
    params = scn.physical_params()
    grid = np.linspace(0.0, 30.0, 2001)
    assert validate_h1(params.kernel, grid) == []
    assert validate_h2(params.kernel, scn.memory_modulus(), scn.xi_weight(), grid) == []
    assert validate_h3(params.damping, np.linspace(-3.0, 3.0, 1201)) == []
    basis = scn.make_basis()
    grams = assemble_grams(basis)
    k = k_frac * min(dg.log_source_bound(params, estimate_cp(grams)), 100.0)
    E = dg.analyze(run(with_overrides(scn, k=k), basis, grams)).E
    assert np.max(np.diff(E)) <= 1e-10


def test_plate_2d_energy_ledger_and_memory_series():
    scn = Scenario(
        spatial_dim=2, n=4, dt=1e-2, T=3.0, kernel="exp(0.5,1.0)", damping="damp-linear(1)",
        initial_u="mode(1,0.04)+mode(6,0.02)",
    )
    traj = run(scn)
    b = dg.analyze(traj)
    assert np.max(np.diff(b.E)) <= 1e-10
    assert b.E[-1] < b.E[0]
    hist = traj.history()
    for i in (0, 150, 300):
        es = dg.energy(traj.state(i), traj.params, traj.grams, traj.basis, history=hist)
        assert abs(es.E - b.E[i]) < 1e-12
        assert abs(es.memory - b.memory[i]) < 1e-12
    # brute force: every row re-summed over its own nodes
    ker, M2, t = traj.params.kernel, traj.grams.M2, traj.times
    ref = np.zeros(len(t))
    for n in range(1, len(t)):
        w = np.full(n + 1, traj.dt)
        w[0] = w[-1] = 0.5 * traj.dt
        d = traj.g[n] - traj.g[: n + 1]
        ref[n] = (w * ker.value(t[n] - t[: n + 1])) @ np.einsum("ij,jk,ik->i", d, M2, d)
    assert np.max(np.abs(b.memory - ref)) <= 1e-12 * np.max(np.abs(ref))


# --- rate residual -------------------------------------------------------


def test_rate_residual_conservative_small():
    g0 = np.zeros(4)
    g0[0] = 0.1
    traj = run(Scn(CONSERVATIVE, 1e-3, 2.0, g0, np.zeros(4), n=4))
    rr = dg.analyze(traj).rate_residual
    assert math.isnan(rr[0]) and math.isnan(rr[-1])
    assert np.nanmax(np.abs(rr)) < 1e-6


def test_rate_residual_second_order():
    params = PhysicalParams(
        1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0
    )
    g0 = np.zeros(6)
    g0[0] = 0.04
    worst = {}
    for dt in (2e-3, 1e-3):
        traj = run(Scn(params, dt, 1.6, g0, np.zeros(6)))
        worst[dt] = np.nanmax(np.abs(dg.analyze(traj).rate_residual))
    ratio = worst[2e-3] / worst[1e-3]
    assert 3.2 < ratio < 4.8


def test_rate_nonpositive_along_run(dissipative_bundle):
    b = dissipative_bundle
    assert np.max(b.rate) <= 1e-12
    assert np.max(b.memory_deriv) <= 1e-14  # b' <= 0 makes this term nonpositive
    assert np.min(b.dissipation) >= -1e-14


# --- logarithmic Sobolev -------------------------------------------------


def test_log_sobolev_zero_and_first_mode(setup6):
    basis, grams = setup6
    cp = estimate_cp(grams)
    assert dg.log_sobolev_gap(np.zeros(6), 1.0, cp, basis) == 0.0
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert dg.log_sobolev_gap(e1, 1.0, cp, basis) > 0.0
    with pytest.raises(InputError):
        dg.log_sobolev_gap(e1, 0.0, cp, basis)


def test_log_sobolev_scale_invariance(setup6):
    basis, grams = setup6
    cp = estimate_cp(grams)
    rng = np.random.RandomState(4)
    g = rng.standard_normal(6)
    base = dg.log_sobolev_gap(g, 0.25, cp, basis)
    for lam in (1e-3, 0.1, 37.0, 1e3):
        scaled = dg.log_sobolev_gap(lam * g, 0.25, cp, basis)
        assert abs(scaled - lam * lam * base) < 1e-9 * max(abs(scaled), lam * lam)


def test_log_sobolev_interior_minimum_2d():
    # over a the gap dips to an interior minimum; on the square it stays >= 0
    basis = build_basis(2, 4)
    grams = assemble_grams(basis)
    cp = estimate_cp(grams)
    g = np.zeros(16)
    g[0] = 1.0
    avals = np.linspace(0.05, 3.0, 200)
    gaps = np.array([dg.log_sobolev_gap(g, a, cp, basis) for a in avals])
    imin = int(np.argmin(gaps))
    assert 0 < imin < len(avals) - 1
    assert gaps[imin] >= -1e-8


def test_log_sobolev_random_vectors_at_preset_a(setup6):
    basis, grams = setup6
    cp = estimate_cp(grams)
    rng = np.random.RandomState(8)
    for _ in range(25):
        g = rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3)
        assert dg.log_sobolev_gap(g, 0.25, cp, basis) >= -1e-8


def test_log_sobolev_series_matches_per_state_gap(dissipative_run, dissipative_bundle):
    traj, b = dissipative_run, dissipative_bundle
    cp = estimate_cp(traj.grams)
    gaps = dg.log_sobolev_series(b, 0.25, cp)
    assert gaps.shape == b.times.shape
    for i in np.linspace(0, len(b.times) - 1, 10).astype(int):
        scale = b.mass[i] + b.bend[i] + abs(b.logterm[i])
        assert abs(gaps[i] - dg.log_sobolev_gap(traj.g[i], 0.25, cp, traj.basis)) <= 1e-12 * scale


@pytest.mark.parametrize("a", [0.0, -0.5])
def test_log_sobolev_refuses_nonpositive_a(dissipative_run, dissipative_bundle, a):
    traj = dissipative_run
    cp = estimate_cp(traj.grams)
    with pytest.raises(InputError, match="a must be positive"):
        dg.log_sobolev_series(dissipative_bundle, a, cp)
    with pytest.raises(InputError, match="a must be positive"):
        dg.log_sobolev_gap(traj.g[-1], a, cp, traj.basis)


# --- s log constant ------------------------------------------------------


def grid_slog(eps0):
    s = np.logspace(-8, 1, 1_000_000)
    return float(np.max((s * np.abs(np.log(s)) - s * s) / s ** (1.0 - eps0)))


def test_s_log_constant_against_grid():
    for eps0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        d = dg.s_log_constant(eps0)
        ref = grid_slog(eps0)
        assert d >= ref - 1e-10
        assert abs(d - ref) < 1e-4 * max(ref, 1.0)
    assert abs(dg.s_log_constant(0.5) - 0.696519) < 1e-2


def test_s_log_property_sweep():
    rng = np.random.RandomState(12)
    s = 10.0 ** rng.uniform(-8, 3, 10_000)
    for eps0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        d = dg.s_log_constant(eps0)
        lhs = s * np.abs(np.log(s))
        rhs = s * s + d * s ** (1.0 - eps0)
        assert np.all(lhs <= rhs + 1e-12)
    assert 1.0 * abs(math.log(1.0)) <= 1.0 + dg.s_log_constant(0.5)


@pytest.mark.parametrize("eps0", [0.01, 0.02, 0.03])
def test_s_log_constant_holds_at_small_eps0(eps0):
    # the peak of (s|ln s| - s^2) / s^(1-eps0) lies near exp(-1/eps0), far below 1e-12
    d = dg.s_log_constant(eps0)
    s = np.logspace(-60, 3, 200_001)
    lhs = s * np.abs(np.log(s))
    rhs = s * s + d * s ** (1.0 - eps0)
    assert np.all(lhs <= rhs * (1.0 + 1e-12))


def test_s_log_constant_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            dg.s_log_constant(bad)


# --- potential well ------------------------------------------------------


def well_params(k, kernel=None):
    return PhysicalParams(
        0.0, k, kernel or RelaxationKernel.zero(), DampingLaw.none(), 0.0
    )


def test_well_constants_exact_point():
    wc = dg.well_constants(well_params(2.0), 0.0253, a=math.exp(-1.5))
    assert abs(wc.Q0 - 1.0) < 1e-12
    assert abs(wc.rho_bar - 1.0) < 1e-12
    assert abs(wc.d - 0.5) < 1e-12
    assert wc.d_positive


@pytest.mark.parametrize(
    "k, cp, problem", [(0.0, 0.0253, "need k > 0"), (1.0, 0.0, "cp must be positive"), (1.0, -1.0, "cp must be positive")]
)
def test_well_constants_refuse_k_or_cp_not_positive(k, cp, problem):
    # the well needs the log source (k > 0) and a Poincare constant cp > 0
    with pytest.raises(InputError, match=problem):
        dg.well_constants(well_params(k), cp)


def test_well_constants_negative_d_flagged():
    wc = dg.well_constants(well_params(1.0), 0.0253, a=1.0)
    assert abs(wc.Q0 - 2.5) < 1e-12
    assert abs(wc.rho_bar - math.exp(4.0)) < 1e-10 * math.exp(4.0)
    assert wc.d < 0.0 and not wc.d_positive
    assert abs(wc.d - math.exp(8.0) * (1.25 - 2.0)) < 1e-8 * math.exp(8.0)


def test_well_constants_identity_sweep():
    rng = np.random.RandomState(6)
    for _ in range(50):
        k = 10.0 ** rng.uniform(-1, 0.5)
        a = 10.0 ** rng.uniform(-1.5, 0.5)
        wc = dg.well_constants(well_params(k), 0.0253, a=a)
        ident = wc.rho_bar**2 * (k - wc.Q0) / 2.0
        assert abs(wc.d - ident) <= 1e-12 * max(1.0, abs(wc.d))


def test_well_constants_certified_preset():
    params = well_params(2.0, RelaxationKernel.exponential(0.5, 1.0))
    wc = dg.well_constants(params, 0.025320578026346168, a=0.25)
    assert abs(wc.Q0 - 1.2274112777602189) < 1e-10
    assert abs(wc.rho_bar - 1.2553460576992292) < 1e-10
    assert abs(wc.d - 0.608758859529861) < 1e-10
    assert wc.window_nonempty and wc.window[0] < 0.25 < wc.window[1]


def test_well_constants_hypothesis_guard():
    with pytest.raises(HypothesisError):
        dg.well_constants(well_params(5000.0), 0.0253)
    with pytest.raises(InputError):
        dg.well_constants(well_params(2.0), 0.0253, a=-1.0)


def test_check_well_zero_data():
    traj = run(Scn(CONSERVATIVE, 0.01, 0.1, np.zeros(6), np.zeros(6)))
    wc = dg.well_constants(well_params(2.0), 0.0253, a=0.25)
    rep = dg.check_well(dg.analyze(traj), wc)
    assert not rep.certified and "energy" in rep.reason
    assert not rep.passed


def test_check_well_oversized_datum():
    wc = dg.well_constants(well_params(2.0), 0.0253, a=0.25)
    g0 = np.zeros(6)
    g0[0] = 1.01 * wc.rho_bar
    traj = run(Scn(CONSERVATIVE, 0.01, 0.1, g0, np.zeros(6)))
    rep = dg.check_well(dg.analyze(traj), wc)
    assert not rep.certified and "rho_bar" in rep.reason


def test_check_well_certified_trajectory(certified_run):
    traj = certified_run
    cp = estimate_cp(traj.grams)
    wc = dg.well_constants(traj.params, cp, a=0.25)
    rep = dg.check_well(dg.analyze(traj), wc)
    assert rep.certified and rep.passed
    assert rep.violations == [] and rep.first_violation_time is None
    assert 0.0 < rep.e0 < wc.d and rep.u0_norm < wc.rho_bar


def _well_violations_by_loop(bundle, wc):
    """The per-sample loop check_well ran before it vectorised: the oracle for its order."""
    e0, rb2, out = float(bundle.E[0]), wc.rho_bar**2, []
    for i, t in enumerate(bundle.times):
        if not bundle.mass[i] < rb2:
            out.append((float(t), "mass"))
        if not bundle.I[i] > 0.0:
            out.append((float(t), "nehari"))
        if not bundle.kin_rho[i] <= e0:
            out.append((float(t), "kinetic"))
        if not bundle.bend_rate[i] <= 2.0 * e0:
            out.append((float(t), "bend_rate"))
    return out


def test_check_well_reports_violations_in_time_order(certified_run):
    traj = certified_run
    wc = dg.well_constants(traj.params, estimate_cp(traj.grams), a=0.25)
    b = dg.analyze(traj)
    I, mass = b.I.copy(), b.mass.copy()
    I[[40, 700, 1500]] = -1e-3
    mass[[700, 1200]] = 1.5 * wc.rho_bar**2
    bad = replace(b, I=I, mass=mass)
    rep = dg.check_well(bad, wc)
    expected = _well_violations_by_loop(bad, wc)
    assert [name for _, name in expected] == ["nehari", "mass", "nehari", "mass", "nehari"]
    assert rep.certified and not rep.passed
    assert rep.violations == expected
    assert rep.first_violation_time == expected[0][0] == float(b.times[40])


# --- Lyapunov ------------------------------------------------------------


def test_psi_zero_state(setup6):
    basis, grams = setup6
    z = np.zeros(6)
    st = PlateState(0.0, z, z, z)
    params = PhysicalParams(1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.none(), 0.0)
    hist = HistoryBuffer(0.01, z)
    assert dg.psi1(st, params, grams, basis) == 0.0
    assert dg.psi2(st, params, grams, basis, hist) == 0.0


def test_psi1_rho0_gram_oracle(setup6):
    basis, grams = setup6
    rng = np.random.RandomState(14)
    params = PhysicalParams(0.0, 0.5, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    for _ in range(5):
        g, v = rng.standard_normal((2, 6))
        st = PlateState(0.0, g, v, np.zeros(6))
        got = dg.psi1(st, params, grams, basis)
        ref = float(v @ (grams.M0 @ g)) + float(g @ (grams.M2 @ v))
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_psi2_empty_history(setup6):
    basis, grams = setup6
    rng = np.random.RandomState(15)
    g, v = rng.standard_normal((2, 6))
    st = PlateState(0.0, g, v, np.zeros(6))
    params = PhysicalParams(1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.none(), 0.0)
    hist = HistoryBuffer(0.01, g)
    assert dg.psi2(st, params, grams, basis, hist) == 0.0


def test_psi2_brute_force_oracle(dissipative_run):
    traj = dissipative_run
    hist = traj.history()
    i = 1500
    st = traj.state(i)
    got = dg.psi2(st, traj.params, traj.grams, traj.basis, hist)
    # independent loop: trapezoid conv, then both pairings
    dt = hist.dt
    conv = np.zeros(6)
    for j in range(i + 1):
        w = dt * (0.5 if j in (0, i) else 1.0)
        conv += w * float(traj.params.kernel.value(st.t - j * dt)) * (st.g - hist.snapshots[j])
    vq = st.v @ traj.basis.phi
    srho = np.abs(vq) ** traj.params.rho * vq
    ref = -(
        float(st.v @ (traj.grams.M2 @ conv))
        + float(traj.basis.qw @ (srho * (conv @ traj.basis.phi))) / (traj.params.rho + 1.0)
    )
    assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_lyapunov_zero_trajectory():
    b = dg.analyze(run(Scn(CONSERVATIVE, 0.01, 0.2, np.zeros(6), np.zeros(6))))
    rep = dg.lyapunov_series(b, 4.0, 0.01)
    assert rep.ratio_min is None and rep.ratio_max is None
    assert np.all(rep.L == 0.0)
    assert dg.find_lyapunov_N(b, eps=0.01) is None


def test_lyapunov_search_and_bounds(dissipative_bundle):
    N = dg.find_lyapunov_N(dissipative_bundle, eps=1e-2).N
    rep = dg.lyapunov_series(dissipative_bundle, N, 1e-2)
    assert rep.ratio_min > 0.0
    assert math.isfinite(rep.ratio_max) and rep.ratio_max >= rep.ratio_min


def test_lyapunov_linear_in_N(dissipative_bundle):
    b = dissipative_bundle
    L1 = dg.lyapunov_series(b, 3.0, 0.05).L
    L2 = dg.lyapunov_series(b, 6.0, 0.05).L
    assert np.max(np.abs(L2 - (L1 + 3.0 * b.E))) < 1e-12


def test_lyapunov_rejects_bad_weights(dissipative_bundle):
    with pytest.raises(InputError):
        dg.lyapunov_series(dissipative_bundle, 0.0, 0.1)
    with pytest.raises(InputError):
        dg.lyapunov_series(dissipative_bundle, 1.0, -0.1)
    with pytest.raises(InputError):
        dg.find_lyapunov_N(dissipative_bundle, eps=0.0)


@pytest.fixture(scope="module")
def coarse_dissipative_bundle():
    return dg.analyze(mode1_run(DISSIPATIVE, 1e-2, 3.0))


def _doubling_N(b, eps):
    """Oracle: double N from 1 until min L/E over E > RATIO_FLOOR is positive."""
    sel = b.E > dg.RATIO_FLOOR
    N = 1.0
    while N <= 2.0**10:
        L = N * b.E + eps * b.psi1 + b.psi2
        if np.min(L[sel] / b.E[sel]) > 0.0:
            return N
        N *= 2.0
    return None


@pytest.mark.parametrize("eps, expected", [(0.01, 1.0), (1.0, 2.0), (10.0, 16.0), (200.0, 256.0)])
def test_find_lyapunov_N_matches_doubling_search(coarse_dissipative_bundle, eps, expected):
    b = coarse_dissipative_bundle
    N = dg.find_lyapunov_N(b, eps=eps).N
    assert N == _doubling_N(b, eps) == expected
    rep = dg.lyapunov_series(b, N, eps)
    assert rep.ratio_min > 0.0
    if N > 1.0:
        assert dg.lyapunov_series(b, N / 2.0, eps).ratio_min <= 0.0


def test_find_lyapunov_N_gives_up_beyond_2_to_10(coarse_dissipative_bundle):
    b = coarse_dissipative_bundle
    assert _doubling_N(b, 1000.0) is None
    with pytest.raises(DomainError, match="2\\^10"):
        dg.find_lyapunov_N(b, eps=1000.0)


# --- memory inequalities -------------------------------------------------


def test_memory_cs_constant_history(setup6):
    basis, grams = setup6
    g = 0.1 * np.ones(6)
    hist = HistoryBuffer(0.01, np.tile(g, (101, 1)))
    st = PlateState(1.0, g, np.zeros(6), np.zeros(6))
    gap_b, gap_db = dg.memory_cs_check(st, hist, RelaxationKernel.exponential(0.5, 1.0), grams)
    assert abs(gap_b) < 1e-15 and abs(gap_db) < 1e-15


def test_memory_cs_gaps_along_run(dissipative_run):
    traj = dissipative_run
    hist = traj.history()
    for i in (100, 900, 2500):
        gaps = dg.memory_cs_check(traj.state(i), hist, traj.params.kernel, traj.grams)
        assert gaps[0] >= -1e-10 and gaps[1] >= -1e-10


def test_memory_cs_quadratic_homogeneity(dissipative_run):
    traj = dissipative_run
    hist = traj.history()
    i = 1200
    st = traj.state(i)
    g1 = dg.memory_cs_check(st, hist, traj.params.kernel, traj.grams)
    import dataclasses

    st2 = dataclasses.replace(st, g=2.0 * st.g)
    hist2 = HistoryBuffer(hist.dt, 2.0 * hist.snapshots.copy())
    g2 = dg.memory_cs_check(st2, hist2, traj.params.kernel, traj.grams)
    for x, y in zip(g1, g2):
        assert abs(y - 4.0 * x) < 1e-12 * max(1.0, abs(y))


# --- damping diagnostics -------------------------------------------------


def test_damping_diag_rest_state(setup6):
    basis, grams = setup6
    params = PhysicalParams(0.0, 0.5, RelaxationKernel.zero(), DampingLaw.origin_power(3.0, 0.5), 0.0)
    g = 0.1 * np.ones(6)
    hist = HistoryBuffer(0.01, np.tile(g, (101, 1)))
    st = PlateState(1.0, g, np.zeros(6), np.zeros(6))
    dd = dg.damping_diag(st, params, basis, hist, t1=0.25)
    assert dd.G == 0.0 and dd.dissipation == 0.0
    assert dd.omega1_fraction == 1.0 and not dd.omega1_empty
    assert dd.M == 0.0  # zero kernel: no memory tail


def test_damping_diag_rest_state_2d():
    # omega1_fraction is exactly 1 at rest on the tensor-square basis too
    basis = build_basis(2, 4)
    params = PhysicalParams(0.0, 0.5, RelaxationKernel.zero(), DampingLaw.origin_power(3.0, 0.5), 0.0)
    g = 0.1 * np.ones(basis.dim)
    hist = HistoryBuffer(0.01, np.tile(g, (101, 1)))
    st = PlateState(1.0, g, np.zeros(basis.dim), np.zeros(basis.dim))
    dd = dg.damping_diag(st, params, basis, hist, t1=0.25)
    assert dd.G == 0.0 and dd.dissipation == 0.0
    assert dd.omega1_fraction == 1.0 and not dd.omega1_empty


def test_damping_diag_constant_history_tail(setup6):
    basis, grams = setup6
    ker = RelaxationKernel.exponential(0.5, 1.0)
    params = PhysicalParams(0.0, 0.5, ker, DampingLaw.linear(1.0), 0.0)
    g = 0.1 * np.ones(6)
    hist = HistoryBuffer(0.01, np.tile(g, (101, 1)))
    st = PlateState(1.0, g, np.zeros(6), np.zeros(6))
    dd = dg.damping_diag(
        st, params, basis, hist, t1=0.25,
        modulus=ker.natural_modulus(), xi=ker.natural_xi(),
    )
    assert abs(dd.M) < 1e-20
    assert abs(dd.tail_lhs) < 1e-20 and dd.tail_rhs >= 0.0 and dd.tail_ok


def test_damping_diag_along_run(dissipative_run):
    traj = dissipative_run
    hist = traj.history()
    ker = traj.params.kernel
    st = traj.state(2000)
    dd = dg.damping_diag(
        st, traj.params, traj.basis, hist, t1=0.5,
        modulus=ker.natural_modulus(), xi=ker.natural_xi(),
    )
    assert dd.G >= 0.0 and dd.M >= 0.0 and dd.dissipation >= 0.0
    assert 0.0 < dd.omega1_fraction <= 1.0
    assert dd.tail_ok


def test_damping_diag_validation(dissipative_run):
    traj = dissipative_run
    hist = traj.history()
    st = traj.state(100)
    with pytest.raises(InputError):
        dg.damping_diag(st, traj.params, traj.basis, hist, t1=st.t)
    with pytest.raises(InputError):
        dg.damping_diag(st, traj.params, traj.basis, hist, t1=0.01, delta=1.5)


def test_damping_none_reports_empty(setup6):
    basis, grams = setup6
    params = PhysicalParams(0.0, 0.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    st = PlateState(1.0, np.zeros(6), np.zeros(6), np.zeros(6))
    hist = HistoryBuffer(0.01, np.zeros((101, 6)))
    dd = dg.damping_diag(st, params, basis, hist, t1=0.5)
    assert dd.G == 0.0 and dd.dissipation == 0.0 and dd.omega1_empty


def test_convexified_damping_ratio_finite(dissipative_run):
    # saturating-damping estimate reduces to a finite ratio of transformed
    # G and M once the unknown constant is fitted as the empirical max
    traj = dissipative_run
    hist = traj.history()
    ratios = []
    for i in (1000, 1500, 2000, 2500):
        st = traj.state(i)
        dd = dg.damping_diag(st, traj.params, traj.basis, hist, t1=0.5)
        span = (st.t - 0.5) ** 0.5
        if dd.G > 0 and dd.M > 0:
            ratios.append(math.sqrt(dd.G) / (span * math.sqrt(dd.M / span) ** 0.5))
    assert ratios and all(math.isfinite(r) and r > 0 for r in ratios)


# --- decay fitting -------------------------------------------------------


def test_fit_decay_synthetic_exponential():
    t = np.linspace(0.0, 10.0, 1001)
    E = 5.0 * np.exp(-2.0 * t)
    env = envelope_linear_B(XiWeight.constant(1.0), 0.5, 1.0, 0.0)
    fr = dg.fit_decay((t, E), env)
    assert abs(fr.exponent - 2.0) <= 0.01 * 2.0
    assert not fr.skipped


def test_fit_decay_power_law_no_overshoot():
    t = np.linspace(0.0, 20.0, 2001)
    E = (1.0 + t) ** -2.0
    env = envelope_linear_B(XiWeight.constant(1.0), 0.5, 1.0, 0.0)  # (1 + t)^(-2)
    fr = dg.fit_decay((t, E), env)
    assert fr.overshoot <= 1e-6
    assert abs(fr.c - 1.0) < 1e-10


def test_fit_decay_c_is_sup_ratio():
    rng = np.random.RandomState(19)
    t = np.linspace(0.0, 8.0, 601)
    E = np.exp(-t) * (1.0 + 0.3 * rng.rand(601))
    env = envelope_linear_B(XiWeight.constant(0.7), 0.5, 2.0, 0.0)
    fr = dg.fit_decay((t, E), env, start=2.0)
    sel = t >= 2.0
    ref = np.max(E[sel] / env(t[sel]))
    assert abs(fr.c - ref) < 1e-12 * ref


def test_fit_decay_skip_and_guards():
    env = envelope_linear_B(XiWeight.constant(1.0), 0.5, 1.0, 0.0)
    t = np.linspace(0.0, 5.0, 301)
    assert dg.fit_decay((t, np.zeros(301)), env).skipped
    with pytest.raises(InputError):
        dg.fit_decay((t[:40], np.exp(-t[:40])), env)


def test_fit_decay_on_run_energy(dissipative_bundle):
    b = dissipative_bundle
    env = envelope_linear_B(XiWeight.constant(1.0), 0.5, 1.0, 0.0)
    fr = dg.fit_decay((b.times, b.E), env)
    assert fr.n_samples >= 50 and math.isfinite(fr.c) and fr.c > 0.0
    assert fr.overshoot <= 1e-12


def test_memory_bound_by_energy(certified_run):
    # fading-memory functional stays below twice the (decreasing) energy
    b = dg.analyze(certified_run)
    assert np.all(b.memory <= 2.0 * b.E + 1e-12)
    assert np.all(b.memory <= 2.0 * b.E[0] + 1e-12)
