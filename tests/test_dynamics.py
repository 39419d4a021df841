"""Integrator tests: memory quadrature, the step form's residual, Newton, Newmark.

The memory oracle re-sums the convolution node by node in a python loop,
independent of the vectorized path.  The linear oscillator checks use the
closed-form cosine solution; no reference data comes from the implementation
under test.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from viscoplate import dynamics, memory
from viscoplate.dynamics import (
    NEWTON_TOL,
    HistoryBuffer,
    PhysicalParams,
    PlateState,
    StepForm,
    Stepper,
    initial_state,
    inertia_mass,
    memory_term,
    residual,
    run,
    step,
)
from viscoplate.errors import DivergedError, InputError
from viscoplate.kernels import DampingLaw, RelaxationKernel, parse_damping_spec, parse_kernel_spec
from viscoplate.scenario import PRESETS, with_overrides
from viscoplate.spectral import _mode_tables, assemble_grams, build_basis

CONSERVATIVE = PhysicalParams(
    rho=0.0, k=0.0, kernel=RelaxationKernel.zero(), damping=DampingLaw.none(), sigma=0.0
)


def make_setup(n=6):
    basis = build_basis(1, n)
    return basis, assemble_grams(basis)


def hold_residual(a, g, v, params, grams, basis, conv=None, w_end=0.0):
    """residual at (g, v) held fixed: the StepForm at h = 0, whose memory
    load is M2 (conv + w_end g), none when conv is None."""
    form = StepForm(params, grams, basis, 0.0, w_end)
    form.at(step_row(g, v, np.zeros_like(g), conv))
    return residual(a, form)


def step_row(g, v, a, conv=None):
    """The step row z = (g_n, v_n, a_n, conv) that StepForm.at reads; conv
    None is no memory load, a zero sum."""
    return np.concatenate((g, v, a, np.zeros_like(g) if conv is None else conv))


def start_rows(s):
    """The stepper's Newton-start rows, newest first, read from its ring."""
    end = s._head + 1 + dynamics._START_ROWS
    return s._ring[end - s._count : end][::-1]


class OneShotScenario:
    """Minimal duck-typed scenario for driving run() in tests."""

    def __init__(self, params, dt, T, g0, v0, n=4, dim=1):
        self.params, self.dt, self.T = params, dt, T
        self._g0, self._v0, self._n, self._dim = np.asarray(g0, float), np.asarray(v0, float), n, dim

    def make_basis(self):
        return build_basis(self._dim, self._n)

    def physical_params(self):
        return self.params

    def initial_coeffs(self, basis, grams):
        return self._g0, self._v0


# --- history and convolution --------------------------------------------


def test_history_growth_and_views():
    # each step fills the next of the stepper's g rows, which are its history
    basis, grams = make_setup(3)
    s = Stepper(CONSERVATIVE, grams, basis, [0.01, -0.02, 0.005], np.zeros(3), 0.1, 200)
    seen = [(0.0, s.g[0].copy())]
    for i in range(1, 201):
        step(s)
        st = s.state()
        assert st.step_index == i
        seen.append((st.t, st.g.copy()))
    buf = s.history()
    assert len(buf) == 201
    assert buf.snapshots.shape == (201, 3)
    assert abs(buf.times[-1] - 20.0) < 1e-12
    assert np.array_equal(buf.times, [t for t, _ in seen])
    assert np.array_equal(buf.snapshots, [g for _, g in seen])


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_history_rejects_bad_spacing(dt):
    with pytest.raises(InputError):
        HistoryBuffer(dt, np.zeros((3, 2)))


def test_history_snapshot_shapes():
    assert HistoryBuffer(0.01, np.zeros(4)).snapshots.shape == (1, 4)
    assert HistoryBuffer(0.01, np.zeros((3, 4))).snapshots.shape == (3, 4)
    with pytest.raises(InputError):
        HistoryBuffer(0.01, np.zeros((2, 3, 4)))


def test_trap_weights_nonuniform():
    w = memory.weights(np.array([0.0, 1.0, 2.0, 2.5]), 2.5, np.ones_like)
    assert np.allclose(w, [0.5, 1.0, 0.75, 0.25], atol=1e-15)
    assert abs(w.sum() - 2.5) < 1e-15


def test_memory_zero_kernel():
    basis, grams = make_setup()
    buf = HistoryBuffer(0.01, np.ones(6))
    out = memory_term(buf, RelaxationKernel.zero(), grams, 0.0)
    assert np.all(out == 0.0)


def test_memory_constant_history_closed_form():
    basis, grams = make_setup()
    rng = np.random.RandomState(0)
    g0 = 0.01 * rng.standard_normal(6)
    dt = 1e-3
    buf = HistoryBuffer(dt, np.tile(g0, (1001, 1)))
    ker = RelaxationKernel.exponential(1.0, 1.0)
    got = memory_term(buf, ker, grams, 1.0)
    expect = (1.0 - math.exp(-1.0)) * (grams.M2 @ g0)
    assert np.max(np.abs(got - expect)) <= 1e-6 * np.max(np.abs(expect))


def brute_memory(buf, kernel, grams, t):
    n = int(round(t / buf.dt))
    acc = np.zeros(buf.snapshots.shape[1])
    for i in range(n + 1):
        w = buf.dt * (0.5 if i in (0, n) else 1.0)
        b = float(kernel.value(t - i * buf.dt))
        acc = acc + w * b * (grams.M2 @ buf.snapshots[i])
    return acc


def test_memory_matches_brute_force():
    basis, grams = make_setup()
    rng = np.random.RandomState(5)
    dt = 5e-3
    decay = 0.01 / (1.0 + np.arange(6)) ** 4
    snaps = rng.standard_normal((1001, 6)) * decay
    buf = HistoryBuffer(dt, snaps)
    ker = RelaxationKernel.exponential(0.5, 1.3)
    for idx in rng.randint(1, 1001, 10):
        t = idx * dt
        got = memory_term(buf, ker, grams, t)
        ref = brute_memory(buf, ker, grams, t)
        assert np.max(np.abs(got - ref)) <= 1e-13


def test_memory_off_grid_time_rejected():
    basis, grams = make_setup()
    buf = HistoryBuffer(0.01, np.zeros((11, 6)))
    with pytest.raises(InputError):
        memory_term(buf, RelaxationKernel.exponential(0.5, 1.0), grams, 0.0551)
    with pytest.raises(InputError):
        memory_term(buf, RelaxationKernel.exponential(0.5, 1.0), grams, 0.2)


@pytest.mark.parametrize("kernel", ["exp(0.5,1.3)", "power(0.4,3.0)"])
def test_lag_table_load_matches_memory_weights(monkeypatch, kernel):
    # over 300 steps, each step's memory load must equal the memory.weights
    # oracle over the explicit node times, evaluated once the new node is
    # stored, and the step must take that load.  dt = 2^-7 makes every node
    # time and lag exact in binary, so the oracle's weights
    # (s_i+1 - s_i-1)/2 carry no rounding of their own (at dt = 0.01 they
    # do, up to 1.8e-13 of the convolution at t = 3).  The power kernel's
    # load is the lag-table product, within 1e-14; the exponential kernel
    # builds no lag table and carries its load, whose rounding adds up over
    # the steps (1.15e-14 measured at step 300), so it gets the bound of the
    # carry test below, 300 eps (6.7e-14) with some margin
    dt = 2.0**-7
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 0.5, parse_kernel_spec(kernel), DampingLaw.linear(1.0), 0.0)
    g0 = np.array([0.05, -0.01, 0.004, 0.0, 0.001, 0.0])
    s = Stepper(params, grams, basis, g0, np.zeros(6), dt, 300)
    at, taken = StepForm.at, []

    def recorded(self, z):
        taken.append((z[18:].copy(), self.w_end))  # conv, after (g_n, v_n, a_n)
        return at(self, z)

    monkeypatch.setattr(StepForm, "at", recorded)
    assert (s.load._lags is None) == kernel.startswith("exp")
    bound = 1e-14 if s.load._lags is not None else 1e-13
    for n in range(300):
        conv, rows = s.load.grid(s.g, n, s._conv).copy(), start_rows(s).copy()
        step(s)
        assert np.array_equal(taken[-1][0], conv) and taken[-1][1] == s.load.w_end
        # the step's refined acceleration enters the ring as the newest of
        # the Newton-start rows, and the oldest leaves after 8
        now = start_rows(s)
        assert now.shape == (min(len(rows) + 1, dynamics._START_ROWS), 6)
        assert np.array_equal(now[1:], rows[: len(now) - 1])
        got = grams.M2 @ (conv + s.load.w_end * s.g[n + 1])
        want = memory_term(s.history(), params.kernel, grams, (n + 1) * dt)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def test_exponential_load_recurrence_tracks_lag_table_over_a_long_run(monkeypatch):
    # an exponential kernel carries its load from step to step,
    # conv_n+1 = q conv_n + K[1] g_n+1 with q = exp(-rate dt); at rate 0.05
    # and dt = 1e-3, 1 - q = 5e-5, so the rounding of each carried step
    # decays slowly.  Sampled loads over 3000 steps must match the
    # product-trapezoid sum over the lag table, formed here from the kernel
    # (the first node halved): the largest gap measured is 1.0e-13 relative,
    # and the bound 1e-12 is 3000 eps (6.7e-13) with some margin.
    # A carried K[0] in place of K[1], or a first node without its half
    # weight, misses by more than 1e-5.
    dt, steps = 1e-3, 3000
    basis, grams = make_setup()
    kernel = parse_kernel_spec("exp(0.5,0.05)")
    params = PhysicalParams(0.0, 0.5, kernel, DampingLaw.linear(1.0), 0.0)
    g0 = np.array([0.05, -0.01, 0.004, 0.0, 0.001, 0.0])
    loads = []
    load = memory.StepLoad.grid

    def recorded(self, G, n, out):
        # the carry updates the step row's conv in place: keep a copy of each step's
        loads.append(load(self, G, n, out).copy())
        return out

    monkeypatch.setattr(memory.StepLoad, "grid", recorded)
    s = Stepper(params, grams, basis, g0, np.zeros(6), dt, steps)
    for _ in range(steps):
        step(s)
    assert len(loads) == steps
    assert s.load.w_end == 0.5 * dt * kernel.b0
    for n in [0, 1, 2, 3, *range(100, steps, 100), steps - 1]:
        w = np.ones(n + 1)
        w[0] = 0.5
        want = (w * dt * kernel.value((n + 1 - np.arange(n + 1)) * dt)) @ s.g[: n + 1]
        assert np.max(np.abs(loads[n] - want)) <= 1e-12 * np.max(np.abs(want))


# --- residual ------------------------------------------------------------


def test_residual_zero_state():
    basis, grams = make_setup()
    z = np.zeros(6)
    params = PhysicalParams(1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0)
    assert np.all(hold_residual(z, z, z, params, grams, basis) == 0.0)


def test_residual_linear_degenerate():
    basis, grams = make_setup()
    rng = np.random.RandomState(2)
    g, v, a = rng.standard_normal((3, 6))
    R = hold_residual(a, g, v, CONSERVATIVE, grams, basis)
    expect = (grams.M0 + grams.M2) @ (a + g)
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(R - expect)) < 1e-12 * scale


def test_log_source_against_oversampled_quadrature():
    basis, grams = make_setup(n=8)
    k = 0.5
    coeffs = np.zeros(8)
    coeffs[0] = 0.7
    z = np.zeros(8)
    with_log = hold_residual(
        z, coeffs, z, PhysicalParams(0.0, k, RelaxationKernel.zero(), DampingLaw.none(), 0.0), grams, basis
    )
    without = hold_residual(z, coeffs, z, CONSERVATIVE, grams, basis)
    load = without - with_log  # k * P(u ln|u|)

    from numpy.polynomial.legendre import leggauss

    t, wt = leggauss(10 * basis.quad_order)
    x = 0.5 * (t + 1.0)
    wx = 0.5 * wt
    W, _ = _mode_tables(basis.beam_roots, x, basis.L)
    W = W * basis.axis_scale[:, None]
    u = 0.7 * W[0]
    f = np.where(u != 0.0, u * np.log(np.abs(np.where(u == 0.0, 1.0, u))), 0.0)
    ref = k * (W @ (wx * f))
    assert np.max(np.abs(load - ref)) < 1e-9


@pytest.mark.parametrize("rho, sigma", [(0.0, 0.0), (0.5, 0.1), (1.0, 0.0), (2.0, 0.0)])
def test_fused_residual_matches_quadrature_form(rho, sigma):
    # the StepForm at h = 0 against _ref_residual (below), which projects
    # each pointwise term on its own and adds the Gram products one by one,
    # with the memory load M2 (conv + w_end g) or none
    basis, grams = make_setup()
    rng = np.random.default_rng(11)
    kernel = RelaxationKernel.exponential(0.5, 1.0)
    for damping in ("none", "damp-linear(1)", "damp-cubic(0.5)"):
        for k in (0.0, 0.5):
            params = PhysicalParams(rho, k, kernel, parse_damping_spec(damping), sigma)
            for _ in range(5):
                a, g, v, conv = 0.1 * rng.standard_normal((4, 6))
                g[rng.integers(6)] = 0.0
                for conv, w_end in ((None, 0.0), (conv, 0.3)):
                    got = hold_residual(a, g, v, params, grams, basis, conv, w_end)
                    memory = None if conv is None else grams.M2 @ (conv + w_end * g)
                    want = _ref_residual(a, g, v, params, grams, basis, memory=memory)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2])
def test_step_form_matches_reference_residual(dim):
    # whole-step forms at h = dt and dt / 4: residual(a, form) is
    # _ref_residual at the Newmark-predicted g = g_c + h^2 beta a,
    # v = v_c + h gamma a (predictors formed here), with the memory load
    # M2 (conv + w_end g) and w_end the step load's, for an exponential and
    # a power kernel, in 1D at n = 6 and 2D at n = 4 (16 modes)
    basis = build_basis(dim, 6 if dim == 1 else 4)
    grams = assemble_grams(basis)
    rng = np.random.default_rng(dim)
    beta, gamma, dt = dynamics.NEWMARK_BETA, dynamics.NEWMARK_GAMMA, 0.01
    for kernel in ("exp(0.5,1.0)", "power(0.4,3.0)"):
        for rho, sigma, damping in ((0.0, 0.0, "damp-linear(1)"), (1.0, 0.0, "damp-cubic(0.5)"), (0.5, 0.1, "none")):
            params = PhysicalParams(rho, 0.5, parse_kernel_spec(kernel), parse_damping_spec(damping), sigma)
            for h in (dt, dt / 4):
                w_end = memory.StepLoad(params.kernel, h, 10).w_end
                form = StepForm(params, grams, basis, h, w_end)
                for _ in range(3):
                    g_n, v_n, a_n, conv, a = 0.1 * rng.standard_normal((5, basis.dim))
                    form.at(step_row(g_n, v_n, a_n, conv))
                    g = g_n + h * v_n + h * h * (0.5 - beta) * a_n + h * h * beta * a
                    v = v_n + h * (1.0 - gamma) * a_n + h * gamma * a
                    want = _ref_residual(a, g, v, params, grams, basis, memory=grams.M2 @ (conv + w_end * g))
                    got = residual(a, form)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                    assert np.max(np.abs(np.concatenate(form.state(a)) - np.concatenate((g, v)))) <= 1e-15


def test_residual_diverges_on_overflow():
    # residual opens no np.errstate of its own: under the one the stepper
    # holds, the overflow is the residual's DivergedError, and the stepper's
    # initial solve raises it with no numpy warning
    basis, grams = make_setup()
    g = np.full(6, 1e305)
    params = PhysicalParams(0.0, 1.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedError):
        hold_residual(np.zeros(6), g, np.zeros(6), params, grams, basis)
    with pytest.raises(DivergedError, match="residual"):
        Stepper(params, grams, basis, g, np.zeros(6), 0.01, 1)


def test_residual_diverges_on_nan_in_log_source_only_form():
    # at rho = 0 with linear damping the log source is the form's only
    # pointwise term: a NaN in g reaches the residual through R_c and the
    # log source alike, and the residual's finite check reports it
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), 0.0)
    form = StepForm(params, grams, basis, 0.01, 0.3)
    assert form.point is dynamics._log_point
    g = np.full(6, 0.01)
    g[2] = np.nan
    form.at(step_row(g, np.zeros(6), np.zeros(6), np.zeros(6)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedError, match="residual"):
        residual(np.zeros(6), form)


@pytest.mark.parametrize("damping, calls", [("damp-linear(1)", False), ("damp-cubic(0.5)", True)])
def test_linear_damping_never_evaluates_pointwise(monkeypatch, damping, calls):
    # a linear law is in the step form's affine map, d M0 v: a run never
    # evaluates it at the quadrature points, while a nonlinear law is
    # evaluated at every residual
    h, count = DampingLaw.h, [0]

    def counted(self, s):
        count[0] += 1
        return h(self, s)

    monkeypatch.setattr(DampingLaw, "h", counted)
    for rho in (0.0, 1.0):
        run(with_overrides(PRESETS["exp-linear"], damping=damping, rho=rho, sigma=0.0, T=0.1))
    assert (count[0] > 0) == calls


# --- Newton --------------------------------------------------------------


def test_newton_linear_case_matches_direct_solve():
    basis, grams = make_setup()
    rng = np.random.RandomState(9)
    g, v = 0.1 * rng.standard_normal((2, 6))
    a = initial_state(g, v, CONSERVATIVE, grams, basis).a
    direct = np.linalg.solve(grams.M0 + grams.M2, -(grams.M0 + grams.M2) @ g)
    assert np.max(np.abs(a - direct)) < 1e-11
    assert np.max(np.abs(hold_residual(a, g, v, CONSERVATIVE, grams, basis))) <= 1e-10


def test_newton_rho2_small_state():
    basis, grams = make_setup()
    params = PhysicalParams(2.0, 0.5, RelaxationKernel.zero(), DampingLaw.linear(0.7), sigma=0.0)
    rng = np.random.RandomState(13)
    for _ in range(3):
        g, v = 0.05 * rng.standard_normal((2, 6))
        a = initial_state(g, v, params, grams, basis).a
        assert np.max(np.abs(hold_residual(a, g, v, params, grams, basis))) <= 1e-10


def test_jacobian_matches_central_differences():
    basis, grams = make_setup()
    params = PhysicalParams(2.0, 0.8, RelaxationKernel.zero(), DampingLaw.origin_power(3.0, 0.5), sigma=0.0)
    rng = np.random.RandomState(21)
    h = 1e-6
    for _ in range(5):
        g, v, a = 0.1 * rng.standard_normal((3, 6))
        J = inertia_mass(v, params, grams, basis) + grams.M2
        J_fd = np.empty_like(J)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            J_fd[:, j] = (
                hold_residual(a + e, g, v, params, grams, basis)
                - hold_residual(a - e, g, v, params, grams, basis)
            ) / (2 * h)
        assert np.max(np.abs(J_fd - J)) <= 1e-6 * np.max(np.abs(J))


@pytest.mark.parametrize("dim", [1, 2])
def test_inertia_mass_at_rho_zero_is_m0_bit_for_bit(dim):
    # the weight (v^2 + sigma^2)^0 is exactly 1.0 at any velocity, so at
    # rho = 0 the Newton matrix needs no branch of its own
    basis = build_basis(dim, 4)
    grams = assemble_grams(basis)
    params = PhysicalParams(0.0, 0.5, RelaxationKernel.zero(), DampingLaw.none(), 1e-8)
    v = np.random.default_rng(dim).standard_normal(basis.dim)
    assert np.array_equal(inertia_mass(v, params, grams, basis), grams.M0)


# --- stepping ------------------------------------------------------------


def test_zero_data_is_fixed_point():
    basis, grams = make_setup()
    params = PhysicalParams(1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0)
    z = np.zeros(6)
    s = Stepper(params, grams, basis, z, z, 0.01, 10)
    for _ in range(10):
        step(s)
    st = s.state()
    assert st.step_index == 10
    assert np.all(st.g == 0.0) and np.all(st.v == 0.0) and np.all(st.a == 0.0)


def test_single_mode_oscillator_frequency():
    # conservative limit: every mode obeys g'' = -g, so u(t) = A cos t
    basis = build_basis(1, 1)
    grams = assemble_grams(basis)
    A = 0.3
    errs = {}
    for dt in (0.02, 0.01):
        scn = OneShotScenario(CONSERVATIVE, dt, 6.4, [A], [0.0], n=1)
        traj = run(scn, basis=basis, grams=grams)
        errs[dt] = abs(traj.g[-1, 0] - A * math.cos(traj.times[-1]))
    ratio = errs[0.02] / errs[0.01]
    assert 3.2 < ratio < 4.8  # second-order phase accuracy
    assert errs[0.01] < 5e-4


def test_conservative_energy_drift():
    basis = build_basis(1, 4)
    grams = assemble_grams(basis)
    rng = np.random.RandomState(3)
    g0 = 0.05 * rng.standard_normal(4)
    v0 = 0.05 * rng.standard_normal(4)
    scn = OneShotScenario(CONSERVATIVE, 0.01, 12.8, g0, v0, n=4)
    traj = run(scn, basis=basis, grams=grams)
    M = grams.M0 + grams.M2
    E = 0.5 * np.einsum("ij,jk,ik->i", traj.v, M, traj.v) + 0.5 * np.einsum(
        "ij,jk,ik->i", traj.g, M, traj.g
    )
    assert np.max(np.abs(E - E[0])) <= 1e-9 * E[0]


def test_stepper_refuses_bad_input():
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 0.3, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.none(), 0.0)
    g0, z = np.full(6, 0.01), np.zeros(6)
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="must be finite"):
            Stepper(params, grams, basis, np.where(np.arange(6) == 2, bad, g0), z, 0.01, 1)
        with pytest.raises(InputError, match="must be finite"):
            initial_state(g0, np.full(6, bad), params, grams, basis)
    for dt in (0.0, -0.01, math.nan):
        with pytest.raises(InputError, match="step size"):
            Stepper(params, grams, basis, g0, z, dt, 1)
    s = Stepper(params, grams, basis, g0, z, 0.01, 2)
    step(s)
    step(s)
    with pytest.raises(InputError, match="all of its 2 steps"):
        step(s)
    assert s.n == 2


def test_step_refuses_a_non_finite_accepted_state(monkeypatch):
    # a solve that returned a non-finite acceleration (forced here), and so
    # non-finite coefficients, ends the run with DivergedError at that step,
    # and the stepper stays where it was
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 0.3, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.none(), 0.0)
    s = Stepper(params, grams, basis, np.full(6, 0.01), np.zeros(6), 0.01, 3)
    step(s)
    newton = dynamics._newton

    def nan_acceleration(form, a, factor):
        a, r, factor = newton(form, a, factor)
        return np.full_like(a, np.nan), r, factor

    monkeypatch.setattr(dynamics, "_newton", nan_acceleration)
    with pytest.raises(DivergedError, match="non-finite coefficients") as info:
        step(s)
    assert s.n == 1 and info.value.last_state.step_index == 1


def test_step_divergence_attaches_state():
    # at dt = 1e10 every trial state overflows the log source, also in the
    # substeps, and the error carries the state the step started from
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 1.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    s = Stepper(params, grams, basis, np.full(6, 0.01), np.zeros(6), 1e10, 1)
    before = s.state()
    with pytest.raises(DivergedError, match="even with 8 substeps") as info:
        step(s)
    st = info.value.last_state
    assert st.t == 0.0 and st.step_index == 0 and s.n == 0
    for name in "gva":
        assert np.array_equal(getattr(st, name), getattr(before, name))


def test_split_memory_matches_full_recomputation():
    # the stepper's in-step endpoint split of the memory load must agree with
    # the full-grid memory_term oracle: every accepted state solves R = 0 under it
    basis, grams = make_setup()
    rng = np.random.RandomState(17)
    g0 = 0.02 * rng.standard_normal(6)
    for rho in (0.0, 1.0):
        params = PhysicalParams(rho, 0.3, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(0.5), 0.0)
        s = Stepper(params, grams, basis, g0, np.zeros(6), 0.01, 50)
        for _ in range(50):
            step(s)
            st = s.state()
            mem = memory_term(s.history(), params.kernel, grams, st.t)
            R = _ref_residual(st.a, st.g, st.v, params, grams, basis, memory=mem)
            assert np.max(np.abs(R)) <= NEWTON_TOL


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_substep_fallback_rescues_stalled_step(monkeypatch, rho):
    basis, grams = make_setup()
    params = PhysicalParams(rho, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), 0.0)
    g0 = np.zeros(6)
    g0[0] = 0.04
    whole = Stepper(params, grams, basis, g0, np.zeros(6), 2.0, 1)
    newton, failed = dynamics._newton, []

    def recorded(form, a, factor):
        try:
            return newton(form, a, factor)
        except DivergedError as exc:
            failed.append((form.h, str(exc)))
            raise

    monkeypatch.setattr(dynamics, "_newton", recorded)
    step(whole)
    # the whole step of size 2 stalled, and the substeps took it
    assert failed[:1] == [(2.0, f"Newton stalled above tolerance {NEWTON_TOL}")]
    halves = Stepper(params, grams, basis, g0, np.zeros(6), 1.0, 2)
    step(halves)
    step(halves)
    assert whole.n == 1 and whole.times[1] == halves.times[2] == 2.0
    # the halves read the lag table and start Newton at 2 a_n - a_{n-1}; the
    # fallback substeps use memory.weights over explicit nodes and start at a_n
    _assert_matches((whole.g[1], whole.v[1], whole.a[1]), (halves.g[2], halves.v[2], halves.a[2]))


def test_step_diverges_on_non_finite_newton_matrix(monkeypatch):
    # the velocity overflows the inertia weight: the first residual reports
    # it, before the Newton matrix is formed at that velocity, both in the
    # initial solve and in a step whose predictor carries it
    basis, grams = make_setup()
    params = PhysicalParams(1.0, 0.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    z = np.zeros(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError, match="residual"):
            Stepper(params, grams, basis, z, np.full(6, 1e200), 0.01, 1)
        s = Stepper(params, grams, basis, z, z, 0.01, 1)
        s._row[1] = 1e200  # v_0 in the step row that the step reads
        with pytest.raises(DivergedError, match="residual"):
            step(s)
    # a finite residual with a matrix that is not finite (forced here) is
    # refused before the matrix reaches the factorization
    s = Stepper(params, grams, basis, z, z, 0.01, 1)
    s._factor = None
    monkeypatch.setattr(dynamics, "inertia_mass", lambda v, *rest: np.full((6, 6), np.inf))
    with pytest.raises(DivergedError, match="Newton matrix has non-finite entries"):
        step(s)
    with pytest.raises(DivergedError, match="Newton matrix has non-finite entries"):
        initial_state(z, z, params, grams, basis)


def test_failed_factorization_is_divergence():
    # numpy's Cholesky refuses a non-positive pivot; the stepper treats it as divergence
    with pytest.raises(DivergedError, match="factorization failed"):
        dynamics.cho_factor(np.diag([1.0, -1.0, 2.0]))


@pytest.mark.parametrize("dim", [1, 2])
def test_cho_solve_matches_lapack_potrs(dim):
    # the Newton matrices at rho = 0 and rho = 1, n = 8 (1D) and n = 64
    # (2D, n = 8 per axis), solved against scipy's potrf/potrs
    from scipy.linalg.lapack import dpotrf, dpotrs

    basis = build_basis(dim, 8)
    grams = assemble_grams(basis)
    rng = np.random.default_rng(dim)
    params = PhysicalParams(1.0, 0.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    v = 0.1 * rng.standard_normal(basis.dim)
    R = rng.standard_normal(basis.dim)
    for J in (grams.M0 + grams.M2, inertia_mass(v, params, grams, basis) + grams.M2):
        got = dynamics.cho_solve(dynamics.cho_factor(J), R)
        c, info = dpotrf(J, lower=0, clean=0)
        want, info2 = dpotrs(c, R, lower=0)
        assert info == info2 == 0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_run_forms_newton_matrix_at_most_twice(monkeypatch, rho):
    # every solve takes the factor of the solve before it: over 51 solves
    # the matrix is formed once for the initial acceleration and re-formed
    # at most once, where a third residual missed NEWTON_TOL (at rho = 0 the
    # same M0 + M2 again); each matrix is factored once
    counts = {"factor": 0, "matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dynamics, "cho_factor", counted("factor", dynamics.cho_factor))
    monkeypatch.setattr(dynamics, "inertia_mass", counted("matrix", dynamics.inertia_mass))
    params = PhysicalParams(rho, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0)
    scn = OneShotScenario(params, 0.01, 0.5, np.array([0.05, 0.01, 0.0, 0.0]), np.array([0.0, 0.2, 0.0, 0.0]))
    traj = run(scn)
    assert len(traj) == 51
    assert 1 <= counts["factor"] == counts["matrix"] <= 2


def _count_stepper_calls(monkeypatch):
    """Counts of the calls that dynamics makes through its module globals,
    of the step loads' sums and of the kernel evaluations (kept in "tables")."""
    counts = {"step": 0, "residual": 0, "factor": 0, "solve": 0, "grid_load": 0, "tables": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, attr in (
        ("step", "step"), ("residual", "residual"), ("factor", "cho_factor"), ("solve", "cho_solve"),
    ):
        monkeypatch.setattr(dynamics, attr, counted(name, getattr(dynamics, attr)))
    monkeypatch.setattr(memory.StepLoad, "grid", counted("grid_load", memory.StepLoad.grid))
    value = RelaxationKernel.value
    monkeypatch.setattr(
        RelaxationKernel, "value", lambda self, t: counts["tables"].append(value(self, t)) or counts["tables"][-1]
    )
    return counts


def test_exp_linear_work_count(monkeypatch):
    # the whole step starts Newton at the degree-7 extrapolation of refined
    # accelerations, which nearly always meets NEWTON_TOL at once: about one
    # residual per step, each followed by one solve, and one factor per run.
    # The exponential kernel's memory load is carried from the first step
    # on, from one kernel evaluation at the lags 0 and dt: no lag table
    counts = _count_stepper_calls(monkeypatch)
    traj = run(with_overrides(PRESETS["exp-linear"], dt=1e-3, T=0.5))
    steps = len(traj) - 1
    assert steps == 500
    assert counts["step"] == steps
    assert counts["residual"] <= 1.1 * steps
    assert counts["solve"] == counts["residual"]
    assert counts["factor"] == 1
    assert counts["grid_load"] == steps
    assert traj.load._lags is None
    assert len(counts["tables"]) == 1
    assert counts["tables"][0].shape == (2,)


def test_power_steep_cubic_work_count(monkeypatch):
    # at dt = 0.01 the degree-7 start of the whole step mostly meets
    # NEWTON_TOL at the first residual (113 residuals over 100 steps, with
    # the initial solve).  At rho = 1 the Newton matrix is the one formed
    # for the initial acceleration, and no third residual misses, so no
    # factor follows it.  The run's step load builds the lag table once,
    # from one kernel evaluation at the steps + 2 lags, and each step's
    # lag-table product reads it
    counts = _count_stepper_calls(monkeypatch)
    traj = run(with_overrides(PRESETS["power-steep-cubic"], T=1.0))
    steps = len(traj) - 1
    assert steps == 100
    assert counts["step"] == steps
    assert counts["residual"] <= 1.25 * steps
    assert counts["solve"] == counts["residual"]
    assert counts["factor"] == 1
    assert counts["grid_load"] == steps
    assert len(counts["tables"]) == 1
    assert counts["tables"][0].shape == (steps + 2,)


# (rho, sigma) cases of the stepper checks: rho = 0.5 with small sigma is
# where N(v) changes fastest as the velocity passes through zero
RHO_SIGMA = pytest.mark.parametrize(
    "rho, sigma", [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-3)], ids=["0.0", "1.0", "0.5-0.001"]
)


@RHO_SIGMA
def test_accepted_states_meet_newton_tolerance(rho, sigma):
    # every accepted state of a 200-step run solves its own equation: the
    # independent _ref_residual, with the memory load recomputed by
    # memory_term, is within NEWTON_TOL, for an exponential and a power
    # kernel (dt = 2^-7 keeps the oracle's node times exact)
    dt = 2.0**-7
    g0 = np.array([0.05, -0.01, 0.004, 0.0, 0.001, 0.0])
    v0 = np.array([0.0, 0.2, 0.0, -0.05, 0.0, 0.0])
    for kernel in ("exp(0.5,1.0)", "power(0.4,3.0)"):
        params = PhysicalParams(rho, 0.5, parse_kernel_spec(kernel), parse_damping_spec("damp-cubic(0.5)"), sigma)
        traj = run(OneShotScenario(params, dt, 200 * dt, g0, v0, n=6))
        assert len(traj) == 201
        hist = traj.history()
        for i in range(len(traj)):
            mem = memory_term(hist, params.kernel, traj.grams, traj.times[i])
            R = _ref_residual(traj.a[i], traj.g[i], traj.v[i], params, traj.grams, traj.basis, memory=mem)
            assert np.max(np.abs(R)) <= NEWTON_TOL


def test_third_residual_reforms_stale_newton_matrix(monkeypatch):
    # a factor formed at a velocity far from the state's own contracts
    # slowly: the third residual misses NEWTON_TOL, the matrix is re-formed
    # there at the current velocity, once, and the step lands within
    # NEWTON_TOL with the new factor
    basis, grams = make_setup()
    params = PhysicalParams(0.5, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), 1e-3)
    g0 = np.array([0.05, -0.01, 0.004, 0.0, 0.001, 0.0])
    v0 = np.array([0.0, 0.2, 0.0, -0.05, 0.0, 0.0])
    s = Stepper(params, grams, basis, g0, v0, 0.01, 1)
    s._factor = dynamics.cho_factor(inertia_mass(1e3 * v0, params, grams, basis) + grams.M2)
    calls, formed = [], []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            out = fn(*args, **kwargs)
            if name == "factor":
                formed.append(out)
            return out

        return wrapper

    for name, attr in (("R", "residual"), ("matrix", "inertia_mass"), ("factor", "cho_factor")):
        monkeypatch.setattr(dynamics, attr, logged(name, getattr(dynamics, attr)))
    step(s)
    assert calls[:5] == ["R", "R", "R", "matrix", "factor"]
    assert calls.count("matrix") == calls.count("factor") == 1
    assert s._factor is formed[0]
    new = s.state()
    mem = memory_term(s.history(), params.kernel, grams, new.t)
    assert np.max(np.abs(_ref_residual(new.a, new.g, new.v, params, grams, basis, memory=mem))) <= NEWTON_TOL


def test_newton_start_weights_extrapolate_polynomials():
    # with k rows, newest first, the weights give the next value of every
    # polynomial of degree below k; the first four are (1), (2, -1),
    # (3, -3, 1) and (4, -6, 4, -1) exactly
    rng = np.random.default_rng(7)
    assert sorted(dynamics._START_WEIGHTS) == list(range(1, dynamics._START_ROWS + 1))
    for k, row in enumerate([[1.0], [2.0, -1.0], [3.0, -3.0, 1.0], [4.0, -6.0, 4.0, -1.0]], start=1):
        assert np.array_equal(dynamics._START_WEIGHTS[k], row)
    for k in range(1, dynamics._START_ROWS + 1):
        w = dynamics._START_WEIGHTS[k]
        assert w.shape == (k,)
        for degree in range(k):
            coef = rng.uniform(0.5, 1.5, (degree + 1, 3)) * rng.choice([-1.0, 1.0], (degree + 1, 3))
            t0, h = rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.15)
            times = t0 - h * np.arange(k)  # newest first
            rows = np.array([np.polynomial.polynomial.polyval(t, coef) for t in times])
            want = np.polynomial.polynomial.polyval(t0 + h, coef)
            scale = max(np.max(np.abs(rows)), np.max(np.abs(want)))
            assert np.max(np.abs(w @ rows - want)) <= 1e-12 * scale


def test_substep_fallback_restarts_newton_start_rows(monkeypatch):
    # the sixth whole step is made to fail; the 2-substep fallback takes it,
    # and the seventh whole step starts at the accepted a, not at an
    # extrapolation over the fallen-back step
    dt = 1e-3
    newton = dynamics._newton
    starts = []

    def sixth_whole_step_fails(form, a0, factor):
        if form.h == dt:
            starts.append(a0)
            if len(starts) == 6:
                raise DivergedError("forced")
        return newton(form, a0, factor)

    monkeypatch.setattr(dynamics, "_newton", sixth_whole_step_fails)
    traj = run(with_overrides(PRESETS["exp-linear"], dt=dt, T=10 * dt))
    assert len(starts) == 10
    assert np.array_equal(starts[6], traj.a[6])
    # before the fallback the start is an extrapolation: steps 5 and 6 start
    # at the polynomial through the stored rows, which is not the last
    # accepted a
    assert not np.array_equal(starts[4], traj.a[4])
    assert not np.array_equal(starts[5], traj.a[5])


def test_ring_start_is_the_newest_first_extrapolation(monkeypatch):
    # the ring holds the Newton-start rows oldest first; over 30 whole
    # steps (the ring wraps after 8 rows) each starts Newton within 1e-13
    # of _START_WEIGHTS[k] @ the last k refined accelerations newest first,
    # taken here from _newton's returns.  The 20th whole step is made to
    # fail: the fallback's accepted a is then the one row, and the next
    # step starts at it bit for bit
    dt = 1e-3
    newton, calls = dynamics._newton, []

    def recorded(form, a0, factor):
        if form.h != dt:
            return newton(form, a0, factor)
        calls.append([a0.copy(), None])
        if len(calls) == 20:
            raise DivergedError("forced")
        a, r, factor = newton(form, a0, factor)
        calls[-1][1] = r
        return a, r, factor

    monkeypatch.setattr(dynamics, "_newton", recorded)
    traj = run(with_overrides(PRESETS["exp-linear"], dt=dt, T=30 * dt))
    assert len(calls) == 30 and [r is None for _, r in calls].index(True) == 19
    rows = [traj.a[0]]  # newest first
    for n, (start, r) in enumerate(calls):
        k = min(len(rows), dynamics._START_ROWS)
        want = dynamics._START_WEIGHTS[k] @ np.array(rows[:k])
        assert np.max(np.abs(start - want)) <= 1e-13 * np.max(np.abs(rows[:k]))
        rows = [r, *rows] if r is not None else [traj.a[n + 1]]
    assert np.array_equal(calls[20][0], traj.a[20])
    assert traj._count == dynamics._START_ROWS


@pytest.mark.parametrize(
    "rho, sigma, damping, kernel, k, dim, n",
    [
        (0.0, 0.0, "damp-linear(1)", "exp(0.5,1.0)", 0.5, 1, 6),
        (1.0, 0.0, "damp-cubic(0.5)", "power(0.4,3.0)", 0.5, 1, 6),
        (0.5, 0.1, "none", "none", 0.5, 1, 6),
        (0.0, 0.0, "damp-linear(1)", "exp(0.5,1.0)", 0.0, 1, 6),
        (1.0, 0.0, "damp-cubic(0.5)", "power(0.4,3.0)", 0.5, 2, 4),
    ],
    ids=["rho0-linear-exp", "rho1-cubic-power", "zero-kernel", "k0", "2d-rho1-cubic-power"],
)
def test_step_table_is_the_unfolded_map(rho, sigma, damping, kernel, k, dim, n):
    # z @ T against the map written out here: the predictors (g_c, v_c) =
    # P (g_n, v_n, a_n) and R_c = (S - w_end M2) g_c + d M0 v_c - M2 conv;
    # after `at`, gv_q against the predictors at the points (g_c, v_c on
    # the full path, g_c alone with the log source only, none without a
    # pointwise term); each part within 1e-14 of its largest entry, and
    # `at`'s views R_c and gv give the parts of z @ T
    basis = build_basis(dim, n)
    grams = assemble_grams(basis)
    m, h = basis.dim, 0.01
    beta, gamma = dynamics.NEWMARK_BETA, dynamics.NEWMARK_GAMMA
    params = PhysicalParams(rho, k, parse_kernel_spec(kernel), parse_damping_spec(damping), sigma)
    w_end = 0.0 if params.kernel.is_zero else memory.StepLoad(params.kernel, h, 10).w_end
    form = StepForm(params, grams, basis, h, w_end)
    P = np.array([[1.0, h, h * h * (0.5 - beta)], [0.0, 1.0, h * (1.0 - gamma)]])
    d = params.damping.c if params.damping.form == "linear" else 0.0
    full = rho != 0.0 or damping == "damp-cubic(0.5)"
    rng = np.random.default_rng(5)
    for _ in range(3):
        g_n, v_n, a_n, conv = 0.1 * rng.standard_normal((4, m))
        if params.kernel.is_zero:
            conv = np.zeros(m)
        gc, vc = P @ np.array([g_n, v_n, a_n])
        R_c = (grams.S - w_end * grams.M2) @ gc + d * (grams.M0 @ vc) - grams.M2 @ conv
        points = [gc, vc] if full else [gc] if k != 0.0 else []
        z = step_row(g_n, v_n, a_n, conv)
        form.at(z)
        got = z @ form.T
        assert form.T.shape == (4 * m, 3 * m)
        parts = [(R_c, got[:m], form.R_c), (gc, got[m : 2 * m], form.gv[0]), (vc, got[2 * m :], form.gv[1])]
        parts.append((np.reshape(points, (-1, m)) @ basis.phi, form.gv_q))
        assert form.gv_q.shape == parts[-1][0].shape
        for want, *views in parts:
            for view in views:
                assert np.max(np.abs(view - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)


def test_2d_step_holds_phi_once():
    # five steps of exp-fast-linear physics in 2D at n = 8 (64 modes, 1024
    # points): with the basis and Grams given, the allocation peak of run
    # stays within 8 phi tables.  Each of its two step forms holds phi
    # once, in Ga, and a Newton matrix forms one (m, q) temporary; a step
    # table that folds phi into point columns reads about 37
    scn = with_overrides(PRESETS["exp-fast-linear"], spatial_dim=2, n=8, T=0.05)
    basis = scn.make_basis()
    grams = assemble_grams(basis)
    tracemalloc.start()
    try:
        s = run(scn, basis, grams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == 6
    assert peak <= 8 * basis.phi.nbytes


# --- run -----------------------------------------------------------------


def test_substep_memory_integrals_end_on_the_grid(monkeypatch):
    # with every step taken as 2 substeps (the whole-step solve is made to
    # fail), the first substep's memory integral runs to n dt + dt / 2 and
    # the last to (n + 1) dt bit for bit, the time the step is stored at;
    # accumulating t += h missed (n + 1) dt in most of these steps
    dt = 1e-3
    newton, off_grid, ends = dynamics._newton, memory.StepLoad.off_grid, []

    def whole_step_fails(form, a0, factor):
        if form.h == dt:
            raise DivergedError("forced")
        return newton(form, a0, factor)

    def recorded(self, nodes, rows, t):
        ends.append(t)
        return off_grid(self, nodes, rows, t)

    monkeypatch.setattr(dynamics, "_newton", whole_step_fails)
    monkeypatch.setattr(memory.StepLoad, "off_grid", recorded)
    traj = run(with_overrides(PRESETS["exp-linear"], dt=dt, T=0.5))
    assert len(traj) == 501 and len(ends) == 1000
    n = np.arange(500)
    assert np.array_equal(ends[1::2], (n + 1) * dt)
    assert np.array_equal(ends[0::2], n * dt + dt / 2)


@pytest.mark.parametrize("fallback", [False, True])
def test_run_times_are_exact_grid_multiples(monkeypatch, fallback):
    # t_i = i dt bit for bit over 1000 steps, also when every step is taken
    # by the 2-substep fallback (the whole-step solve is made to fail)
    dt = 1e-3
    if fallback:
        newton = dynamics._newton

        def whole_step_fails(form, a0, factor):
            if form.h == dt:
                raise DivergedError("forced")
            return newton(form, a0, factor)

        monkeypatch.setattr(dynamics, "_newton", whole_step_fails)
    traj = run(with_overrides(PRESETS["exp-linear"], dt=dt, T=1.0))
    assert len(traj) == 1001
    assert np.array_equal(traj.times, np.arange(len(traj)) * dt)


def test_run_zero_horizon():
    scn = OneShotScenario(CONSERVATIVE, 0.01, 0.0, np.zeros(4), np.zeros(4))
    traj = run(scn)
    assert len(traj) == 1
    assert traj.times[0] == 0.0


def test_run_rejects_nondivisible_horizon():
    scn = OneShotScenario(CONSERVATIVE, 0.01, 0.0153, np.zeros(4), np.zeros(4))
    with pytest.raises(InputError):
        run(scn)


def test_run_with_memory_is_deterministic():
    params = PhysicalParams(1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0)
    g0 = np.array([0.05, 0.01, 0.0, 0.0])
    scn = OneShotScenario(params, 0.01, 2.0, g0, np.zeros(4))
    t1 = run(scn)
    t2 = run(scn)
    assert np.array_equal(t1.g, t2.g)
    assert np.array_equal(t1.v, t2.v)
    assert np.array_equal(t1.a, t2.a)
    assert len(t1) == 201


def test_run_arrays_are_contiguous_planes():
    # the g rows are the memory history that StepLoad and analyze read in
    # place: each of g, v, a is one C-contiguous (steps + 1, m) array
    params = PhysicalParams(0.0, 0.5, RelaxationKernel.power_law(0.4, 3.0), DampingLaw.linear(1.0), 0.0)
    s = run(OneShotScenario(params, 0.01, 0.2, np.array([0.05, 0.01, 0.0, 0.0]), np.zeros(4)))
    for arr in (s.g, s.v, s.a):
        assert arr.shape == (21, 4)
        assert arr.flags.c_contiguous


def test_trajectory_state_and_history_roundtrip():
    params = PhysicalParams(0.0, 0.2, RelaxationKernel.exponential(0.5, 2.0), DampingLaw.none(), 0.0)
    scn = OneShotScenario(params, 0.01, 0.5, 0.03 * np.ones(4), np.zeros(4))
    traj = run(scn)
    st = traj.state(-1)
    assert st.step_index == len(traj) - 1
    assert abs(st.t - 0.5) < 1e-12
    hist = traj.history()
    assert len(hist) == len(traj)
    assert np.array_equal(hist.snapshots, traj.g)


def test_partly_stepped_stepper_reads_as_the_run_so_far():
    # run returns its Stepper; one sized for 10 steps and stepped 4 times
    # reads as the 4-step run: len, state(i), history() and analyze see
    # rows 0 .. 4 only, bit for bit, and never the unfilled rows
    from viscoplate import diagnostics as dg

    params = PhysicalParams(0.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), 0.0)
    g0, v0 = np.array([0.05, -0.04, 0.0, 0.0]), np.array([0.0, 0.2, 0.0, 0.0])
    full = run(OneShotScenario(params, 0.01, 0.04, g0, v0))
    assert isinstance(full, Stepper) and len(full) == 5 and full.n == 4
    s = Stepper(params, full.grams, full.basis, g0, v0, 0.01, 10)
    s.g[1:], s.v[1:], s.times[1:] = np.nan, np.nan, np.nan
    for _ in range(4):
        step(s)
    s.g[5:], s.v[5:], s.times[5:] = np.nan, np.nan, np.nan  # unfilled rows, never read
    assert len(s) == 5
    assert s.state().step_index == s.state(-1).step_index == s.state(4).step_index == 4
    assert s.state(-5).step_index == s.state(0).step_index == 0
    for i in (5, -6, 10):
        with pytest.raises(IndexError):
            s.state(i)
    assert np.array_equal(s.history().snapshots, full.g)
    assert np.array_equal(s.history().times, full.times)
    got, want = dg.analyze(s), dg.analyze(full)
    for name in ("times", "E", "memory", "psi2", "rate_residual"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
    assert np.isfinite(got.E).all()
    assert np.array_equal(dg.zero_crossings(s), dg.zero_crossings(full))
    assert len(dg.zero_crossings(full)) == 1


def test_linear_system_converges_at_second_order_to_its_exact_flow():
    # exp-linear physics with k = 0: (M0 + M2) g'' + M0 g + M2 g + C v
    # = M2 (b * g) with b = b0 exp(-r t) and the linear friction matrix
    # C_ij = c int w_i w_j on the shared quadrature.  With z' = g - r z,
    # z(0) = 0, the memory is b0 z, and (g, v, z) solves X' = A X, which
    # expm(A dt) steps exactly on the run's grid.  A is formed here from the
    # basis and the Grams, not from the stepper's residual.  The maximum
    # relative errors of g and v fall at slope 2 over dt = 0.02, 0.01 and
    # 0.005 to T = 2 (measured 2.0000 for both, with error constants
    # err / dt^2 of 0.070 for g and 0.145 for v at every dt).  A load
    # without the first node's half weight would make the memory error
    # first order
    from scipy.linalg import expm

    dts, errs = (0.02, 0.01, 0.005), []
    for dt in dts:
        s = run(with_overrides(PRESETS["exp-linear"], k=0.0, dt=dt, T=2.0))
        basis, grams, kernel, c = s.basis, s.grams, s.params.kernel, s.params.damping.c
        m = basis.dim
        S_inv = np.linalg.inv(grams.M0 + grams.M2)
        C = c * (basis.phi * basis.qw) @ basis.phi.T
        I, Z = np.eye(m), np.zeros((m, m))
        A = np.block([[Z, I, Z], [-I, -S_inv @ C, kernel.b0 * S_inv @ grams.M2], [I, Z, -kernel.rate * I]])
        flow = expm(A * dt)
        X = [np.concatenate([s.g[0], s.v[0], np.zeros(m)])]
        for _ in range(len(s) - 1):
            X.append(flow @ X[-1])
        X = np.array(X)
        pairs = ((s.g, X[:, :m]), (s.v, X[:, m : 2 * m]))
        errs.append([np.abs(got - want).max() / np.abs(want).max() for got, want in pairs])
    errs = np.array(errs)
    for j, constant in ((0, 0.1), (1, 0.2)):  # g, v
        slope = np.polyfit(np.log(dts), np.log(errs[:, j]), 1)[0]
        assert abs(slope - 2.0) <= 0.1
        assert np.all(errs[:, j] <= constant * np.array(dts) ** 2)


# --- agreement with the closure-based stepper ------------------------------
#
# The stepper as it was before it called LAPACK directly: scipy's
# cho_factor/cho_solve, N(v) + M2 built and factored for every solve at any
# rho, the inertia weight always multiplied in, the quadrature-form
# residual, memory.weights over explicit node times on every step, Newton
# started at a_n, and predictor/residual closures around a separate Newton
# loop.  The lean stepper sums in another order and starts Newton at
# 2 a_n - a_{n-1}, so its trajectories agree to a bound, not bit for bit.

MATCH_RTOL = 1e-10


def _ref_log_source(u):
    out = np.zeros_like(u)
    nz = u != 0.0
    out[nz] = u[nz] * np.log(np.abs(u[nz]))
    return out


def _ref_inertia_weight(vq, params):
    if params.rho == 0.0:
        return np.ones_like(vq)
    return (vq * vq + params.sigma * params.sigma) ** (0.5 * params.rho)


def _ref_inertia_mass(v, params, grams, basis):
    if params.rho == 0.0:
        return grams.M0
    vq = v @ basis.phi
    wq = _ref_inertia_weight(vq, params) * basis.qw
    N = (basis.phi * wq) @ basis.phi.T
    return 0.5 * (N + N.T)


def _ref_residual(a, g, v, params, grams, basis, memory=None):
    with np.errstate(over="ignore", invalid="ignore"):
        uq = g @ basis.phi
        vq = v @ basis.phi
        aq = a @ basis.phi
        wrho = _ref_inertia_weight(vq, params)
        R = basis.phi @ (basis.qw * (wrho * aq))
        R += grams.M2 @ (a + g)
        R += grams.M0 @ g
        if memory is not None:
            R -= memory
        if not params.damping.is_none:
            R += basis.phi @ (basis.qw * params.damping.h(vq))
        if params.k != 0.0:
            R -= params.k * (basis.phi @ (basis.qw * _ref_log_source(uq)))
    if not np.all(np.isfinite(R)):
        raise DivergedError("residual evaluation produced non-finite values")
    return R


def _ref_newton_loop(res_fn, v_pred, a0, params, grams, basis):
    from scipy.linalg import cho_factor, cho_solve

    with np.errstate(over="ignore", invalid="ignore"):
        J = _ref_inertia_mass(v_pred, params, grams, basis) + grams.M2
    if not np.all(np.isfinite(J)):
        raise DivergedError("Newton matrix has non-finite entries")
    try:
        factor = cho_factor(J, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DivergedError(f"Jacobian factorization failed: {exc}") from exc
    a = a0.copy()
    for _ in range(dynamics.NEWTON_MAX_ITER):
        R = res_fn(a)
        if np.max(np.abs(R)) <= NEWTON_TOL:
            return a
        a = a - cho_solve(factor, R, check_finite=False)
    raise DivergedError(f"Newton stalled above tolerance {NEWTON_TOL}")


def _ref_substep_solve(prev_t, prev_g, prev_v, prev_a, dt, node_times, node_g, params, grams, basis):
    beta, gamma = dynamics.NEWMARK_BETA, dynamics.NEWMARK_GAMMA
    t_new = prev_t + dt
    use_memory = not params.kernel.is_zero
    if use_memory:
        w = memory.weights(np.append(node_times, t_new), t_new, params.kernel.value)
        conv_const = node_g.T @ w[:-1]
        w_end = w[-1]
    g_c = prev_g + dt * prev_v + dt * dt * (0.5 - beta) * prev_a
    v_c = prev_v + dt * (1.0 - gamma) * prev_a

    def predict(a):
        return g_c + dt * dt * beta * a, v_c + dt * gamma * a

    def res_fn(a):
        with np.errstate(over="ignore", invalid="ignore"):
            g_new, v_new = predict(a)
            mem = grams.M2 @ (conv_const + w_end * g_new) if use_memory else None
        return _ref_residual(a, g_new, v_new, params, grams, basis, memory=mem)

    with np.errstate(over="ignore", invalid="ignore"):
        v_pred = predict(prev_a)[1]
    a_new = _ref_newton_loop(res_fn, v_pred, prev_a, params, grams, basis)
    g_new, v_new = predict(a_new)
    return t_new, g_new, v_new, a_new


def _ref_step(state, params, grams, basis, dt, history):
    base_times, base_g = history.times, history.snapshots
    for pieces in (1, 2, 4, 8):
        sub_dt = dt / pieces
        t_cur, g_cur, v_cur, a_cur = state.t, state.g, state.v, state.a
        times_ext, g_ext = base_times, base_g
        try:
            for j in range(pieces):
                t_cur, g_cur, v_cur, a_cur = _ref_substep_solve(
                    t_cur, g_cur, v_cur, a_cur, sub_dt, times_ext, g_ext, params, grams, basis
                )
                if j < pieces - 1:
                    times_ext = np.append(times_ext, t_cur)
                    g_ext = np.vstack([g_ext, g_cur[None, :]])
        except DivergedError:
            continue
        return PlateState(t=t_cur, g=g_cur, v=v_cur, a=a_cur, step_index=state.step_index + 1)
    raise DivergedError("reference step diverged even with 8 substeps")


def _ref_run(scn):
    basis = scn.make_basis()
    grams = assemble_grams(basis)
    params = scn.physical_params()
    g0, v0 = scn.initial_coeffs(basis, grams)

    def res_fn(a):
        return _ref_residual(a, g0, v0, params, grams, basis)

    a0 = _ref_newton_loop(res_fn, v0, np.zeros_like(g0), params, grams, basis)
    cur = PlateState(t=0.0, g=g0, v=v0, a=a0)
    states = [cur]
    for _ in range(int(round(scn.T / scn.dt))):
        hist = HistoryBuffer(scn.dt, [st.g for st in states])
        cur = _ref_step(cur, params, grams, basis, scn.dt, hist)
        states.append(cur)
    return tuple(np.array([getattr(s, f) for s in states]) for f in "gva")


def _assert_matches(got, want):
    """max|got - want| <= MATCH_RTOL max|want| for each of g, v, a."""
    for x, y in zip(got, want):
        assert np.max(np.abs(x - y)) <= MATCH_RTOL * np.max(np.abs(y))


# (rho, sigma, kernel, damping, dim, n, T): each law pair at each RHO_SIGMA
# value in 1D, and the full pointwise path in 2D
CLOSURE_CASES = [
    pytest.param(rho, sigma, kernel, damping, 1, 6, 1.0, id=f"{kernel}-{damping}-{rho_id}")
    for kernel, damping in (("exp(0.5,1.0)", "damp-linear(1)"), ("power(0.4,3.0)", "damp-cubic(0.5)"))
    for (rho, sigma), rho_id in zip(((0.0, 0.0), (1.0, 0.0), (0.5, 1e-3)), ("0.0", "1.0", "0.5-0.001"))
]
CLOSURE_CASES.append(
    pytest.param(1.0, 0.0, "power(0.4,3.0)", "damp-cubic(0.5)", 2, 3, 0.5, id="2d-power(0.4,3.0)-damp-cubic(0.5)-1.0")
)


@pytest.mark.parametrize("rho, sigma, kernel, damping, dim, n, T", CLOSURE_CASES)
def test_run_matches_closure_stepper(rho, sigma, kernel, damping, dim, n, T):
    params = PhysicalParams(rho, 0.5, parse_kernel_spec(kernel), parse_damping_spec(damping), sigma)
    g0, v0 = np.zeros((2, n**dim))
    g0[:6] = [0.05, -0.01, 0.004, 0.0, 0.001, 0.0]
    v0[:6] = [0.0, 0.2, 0.0, -0.05, 0.0, 0.0]
    scn = OneShotScenario(params, 0.01, T, g0, v0, n=n, dim=dim)
    traj = run(scn)
    _assert_matches((traj.g, traj.v, traj.a), _ref_run(scn))


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_substep_fallback_matches_closure_stepper(monkeypatch, rho):
    # the first whole step stalls (see the rescue test above); the substeps
    # take the state's factor and re-form it like any solve, since the
    # Newton matrix N(v) + M2 does not depend on the step size
    sub_dts = []
    newton = dynamics._newton

    def recorded(form, a0, factor):
        if form.h != 0.0:
            sub_dts.append(form.h)
        return newton(form, a0, factor)

    monkeypatch.setattr(dynamics, "_newton", recorded)
    params = PhysicalParams(rho, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), 0.0)
    g0 = np.zeros(6)
    g0[0] = 0.04
    scn = OneShotScenario(params, 2.0, 4.0, g0, np.zeros(6), n=6)
    traj = run(scn)
    assert min(sub_dts) < 2.0
    _assert_matches((traj.g, traj.v, traj.a), _ref_run(scn))


def test_log_source_signed_zeros_and_bits():
    rng = np.random.default_rng(7)
    u = np.concatenate([[0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 0.3], 0.05 * rng.standard_normal(40)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = dynamics._log_source(u)
    zero = u == 0.0
    assert np.all(out[zero] == 0.0) and not np.any(np.signbit(out[zero]))
    nz = u[~zero]
    assert np.array_equal(out[~zero].view(np.int64), (nz * np.log(np.abs(nz))).view(np.int64))
