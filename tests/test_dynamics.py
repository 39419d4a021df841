"""Integrator tests: memory quadrature, residual structure, Newton, Newmark.

The memory oracle re-sums the convolution node by node in a python loop,
independent of the vectorized path.  The linear oscillator checks use the
closed-form cosine solution; no reference data comes from the implementation
under test.
"""

import math
import warnings

import numpy as np
import pytest

from viscoplate import dynamics, memory
from viscoplate.dynamics import (
    NEWTON_TOL,
    HistoryBuffer,
    PhysicalParams,
    PlateState,
    Trajectory,
    initial_state,
    inertia_mass,
    memory_term,
    residual,
    run,
    _substep_solve,
    step,
)
from viscoplate.errors import DivergedError, InputError
from viscoplate.kernels import DampingLaw, RelaxationKernel, parse_damping_spec, parse_kernel_spec
from viscoplate.spectral import _mode_tables, assemble_grams, build_basis

CONSERVATIVE = PhysicalParams(
    rho=0.0, k=0.0, kernel=RelaxationKernel.zero(), damping=DampingLaw.none(), sigma=0.0
)


def make_setup(n=6):
    basis = build_basis(1, n)
    return basis, assemble_grams(basis)


class OneShotScenario:
    """Minimal duck-typed scenario for driving run() in tests."""

    def __init__(self, params, dt, T, g0, v0, n=4):
        self.params, self.dt, self.T = params, dt, T
        self._g0, self._v0, self._n = np.asarray(g0, float), np.asarray(v0, float), n

    def make_basis(self):
        return build_basis(1, self._n)

    def physical_params(self):
        return self.params

    def initial_coeffs(self, basis, grams):
        return self._g0, self._v0


# --- history and convolution --------------------------------------------


def test_history_growth_and_views():
    buf = HistoryBuffer(0.1, np.zeros(3))
    for i in range(1, 201):
        buf.append(np.full(3, float(i)))
    assert len(buf) == 201
    assert buf.snapshots.shape == (201, 3)
    assert abs(buf.times[-1] - 20.0) < 1e-12
    assert buf.snapshots[150, 0] == 150.0


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


# --- residual ------------------------------------------------------------


def test_residual_zero_state():
    basis, grams = make_setup()
    z = np.zeros(6)
    params = PhysicalParams(1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0)
    assert np.all(residual(z, z, z, params, grams, basis) == 0.0)


def test_residual_linear_degenerate():
    basis, grams = make_setup()
    rng = np.random.RandomState(2)
    g, v, a = rng.standard_normal((3, 6))
    R = residual(a, g, v, CONSERVATIVE, grams, basis)
    expect = (grams.M0 + grams.M2) @ (a + g)
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(R - expect)) < 1e-12 * scale


def test_log_source_against_oversampled_quadrature():
    basis, grams = make_setup(n=8)
    k = 0.5
    coeffs = np.zeros(8)
    coeffs[0] = 0.7
    z = np.zeros(8)
    with_log = residual(
        z, coeffs, z, PhysicalParams(0.0, k, RelaxationKernel.zero(), DampingLaw.none(), 0.0), grams, basis
    )
    without = residual(z, coeffs, z, CONSERVATIVE, grams, basis)
    load = without - with_log  # k * P(u ln|u|)

    from numpy.polynomial.legendre import leggauss

    t, wt = leggauss(10 * basis.quad_order)
    x = 0.5 * (t + 1.0)
    wx = 0.5 * wt
    W, _, _ = _mode_tables(basis.beam_roots, x, basis.L)
    W = W * basis.axis_scale[:, None]
    u = 0.7 * W[0]
    f = np.where(u != 0.0, u * np.log(np.abs(np.where(u == 0.0, 1.0, u))), 0.0)
    ref = k * (W @ (wx * f))
    assert np.max(np.abs(load - ref)) < 1e-9


def test_residual_diverges_on_overflow():
    basis, grams = make_setup()
    g = np.full(6, 1e305)
    params = PhysicalParams(0.0, 1.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    with pytest.raises(DivergedError):
        residual(np.zeros(6), g, np.zeros(6), params, grams, basis)


# --- Newton --------------------------------------------------------------


def test_newton_linear_case_matches_direct_solve():
    basis, grams = make_setup()
    rng = np.random.RandomState(9)
    g, v = 0.1 * rng.standard_normal((2, 6))
    a = initial_state(g, v, CONSERVATIVE, grams, basis).a
    direct = np.linalg.solve(grams.M0 + grams.M2, -(grams.M0 + grams.M2) @ g)
    assert np.max(np.abs(a - direct)) < 1e-11
    assert np.max(np.abs(residual(a, g, v, CONSERVATIVE, grams, basis))) <= 1e-10


def test_newton_rho2_small_state():
    basis, grams = make_setup()
    params = PhysicalParams(2.0, 0.5, RelaxationKernel.zero(), DampingLaw.linear(0.7), sigma=0.0)
    rng = np.random.RandomState(13)
    for _ in range(3):
        g, v = 0.05 * rng.standard_normal((2, 6))
        a = initial_state(g, v, params, grams, basis).a
        assert np.max(np.abs(residual(a, g, v, params, grams, basis))) <= 1e-10


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
                residual(a + e, g, v, params, grams, basis)
                - residual(a - e, g, v, params, grams, basis)
            ) / (2 * h)
        assert np.max(np.abs(J_fd - J)) <= 1e-6 * np.max(np.abs(J))


# --- stepping ------------------------------------------------------------


def test_zero_data_is_fixed_point():
    basis, grams = make_setup()
    params = PhysicalParams(1.0, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), sigma=0.0)
    z = np.zeros(6)
    st = initial_state(z, z, params, grams, basis)
    hist = HistoryBuffer(0.01, st.g)
    for _ in range(10):
        st = step(st, params, grams, basis, 0.01, history=hist)
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


def test_step_requires_consistent_history():
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 0.0, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.none(), 0.0)
    z = np.zeros(6)
    st = initial_state(z, z, params, grams, basis)
    with pytest.raises(InputError):
        step(st, params, grams, basis, 0.01)  # kernel present, no history
    buf = HistoryBuffer(0.01, z)
    buf.append(z)  # length no longer matches step_index + 1
    with pytest.raises(InputError):
        step(st, params, grams, basis, 0.01, history=buf)


def test_step_rejects_history_at_other_spacing():
    # the memory load integrates over the history's nodes, so they must lie on the step grid
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 0.3, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.none(), 0.0)
    st = initial_state(np.full(6, 0.01), np.zeros(6), params, grams, basis)
    with pytest.raises(InputError, match="spacing"):
        step(st, params, grams, basis, 0.02, history=HistoryBuffer(0.01, st.g))


def test_step_divergence_attaches_state():
    basis, grams = make_setup()
    params = PhysicalParams(0.0, 1.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    g = np.full(6, 1e305)
    st = PlateState(t=0.0, g=g, v=np.zeros(6), a=np.zeros(6))
    with pytest.raises(DivergedError) as info:
        step(st, params, grams, basis, 0.1)
    assert info.value.last_state is st


def test_split_memory_matches_full_recomputation():
    # the stepper's in-step endpoint split of the memory load must agree with
    # the full-grid memory_term oracle: every accepted state solves R = 0 under it
    basis, grams = make_setup()
    rng = np.random.RandomState(17)
    g0 = 0.02 * rng.standard_normal(6)
    for rho in (0.0, 1.0):
        params = PhysicalParams(rho, 0.3, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(0.5), 0.0)
        st = initial_state(g0, np.zeros(6), params, grams, basis)
        hist = HistoryBuffer(0.01, st.g)
        for _ in range(50):
            st = step(st, params, grams, basis, 0.01, history=hist)
            mem = memory_term(hist, params.kernel, grams, st.t)
            R = residual(st.a, st.g, st.v, params, grams, basis, memory=mem)
            assert np.max(np.abs(R)) <= NEWTON_TOL


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_substep_fallback_rescues_stalled_step(rho):
    basis, grams = make_setup()
    params = PhysicalParams(rho, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), 0.0)
    g0 = np.zeros(6)
    g0[0] = 0.04
    st = initial_state(g0, np.zeros(6), params, grams, basis)
    with pytest.raises(DivergedError, match="Newton stalled"):
        _substep_solve(
            st.t, st.g, st.v, st.a, 2.0, np.array([st.t]), st.g[None, :],
            params, grams, basis,
        )
    whole = step(st, params, grams, basis, 2.0, history=HistoryBuffer(2.0, st.g))
    hist = HistoryBuffer(1.0, st.g)
    halves = step(step(st, params, grams, basis, 1.0, history=hist), params, grams, basis, 1.0, history=hist)
    assert whole.step_index == 1 and whole.t == halves.t == 2.0
    assert np.array_equal(whole.g, halves.g)
    assert np.array_equal(whole.v, halves.v)
    assert np.array_equal(whole.a, halves.a)


def test_step_diverges_on_non_finite_newton_matrix():
    # the predictor overflows the inertia weight before any residual is evaluated
    basis, grams = make_setup()
    params = PhysicalParams(1.0, 0.0, RelaxationKernel.zero(), DampingLaw.none(), 0.0)
    st = PlateState(t=0.0, g=np.zeros(6), v=np.full(6, 1e200), a=np.zeros(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError):
            step(st, params, grams, basis, 0.01)


def test_failed_factorization_is_divergence():
    # LAPACK reports a non-positive pivot through info; the stepper treats it as divergence
    with pytest.raises(DivergedError, match="factorization failed"):
        dynamics.cho_factor(np.diag([1.0, -1.0, 2.0]))


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_one_newton_matrix_and_factor_per_solve(monkeypatch, rho):
    # at rho = 0 the Newton matrix is the constant M0 + M2: one factor per run
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
    solves = 1 if rho == 0.0 else 51
    assert counts == {"factor": solves, "matrix": solves}


# --- run -----------------------------------------------------------------


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


# --- bit identity with the closure-based stepper ---------------------------
#
# The stepper as it was before it called LAPACK directly: scipy's
# cho_factor/cho_solve, N(v) + M2 built and factored for every solve at any
# rho, the inertia weight always multiplied in, and predictor/residual
# closures around a separate Newton loop.  The lean stepper must reproduce
# its trajectories bit for bit.


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
    base_times = history.times if history is not None else np.array([state.t])
    base_g = history.snapshots if history is not None else state.g[None, :]
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
        new = PlateState(t=t_cur, g=g_cur, v=v_cur, a=a_cur, step_index=state.step_index + 1)
        if history is not None:
            history.append(new.g)
        return new
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
    hist = HistoryBuffer(scn.dt, cur.g) if not params.kernel.is_zero else None
    states = [cur]
    for _ in range(int(round(scn.T / scn.dt))):
        cur = _ref_step(cur, params, grams, basis, scn.dt, hist)
        states.append(cur)
    return tuple(np.array([getattr(s, f) for s in states]) for f in "gva")


def _assert_bit_identical(traj, ref):
    for got, want in zip((traj.g, traj.v, traj.a), ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rho", [0.0, 1.0])
@pytest.mark.parametrize(
    "kernel, damping",
    [("exp(0.5,1.0)", "damp-linear(1)"), ("power(0.4,3.0)", "damp-cubic(0.5)")],
)
def test_run_bit_identical_to_closure_stepper(rho, kernel, damping):
    params = PhysicalParams(rho, 0.5, parse_kernel_spec(kernel), parse_damping_spec(damping), 0.0)
    g0 = np.array([0.05, -0.01, 0.004, 0.0, 0.001, 0.0])
    v0 = np.array([0.0, 0.2, 0.0, -0.05, 0.0, 0.0])
    scn = OneShotScenario(params, 0.01, 1.0, g0, v0, n=6)
    _assert_bit_identical(run(scn), _ref_run(scn))


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_substep_fallback_bit_identical_to_closure_stepper(monkeypatch, rho):
    # the first whole step stalls (see the rescue test above); at rho = 0 the
    # substeps reuse the one factor of M0 + M2 whatever their size
    sub_dts = []

    def recorded(*args):
        sub_dts.append(args[4])
        return _substep_solve(*args)

    monkeypatch.setattr(dynamics, "_substep_solve", recorded)
    params = PhysicalParams(rho, 0.5, RelaxationKernel.exponential(0.5, 1.0), DampingLaw.linear(1.0), 0.0)
    g0 = np.zeros(6)
    g0[0] = 0.04
    scn = OneShotScenario(params, 2.0, 4.0, g0, np.zeros(6), n=6)
    traj = run(scn)
    assert min(sub_dts) < 2.0
    _assert_bit_identical(traj, _ref_run(scn))


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
