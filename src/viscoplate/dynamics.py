"""Time integration of the Galerkin plate system.

The semidiscrete system in mode coefficients g(t) reads

    N(g') g'' + M2 g'' + M2 g + M0 g - M2 * (b * g)(t) + P(h(g'.phi))
        = k P(u ln|u|),

where N(v) is the inertia mass weighted by (v^2 + sigma^2)^(rho/2), M0/M2
are the mass and bending Grams, (b * g) is the fading-memory convolution,
and P projects pointwise nonlinearities back onto the basis through the
shared quadrature rule.  Using one quadrature rule for every term is what
makes the discrete energy identity exact up to time-integration error.

Stepping is Newmark average acceleration (gamma = 1/2, beta = 1/4), solved
by a modified Newton iteration on the dominant N(v) + M2 block, built and
Cholesky-factored once per solve at the velocity predicted from the last
acceleration; the neglected couplings are O(dt), so the iteration
contracts fast at practical step sizes.  At rho = 0 the block is the
constant M0 + M2, factored once per GramSet and reused by every solve and
substep size.  LAPACK's potrf/potrs are called directly; the residual and
the matrix are each checked once for finite values.  The convolution
history is stored densely on the uniform grid; when Newton fails the step
is re-tried with 2, 4, then 8 substeps whose memory integrals run over the
union of the stored grid and the pending substep nodes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import memory
from .errors import DivergedError, InputError
from .kernels import DampingLaw, RelaxationKernel
from .spectral import Basis, GramSet, assemble_grams

DEFAULT_SIGMA = 1e-8
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
NEWMARK_BETA = 0.25
NEWMARK_GAMMA = 0.5


@dataclass(frozen=True, eq=False)
class PhysicalParams:
    """Coefficients of the plate problem.

    rho is the inertia exponent, k the logarithmic source strength, sigma
    the smoothing of |v|^rho (required positive for 0 < rho < 1 so the
    Newton Jacobian stays differentiable at v = 0).
    """

    rho: float
    k: float
    kernel: RelaxationKernel
    damping: DampingLaw
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if self.rho < 0:
            raise InputError("inertia exponent rho must be >= 0")
        if self.k < 0:
            raise InputError("log-source strength k must be >= 0")
        if self.sigma < 0:
            raise InputError("regularization sigma must be >= 0")
        if 0.0 < self.rho < 1.0 and self.sigma == 0.0:
            raise InputError("rho in (0,1) needs sigma > 0 for a differentiable Jacobian")


@dataclass(frozen=True, eq=False)
class PlateState:
    t: float
    g: np.ndarray
    v: np.ndarray
    a: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        for arr in (self.g, self.v, self.a):
            if not np.isfinite(arr).all():
                raise InputError("state coefficients must be finite")


class HistoryBuffer:
    """Dense g-history on the uniform step grid, capacity-doubling.

    snapshots is one coefficient vector g_0 (1-D) or the rows g_0, g_1, ...
    (2-D) at spacing dt.
    """

    def __init__(self, dt: float, snapshots: np.ndarray):
        dt = float(dt)
        if not (np.isfinite(dt) and dt > 0):
            raise InputError("history spacing must be finite and positive")
        data = np.atleast_2d(np.asarray(snapshots, dtype=float))
        if data.ndim != 2:
            raise InputError("history snapshots must be one vector or a 2-D array")
        self.dt = dt
        self._data = data
        self._len = data.shape[0]

    def append(self, g: np.ndarray):
        if self._len == self._data.shape[0]:
            grown = np.empty((2 * self._len, self._data.shape[1]))
            grown[: self._len] = self._data
            self._data = grown
        self._data[self._len] = g
        self._len += 1

    def __len__(self) -> int:
        return self._len

    @property
    def snapshots(self) -> np.ndarray:
        return self._data[: self._len]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self._len) * self.dt

    def upto(self, t: float) -> np.ndarray:
        """Node times 0, dt, ..., t; t must be a stored grid time."""
        n = int(round(t / self.dt))
        if abs(n * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise InputError(f"time {t} is not on the uniform history grid")
        if not 0 <= n < self._len:
            raise InputError(f"history holds {self._len} nodes, cannot reach t = {t}")
        return np.arange(n + 1) * self.dt


def memory_term(history: HistoryBuffer, kernel: RelaxationKernel, grams: GramSet, t: float) -> np.ndarray:
    """Convolution load M2 * int_0^t b(t-s) g(s) ds by product trapezoid."""
    m = history.snapshots.shape[1] if len(history) else 0
    if kernel.is_zero or len(history) == 0:
        return np.zeros(m)
    s = history.upto(t)
    conv = history.snapshots[: len(s)].T @ memory.weights(s, t, kernel.value)
    return grams.M2 @ conv


def _log_source(u: np.ndarray) -> np.ndarray:
    # u ln|u| with the continuous extension 0 ln 0 := +0.0
    zero = u == 0.0
    out = u * np.log(np.abs(u) + zero)
    out[zero] = 0.0
    return out


def _inertia_weight(vq: np.ndarray, params: PhysicalParams) -> np.ndarray:
    return (vq * vq + params.sigma * params.sigma) ** (0.5 * params.rho)


def inertia_mass(v: np.ndarray, params: PhysicalParams, grams: GramSet, basis: Basis) -> np.ndarray:
    """Weighted mass N(v)_ij = int (v^2 + sigma^2)^(rho/2) w_i w_j."""
    if params.rho == 0.0:
        return grams.M0
    vq = v @ basis.phi
    wq = _inertia_weight(vq, params) * basis.qw
    N = (basis.phi * wq) @ basis.phi.T
    return 0.5 * (N + N.T)


def residual(
    a: np.ndarray,
    g: np.ndarray,
    v: np.ndarray,
    params: PhysicalParams,
    grams: GramSet,
    basis: Basis,
    memory: np.ndarray | None = None,
) -> np.ndarray:
    """Galerkin residual R(a) at coefficients (g, v) with trial acceleration a.

    `memory` is the convolution load M2 (b * g)(t), zero when absent.  Any
    non-finite entry, from the coefficients or from overflow, raises
    DivergedError.
    """
    phi, qw = basis.phi, basis.qw
    with np.errstate(over="ignore", invalid="ignore"):
        vq = v @ phi
        aq = a @ phi
        if params.rho != 0.0:
            aq = _inertia_weight(vq, params) * aq
        R = phi @ (qw * aq)
        R += grams.M2 @ (a + g)
        R += grams.M0 @ g
        if memory is not None:
            R -= memory
        if not params.damping.is_none:
            R += phi @ (qw * params.damping.h(vq))
        if params.k != 0.0:
            R -= params.k * (phi @ (qw * _log_source(g @ phi)))
    if not np.isfinite(R).all():
        raise DivergedError("residual evaluation produced non-finite values")
    return R


# GramSet -> factor of M0 + M2, the Newton matrix of every solve at rho = 0
_CONSTANT_FACTORS = weakref.WeakKeyDictionary()


def cho_factor(J: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of J; the stepper calls this and cho_solve by
    their module names, so perfbench/tracing.py can wrap them."""
    c, info = dpotrf(J, lower=0, clean=0)
    if info != 0:
        raise DivergedError(f"Jacobian factorization failed: LAPACK potrf info {info}")
    return c


def cho_solve(c: np.ndarray, R: np.ndarray) -> np.ndarray:
    x, info = dpotrs(c, R, lower=0)
    if info != 0:
        raise DivergedError(f"Newton solve failed: LAPACK potrs info {info}")
    return x


def _newton_factor(v: np.ndarray, params: PhysicalParams, grams: GramSet, basis: Basis) -> np.ndarray:
    """Factor of N(v) + M2; at rho = 0 the cached factor of M0 + M2."""
    c = _CONSTANT_FACTORS.get(grams) if params.rho == 0.0 else None
    if c is not None:
        return c
    J = inertia_mass(v, params, grams, basis) + grams.M2
    if not np.isfinite(J).all():
        raise DivergedError("Newton matrix has non-finite entries")
    c = cho_factor(J)
    if params.rho == 0.0:
        _CONSTANT_FACTORS[grams] = c
    return c


def _newton(a, g_c, v_c, cb, cg, params, grams, basis, conv=None, w_end=None):
    """Modified Newton on R(a) = 0 at g = g_c + cb a, v = v_c + cg a.

    cb = None holds (g, v) at (g_c, v_c); the memory load is
    M2 (conv + w_end g), absent when conv is None.  N(v) + M2 is factored
    once, at the starting a.  Returns (g, v, a) at the root.
    """
    # a diverging iterate overflows here; residual's finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        g, v = (g_c, v_c) if cb is None else (g_c + cb * a, v_c + cg * a)
        factor = _newton_factor(v, params, grams, basis)
        for _ in range(NEWTON_MAX_ITER):
            mem = None if conv is None else grams.M2 @ (conv + w_end * g)
            R = residual(a, g, v, params, grams, basis, memory=mem)
            if np.abs(R).max() <= NEWTON_TOL:
                return g, v, a
            a = a - cho_solve(factor, R)
            if cb is not None:
                g, v = g_c + cb * a, v_c + cg * a
    raise DivergedError(f"Newton stalled above tolerance {NEWTON_TOL}")


def initial_state(
    g0: np.ndarray,
    v0: np.ndarray,
    params: PhysicalParams,
    grams: GramSet,
    basis: Basis,
) -> PlateState:
    """State at t = 0 with the acceleration solving R(a) = 0 at (g0, v0).

    The memory load vanishes at t = 0, R is affine in a, and N(v0) + M2 is
    its exact Jacobian, so Newton converges in one iteration up to rounding.
    """
    g0 = np.asarray(g0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    a0 = _newton(np.zeros_like(g0), g0, v0, None, None, params, grams, basis)[2]
    return PlateState(t=0.0, g=g0, v=v0, a=a0, step_index=0)


def _substep_solve(
    prev_t: float,
    prev_g: np.ndarray,
    prev_v: np.ndarray,
    prev_a: np.ndarray,
    dt: float,
    node_times: np.ndarray,
    node_g: np.ndarray,
    params: PhysicalParams,
    grams: GramSet,
    basis: Basis,
):
    """One Newmark solve to prev_t + dt given the past memory nodes."""
    t_new = prev_t + dt
    conv = w_end = None
    if not params.kernel.is_zero:
        w = memory.weights(np.append(node_times, t_new), t_new, params.kernel.value)
        conv, w_end = node_g.T @ w[:-1], w[-1]
    g_c = prev_g + dt * prev_v + dt * dt * (0.5 - NEWMARK_BETA) * prev_a
    v_c = prev_v + dt * (1.0 - NEWMARK_GAMMA) * prev_a
    cb, cg = dt * dt * NEWMARK_BETA, dt * NEWMARK_GAMMA
    return (t_new, *_newton(prev_a, g_c, v_c, cb, cg, params, grams, basis, conv, w_end))


def step(
    state: PlateState,
    params: PhysicalParams,
    grams: GramSet,
    basis: Basis,
    dt: float,
    history: HistoryBuffer | None = None,
) -> PlateState:
    """Advance one uniform step; falls back to 2/4/8 substeps on failure.

    Substep nodes extend the memory grid only within the step; the history
    buffer receives exactly the accepted on-grid snapshot, preserving its
    uniform spacing.
    """
    if dt <= 0:
        raise InputError("step size must be positive")
    if not params.kernel.is_zero:
        if history is None:
            raise InputError("a memory kernel requires the step history")
        if len(history) != state.step_index + 1:
            raise InputError("history length does not match the state's step index")
        if history.dt != dt:
            raise InputError(f"history spacing {history.dt} differs from the step size {dt}")
    base_times = history.times if history is not None else np.array([state.t])
    base_g = history.snapshots if history is not None else state.g[None, :]

    last_error = None
    for pieces in (1, 2, 4, 8):
        sub_dt = dt / pieces
        t_cur, g_cur, v_cur, a_cur = state.t, state.g, state.v, state.a
        times_ext, g_ext = base_times, base_g
        try:
            for j in range(pieces):
                t_cur, g_cur, v_cur, a_cur = _substep_solve(
                    t_cur, g_cur, v_cur, a_cur, sub_dt, times_ext, g_ext,
                    params, grams, basis,
                )
                if j < pieces - 1:
                    times_ext = np.append(times_ext, t_cur)
                    g_ext = np.vstack([g_ext, g_cur[None, :]])
        except DivergedError as exc:
            last_error = exc
            continue
        new = PlateState(t=t_cur, g=g_cur, v=v_cur, a=a_cur, step_index=state.step_index + 1)
        if history is not None:
            history.append(new.g)
        return new
    raise DivergedError(
        f"step from t = {state.t} diverged even with 8 substeps: {last_error}",
        last_state=state,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Complete discrete solution: times and coefficient arrays per state."""

    times: np.ndarray
    g: np.ndarray
    v: np.ndarray
    a: np.ndarray
    dt: float
    params: PhysicalParams
    basis: Basis
    grams: GramSet

    def __len__(self) -> int:
        return self.times.shape[0]

    def state(self, i: int) -> PlateState:
        i = int(i)
        if i < 0:
            i += len(self)
        return PlateState(
            t=float(self.times[i]), g=self.g[i], v=self.v[i], a=self.a[i], step_index=i
        )

    def history(self) -> HistoryBuffer:
        return HistoryBuffer(self.dt, self.g)


def run(scenario, basis: Basis | None = None, grams: GramSet | None = None) -> Trajectory:
    """Integrate a validated scenario from t = 0 to T.

    The scenario supplies the discretization, physics, and initial data
    (see the scenario module).  The loop is deterministic: no randomness
    anywhere.
    """
    if basis is None:
        basis = scenario.make_basis()
    if grams is None:
        grams = assemble_grams(basis)
    params = scenario.physical_params()
    g0, v0 = scenario.initial_coeffs(basis, grams)
    dt = scenario.dt
    n_steps = int(round(scenario.T / dt))
    if abs(n_steps * dt - scenario.T) > 1e-9 * max(1.0, scenario.T):
        raise InputError("T must be an integer number of steps")

    cur = initial_state(g0, v0, params, grams, basis)
    m = basis.dim
    times = np.empty(n_steps + 1)
    gs = np.empty((n_steps + 1, m))
    vs = np.empty((n_steps + 1, m))
    accs = np.empty((n_steps + 1, m))
    hist = HistoryBuffer(dt, cur.g) if not params.kernel.is_zero else None

    for i in range(n_steps + 1):
        if i > 0:
            try:
                cur = step(cur, params, grams, basis, dt, history=hist)
            except DivergedError as exc:
                exc.last_state = cur
                raise
        times[i], gs[i], vs[i], accs[i] = cur.t, cur.g, cur.v, cur.a
    return Trajectory(
        times=times, g=gs, v=vs, a=accs, dt=dt, params=params, basis=basis, grams=grams
    )
