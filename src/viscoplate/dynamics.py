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
by a simplified Newton iteration on the dominant N(v) + M2 block; the
neglected couplings are O(dt), so the iteration contracts fast at practical
step sizes.  Every solve takes the factor the previous one ended with,
carried in PlateState.factor, and one rule holds for every rho: the matrix
is formed at the current velocity when there is no factor yet, and
re-formed there when a third residual still misses NEWTON_TOL.  At rho = 0
the matrix is the constant M0 + M2 and never goes stale.  The factor is
numpy's Cholesky factor L, kept as the inverse L^-T L^-1 of the matrix, so
every Newton update is one matrix-vector product; the residual and the
matrix are each checked once for finite values.  A whole step starts
Newton at the degree-7 extrapolation sum_j (-1)^j C(8, j+1) r_n-j of the
refined accelerations r = a - J^-1 R(a), each one Newton update past an
accepted a.  That update contracts the accepted a's residual noise (up to
NEWTON_TOL) by the O(dt) coupling, so even the weights' sum of |c| = 255
keeps it below NEWTON_TOL (1.001 residuals per step at dt = 2.5e-4 with 4
to 10 rows), while at dt = 0.01 the start mostly meets it at once.

The residual is fused: every pointwise term is summed at the quadrature
points and projected by one product with Basis.phi_qw, and a field is
synthesized at the points only when some term reads it.  At rho = 0 the
inertia and stiffness terms are GramSet.S (a + g).

The convolution history is stored densely on the uniform grid next to a
lag table K[j] = dt b(j dt).  `run` sizes the history for the whole run
once: its storage is the trajectory's g array, so the buffer never grows
and the lag table is built once per run (a buffer filled step by step
doubles its capacity and rebuilds the table with it).  The load of the
step t_n -> t_n+1 is the product-trapezoid sum
sum_i w_i K[n+1-i] g_i (w_0 = 1/2, w_i = 1 otherwise) plus K[0]/2 g_n+1.
A power kernel takes it as one matrix-vector product over the history at
every step.  An exponential kernel has K[j+1] = q K[j] with
q = exp(-rate dt), so once the product has been taken the next step's sum
is q times it plus K[1] g_n+1: O(1) per step while the buffer grows by the
one node of each step.  When Newton fails the step is re-tried with 2, 4,
then 8 substeps, whose memory integrals run over the union of the stored
grid and the pending substep nodes with memory.weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import memory
from .errors import DivergedError, InputError
from .kernels import DampingLaw, RelaxationKernel
from .spectral import Basis, GramSet, assemble_grams

DEFAULT_SIGMA = 1e-8
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
NEWMARK_BETA = 0.25
NEWMARK_GAMMA = 0.5

# Newton-start weights on k rows, newest first: the extrapolation of degree
# k - 1, c_j = (-1)^j C(k, j + 1), so (1), (2, -1), ..., (4, -6, 4, -1), ...
_START_ROWS = 8
_START_WEIGHTS = {
    k: np.array([(-1) ** j * math.comb(k, j + 1) for j in range(k)], dtype=float)
    for k in range(1, _START_ROWS + 1)
}


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
        check_physics_args(self.rho, self.k, self.sigma)


def check_physics_args(rho: float, k: float, sigma: float) -> None:
    """Refuse the coefficients PhysicalParams cannot take."""
    if rho < 0:
        raise InputError("inertia exponent rho must be >= 0")
    if k < 0:
        raise InputError("log-source strength k must be >= 0")
    if sigma < 0:
        raise InputError("regularization sigma must be >= 0")
    if 0.0 < rho < 1.0 and sigma == 0.0:
        raise InputError("rho in (0,1) needs sigma > 0 for a differentiable Jacobian")


def step_count(dt: float, T: float) -> int:
    """T / dt for a time T on the grid of whole steps of dt > 0; InputError off the grid."""
    steps = T / dt  # inf for a subnormal dt
    if not (np.isfinite(steps) and abs(round(steps) * dt - T) <= 1e-9 * max(1.0, abs(T))):
        raise InputError(f"{T} is not an integer number of steps of {dt}")
    if steps >= np.iinfo(np.intp).max:  # a run holds steps + 1 samples
        raise InputError(f"{T} is {steps:.3g} steps of {dt}, more than an array can hold")
    return int(round(steps))


@dataclass(frozen=True, eq=False)
class PlateState:
    t: float
    g: np.ndarray
    v: np.ndarray
    a: np.ndarray
    step_index: int = 0
    # Newton-start rows, set by step: the refined accelerations of the last
    # (at most _START_ROWS) steps, newest first; None starts at a
    a_prev: np.ndarray | None = None
    # the inverse Newton matrix the last solve ended with; None forms one
    factor: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(np.concatenate((self.g, self.v, self.a), axis=None)).all():
            raise InputError("state coefficients must be finite")


class HistoryBuffer:
    """Dense g-history on the uniform step grid.

    snapshots is one coefficient vector g_0 (1-D) or the rows g_0, g_1, ...
    (2-D) at spacing dt.  append doubles the capacity when the buffer is
    full; a buffer from `_sized` has room for a whole run from the start.
    `lag_table(kernel)` samples the kernel at the grid lags, once per
    capacity.
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
        self._lags = self._lag_kernel = None
        # (kernel, node count, conv, w_end, q, K[1]) of the last exponential load
        self._carry = None

    @classmethod
    def _sized(cls, dt: float, storage: np.ndarray) -> "HistoryBuffer":
        """A buffer holding storage's first row; append fills the others in order."""
        buf = cls(dt, storage[:1])
        buf._data = storage
        return buf

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

    def lag_table(self, kernel: RelaxationKernel) -> np.ndarray:
        """Reversed lag table: entry capacity - j is dt b(j dt), j = 0 .. capacity.

        The next step's lags n+1 .. 1 over the n+1 stored nodes are then the
        contiguous slice [-n-2:-1].  Rebuilt only when the capacity grows or
        the kernel changes.
        """
        cap = self._data.shape[0]
        if self._lag_kernel is not kernel or self._lags.shape[0] != cap + 1:
            self._lags = self.dt * kernel.value(np.arange(cap, -1, -1) * self.dt)
            self._lag_kernel = kernel
        return self._lags

    def _load(self, kernel: RelaxationKernel):
        """(conv, w_end) of the step after the last stored node.

        The step's memory load is M2 (conv + w_end g_new).  An exponential
        kernel that loaded this buffer when it held one node fewer carries
        that conv: K[j+1] = q K[j], so conv_n = q conv_n-1 + K[1] g_n.  Any
        other load is the lag-table product (_grid_load).
        """
        if kernel.family != "exponential":
            return _grid_load(self, kernel)
        carry = self._carry
        if carry is not None and carry[0] is kernel and carry[1] == self._len - 1:
            _, _, conv, w_end, q, k1 = carry
            conv = q * conv + k1 * self._data[self._len - 1]
        else:
            conv, w_end = _grid_load(self, kernel)
            q, k1 = math.exp(-kernel.rate * self.dt), self.lag_table(kernel)[-2]
        self._carry = (kernel, self._len, conv, w_end, q, k1)
        return conv, w_end

    def upto(self, t: float) -> np.ndarray:
        """Node times 0, dt, ..., t; t must be a stored grid time."""
        n = step_count(self.dt, t)
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
    """Weighted mass N(v)_ij = int (v^2 + sigma^2)^(rho/2) w_i w_j, M0 at rho = 0."""
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

    `memory` is the convolution load M2 (b * g)(t), zero when absent.  The
    pointwise terms are summed at the quadrature points and projected by
    one product with basis.phi_qw.  Any non-finite entry, from the
    coefficients or from overflow, raises DivergedError.
    """
    phi = basis.phi
    with np.errstate(over="ignore", invalid="ignore"):
        point = vq = None
        if params.rho == 0.0:
            R = grams.S @ (a + g)
        else:
            vq = v @ phi
            point = _inertia_weight(vq, params) * (a @ phi)
            R = grams.S @ g + grams.M2 @ a
        if not params.damping.is_none:
            h = params.damping.h(v @ phi if vq is None else vq)
            point = h if point is None else point + h
        if params.k != 0.0:
            src = params.k * _log_source(g @ phi)
            point = -src if point is None else point - src
        if point is not None:
            R += basis.phi_qw @ point
        if memory is not None:
            R -= memory
    if not np.isfinite(R).all():
        raise DivergedError("residual evaluation produced non-finite values")
    return R


def cho_factor(J: np.ndarray) -> np.ndarray:
    """J^-1 for the SPD matrix J, formed from its Cholesky factor L as
    L^-T L^-1; a J that is not positive definite is a divergence.

    The stepper calls this and cho_solve by their module names, so
    perfbench/tracing.py can wrap them.
    """
    try:
        L = np.linalg.cholesky(J)
    except np.linalg.LinAlgError as exc:
        raise DivergedError(f"Jacobian factorization failed: {exc}") from exc
    Li = np.linalg.inv(L)
    return Li.T @ Li


def cho_solve(c: np.ndarray, R: np.ndarray) -> np.ndarray:
    """J^-1 R, with c = cho_factor(J)."""
    return c @ R


def _newton(a, factor, g_n, v_n, a_n, dt, params, grams, basis, conv=None, w_end=None):
    """Simplified Newton on R(a) = 0 for the Newmark step of size dt after
    (g_n, v_n, a_n), started at a.

    The step puts g = g_c + cb a and v = v_c + cg a with the predictors
    g_c = g_n + dt v_n + dt^2 (1/2 - beta) a_n, v_c = v_n + dt (1 - gamma) a_n
    and cb = dt^2 beta, cg = dt gamma; dt = None holds (g, v) at (g_n, v_n).
    The memory load is M2 (conv + w_end g), absent when conv is None.
    factor, the inverse of N(v) + M2 at some earlier v, is formed at the
    current v when None and re-formed there when the third residual misses
    NEWTON_TOL.  Returns (g, v, a) at the root, where |R|_inf <= NEWTON_TOL,
    the refined a - J^-1 R(a) one update past it, and the factor.
    """
    # a diverging iterate overflows here; residual's finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        g, v = g_n, v_n
        if dt is not None:
            g_c = g_n + dt * v_n + dt * dt * (0.5 - NEWMARK_BETA) * a_n
            v_c = v_n + dt * (1.0 - NEWMARK_GAMMA) * a_n
            cb, cg = dt * dt * NEWMARK_BETA, dt * NEWMARK_GAMMA
            g, v = g_c + cb * a, v_c + cg * a
        for i in range(NEWTON_MAX_ITER):
            mem = None if conv is None else grams.M2 @ (conv + w_end * g)
            R = residual(a, g, v, params, grams, basis, memory=mem)
            done = np.abs(R).max() <= NEWTON_TOL
            if factor is None or (i == 2 and not done):
                J = inertia_mass(v, params, grams, basis) + grams.M2
                if not np.isfinite(J).all():
                    raise DivergedError("Newton matrix has non-finite entries")
                factor = cho_factor(J)
            da = cho_solve(factor, R)
            if done:
                return g, v, a, a - da, factor
            a = a - da
            if dt is not None:
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
    The state carries that factor to the first step.
    """
    g0 = np.asarray(g0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    _, _, a0, _, factor = _newton(np.zeros_like(g0), None, g0, v0, None, None, params, grams, basis)
    return PlateState(t=0.0, g=g0, v=v0, a=a0, step_index=0, factor=factor)


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
    factor: np.ndarray | None,
):
    """(t, g, v, a, factor) of one Newmark solve to prev_t + dt given past memory nodes anywhere."""
    t_new = prev_t + dt
    conv = w_end = None
    if not params.kernel.is_zero:
        w = memory.weights(np.append(node_times, t_new), t_new, params.kernel.value)
        conv, w_end = node_g.T @ w[:-1], w[-1]
    g, v, a, _, factor = _newton(
        prev_a, factor, prev_g, prev_v, prev_a, dt, params, grams, basis, conv, w_end
    )
    return t_new, g, v, a, factor


def _grid_load(history: HistoryBuffer, kernel: RelaxationKernel):
    """(conv, w_end) of the step after the last stored node, from the lag table.

    The step's memory load is M2 (conv + w_end g_new): the product
    trapezoid over the stored nodes and the new one, on the uniform grid.
    """
    lags = history.lag_table(kernel)
    nodes = history.snapshots
    w = lags[-len(nodes) - 1 : -1]
    conv = w @ nodes
    conv -= (0.5 * w[0]) * nodes[0]  # the trapezoid halves the first node
    return conv, 0.5 * lags[-1]


def step(
    state: PlateState,
    params: PhysicalParams,
    grams: GramSet,
    basis: Basis,
    dt: float,
    history: HistoryBuffer | None = None,
) -> PlateState:
    """Advance one uniform step; falls back to 2/4/8 substeps on failure.

    The whole step reads its memory load from the history (HistoryBuffer._load)
    and starts Newton at the extrapolation of the state's a_prev rows of
    refined accelerations: with k rows stored (k <= _START_ROWS = 8), the
    next value of the degree-(k - 1) polynomial through them, with weights
    c_j = (-1)^j C(k, j + 1), newest row first; a_n without a_prev.  The
    new state's rows put this step's refined acceleration in
    front, or restart from the accepted a after a substep fallback.  The
    refined rows only start Newton; g, v and a are the accepted root.
    Newton takes the state's factor, and the new state carries the one the
    last solve ended with.  Substep nodes extend the memory grid only
    within the step; the history buffer receives exactly the accepted
    on-grid snapshot, preserving its uniform spacing.  A state at t = n dt
    steps to (n + 1) dt, so a run's times are i dt bit for bit instead of
    an accumulated sum of dt.
    """
    if dt <= 0:
        raise InputError("step size must be positive")
    conv = w_end = None
    if not params.kernel.is_zero:
        if history is None:
            raise InputError("a memory kernel requires the step history")
        if len(history) != state.step_index + 1:
            raise InputError("history length does not match the state's step index")
        if history.dt != dt:
            raise InputError(f"history spacing {history.dt} differs from the step size {dt}")
        conv, w_end = history._load(params.kernel)
    old = state.a[None, :] if state.a_prev is None else state.a_prev
    a0 = _START_WEIGHTS[len(old)] @ old
    try:
        g, v, a, r, factor = _newton(
            a0, state.factor, state.g, state.v, state.a, dt, params, grams, basis, conv, w_end
        )
    except DivergedError as exc:
        g, v, a, factor = _substeps(state, params, grams, basis, dt, history, exc)
        rows = a[None, :]
    else:
        rows = np.concatenate((r[None, :], old[: _START_ROWS - 1]))
    n = state.step_index
    t = (n + 1) * dt if state.t == n * dt else state.t + dt
    new = PlateState(t=t, g=g, v=v, a=a, step_index=n + 1, a_prev=rows, factor=factor)
    if history is not None:
        history.append(g)
    return new


def _substeps(state, params, grams, basis, dt, history, error):
    """(g, v, a, factor) of the step taken as 2, 4, then 8 substeps.

    Each substep's memory integral runs over the stored nodes and the
    earlier substeps' nodes, weighted by memory.weights; each try starts
    from the state's factor.
    """
    base_times = history.times if history is not None else np.array([state.t])
    base_g = history.snapshots if history is not None else state.g[None, :]
    for pieces in (2, 4, 8):
        sub_dt = dt / pieces
        t_cur, g_cur, v_cur, a_cur, factor = state.t, state.g, state.v, state.a, state.factor
        times_ext, g_ext = base_times, base_g
        try:
            for j in range(pieces):
                t_cur, g_cur, v_cur, a_cur, factor = _substep_solve(
                    t_cur, g_cur, v_cur, a_cur, sub_dt, times_ext, g_ext,
                    params, grams, basis, factor,
                )
                if j < pieces - 1:
                    times_ext = np.append(times_ext, t_cur)
                    g_ext = np.vstack([g_ext, g_cur[None, :]])
        except DivergedError as exc:
            error = exc
            continue
        return g_cur, v_cur, a_cur, factor
    raise DivergedError(
        f"step from t = {state.t} diverged even with 8 substeps: {error}",
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


def _trajectory_arrays(n_steps: int, m: int):
    """Empty times, g, v and a arrays for n_steps steps of m coefficients.

    InputError when memory cannot hold them.
    """
    try:
        return (
            np.empty(n_steps + 1),
            np.empty((n_steps + 1, m)),
            np.empty((n_steps + 1, m)),
            np.empty((n_steps + 1, m)),
        )
    except MemoryError:
        nbytes = 8 * (n_steps + 1) * (3 * m + 1)
        raise InputError(
            f"{n_steps} steps of {m} coefficients need {nbytes:.3g} bytes of trajectory arrays, "
            "more than can be allocated"
        ) from None


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
    n_steps = step_count(dt, scenario.T)
    times, gs, vs, accs = _trajectory_arrays(n_steps, basis.dim)

    cur = initial_state(g0, v0, params, grams, basis)
    times[0], gs[0], vs[0], accs[0] = cur.t, cur.g, cur.v, cur.a
    # with a memory kernel the history's storage is gs, and step appends each g there
    hist = None if params.kernel.is_zero else HistoryBuffer._sized(dt, gs)
    for i in range(1, n_steps + 1):
        cur = step(cur, params, grams, basis, dt, history=hist)
        times[i], vs[i], accs[i] = cur.t, cur.v, cur.a
        if hist is None:
            gs[i] = cur.g
    return Trajectory(
        times=times, g=gs, v=vs, a=accs, dt=dt, params=params, basis=basis, grams=grams
    )
