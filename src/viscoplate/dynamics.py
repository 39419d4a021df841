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
carried by the run's Stepper, and one rule holds for every rho: the matrix
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

Within a step of size h, g = g_c + cb a and v = v_c + cg a are affine in
the unknown acceleration a, so every term linear in (g, v, a) is one
affine map R_c + A a (StepForm): stiffness, the memory load, the inertia
M0 a at rho = 0 and a linear damping law h(s) = d s, whose projection is d
M0 v.  Only the terms that are not linear, the inertia at rho != 0, a
nonlinear damping law and the log source, are evaluated at the quadrature
points and projected back.  What depends on (h, w_end) alone is built once
per run, or per try of the fallback: A and two product tables.  The
step row z = (conv_n, g_n, v_n, a_n) is 4m contiguous doubles, the memory
sum conv and then the trajectory column; the first table T, 4m by 4m in
every dimension, folds the predictor matrix, the stiffness and linear-law
blocks, the load's -M2^T block and, for an exponential kernel, the
carry's predictor q conv + K[1] g_c (memory.StepLoad), so a step's product
z @ T gives R_c, that predictor and (g_c, v_c), and one product with phi
gives the predictors that the pointwise terms read at the points.  Each
Newton iteration is one product a @ Ga, Ga = [A^T | phi | K[1] cb I | cb
I | cg I | I], giving A a, a at the points and the increment (K[1] cb a,
cb a, cg a, a) of the step row, then the pointwise terms at (g_c, v_c) +
c a there and one projection by Basis.phi_qw.  When the log source is the
only pointwise term (rho = 0 with linear or no damping, as in every
exp-linear run), the step forms g_c alone at the points, Ga's point block
is cb phi and the source projects by -k Basis.phi_qw.  Newton ends on a
residual at the a it accepts, so the next step row is one add of the
predictors (q conv + K[1] g_c, g_c, v_c, 0) and that residual's
increment: the state, the acceleration and the exponential memory sum
conv_n+1 = q conv_n + K[1] g_n+1, with no second formula for any of them.
The initial acceleration is the same form at h = 0.  A step holds one
np.errstate for all of this, so an overflowing iterate shows only as the
residual's DivergedError.

One Stepper holds a run: what it decides once, its arrays, sized once,
two step rows, the Newton factor and the Newton-start rows, a doubled ring
that gives the last eight as one contiguous slice.  g, v and a are the
planes of one (3, steps + 1, m) array, so each is contiguous; step n
reads the step row of n's parity and forms the next in the other, checks
it there for finite values by its z.z and copies its (g, v, a) to the
column (g_n+1, v_n+1, a_n+1), so a step that raises leaves the row it
read as it was.  The g rows are also the convolution history, read in
place by memory.StepLoad for a lag-table kernel's memory sum at every
step and by diagnostics.analyze for the memory series; an exponential
kernel's sum rides in the step row from its first sum on.  When Newton
fails the step is re-tried with 2, 4, then 8 substeps, one StepForm per
try, whose memory sums run over the stored rows, read in place, and the
substeps' own rows, at node positions that are integers in units of the
substep, the last at the grid time t_n+1 itself; each substep forms its
row by the same one add, and the carry then restarts from conv_n at the
accepted g_n+1 by StepLoad's rule.
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
_START_OLDEST_FIRST = {k: w[::-1].copy() for k, w in _START_WEIGHTS.items()}


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
    """Coefficients g, v, a at time t, step step_index of the run that reached it."""

    t: float
    g: np.ndarray
    v: np.ndarray
    a: np.ndarray
    step_index: int = 0


class HistoryBuffer:
    """Read-only g-history on the uniform step grid.

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
        self.snapshots = data

    def __len__(self) -> int:
        return self.snapshots.shape[0]

    def weights(self, t: float, fn, lag_min: float = 0.0) -> tuple:
        """(w, rows): the product-trapezoid weights at the grid time t = n dt
        of the rows g_0 .. g_n-m at the lags (n - i) dt >= lag_min, m the
        memory.first_lag of lag_min, and those rows.  fn is kernel.value or
        kernel.deriv, evaluated at the exact lags j dt of memory.series."""
        n = step_count(self.dt, t)
        if not 0 <= n < len(self):
            raise InputError(f"history holds {len(self)} nodes, cannot reach t = {t}")
        m = memory.first_lag(np.arange(n + 1) * self.dt, self.dt, lag_min)
        w = memory.weights(np.arange(n + 1.0 - m), n, lambda j: fn(j * self.dt))
        return self.dt * w, self.snapshots[: n + 1 - m]


def memory_term(history: HistoryBuffer, kernel: RelaxationKernel, grams: GramSet, t: float) -> np.ndarray:
    """Convolution load M2 * int_0^t b(t-s) g(s) ds by product trapezoid."""
    w, rows = history.weights(t, kernel.value)
    return grams.M2 @ (rows.T @ w)


def _inertia_weight(vq: np.ndarray, params: PhysicalParams) -> np.ndarray:
    return (vq * vq + params.sigma * params.sigma) ** (0.5 * params.rho)


def inertia_mass(v: np.ndarray, params: PhysicalParams, grams: GramSet, basis: Basis) -> np.ndarray:
    """Weighted mass N(v)_ij = int (v^2 + sigma^2)^(rho/2) w_i w_j, M0 at rho = 0."""
    vq = v @ basis.phi
    wq = _inertia_weight(vq, params) * basis.qw
    N = (basis.phi * wq) @ basis.phi.T
    return 0.5 * (N + N.T)


class StepForm:
    """The residual of a Newmark step of size h as an affine map of the
    acceleration a plus the nonlinear terms at the quadrature points.

    Within the step g = g_c + cb a and v = v_c + cg a, where the stacked
    predictors are (g_c, v_c) = P (g_n, v_n, a_n) with P = [[1, h,
    h^2 (1/2 - beta)], [0, 1, h (1 - gamma)]], and c = (cb, cg) =
    (h^2 beta, h gamma).  With the memory load M2 (conv + w_end g) and a
    linear damping law h(s) = d s, whose projection phi_qw (d v_q) is
    d M0 v,

        R(a) = R_c + A a + phi_qw point(g_q, v_q, a_q),
        R_c = (S - w_end M2) g_c + d M0 v_c - M2 conv,
        A = cb (S - w_end M2) + cg d M0 + B,

    where B is S at rho = 0 (the inertia term is then M0 a) and M2
    otherwise, d is 0 for any other law, and point sums the terms that are
    not linear: the inertia at rho != 0, a nonlinear damping law and the
    log source.  carry = (q, K[1]) is an exponential memory load's
    (memory.StepLoad.carry), whose sum the step row carries as conv_n+1 =
    q conv_n + K[1] g_n+1; None, for any other load and for the substeps,
    is q = K[1] = 0.  The form decides once which terms are linear and
    holds what depends on (h, w_end, carry) alone: the 4m x 4m table T,
    which folds P into the map from the step row z = (conv, g_n, v_n, a_n)
    to [R_c | q conv + K[1] g_c | g_c | v_c], so that `at` is the product
    z @ T, written into one buffer whose views are R_c, the predictors
    (g_c, v_c) as gv and pred = (q conv + K[1] g_c, g_c, v_c, 0), the
    next row's part that does not depend on a (the buffer's last m entries
    are never written), and one product gv[:p] @ phi, written to gv_q: the
    predictors at the points that the pointwise terms read, p = 2 of them
    (g_c,q then v_c,q) on the full path, 1 (g_c,q) when the log source is
    the only pointwise term and 0 without one; and Ga = [A^T | phi | K[1]
    cb I | cb I | cg I | I], so that a @ Ga gives A a, a_q and inc = (K[1]
    cb a, cb a, cg a, a), the part of the next row that does, and (g_q,
    v_q) = gv_q + c a_q.  The row of the step at a is then pred + inc, one
    add.  When the log source is the only pointwise term (rho = 0, linear
    or no damping, k != 0), Ga's point block is cb phi, so g_q = g_c,q +
    (a @ Ga)_q, and -k folds into the projection -k phi_qw: the velocity
    and acceleration at the points are never formed.  tol2 is
    NEWTON_TOL^2 less the rounding of a sum of m squares, so R.R <= tol2
    implies |R|_inf <= NEWTON_TOL.  h = 0 holds (g, v) at (g_n, v_n): the
    form of an initial acceleration.
    """

    def __init__(self, params: PhysicalParams, grams: GramSet, basis: Basis, h: float, w_end: float = 0.0, carry=None):
        self.params, self.grams, self.basis, self.h, self.w_end = params, grams, basis, h, w_end
        P = np.array([[1.0, h, h * h * (0.5 - NEWMARK_BETA)], [0.0, 1.0, h * (1.0 - NEWMARK_GAMMA)]])
        self.c = np.array([[h * h * NEWMARK_BETA], [h * NEWMARK_GAMMA]])
        damping, phi, (cb, cg), m, (q, k1) = params.damping, basis.phi, self.c[:, 0], basis.dim, carry or (0.0, 0.0)
        self.rho, self.k, linear = params.rho, params.k, damping.form == "linear"
        self.damp = None if linear or damping.is_none else damping.h
        self.tol2 = NEWTON_TOL**2 * (1.0 - (m + 3) * 2.0**-52)
        Sw = grams.S - w_end * grams.M2
        A = cb * Sw + (grams.S if params.rho == 0.0 else grams.M2)
        if linear:
            A += (cg * damping.c) * grams.M0
        full = params.rho != 0.0 or self.damp is not None
        # point(form), reading a @ Ga past A a: a plain function, so the form holds no cycle
        self.point = _pointwise if full else _log_point if params.k != 0.0 else None
        self.project = basis.phi_qw if full else -params.k * basis.phi_qw
        # conv -> [-M2 conv | q conv | 0 | 0], then (g_c, v_c) -> [R_c | k1 g_c
        # | g_c | v_c] as two row blocks folded with P
        I, Z = np.eye(m), np.zeros((m, m))
        G = np.stack((np.hstack((Sw.T, k1 * I, I, Z)), np.hstack((damping.c * grams.M0.T if linear else Z, Z, Z, I))))
        self.T = np.vstack((np.hstack((-grams.M2.T, q * I, Z, Z)), (P.T @ G.reshape(2, -1)).reshape(3 * m, -1)))
        self._y = np.zeros(5 * m)
        self.R_c, self.pred, self._Tz = self._y[:m], self._y[m:], self._y[: 4 * m]
        self.gv = self._y[2 * m : 4 * m].reshape(2, m)
        self._gv_p = self.gv[: 2 if full else 1 if self.point is not None else 0]
        self.gv_q = np.empty((len(self._gv_p), phi.shape[1]))
        points = (phi if full else cb * phi,) if self.point is not None else ()
        self.Ga = np.hstack((A.T, *points, (k1 * cb) * I, cb * I, cg * I, I))
        self._ya = np.empty(self.Ga.shape[1])
        self.Aa, self.yq, self.inc = self._ya[:m], self._ya[m : -4 * m], self._ya[-4 * m :]
        # the log source's buffers at the points, and R.R of the last residual
        self._uq, lq, out = np.empty((3, phi.shape[1]))
        self._logbuf, self.rr = (lq, out, np.empty(phi.shape[1], bool)), math.inf

    def at(self, z: np.ndarray) -> None:
        """Put the form at the step from the row z = (conv, g_n, v_n, a_n), with
        conv the memory sum (zero for no memory load)."""
        # the step's products use ndarray.dot: at these sizes matmul's ufunc
        # dispatch costs about as much as the product itself
        z.dot(self.T, self._Tz)
        self._gv_p.dot(self.basis.phi, self.gv_q)


def _log_source(u: np.ndarray, lq=None, out=None, zero=None) -> np.ndarray:
    # u ln|u| with the continuous extension 0 ln 0 := +0.0: u + 0.0 is +0.0
    # at u = -0.0, and ln(|u| + 1) = 0 there.  Given buffers (a form's), each
    # ufunc writes to one, passed by position: a keyword costs more here
    lq = np.log(np.add(np.absolute(u, lq), np.equal(u, 0.0, zero), lq), lq)
    return np.multiply(np.add(u, 0.0, out), lq, out)


def _log_point(form: StepForm) -> np.ndarray:
    # the log source alone, at g_q = g_c,q + cb a_q; form.project holds the -k
    return _log_source(np.add(form.gv_q[0], form.yq, form._uq), *form._logbuf)


def _pointwise(form: StepForm) -> np.ndarray:
    # the inertia at rho != 0, a nonlinear damping law and the log source
    aq = form.yq
    gq, vq = form.gv_q + form.c * aq
    point = form.damp(vq) if form.rho == 0.0 else _inertia_weight(vq, form.params) * aq
    if form.rho != 0.0 and form.damp is not None:
        point = point + form.damp(vq)
    if form.k != 0.0:
        point = point - form.k * _log_source(gq, *form._logbuf)
    return point


def residual(a: np.ndarray, form: StepForm) -> np.ndarray:
    """Galerkin residual R(a) of the step the form is at, for trial acceleration a.

    The product a @ Ga is written to the form's buffer, whose last 4m
    entries are then the increment of the step row at a, and R.R to
    form.rr.  Any non-finite entry, from the coefficients or from
    overflow, raises DivergedError, and so does |R|_2 above about
    1.3e154, whose square overflows: only a diverged iterate gets there.
    Callers that step silence numpy's overflow warnings with
    np.errstate(over="ignore", invalid="ignore"), as `step` does.
    """
    a.dot(form.Ga, form._ya)
    R = form.R_c + form.Aa
    if form.point is not None:
        R += form.project.dot(form.point(form))
    # a sum of squares cannot cancel, so it is finite only if every entry is
    form.rr = R.dot(R)
    if not math.isfinite(form.rr):
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
    return c.dot(R)


class Stepper:
    """One run of the Newmark stepper, advanced in place by `step`.

    It holds what the run decides once: the physics, Grams, basis and dt;
    the arrays times, g, v and a of steps + 1 rows, of which rows 0 .. n
    are filled (g, v and a are the contiguous planes of one (3, steps + 1,
    m) array, whose column i is the stacked (g_i, v_i, a_i)); the memory
    load, None for the zero kernel; the whole step's StepForm, with the
    load's carry for an exponential kernel; and what each step hands the
    next: the step row z = (conv_n, g_n, v_n, a_n) of 4m contiguous
    doubles, the Newton factor and the Newton-start rows.  The step rows
    of even and odd n are the two rows of _rows: step n reads row n % 2
    and forms the other.  conv is zero for the zero kernel, written by
    StepLoad.grid at every step for a lag table, and carried in the row
    for an exponential kernel, from its first sum, which the constructor
    writes.  The Newton-start rows are a doubled ring of 2 _START_ROWS
    rows: a row enters at slot i and i + _START_ROWS, so the last k rows,
    oldest first, are the one contiguous slice [i + 1 + _START_ROWS - k, i
    + 1 + _START_ROWS).  The g rows are also the memory history.  The
    constructor fills row 0: (g0, v0) and the acceleration solving R(a) =
    0 of the StepForm at h = 0, where the memory load vanishes, R is
    affine in a and N(v0) + M2 is its exact Jacobian, so Newton converges
    in one iteration up to rounding.  A stepper reads as the run so far:
    len is n + 1, state(i) is row i and history() the rows 0 .. n.
    """

    def __init__(self, params: PhysicalParams, grams: GramSet, basis: Basis, g0, v0, dt: float, steps: int):
        if not dt > 0:
            raise InputError("step size must be positive")
        self.params, self.grams, self.basis, self.dt = params, grams, basis, dt
        m = basis.dim
        try:
            self.times = np.empty(steps + 1)
            self._gva = np.empty((3, steps + 1, m))
        except MemoryError:
            nbytes = 8 * (steps + 1) * (3 * m + 1)
            raise InputError(
                f"{steps} steps of {m} coefficients need {nbytes:.3g} bytes of trajectory arrays, "
                "more than can be allocated"
            ) from None
        self.g, self.v, self.a = self._gva
        self.n = 0
        self._rows = np.zeros((2, 4 * m))
        self._views = [(z, z[m:].reshape(3, m), z[:m]) for z in self._rows]
        z, row, conv = self._views[0]
        self.times[0], row[0], row[1] = 0.0, g0, v0
        if not np.isfinite(row).all():
            raise InputError("state coefficients must be finite")
        hold = StepForm(params, grams, basis, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            hold.at(z)
            row[2], _, self._factor = _newton(hold, np.zeros(m), None)
        self._gva[:, 0] = row
        self._ring, self._head, self._count = np.empty((2 * _START_ROWS, m)), 0, 1
        self._ring[0::_START_ROWS] = self.a[0]
        self.load = None if params.kernel.is_zero else memory.StepLoad(params.kernel, dt, steps)
        carry, w_end = (None, 0.0) if self.load is None else (self.load.carry, self.load.w_end)
        self._tabled, self._carried = self.load is not None and carry is None, carry is not None
        if self._carried:
            self.load.grid(self.g, 0, conv)
        self._form = StepForm(params, grams, basis, dt, w_end, carry)

    def __len__(self) -> int:
        return self.n + 1

    def state(self, i: int = -1) -> PlateState:
        """Row i of the rows 0 .. n; a negative i counts back from row n, and an
        i past them raises IndexError."""
        j = range(self.n + 1)[i]
        return PlateState(t=float(self.times[j]), g=self.g[j], v=self.v[j], a=self.a[j], step_index=j)

    def history(self) -> HistoryBuffer:
        return HistoryBuffer(self.dt, self.g[: self.n + 1])


def _newton(form: StepForm, a: np.ndarray, factor):
    """Simplified Newton on R(a) = 0 for the step the form is at, started at a.

    factor, the inverse of N(v) + M2 at some earlier v, is formed at the
    current v = v_c + cg a when None and re-formed there when the third
    residual misses NEWTON_TOL.  Returns the root a, where |R|_inf <=
    NEWTON_TOL, the refined a - J^-1 R(a) one update past it, and the
    factor.  The last residual it evaluates is always the one at the a it
    returns, so the form's product buffer then holds that a's increment
    of the step row (form.inc), which the caller adds to form.pred.
    R.R, which residual leaves in form.rr, <= form.tol2 implies |R|_inf
    <= NEWTON_TOL, so that test comes first and the max only decides when
    it fails.  A diverging iterate overflows; under the caller's
    np.errstate residual's finite check reports it.
    """
    grams = form.grams
    for i in range(NEWTON_MAX_ITER):
        R = residual(a, form)
        done = form.rr <= form.tol2 or np.maximum.reduce(np.abs(R)) <= NEWTON_TOL
        if factor is None or (i == 2 and not done):
            J = inertia_mass(form.gv[1] + form.c[1] * a, form.params, grams, form.basis) + grams.M2
            if not np.logical_and.reduce(np.isfinite(J), axis=None):
                raise DivergedError("Newton matrix has non-finite entries")
            factor = cho_factor(J)
        da = cho_solve(factor, R)
        if done:
            return a, a - da, factor
        a = a - da
    raise DivergedError(f"Newton stalled above tolerance {NEWTON_TOL}")


def initial_state(g0: np.ndarray, v0: np.ndarray, params: PhysicalParams, grams: GramSet, basis: Basis) -> PlateState:
    """State at t = 0 with the acceleration solving R(a) = 0 at (g0, v0).

    It is row 0 of a Stepper for no steps, whose dt is never used.
    """
    return Stepper(params, grams, basis, g0, v0, 1.0, 0).state()


def step(s: Stepper) -> None:
    """Advance s by one step of s.dt; falls back to 2/4/8 substeps on failure.

    The whole step reads the step row z = (conv_n, g_n, v_n, a_n) of n's
    parity, into which a lag-table StepLoad first writes the memory sum
    (an exponential kernel's is already there), puts the stepper's
    StepForm at z by one product, and starts Newton at the extrapolation
    of the Newton-start rows of refined accelerations: with k rows stored
    (k <= _START_ROWS = 8), the next value of the degree-(k - 1)
    polynomial through them, with weights c_j = (-1)^j C(k, j + 1) on the
    rows newest first, read oldest first from the ring as one slice; row
    0 holds the initial a.  The step's refined acceleration enters the
    ring as its newest row, or the accepted a alone after a substep
    fallback.  The refined rows only start Newton; the next row (conv_n+1,
    g_n+1, v_n+1, a_n+1) is the one add form.pred + form.inc of the
    accepted root's residual, written to the other step row, checked
    there for finite values by math.isfinite(z.z), as the residual is
    (|z|_2 above about 1.3e154 counts as diverged), and its (g, v, a)
    copied to row n + 1 at t = (n + 1) dt before n advances.  After a
    fallback, whose substeps form their rows by the same add, conv_n+1 is
    StepLoad.grid's carry from conv_n at the accepted g_n+1.  A step that
    raises leaves the row it read, the trajectory and n as they were.
    Newton takes the stepper's factor, which then becomes the one the last
    solve ended with.  Substep nodes extend the memory grid only within
    the step.
    """
    n = s.n
    if n + 1 == len(s.times):
        raise InputError(f"the stepper has taken all of its {n} steps")
    form, i, k = s._form, s._head, s._count
    z, _, conv = s._views[n % 2]
    nz, row, nconv = s._views[1 - n % 2]
    # a diverging iterate overflows here; residual's finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if s._tabled:
            s.load.grid(s.g, n, conv)
        form.at(z)
        start = _START_OLDEST_FIRST[k].dot(s._ring[i + 1 + _START_ROWS - k : i + 1 + _START_ROWS])
        try:
            _, r, factor = _newton(form, start, s._factor)
            np.add(form.pred, form.inc, nz)
        except DivergedError as exc:
            factor = _substeps(s, exc, z, nz)
            r, k = row[2], 0
        if not math.isfinite(nz.dot(nz)):
            raise DivergedError("the accepted step has non-finite coefficients", last_state=s.state())
    s._gva[:, n + 1] = row
    if k == 0 and s._carried:
        nconv[:] = conv  # the carry restarts from conv_n at the accepted g_n+1
        s.load.grid(s.g, n + 1, nconv)
    s.times[n + 1] = (n + 1) * s.dt
    i = (i + 1) % _START_ROWS
    s._ring[i::_START_ROWS] = r
    s.n, s._head, s._count, s._factor = n + 1, i, min(k + 1, _START_ROWS), factor


def _substeps(s: Stepper, error: DivergedError, z: np.ndarray, out: np.ndarray):
    """The Newton factor of step s.n from the step row z taken as 2, 4,
    then 8 substeps, whose last row, (0, g_n+1, v_n+1, a_n+1), it leaves
    in out.

    Each try starts out at z and builds one StepForm, of size h = dt /
    pieces and end weight w_end / pieces, with no carry; substep j's
    memory sum, from memory.StepLoad.off_grid, runs over the stored rows
    and the earlier substeps' g rows to the node position n pieces + j + 1
    in units of h, the last to (n + 1) dt itself.  Each substep writes
    that sum into out's conv, puts the form there and forms its accepted
    row in out by the one add of the whole step; each try starts from the
    stepper's factor.
    """
    n, m = s.n, s.basis.dim
    for pieces in (2, 4, 8):
        factor, sub = s._factor, np.empty((pieces, m))
        out[:] = z
        form = StepForm(s.params, s.grams, s.basis, s.dt / pieces, s._form.w_end / pieces)
        try:
            for j in range(pieces):
                if s.load is not None:
                    out[:m] = s.load.off_grid(s.g, n, sub[: j + 1], pieces)
                form.at(out)
                _, _, factor = _newton(form, out[3 * m :], factor)
                np.add(form.pred, form.inc, out)
                sub[j] = out[m : 2 * m]
        except DivergedError as exc:
            error = exc
            continue
        return factor
    state = s.state()
    raise DivergedError(f"step from t = {state.t} diverged even with 8 substeps: {error}", last_state=state)


def run(scenario, basis: Basis | None = None, grams: GramSet | None = None) -> Stepper:
    """Integrate a validated scenario from t = 0 to T; returns the finished Stepper.

    The scenario supplies the discretization, physics, and initial data
    (see the scenario module).  The loop is deterministic: no randomness
    anywhere.  It calls `step` once per step by its module name, so
    perfbench/tracing.py can count the steps.
    """
    if basis is None:
        basis = scenario.make_basis()
    if grams is None:
        grams = assemble_grams(basis)
    params = scenario.physical_params()
    g0, v0 = scenario.initial_coeffs(basis, grams)
    n_steps = step_count(scenario.dt, scenario.T)
    s = Stepper(params, grams, basis, g0, v0, scenario.dt, n_steps)
    for _ in range(n_steps):
        step(s)
    return s
