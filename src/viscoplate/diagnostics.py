"""Scalar functionals and inequality audits along simulated trajectories.

This module turns a finished run into numbers: the energy ledger and its
exact split into kinetic, elastic, mass, logarithmic and memory parts; the
discrete energy-rate identity and its residual; the logarithmic Sobolev
gap; potential-well constants and their trajectory certification; the
weighted Lyapunov functional; damping and memory tail diagnostics; and
least-squares fitting of decay envelopes against the measured energy.

Everything here is a pure function of immutable snapshots.  The memory
convolution series along a run are an O(N log N) FFT of the same product
trapezoid quadrature (see the memory module).  Conventions:

* norms come from Gram quadratic forms, pointwise integrands (powers of
  the velocity, u^2 ln|u|) from the shared quadrature rule;
* the fading-memory functional (b o Du)(t) uses the same product
  trapezoid rule as the integrator;
* the coefficient ``a`` of the logarithmic Sobolev inequality and the
  embedding constant ``cp`` are always passed in explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import memory
from .dynamics import HistoryBuffer, PhysicalParams, PlateState, Stepper
from .errors import DomainError, HypothesisError, InputError
from .kernels import (
    ConvexModulus,
    DecayEnvelope,
    RelaxationKernel,
    XiWeight,
    invert_increasing,
)
from .spectral import Basis, GramSet, sample_product

GAP_TOL = 1e-8
RATIO_FLOOR = 1e-14


# --- sample containers ---------------------------------------------------


@dataclass(frozen=True)
class EnergySample:
    """Energy ledger at one instant.

    kin_rho   velocity term  |u_t|^(rho+2) integral / (rho+2)
    bend      squared L2 norm of the Laplacian of u
    bend_rate same for u_t
    mass      squared L2 norm of u
    logterm   integral of u^2 ln|u|
    memory    fading-memory functional (b o Du)(t)
    E, J, I   total energy, potential part, Nehari-type functional
    """

    t: float
    kin_rho: float
    bend: float
    bend_rate: float
    mass: float
    logterm: float
    memory: float
    E: float
    J: float
    I: float


@dataclass(frozen=True)
class WellConstants:
    """Potential-well constants derived from (k, a, cp, l)."""

    a: float
    Q0: float
    rho_bar: float
    d: float
    d_positive: bool
    window: tuple
    window_nonempty: bool


@dataclass(frozen=True)
class WellReport:
    certified: bool
    reason: str | None
    violations: list
    first_violation_time: float | None
    passed: bool
    e0: float
    u0_norm: float


@dataclass(frozen=True)
class LyapunovReport:
    """L = N E + eps Psi1 + Psi2 per sample and its L/E bounds over E > RATIO_FLOOR."""

    L: np.ndarray
    ratio_min: float | None
    ratio_max: float | None
    N: float
    eps: float


@dataclass(frozen=True)
class DampingDiagnostics:
    """Near-origin damping average G, memory tail M, total dissipation.

    omega1_fraction is the quadrature measure of Omega1 = {|u_t| <= eps}
    over |Omega|; both are summed the same way, so it is exactly 1 when
    every quadrature point lies in Omega1 (a state at rest).
    """

    t: float
    G: float
    M: float
    dissipation: float
    omega1_fraction: float
    omega1_empty: bool
    tail_lhs: float | None = None
    tail_rhs: float | None = None
    tail_ok: bool | None = None


@dataclass(frozen=True)
class FitReport:
    c: float
    overshoot: float
    exponent: float
    n_samples: int
    window: tuple
    skipped: bool


@dataclass(frozen=True)
class SeriesBundle:
    """Vectorized per-sample diagnostics for a whole trajectory."""

    times: np.ndarray
    kin_rho: np.ndarray
    bend: np.ndarray
    bend_rate: np.ndarray
    mass: np.ndarray
    logterm: np.ndarray
    memory: np.ndarray
    memory_deriv: np.ndarray
    E: np.ndarray
    J: np.ndarray
    I: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    dissipation: np.ndarray
    damping_avg: np.ndarray
    rate: np.ndarray
    rate_residual: np.ndarray
    memory_tail: np.ndarray | None


# --- quadrature helpers --------------------------------------------------


def _log_integrand(uq: np.ndarray) -> np.ndarray:
    safe = np.where(uq == 0.0, 1.0, np.abs(uq))
    return np.where(uq == 0.0, 0.0, uq * uq * np.log(safe))


def _coeffs_of(state) -> np.ndarray:
    return state.g if isinstance(state, PlateState) else np.asarray(state, dtype=float)


# --- energy --------------------------------------------------------------


def energy(
    state: PlateState,
    params: PhysicalParams,
    grams: GramSet,
    basis: Basis,
    history: HistoryBuffer | None = None,
) -> EnergySample:
    """Energy ledger at a single state; memory term needs the history."""
    uq = state.g @ basis.phi
    vq = state.v @ basis.phi
    kin = float(basis.qw @ np.abs(vq) ** (params.rho + 2.0)) / (params.rho + 2.0)
    bend = float(state.g @ (grams.M2 @ state.g))
    bend_rate = float(state.v @ (grams.M2 @ state.v))
    mass = float(state.g @ (grams.M0 @ state.g))
    logterm = float(basis.qw @ _log_integrand(uq))
    mem = 0.0
    if history is not None and not params.kernel.is_zero:
        wts, rows = history.weights(state.t, params.kernel.value)
        diffs = rows - state.g
        mem = float(wts @ np.einsum("ij,ij->i", diffs @ grams.M2, diffs))
    bint = float(params.kernel.integral_to(state.t))
    I = (1.0 - bint) * bend + bend_rate + mass + mem - params.k * logterm
    J = 0.5 * I + 0.25 * params.k * mass
    return EnergySample(
        t=state.t, kin_rho=kin, bend=bend, bend_rate=bend_rate, mass=mass,
        logterm=logterm, memory=mem, E=kin + J, J=J, I=I,
    )


def analyze(trajectory: Stepper, t1: float | None = None) -> SeriesBundle:
    """All per-sample diagnostics of a run in one vectorized pass.

    The samples are the rows 0 .. len - 1 of the stepper, the run so far.
    t1, when given, additionally produces the truncated memory tail
    M(t) = -int_{t1}^{t} b'(lag) |D u(t) - D u(t - lag)|^2 dlag with t1
    snapped to the sample grid.  The memory functional, its b' form and
    the tail come from one memory.series call over the g M2 rows and the
    bending formed here, so the history is transformed once.
    """
    params = trajectory.params
    basis = trajectory.basis
    grams = trajectory.grams
    rows = len(trajectory)
    times = trajectory.times[:rows]
    G, V = trajectory.g[:rows], trajectory.v[:rows]
    dt = trajectory.dt
    rho, k = params.rho, params.k

    UQ = sample_product(G, basis.phi)
    VQ = sample_product(V, basis.phi)
    qw = basis.qw
    kin = (qw * np.abs(VQ) ** (rho + 2.0)).sum(axis=1) / (rho + 2.0)
    GM2 = sample_product(G, grams.M2)
    VM2 = sample_product(V, grams.M2)
    bend = np.einsum("ij,ij->i", GM2, G)
    bend_rate = np.einsum("ij,ij->i", VM2, V)
    mass = np.einsum("ij,ij->i", sample_product(G, grams.M0), G)
    logterm = (qw * _log_integrand(UQ)).sum(axis=1)

    b, db = params.kernel.value, params.kernel.deriv
    terms = [(b, 0.0), (db, 0.0)] + ([] if t1 is None else [(db, t1)])
    # keep the derivative's and the tail's scal alone, so their C and Bw,
    # views of whole transform outputs, are freed before the (samples x
    # points) products below
    (mem, C, Bw), *rest = memory.series(G, GM2, bend, dt, terms)
    memp, tail = rest[0][0], (-rest[1][0] if t1 is not None else None)
    del rest

    bint = np.asarray(params.kernel.integral_to(times), dtype=float)
    I = (1.0 - bint) * bend + bend_rate + mass + mem - k * logterm
    J = 0.5 * I + 0.25 * k * mass
    E = kin + J

    # weighted functionals
    srho = np.abs(VQ) ** rho * VQ if rho != 0.0 else VQ
    psi1 = (qw * (srho * UQ)).sum(axis=1) / (rho + 1.0) + np.einsum("ij,ij->i", GM2, V)
    convvec = Bw[:, None] * G - C
    psi2 = -(
        np.einsum("ij,ij->i", VM2, convvec)
        + (qw * (srho * sample_product(convvec, basis.phi))).sum(axis=1) / (rho + 1.0)
    )

    if params.damping.is_none:
        diss = np.zeros(len(times))
        damping_avg = np.zeros(len(times))
    else:
        HVQ = params.damping.h(VQ)
        diss = (qw * (VQ * HVQ)).sum(axis=1)
        inside = np.abs(VQ) <= params.damping.eps
        measure = (qw * inside).sum(axis=1)
        num = (qw * inside * (VQ * HVQ)).sum(axis=1)
        damping_avg = np.where(measure > 0.0, num / np.where(measure > 0.0, measure, 1.0), 0.0)

    bt = np.asarray(params.kernel.value(times), dtype=float)
    rate = 0.5 * memp - 0.5 * bt * bend - diss
    # central-difference dE/dt minus the rate identity; nan at both ends
    rate_residual = np.full(len(times), np.nan)
    if len(times) >= 3:
        rate_residual[1:-1] = (E[2:] - E[:-2]) / (2.0 * dt) - rate[1:-1]

    return SeriesBundle(
        times=times, kin_rho=kin, bend=bend, bend_rate=bend_rate, mass=mass,
        logterm=logterm, memory=mem, memory_deriv=memp, E=E, J=J, I=I, psi1=psi1,
        psi2=psi2, dissipation=diss, damping_avg=damping_avg, rate=rate,
        rate_residual=rate_residual, memory_tail=tail,
    )


def zero_crossings(trajectory: Stepper) -> np.ndarray:
    """Instants at which u changes sign at a quadrature node, ascending,
    over the rows 0 .. len - 1 of the stepper.

    The source k u ln|u| is evaluated at the quadrature nodes and is not
    differentiable where u = 0.  Newmark's trapezoid rule integrates it
    across such a zero with an O(dt^2) velocity defect, so near these
    instants the central-difference rate residual is only first order.
    Each step with a sign change gives one instant: the mean over the
    changing nodes of the linearly interpolated zero.
    """
    uq = sample_product(trajectory.g[: len(trajectory)], trajectory.basis.phi)
    neg = uq < 0.0
    flips = neg[1:] != neg[:-1]
    steps = np.flatnonzero(flips.any(axis=1))
    times = trajectory.times
    out = np.empty(len(steps))
    for j, i in enumerate(steps):
        a, b = uq[i, flips[i]], uq[i + 1, flips[i]]
        out[j] = times[i] + (times[i + 1] - times[i]) * float(np.mean(a / (a - b)))
    return out


# --- logarithmic Sobolev -------------------------------------------------


def log_sobolev_gap(state, a: float, cp: float, basis: Basis) -> float:
    """RHS minus LHS of the logarithmic Sobolev bound; >= 0 up to quadrature.

    Accepts a full state or a bare coefficient vector.
    """
    if a <= 0:
        raise InputError("log-Sobolev coefficient a must be positive")
    g = _coeffs_of(state)
    uq = g @ basis.phi
    lap = g @ basis.lap
    m = float(basis.qw @ (uq * uq))
    if m == 0.0:
        return 0.0
    bend = float(basis.qw @ (lap * lap))
    lhs = float(basis.qw @ _log_integrand(uq))
    rhs = 0.5 * m * math.log(m) + (cp * a * a / (2.0 * math.pi)) * bend - (1.0 + math.log(a)) * m
    return rhs - lhs


def log_sobolev_series(bundle: SeriesBundle, a: float, cp: float) -> np.ndarray:
    """log_sobolev_gap at every sample of the run, from the bundle's series."""
    if a <= 0:
        raise InputError("log-Sobolev coefficient a must be positive")
    m = bundle.mass
    safe_m = np.where(m > 0.0, m, 1.0)
    return np.where(
        m > 0.0,
        0.5 * m * np.log(safe_m) + (cp * a**2 / (2.0 * math.pi)) * bundle.bend
        - (1.0 + math.log(a)) * m - bundle.logterm,
        0.0,
    )


def s_log_constant(eps0: float) -> float:
    """Best constant d with s|ln s| <= s^2 + d s^(1-eps0) for s > 0.

    d is the maximum of F(s) = s^eps0 (-ln s - s); for s >= 1, s ln s < s^2.
    The sign of F' is that of -eps0 ln s - (1+eps0) s - 1, which strictly
    decreases, so the peak is the root u = ln s of eps0 u + (1+eps0) e^u = -1,
    bracketed by [-1/eps0 - 1, 0].
    """
    if not 0.0 < eps0 < 1.0:
        raise DomainError("eps0 must lie in (0, 1)")
    u = invert_increasing(lambda u: eps0 * u + (1.0 + eps0) * np.exp(u), -1.0, -1.0 / eps0 - 1.0, 0.0)
    return max(math.exp(eps0 * u) * (-u - math.exp(u)), 0.0)


# --- potential well ------------------------------------------------------


def log_source_bound(params: PhysicalParams, cp: float) -> float:
    """k0 = 2 pi l e^3 / cp; the well argument needs the source k < k0 (H4)."""
    return 2.0 * math.pi * params.kernel.l * math.e**3 / cp


def well_constants(params: PhysicalParams, cp: float, a: float | None = None) -> WellConstants:
    """Constants (Q0, rho_bar, d) of the potential-well argument.

    a defaults to the midpoint of the admissible window
    (e^{-3/2}, sqrt(2 pi l / (k cp))); pass a explicitly to override.
    """
    k = params.k
    if k <= 0:
        raise InputError("well constants need k > 0")
    if cp <= 0:
        raise InputError("cp must be positive")
    l = params.kernel.l
    k0 = log_source_bound(params, cp)
    if k >= k0:
        raise HypothesisError(f"k = {k} violates the smallness bound k < k0 = {k0:.6g}")
    lo = math.exp(-1.5)
    hi = math.sqrt(2.0 * math.pi * l / (k * cp))
    nonempty = hi > lo
    if a is None:
        a = 0.5 * (lo + hi) if nonempty else lo
    if a <= 0:
        raise InputError("a must be positive")
    Q0 = 0.5 * (k + 2.0) + k * (1.0 + math.log(a))
    rho_bar = math.exp((2.0 * Q0 - k) / k)
    d = 0.5 * Q0 * rho_bar**2 - 0.25 * k * rho_bar**2 * math.log(rho_bar**2)
    return WellConstants(
        a=a, Q0=Q0, rho_bar=rho_bar, d=d, d_positive=d > 0.0,
        window=(lo, hi), window_nonempty=nonempty,
    )


def check_well(bundle: SeriesBundle, wc: WellConstants) -> WellReport:
    """Certify the stay-in-the-well bounds along an analyzed run.

    Preconditions: |u0| < rho_bar and 0 < E(0) < d.  When they hold, every
    sample must satisfy |u| < rho_bar, I > 0, the kinetic bound
    kin_rho <= E(0) and |D u_t|^2 <= 2 E(0).
    """
    e0 = float(bundle.E[0])
    u0 = math.sqrt(max(float(bundle.mass[0]), 0.0))
    reason = None
    if not u0 < wc.rho_bar:
        reason = "initial L2 norm not below rho_bar"
    elif not 0.0 < e0 < wc.d:
        reason = "initial energy not inside (0, d)"
    if reason is not None:
        return WellReport(False, reason, [], None, False, e0, u0)
    held = np.column_stack([
        bundle.mass < wc.rho_bar**2,
        bundle.I > 0.0,
        bundle.kin_rho <= e0,
        bundle.bend_rate <= 2.0 * e0,
    ])
    rows, cols = np.nonzero(~held)  # row-major: by time, then condition
    names = ("mass", "nehari", "kinetic", "bend_rate")
    violations = [(float(bundle.times[i]), names[j]) for i, j in zip(rows, cols)]
    first = violations[0][0] if violations else None
    return WellReport(True, None, violations, first, not violations, e0, u0)


# --- Lyapunov functionals ------------------------------------------------


def psi1(state: PlateState, params: PhysicalParams, grams: GramSet, basis: Basis) -> float:
    uq = state.g @ basis.phi
    vq = state.v @ basis.phi
    srho = np.abs(vq) ** params.rho * vq if params.rho != 0.0 else vq
    term1 = float(basis.qw @ (srho * uq)) / (params.rho + 1.0)
    return term1 + float(state.g @ (grams.M2 @ state.v))


def psi2(
    state: PlateState,
    params: PhysicalParams,
    grams: GramSet,
    basis: Basis,
    history: HistoryBuffer,
) -> float:
    """Weighted cross term against the memory convolution (weak form)."""
    wts, rows = history.weights(state.t, params.kernel.value)
    conv = wts.sum() * state.g - wts @ rows
    vq = state.v @ basis.phi
    srho = np.abs(vq) ** params.rho * vq if params.rho != 0.0 else vq
    term1 = float(state.v @ (grams.M2 @ conv))
    term2 = float(basis.qw @ (srho * (conv @ basis.phi))) / (params.rho + 1.0)
    return -(term1 + term2)


def lyapunov_series(bundle: SeriesBundle, N: float, eps: float) -> LyapunovReport:
    """L = N E + eps Psi1 + Psi2 per sample, with L/E ratio bounds."""
    if N <= 0 or eps <= 0:
        raise InputError("Lyapunov weights must be positive")
    L = N * bundle.E + eps * bundle.psi1 + bundle.psi2
    sel = bundle.E > RATIO_FLOOR
    if not np.any(sel):
        return LyapunovReport(L, None, None, N, eps)
    ratios = L[sel] / bundle.E[sel]
    return LyapunovReport(L, float(ratios.min()), float(ratios.max()), N, eps)


def find_lyapunov_N(bundle: SeriesBundle, eps: float) -> LyapunovReport | None:
    """lyapunov_series at the smallest N in 2^0 .. 2^10 with a positive ratio_min.

    None when no sample has E > RATIO_FLOOR (a run at rest has no ratio to bound).
    """
    for k in range(11):
        rep = lyapunov_series(bundle, 2.0**k, eps)
        if rep.ratio_min is None:
            return None
        if rep.ratio_min > 0.0:
            return rep
    raise DomainError("no N up to 2^10 gives a positive Lyapunov ratio")


# --- memory inequalities -------------------------------------------------


def memory_cs_check(
    state: PlateState, history: HistoryBuffer, kernel: RelaxationKernel, grams: GramSet
) -> tuple:
    """Cauchy-Schwarz gaps for the memory convolution (b and -b' weights).

    Returns (gap_b, gap_db); both must be >= -1e-10.
    """
    wb, rows = history.weights(state.t, kernel.value)
    wdb = history.weights(state.t, kernel.deriv)[0]
    diffs = state.g - rows
    q = np.einsum("ij,ij->i", diffs @ grams.M2, diffs)
    out = []
    for wts, const in ((wb, 1.0 - kernel.l), (-wdb, kernel.value(0.0))):
        conv = wts @ diffs
        lhs = float(conv @ (grams.M2 @ conv))
        out.append(const * float(wts @ q) - lhs)
    return tuple(out)


def damping_diag(
    state: PlateState,
    params: PhysicalParams,
    basis: Basis,
    history: HistoryBuffer,
    t1: float,
    delta: float = 0.5,
    modulus: ConvexModulus | None = None,
    xi: XiWeight | None = None,
) -> DampingDiagnostics:
    """Damping average near the origin and the truncated memory tail.

    The tail M integrates -b'(lag) against squared Laplacian differences
    for lags in [t1, t]; with a modulus and weight given, the convexity
    tail bound (t-t1)/delta * Binv(delta M / ((t-t1) xi(t))) is evaluated
    and compared against the same integral weighted by b itself.  The lags
    start at the memory.first_lag of t1, as analyze's memory_tail does.
    """
    t = state.t
    if not t1 < t:
        raise InputError("t1 must precede the state time")
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    qw = basis.qw
    vq = state.v @ basis.phi
    damping = params.damping
    if damping.is_none:
        diss, Gval, frac, empty = 0.0, 0.0, 0.0, True
    else:
        hv = damping.h(vq)
        diss = float(qw @ (vq * hv))
        inside = np.abs(vq) <= damping.eps
        measure = float(qw[inside].sum())
        empty = measure == 0.0
        frac = min(measure / float(qw.sum()), 1.0)
        Gval = 0.0 if empty else float((qw * inside) @ (vq * hv)) / measure

    M = 0.0
    tail_lhs = tail_rhs = tail_ok = None
    kernel = params.kernel
    if not kernel.is_zero and len(history) > 1:
        wdb, rows = history.weights(t, kernel.deriv, lag_min=t1)
        if len(rows) >= 2:
            lap_t = state.g @ basis.lap
            q = ((rows @ basis.lap - lap_t) ** 2) @ qw
            M = float(-wdb @ q)
            tail_lhs = float(history.weights(t, kernel.value, lag_min=t1)[0] @ q)
            if modulus is not None and xi is not None:
                span = t - t1
                xival = float(xi.value(t))
                tail_rhs = span / delta * float(modulus.inverse(delta * M / (span * xival)))
                tail_ok = tail_rhs >= tail_lhs - 1e-10
    return DampingDiagnostics(
        t=t, G=Gval, M=M, dissipation=diss, omega1_fraction=frac, omega1_empty=empty,
        tail_lhs=tail_lhs, tail_rhs=tail_rhs, tail_ok=tail_ok,
    )


# --- decay fitting -------------------------------------------------------


def fit_decay(source, envelope: DecayEnvelope, start: float | None = None) -> FitReport:
    """Fit the single constant c so that E(t) <= c env(t) on the tail.

    source is a (times, energies) pair, e.g. (bundle.times, bundle.E).
    c is the supremum of E/env over the window, so the overshoot of E
    against c env is zero by construction up to roundoff.  The exponent
    field is the log-linear regression slope of E over the window
    (meaningful for exponential-type decay).
    """
    times, E = source
    times = np.asarray(times, dtype=float)
    E = np.asarray(E, dtype=float)
    if np.all(E == 0.0):
        return FitReport(math.nan, math.nan, math.nan, 0, (math.nan, math.nan), True)
    if start is None:
        start = max(envelope.validity_start, 0.5 * times[-1])
    sel = (times > envelope.validity_start) & (times >= start - 1e-12) & (E > 0.0)
    if sel.sum() < 50:
        raise InputError("need at least 50 positive-energy samples past the window start")
    ts = times[sel]
    Es = E[sel]
    env = envelope(ts)
    ratios = Es / env
    c = float(ratios.max())
    overshoot = float((ratios / c - 1.0).max())
    slope = np.polyfit(ts, np.log(Es), 1)[0]
    return FitReport(
        c=c, overshoot=overshoot, exponent=float(-slope),
        n_samples=int(sel.sum()), window=(float(ts[0]), float(ts[-1])), skipped=False,
    )
