"""Memory kernels, damping laws, and decay-envelope machinery.

The fading-memory kernel b(t) weights past bending states of the plate.
Admissible kernels are nonincreasing with b(0) > 0 and integral deficit
l = 1 - int_0^inf b > 0, and they obey a differential decay law

    b'(t) <= -xi(t) * B(b(t))

for a nonincreasing positive weight xi and a convexity modulus B that is
either linear or strictly convex with B(0) = B'(0) = 0.  The frictional
damping h(s) is nondecreasing with a profile h1 near the origin whose
convexifier H(s) = sqrt(s) * h1(sqrt(s)) drives the nonlinear decay rates.

This module represents the families that the catalog spec strings build
(exponential and power kernels, constant and rational weights, linear and
power moduli, linear and cubic damping), validates the admissibility
conditions on grids, continues power moduli past their domain edge,
computes convex conjugates, and builds the explicit energy-decay envelope
curves implied by the decay law.  Moduli, weights, origin profiles,
conjugates and envelopes evaluate arrays elementwise.  Moduli, their
derivatives and origin profiles invert in closed form, so a convex
conjugate is closed form too; the two nonlinear envelopes share one solver,
a bisection over all their points between given brackets (the upper one from
convexity: B'(r) >= B(r)/r for a convex B with B(0) = 0), which stops an
element at width 1e-12 * min(1, |hi|), or once its midpoint can no longer
split its bracket (adjacent floats), or after 200 halvings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import DomainError, InputError

INVERSION_TOL = 1e-12
INVERSION_MAX_ITER = 200
CURVATURE_FLOOR = 1e-8  # strict-convexity floor for modulus continuations
_REL_TOL = 1e-12


def _vector(x) -> np.ndarray:
    """x as a float array with at least one axis.  numpy's scalar pow and log
    differ in the last bit from its array kernels, so scalars take the array path."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def _result(out: np.ndarray, *inputs):
    """out as a Python float when every input is a scalar; else the array."""
    return float(out[0]) if all(np.ndim(x) == 0 for x in inputs) else out


def _targets(y: np.ndarray, extreme=np.max) -> str:
    """y in an error message: the one target, or how many and the extreme one."""
    return f"target {float(y[0])!r}" if y.size == 1 else f"{y.size} targets, {extreme.__name__} {float(extreme(y))!r}"


def invert_increasing(f, y, lo, hi):
    """Solve f(s) = y elementwise by bisection, for an increasing elementwise f.

    For maps without a closed-form inverse: the nonlinear envelopes, the beam
    roots and the peak of the s-log bound.  y is a scalar or an array of
    targets; lo and hi broadcast against it and must bracket every target,
    f(lo) <= y <= f(hi), which is checked: overflow in f reads as +inf, and a
    target outside the bracket raises DomainError.  Each element is halved
    until its bracket is at most INVERSION_TOL * min(1, |hi|) wide (absolute
    for roots of magnitude 1 or more, relative below) or its midpoint no
    longer lies strictly inside it (lo and hi adjacent floats, which halving
    would not move again: a root past 2**13 = 8192 has an ulp above 1e-12),
    then frozen, so its root has the bits of a scalar bisection.
    """
    target, y, lo = y, _vector(y), _vector(lo)
    if not np.isfinite(y).all():
        raise DomainError(f"cannot invert at non-finite {_targets(y[~np.isfinite(y)])}")
    with np.errstate(over="ignore"):
        if not (f(hi) >= y).all():  # a nan fails too
            raise DomainError(f"{_targets(y)} above f(hi)")
        if (f(lo) > y).any():
            raise DomainError(f"{_targets(y, np.min)} below f(lo)")
        active = np.ones(y.shape, dtype=bool)
        for _ in range(INVERSION_MAX_ITER):
            mid = 0.5 * (lo + hi)
            below = f(mid) < y
            active &= (lo < mid) & (mid < hi)  # a bracket of adjacent floats is final
            lo = np.where(active & below, mid, lo)
            hi = np.where(active & ~below, mid, hi)
            active &= hi - lo > INVERSION_TOL * np.minimum(1.0, np.abs(hi))
            if not active.any():
                break
    return _result(0.5 * (lo + hi), target)


# ---------------------------------------------------------------------------
# Relaxation kernels


@dataclass(frozen=True, eq=False)
class RelaxationKernel:
    """Fading-memory kernel b(t) with its integral deficit l.

    Families: exponential b0*exp(-rate*t), power b0*(1+t)^(-q) with q > 1,
    and the degenerate zero kernel used for memory-free runs.
    """

    family: str
    b0: float = 0.0
    rate: float = 0.0
    q: float = 0.0

    @classmethod
    def exponential(cls, b0: float, rate: float) -> "RelaxationKernel":
        if b0 <= 0 or rate <= 0:
            raise InputError("exponential kernel needs b0 > 0 and rate > 0")
        return cls("exponential", b0=float(b0), rate=float(rate))

    @classmethod
    def power_law(cls, b0: float, q: float) -> "RelaxationKernel":
        # q <= 1 is not integrable on (0, inf); refuse outright.
        if b0 <= 0:
            raise InputError("power kernel needs b0 > 0")
        if q <= 1:
            raise InputError(f"power kernel exponent must exceed 1, got {q}")
        if not (q + 1.0) / q > 1.0:  # q above about 9e15: natural_modulus needs it above 1
            raise InputError(f"power kernel exponent {q} too large: its modulus power (q + 1)/q rounds to 1")
        return cls("power", b0=float(b0), q=float(q))

    @classmethod
    def zero(cls) -> "RelaxationKernel":
        return cls("zero")

    @property
    def is_zero(self) -> bool:
        return self.family == "zero"

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "exponential":
            return self.b0 * np.exp(-self.rate * t)
        if self.family == "power":
            return self.b0 * (1.0 + t) ** (-self.q)
        return np.zeros_like(t)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "exponential":
            return -self.rate * self.value(t)
        if self.family == "power":
            return -self.q * self.b0 * (1.0 + t) ** (-self.q - 1.0)
        return np.zeros_like(t)

    def integral_to(self, t):
        """Running integral of b from 0 to t."""
        t = np.asarray(t, dtype=float)
        if self.family == "exponential":
            return (self.b0 / self.rate) * (1.0 - np.exp(-self.rate * t))
        if self.family == "power":
            return self.b0 / (self.q - 1.0) * (1.0 - (1.0 + t) ** (1.0 - self.q))
        return np.zeros_like(t)

    @property
    def total_integral(self) -> float:
        return float(self.integral_to(np.inf))

    @property
    def l(self) -> float:
        """Residual stiffness fraction 1 - int_0^inf b."""
        return 1.0 - self.total_integral

    def natural_modulus(self) -> "ConvexModulus | None":
        """Modulus B making the decay law an identity, if the family has one."""
        if self.family == "exponential":
            return ConvexModulus.linear(1.0, r1=self.b0)
        if self.family == "power":
            return ConvexModulus.power((self.q + 1.0) / self.q, r1=self.b0)
        return None

    def natural_xi(self) -> "XiWeight | None":
        """Weight xi making the decay law an identity, if the family has one."""
        if self.family == "exponential":
            return XiWeight.constant(self.rate)
        if self.family == "power":
            return XiWeight.constant(self.q * self.b0 ** (-1.0 / self.q))
        return None


# ---------------------------------------------------------------------------
# Convexity moduli


@dataclass(frozen=True, eq=False)
class ConvexModulus:
    """Convexity modulus B on (0, r1], continued past r1.

    Forms: linear slope*s or power coef*s**p with p > 1, r1 > 0.
    Past r1 a power modulus continues quadratically as B(r1) + B'(r1)(s-r1)
    + 0.5*max(B''(r1), CURVATURE_FLOOR)(s-r1)^2, which matches value and
    slope at r1 and stays strictly convex.  The continuation is formed on
    first use past r1; a B''(r1) that is not finite raises DomainError there.
    """

    form: str
    slope: float = 1.0
    coef: float = 1.0
    p: float = 2.0
    r1: float = 1.0

    def __post_init__(self):
        if not self.r1 > 0:
            raise InputError(f"modulus domain edge r1 must be positive, got {self.r1}")

    @classmethod
    def linear(cls, slope: float, r1: float = 1.0) -> "ConvexModulus":
        if slope <= 0:
            raise InputError("linear modulus needs positive slope")
        return cls("linear", slope=float(slope), r1=float(r1))

    @classmethod
    def power(cls, p: float, coef: float = 1.0, r1: float = 1.0) -> "ConvexModulus":
        if p <= 1 or coef <= 0:
            raise InputError("power modulus needs p > 1 and coef > 0")
        return cls("power", coef=float(coef), p=float(p), r1=float(r1))

    @property
    def is_linear(self) -> bool:
        return self.form == "linear"

    @cached_property
    def _edge(self) -> tuple:
        """B(r1), B'(r1), B''(r1) of a power modulus."""
        return tuple(self._eval(self.r1, order) for order in range(3))

    @cached_property
    def continuation(self) -> tuple:
        """(B(r1), B'(r1), curvature) of a power modulus's continuation past r1."""
        v1, d1, d2 = self._edge
        if not np.isfinite(d2):
            raise DomainError("modulus second derivative not finite at r1")
        return v1, d1, max(d2, CURVATURE_FLOOR)

    def _eval(self, x, order):
        """B (order 0), B' (1) or B'' (2) elementwise; a scalar gives a float."""
        s = _vector(x)
        if self.is_linear:
            return _result((self.slope * s, np.full_like(s, self.slope), np.zeros_like(s))[order], x)
        c, p = self.coef, self.p
        # s**(p - 2) divides at s = 0, and far past r1 the unselected power form overflows
        with np.errstate(over="ignore", divide="ignore"):
            out = (c, c * p, c * p * (p - 1.0))[order] * s ** (p - order)
        inside = s <= self.r1 * (1.0 + _REL_TOL)
        if not inside.all():
            v1, d1, kap = self.continuation
            ds = s - self.r1
            out = np.where(inside, out, (v1 + d1 * ds + 0.5 * kap * ds * ds, d1 + kap * ds, kap)[order])
        return _result(out, x)

    def value(self, s):
        return self._eval(s, 0)

    def deriv(self, s):
        return self._eval(s, 1)

    def _invert(self, y, order):
        """Inverse of B (order 0) or B' (order 1) elementwise in closed form."""
        target, y = y, _vector(y)
        if self.is_linear:
            if order:
                raise DomainError("derivative of a linear modulus is not invertible")
            return _result(y / self.slope, target)
        c, p = self.coef, self.p
        with np.errstate(over="ignore"):  # far past B'(r1) the unselected power form overflows
            out = (np.maximum(y, 0.0) / (c, c * p)[order]) ** (1.0 / (p - order))  # 0 for y <= 0
        above = y > self._edge[order] * (1.0 + _REL_TOL)
        if above.any():
            v1, d1, kap = self.continuation
            if order:
                beyond = self.r1 + (y - d1) / kap
            else:
                # y >= v1 wherever the continuation is selected
                beyond = self.r1 + (np.sqrt(d1 * d1 + 2.0 * kap * (np.maximum(y, v1) - v1)) - d1) / kap
            out = np.where(above, beyond, out)
        return _result(out, target)

    def inverse(self, y):
        """Inverse of B elementwise in closed form (linear, power, or the continuation)."""
        return self._invert(y, 0)

    def deriv_inverse(self, y):
        """Inverse of B' elementwise in closed form (power or the continuation)."""
        return self._invert(y, 1)


def convex_conjugate(K: ConvexModulus, tau, r: float | None = None):
    """Convex conjugate K*(tau) = tau*s - K(s) at s = (K')^{-1}(tau), elementwise.

    Valid for tau in (0, K'(r)); a scalar tau gives a float.
    """
    if r is None:
        r = K.r1
    t = _vector(tau)
    klim = K.deriv(r)
    if not ((0.0 < t) & (t < klim)).all():
        raise DomainError(f"conjugate argument {tau} outside (0, {klim})")
    s_star = K.deriv_inverse(t)
    return _result(t * s_star - K.value(s_star), tau)


# ---------------------------------------------------------------------------
# Decay weights


@dataclass(frozen=True, eq=False)
class XiWeight:
    """Nonincreasing positive weight xi(t) in the kernel decay law."""

    form: str
    xi0: float = 1.0
    theta: float = 1.0

    @classmethod
    def constant(cls, xi0: float) -> "XiWeight":
        if xi0 <= 0:
            raise InputError("constant weight must be positive")
        return cls("constant", xi0=float(xi0))

    @classmethod
    def rational(cls, theta: float, xi0: float = 1.0) -> "XiWeight":
        if not 0 < theta <= 1:
            raise InputError("rational weight exponent must lie in (0, 1]")
        if xi0 <= 0:
            raise InputError("rational weight must be positive")
        return cls("rational", xi0=float(xi0), theta=float(theta))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.form == "constant":
            return np.full_like(t, self.xi0)
        return self.xi0 * (1.0 + t) ** (-self.theta)

    def integral_power(self, t0, t, power: float = 1.0):
        """int_{t0}^{t} xi(s)**power ds elementwise in closed form."""
        lo, hi = _vector(t0), _vector(t)
        if (hi < lo).any():
            raise DomainError("integral upper limit below lower limit")
        mu = self.theta * power
        scale = self.xi0**power
        if self.form == "constant":
            out = scale * (hi - lo)
        elif abs(mu - 1.0) < 1e-14:
            out = scale * np.log((1.0 + hi) / (1.0 + lo))
        else:
            out = scale * ((1.0 + hi) ** (1.0 - mu) - (1.0 + lo) ** (1.0 - mu)) / (1.0 - mu)
        return _result(out, t0, t)


# ---------------------------------------------------------------------------
# Damping laws


@dataclass(frozen=True, eq=False)
class DampingLaw:
    """Frictional damping h(s): nondecreasing, h(0)=0, linearly bounded at infinity.

    Near the origin h follows the profile h1; for the origin-power form
    h(s) = |s|^(p-1) s on |s| <= eps, spliced to the tangent line beyond.
    The convexifier H(s) = sqrt(s) h1(sqrt(s)) is exposed as a ConvexModulus.
    """

    form: str
    c: float = 1.0
    p: float = 3.0
    eps: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    r2: float = 1.0

    @classmethod
    def linear(cls, c: float, eps: float = 1.0) -> "DampingLaw":
        if c <= 0:
            raise InputError("linear damping needs positive coefficient")
        return cls("linear", c=float(c), eps=float(eps), c1=float(c), c2=float(c), r2=float(eps) ** 2)

    @classmethod
    def origin_power(cls, p: float, eps: float) -> "DampingLaw":
        if p <= 1 or not 0 < eps <= 1:
            raise InputError("origin-power damping needs p > 1 and eps in (0, 1]")
        c1 = eps ** (p - 1.0)
        return cls("origin_power", p=float(p), eps=float(eps), c1=c1, c2=p * c1, r2=float(eps) ** 2)

    @classmethod
    def none(cls) -> "DampingLaw":
        return cls("none", c=0.0, c1=0.0, c2=0.0)

    @property
    def is_none(self) -> bool:
        return self.form == "none"

    def h(self, s):
        s = np.asarray(s, dtype=float)
        if self.form == "linear":
            return self.c * s
        if self.form == "origin_power":
            a = np.abs(s)
            inner = a ** (self.p - 1.0) * s
            inside = a <= self.eps
            if np.logical_and.reduce(inside, axis=None):
                return inner
            outer = np.sign(s) * (self.eps**self.p + self.p * self.eps ** (self.p - 1.0) * (a - self.eps))
            return np.where(inside, inner, outer)
        return np.zeros_like(s)

    def h1(self, s):
        """Origin profile h1 on [0, eps] (sandwich function, h1 <= |h| near 0)."""
        s = np.asarray(s, dtype=float)
        if self.form == "linear":
            return min(self.c, 1.0 / self.c) * s
        if self.form == "origin_power":
            return s**self.p
        raise DomainError(f"damping form {self.form!r} has no origin profile")

    def h1_inverse(self, y):
        target, y = y, _vector(y)
        if self.form == "linear":
            return _result(y / min(self.c, 1.0 / self.c), target)
        if self.form == "origin_power":
            return _result(y ** (1.0 / self.p), target)
        raise DomainError(f"damping form {self.form!r} has no origin profile")

    @property
    def h1_is_linear(self) -> bool:
        return self.form == "linear"

    def convexifier(self) -> ConvexModulus:
        """H(s) = sqrt(s) * h1(sqrt(s)) as a modulus on (0, r2]."""
        if self.form == "linear":
            return ConvexModulus.linear(min(self.c, 1.0 / self.c), r1=self.r2)
        if self.form == "origin_power":
            return ConvexModulus.power((self.p + 1.0) / 2.0, r1=self.r2)
        raise DomainError(f"damping form {self.form!r} has no convexifier")


# ---------------------------------------------------------------------------
# Admissibility validation


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InputError("empty evaluation grid")
    if grid[0] != 0.0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
        raise InputError("grid must strictly increase starting at 0")
    return grid


def validate_h1(kernel: RelaxationKernel, grid) -> list[str]:
    """Violations of kernel positivity at 0, monotone decrease on the grid, and l > 0."""
    grid = _check_grid(grid)
    violations = []
    b = kernel.value(grid)
    b0 = float(kernel.value(np.asarray(0.0)))
    if b0 <= 0.0:
        violations.append("b(0) <= 0")
    tol = 1e-12 * max(b0, 1.0)
    inc = np.diff(b) > tol
    if np.any(inc):
        t_bad = grid[1:][inc][0]
        violations.append(f"increase detected near t = {t_bad:.6g}")
    l = kernel.l
    if l <= 0.0:
        violations.append(f"integral deficit l = {l:.6g} <= 0")
    return violations


def validate_h2(
    kernel: RelaxationKernel,
    modulus: ConvexModulus,
    xi: XiWeight,
    grid,
    rel_tol: float = 1e-12,
) -> list[str]:
    """Violations of the decay law b' <= -xi * B(b) pointwise on the grid."""
    grid = _check_grid(grid)
    b = kernel.value(grid)
    bmax = float(np.max(b))
    if bmax > modulus.r1 * (1.0 + _REL_TOL) and not modulus.is_linear:
        raise DomainError(f"kernel range max {bmax} exceeds modulus domain edge {modulus.r1}")
    db = kernel.deriv(grid)
    bound = -xi.value(grid) * modulus.value(b)
    scale = np.maximum(np.abs(db) + np.abs(bound), 1e-300)
    residual = (db - bound) / scale
    worst = float(np.max(residual))
    violations = []
    if worst > rel_tol:
        t_bad = grid[int(np.argmax(residual))]
        violations.append(f"decay law violated near t = {t_bad:.6g} (relative excess {worst:.3g})")
    return violations


def validate_h3(damping: DampingLaw, grid, rel_tol: float = 1e-10) -> list[str]:
    """Violations of damping monotonicity, sign, sandwich bounds, and convexifier convexity."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 3:
        raise InputError("damping grid needs at least 3 points")
    if abs(grid[0] + grid[-1]) > 1e-9 * max(abs(grid[-1]), 1.0):
        raise InputError("damping grid must be symmetric about 0")
    violations = []
    hv = damping.h(grid)
    if np.any(np.diff(hv) < -rel_tol):
        violations.append("h is not nondecreasing")
    prod = grid * hv
    nz = np.abs(grid) > 0
    if np.any(prod[nz] <= 0):
        violations.append("sign condition s*h(s) > 0 violated")
    h0 = float(damping.h(np.asarray(0.0)))
    if abs(h0) > rel_tol:
        violations.append("h(0) != 0")

    try:
        small = np.abs(grid[nz]) <= damping.eps
        s_small = np.abs(grid[nz][small])
        habs = np.abs(hv[nz][small])
        lo = damping.h1(s_small)
        hi = damping.h1_inverse(s_small)
        if np.any(habs < lo * (1.0 - 1e-9) - 1e-15):
            violations.append("lower sandwich h1(|s|) <= |h(s)| violated near origin")
        if np.any(habs > hi * (1.0 + 1e-9) + 1e-15):
            violations.append("upper sandwich |h(s)| <= h1^{-1}(|s|) violated near origin")
    except DomainError:
        pass  # the zero law has no origin profile to sandwich

    big = np.abs(grid) >= damping.eps
    if np.any(big):
        s_big = np.abs(grid[big])
        habs = np.abs(damping.h(grid[big]))
        if np.any(habs < damping.c1 * s_big * (1.0 - 1e-9) - 1e-15):
            violations.append("linear lower bound c1|s| <= |h(s)| violated")
        if np.any(habs > damping.c2 * s_big * (1.0 + 1e-9) + 1e-15):
            violations.append("linear upper bound |h(s)| <= c2|s| violated")

    if not damping.h1_is_linear and damping.form != "none":
        s = np.linspace(damping.r2 / 64.0, damping.r2, 65)
        Hv = damping.convexifier().value(s)
        second = Hv[2:] - 2.0 * Hv[1:-1] + Hv[:-2]
        if np.any(second <= 0):
            violations.append("convexifier H fails strict convexity on (0, r2]")
    return violations


# ---------------------------------------------------------------------------
# Decay envelopes


@dataclass(frozen=True, eq=False)
class DecayEnvelope:
    """Callable upper-bound curve for the energy, built from the decay law.

    Evaluation below `validity_start` raises DomainError.  The curve is
    positive on its validity domain; its multiplicative constant is meant to
    be fitted.
    """

    validity_start: float
    _eval: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        t_arr = _vector(t)
        if np.any(t_arr < self.validity_start - 1e-15):
            raise DomainError(
                f"envelope evaluated at t = {float(np.min(t_arr))} before validity start "
                f"{self.validity_start}"
            )
        return _result(self._eval(t_arr), t)


def check_decay_args(eps0: float, eps1: float | None, t0: float, linear: bool) -> None:
    """Refuse the decay-law parameters the envelopes cannot take: eps0 and
    eps1 (None where unused) must be positive, eps0 below 1 for a linear
    modulus, and the start t0 nonnegative."""
    if not eps0 > 0.0:
        raise DomainError(f"eps0 must be positive, got {eps0}")
    if linear and not eps0 < 1.0:
        raise DomainError(f"eps0 must lie in (0, 1) for a linear modulus, got {eps0}")
    if eps1 is not None and not eps1 > 0.0:
        raise DomainError(f"eps1 must be positive, got {eps1}")
    if not t0 >= 0.0:
        raise InputError(f"t0 must be >= 0, got {t0}")


def envelope_linear_B(xi: XiWeight, eps0: float, c: float, t0: float) -> DecayEnvelope:
    """Envelope c * (1 + int_{t0}^t xi^(1+eps0))^(-1/eps0) for linear moduli."""
    check_decay_args(eps0, None, t0, linear=True)
    if c <= 0:
        raise InputError("need c > 0")

    def _eval(t):
        acc = xi.integral_power(t0, t, 1.0 + eps0)
        return c * (1.0 + acc) ** (-1.0 / eps0)

    return DecayEnvelope(t0, _eval)


def _convex_envelope(xi, eps, eps1, c, c1, t0, t1, moduli) -> DecayEnvelope:
    """c tau W2^{-1}(c1 / (tau int_{t1}^t xi)) for strictly convex moduli, valid from t1.

    phi(y) sums Bbar^{-1}(y)^(1/(1+eps)) over the continued moduli, W = phi^{-1},
    tau = (t-t0)^(1/(1+eps)) and W2(s) = s W'(eps1 s).  At s = phi(y)/eps1,
    W2(s) = phi(y) / (eps1 phi'(y)) increases in y: one bisection in y finds the root.
    A convex modulus with B(0) = 0 has B'(r) >= B(r)/r, so W2 >= (1+eps) y/eps1: the bracket
    is twice eps1 target/(1+eps), a rounding margin for p -> 1, where this is an equality.
    """
    for m in moduli:  # formed now, so a modulus that cannot be continued fails the build
        m.continuation
    expo = 1.0 / (1.0 + eps)

    def W2_of_y(y):
        r = [m.inverse(y) for m in moduli]
        # r = 0 at y = 0, where W2 is 0 and the quotient is not used
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_p = expo * sum(ri ** (expo - 1.0) / m.deriv(ri) for ri, m in zip(r, moduli))
            return np.where(y > 0.0, sum(ri**expo for ri in r) / (eps1 * phi_p), 0.0)

    def _eval(t):
        acc = xi.integral_power(t1, t, 1.0)
        if np.any(acc <= 0.0):
            raise DomainError("weight integral vanishes on the evaluation window")
        tau = (t - t0) ** expo
        target = c1 / (tau * acc)
        y = invert_increasing(W2_of_y, target, 0.0, 2.0 * eps1 * target / (1.0 + eps))
        return c * tau * sum(m.inverse(y) ** expo for m in moduli) / eps1

    return DecayEnvelope(t1, _eval)


def envelope_nonlinear_B(
    xi: XiWeight,
    eps0: float,
    eps1: float,
    c: float,
    c1: float,
    t0: float,
    t1: float,
    modulus: ConvexModulus,
) -> DecayEnvelope:
    """Envelope for a strictly convex kernel modulus B, valid from t1.

    `_convex_envelope` of B alone, where W = phi^{-1} is u -> Bbar(u^(1+eps0)).
    """
    if modulus.is_linear:
        raise InputError("nonlinear-modulus envelope needs a strictly convex modulus")
    check_decay_args(eps0, eps1, t0, linear=False)
    if not t1 > t0:
        raise InputError("need t1 > t0")
    return _convex_envelope(xi, eps0, eps1, c, c1, t0, t1, (modulus,))


def envelope_nonlinear_both(
    xi: XiWeight,
    eps: float,
    eps1: float,
    c: float,
    t0: float,
    modulusB: ConvexModulus,
    dampingH: ConvexModulus,
) -> DecayEnvelope:
    """Envelope when kernel modulus and damping convexifier are both nonlinear.

    `_convex_envelope` of B and H, with c1 = c and t1 = t0.
    """
    if modulusB.is_linear or dampingH.is_linear:
        raise InputError("both moduli must be strictly convex for this envelope")
    check_decay_args(eps, eps1, t0, linear=False)
    return _convex_envelope(xi, eps, eps1, c, c, t0, t0, (modulusB, dampingH))


# ---------------------------------------------------------------------------
# Catalog spec strings


def split_top(text: str, sep: str) -> list[str]:
    """text split at each sep outside parentheses, every part stripped."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def call_args(spec: str, name: str, count: tuple) -> list[str] | None:
    """The stripped arguments of spec written as name(a, ...), None if spec is no such call.

    An empty argument, or a number of arguments not in count, is an InputError.
    """
    if not (spec.startswith(name + "(") and spec.endswith(")")):
        return None
    args = [p.strip() for p in spec[len(name) + 1 : -1].split(",")]
    if "" in args:
        raise InputError(f"empty argument in {spec!r}")
    if len(args) not in count:
        raise InputError(f"{name!r} expects {' or '.join(map(str, count))} arguments, got {len(args)}")
    return args


def _numbers(spec: str, name: str, count: tuple) -> list[float] | None:
    """call_args as finite floats."""
    args = call_args(spec, name, count)
    if args is None:
        return None
    try:
        values = [float(p) for p in args]
    except ValueError as exc:
        raise InputError(f"non-numeric argument in {spec!r}") from exc
    if not np.isfinite(values).all():
        raise InputError(f"non-finite argument in {spec!r}")
    return values


def _parse_spec(kind: str, spec: str, forms: dict):
    """spec read against forms, a table of call name -> (argument counts, constructor).

    A name with no argument counts is a bare word, such as "none".
    """
    s = spec.strip()
    for name, (count, make) in forms.items():
        if not count and s == name:
            return make()
        if count and (args := _numbers(s, name, count)) is not None:
            return make(*args)
    raise InputError(f"unknown {kind} spec {spec!r}")


def parse_kernel_spec(spec: str) -> RelaxationKernel:
    """Parse catalog kernel strings: "exp(b0,a)", "power(b0,q)", "none"."""
    return _parse_spec("kernel", spec, {
        "none": ((), RelaxationKernel.zero),
        "exp": ((2,), RelaxationKernel.exponential),
        "power": ((2,), RelaxationKernel.power_law),
    })


def parse_damping_spec(spec: str) -> DampingLaw:
    """Parse catalog damping strings: "damp-linear(c)", "damp-cubic(eps)", "none"."""
    return _parse_spec("damping", spec, {
        "none": ((), DampingLaw.none),
        "damp-linear": ((1,), DampingLaw.linear),
        "damp-cubic": ((1,), partial(DampingLaw.origin_power, 3.0)),
    })


def parse_xi_spec(spec: str) -> XiWeight:
    """Parse weight strings: "const(x0)", "rational(theta)" or "rational(theta,x0)"."""
    return _parse_spec("weight", spec, {
        "const": ((1,), XiWeight.constant),
        "rational": ((1, 2), XiWeight.rational),
    })


def parse_modulus_spec(spec: str) -> ConvexModulus:
    """Parse modulus strings: "linear(slope)", "pow(p)", "pow(p,r1)"."""
    return _parse_spec("modulus", spec, {
        "linear": ((1,), ConvexModulus.linear),
        "pow": ((1, 2), lambda p, r1=1.0: ConvexModulus.power(p, r1=r1)),
    })
