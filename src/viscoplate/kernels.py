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
conditions on grids, extends moduli to the whole half line, computes convex
conjugates, and builds the explicit energy-decay envelope curves implied by
the decay law.  Moduli, weights, origin profiles and envelopes evaluate
arrays elementwise; moduli and origin profiles invert in closed form, and a
nonlinear envelope costs one elementwise bisection over all its points, as
does a convex conjugate (absolute tolerance 1e-12, at most 200 halvings).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, InputError

INVERSION_TOL = 1e-12
INVERSION_MAX_ITER = 200
CURVATURE_FLOOR = 1e-8  # strict-convexity floor for modulus extensions
_REL_TOL = 1e-12


def _vector(x) -> np.ndarray:
    """x as a float array with at least one axis.  numpy's scalar pow and log
    differ in the last bit from its array kernels, so scalars take the array path."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def _result(out: np.ndarray, *inputs):
    """out as a Python float when every input is a scalar; else the array."""
    return float(out[0]) if all(np.ndim(x) == 0 for x in inputs) else out


def invert_increasing(f, y, lo=0.0, hi=None):
    """Solve f(s) = y elementwise by bisection, for an increasing elementwise f.

    y is a scalar or an array of targets; lo and hi broadcast against it.  If
    hi is None, each upper bracket doubles from max(1, 2 lo) until f(hi) >= y.
    Each element is halved at least once and until its bracket is at most
    INVERSION_TOL wide, then frozen, so its root has the bits of a scalar
    bisection.  Overflow in f reads as +inf; an unbracketable y raises DomainError.
    """
    target, y, lo = y, _vector(y), _vector(lo)
    if not np.isfinite(y).all():
        raise DomainError(f"cannot invert at non-finite target {y!r}")
    with np.errstate(over="ignore"):
        if hi is None:
            hi = np.maximum(1.0, 2.0 * lo)
            for _ in range(600):
                short = ~(f(hi) >= y)  # a nan keeps growing, as in a failed check
                if not short.any():
                    break
                hi = np.where(short, 2.0 * hi, hi)
            else:
                raise DomainError(f"target {y!r} not reachable while expanding bracket")
        flo = f(lo)
        if (flo > y).any():
            raise DomainError(f"target {y!r} below f({lo}) = {flo}")
        active = np.ones(y.shape, dtype=bool)
        for _ in range(INVERSION_MAX_ITER):
            mid = 0.5 * (lo + hi)
            below = f(mid) < y
            lo = np.where(active & below, mid, lo)
            hi = np.where(active & ~below, mid, hi)
            active &= hi - lo > INVERSION_TOL
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
        if self.family == "exponential":
            return self.b0 / self.rate
        if self.family == "power":
            return self.b0 / (self.q - 1.0)
        return 0.0

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
    """Convexity modulus B on (0, r1], optionally extended past r1.

    Forms: linear slope*s or power coef*s**p with p > 1.
    An extension (set by `extend_modulus`) continues B quadratically beyond
    r1 with matching value and first derivative and curvature at least
    CURVATURE_FLOOR, keeping the extension strictly convex.
    """

    form: str
    slope: float = 1.0
    coef: float = 1.0
    p: float = 2.0
    r1: float = 1.0
    ext: tuple | None = None  # (B(r1), B'(r1), curvature)

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

    def _eval(self, x, order):
        """B (order 0), B' (1) or B'' (2) elementwise; a scalar gives a float."""
        s = _vector(x)
        if self.is_linear:
            return _result((self.slope * s, np.full_like(s, self.slope), np.zeros_like(s))[order], x)
        inside = s <= self.r1 * (1.0 + _REL_TOL)
        if self.ext is None and not inside.all():
            raise DomainError(
                f"modulus evaluated at {np.max(s)} beyond domain edge {self.r1} "
                "(call extend_modulus first)"
            )
        c, p = self.coef, self.p
        # s**(p - 2) divides at s = 0, and far past r1 the unselected power form overflows
        with np.errstate(over="ignore", divide="ignore"):
            out = (c, c * p, c * p * (p - 1.0))[order] * s ** (p - order)
        if self.ext is not None:
            v1, d1, kap = self.ext
            ds = s - self.r1
            out = np.where(inside, out, (v1 + d1 * ds + 0.5 * kap * ds * ds, d1 + kap * ds, kap)[order])
        return _result(out, x)

    def value(self, s):
        return self._eval(s, 0)

    def deriv(self, s):
        return self._eval(s, 1)

    def inverse(self, y):
        """Inverse of B elementwise in closed form (linear, power, or the extension)."""
        target, y = y, _vector(y)
        if self.is_linear:
            return _result(y / self.slope, target)
        above = y > self.value(self.r1) * (1.0 + _REL_TOL)
        if self.ext is None and above.any():
            raise DomainError(f"inverse target {np.max(y)} above B(r1)")
        out = (np.maximum(y, 0.0) / self.coef) ** (1.0 / self.p)  # 0 for y <= 0
        if self.ext is not None:
            v1, d1, kap = self.ext
            # y >= v1 wherever the extension is selected
            root = np.sqrt(d1 * d1 + 2.0 * kap * (np.maximum(y, v1) - v1))
            out = np.where(above, self.r1 + (root - d1) / kap, out)
        return _result(out, target)

    def deriv_inverse(self, y: float, hi: float | None = None) -> float:
        """Inverse of B' by bisection (used for convex conjugates)."""
        if self.is_linear:
            raise DomainError("derivative of a linear modulus is not invertible")
        if hi is None:
            hi = None if self.ext is not None else self.r1
        return invert_increasing(self.deriv, y, 0.0, hi)


def extend_modulus(modulus: ConvexModulus) -> ConvexModulus:
    """Continue a convex modulus past its domain edge r1.

    Beyond r1 the curve becomes B(r1) + B'(r1)(s-r1) + 0.5*max(B''(r1),
    CURVATURE_FLOOR)(s-r1)^2, which matches value and slope at r1 and stays
    strictly convex.  Linear moduli are returned unchanged (globally valid).
    """
    if modulus.is_linear:
        return modulus
    r1 = float(modulus.r1)
    v1, d1, d2 = (modulus._eval(r1, order) for order in range(3))
    if not np.isfinite(d2):
        raise DomainError("modulus second derivative not finite at r1")
    return replace(modulus, ext=(v1, d1, max(d2, CURVATURE_FLOOR)))


def convex_conjugate(K: ConvexModulus, tau: float, r: float | None = None) -> float:
    """Convex conjugate K*(tau) = tau*s - K(s) at s = (K')^{-1}(tau).

    Valid for tau in (0, K'(r)); the derivative is inverted by bisection.
    """
    if r is None:
        r = K.r1
    klim = K.deriv(r)
    if not 0.0 < tau < klim:
        raise DomainError(f"conjugate argument {tau} outside (0, {klim})")
    s_star = K.deriv_inverse(tau, hi=r)
    return tau * s_star - K.value(s_star)


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
            outer = np.sign(s) * (self.eps**self.p + self.p * self.eps ** (self.p - 1.0) * (a - self.eps))
            return np.where(a <= self.eps, inner, outer)
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


@dataclass
class ValidationReport:
    passed: bool
    violations: list[str]
    data: dict

    def __bool__(self) -> bool:
        return self.passed


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InputError("empty evaluation grid")
    if grid[0] != 0.0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
        raise InputError("grid must strictly increase starting at 0")
    return grid


def validate_h1(kernel: RelaxationKernel, grid) -> ValidationReport:
    """Check kernel positivity at 0, monotone decrease on the grid, and l > 0."""
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
    return ValidationReport(not violations, violations, {"l": l, "b0": b0})


def validate_h2(
    kernel: RelaxationKernel,
    modulus: ConvexModulus,
    xi: XiWeight,
    grid,
    rel_tol: float = 1e-12,
) -> ValidationReport:
    """Check the decay law b' <= -xi * B(b) pointwise on the grid."""
    grid = _check_grid(grid)
    b = kernel.value(grid)
    bmax = float(np.max(b))
    if modulus.ext is None and bmax > modulus.r1 * (1.0 + _REL_TOL) and not modulus.is_linear:
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
    return ValidationReport(not violations, violations, {"max_relative_excess": worst})


def validate_h3(damping: DampingLaw, grid, rel_tol: float = 1e-10) -> ValidationReport:
    """Check damping monotonicity, sign, sandwich bounds, and convexifier convexity."""
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
    return ValidationReport(not violations, violations, {"c1": damping.c1, "c2": damping.c2})


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


def envelope_linear_B(xi: XiWeight, eps0: float, c: float, t0: float) -> DecayEnvelope:
    """Envelope c * (1 + int_{t0}^t xi^(1+eps0))^(-1/eps0) for linear moduli."""
    if not 0.0 < eps0 < 1.0:
        raise DomainError(f"eps0 must lie in (0, 1), got {eps0}")
    if c <= 0 or t0 < 0:
        raise InputError("need c > 0 and t0 >= 0")

    def _eval(t):
        acc = xi.integral_power(t0, t, 1.0 + eps0)
        return c * (1.0 + acc) ** (-1.0 / eps0)

    return DecayEnvelope(t0, _eval)


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
    """Envelope for strictly convex moduli: c (t-t0)^(1/(1+eps0)) K1^{-1}(...).

    K1(t) = t K'(eps1 t) with K the growth transform of the extended modulus;
    the inner argument is c1 / ((t-t0)^(1/(1+eps0)) int_{t1}^t xi).
    """
    if modulus.is_linear:
        raise InputError("nonlinear-modulus envelope needs a strictly convex modulus")
    if not t1 > t0:
        raise InputError("need t1 > t0")
    if eps0 <= 0.0:
        raise DomainError(f"eps0 must be positive, got {eps0}")
    Bbar = extend_modulus(modulus)

    def K1(t):
        # t K'(eps1 t) for K(u) = Bbar(u^(1+eps0)), the inverse of y -> Bbar^{-1}(y)^(1/(1+eps0))
        s = _vector(t)
        u = np.maximum(eps1 * s, 0.0)  # K' vanishes at and below 0
        return _result(s * ((1.0 + eps0) * u**eps0 * Bbar.deriv(u ** (1.0 + eps0))), t)

    def _eval(t):
        acc = xi.integral_power(t1, t, 1.0)
        if np.any(acc <= 0.0):
            raise DomainError("weight integral vanishes on the evaluation window")
        tau = (t - t0) ** (1.0 / (1.0 + eps0))
        root = invert_increasing(K1, c1 / (tau * acc))
        return c * tau * root

    env = DecayEnvelope(t1, _eval)
    # expose the intermediate map for verification against closed forms
    object.__setattr__(env, "K1", K1)
    return env


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

    With phi(y) = Bbar^{-1}(y)^(1/(1+eps)) + Hbar^{-1}(y)^(1/(1+eps)) and
    W = phi^{-1}, the curve is c tau W2^{-1}(c / (tau int_{t0}^t xi)), where
    tau = (t-t0)^(1/(1+eps)) and W2(s) = s W'(eps1 s).  At s = phi(y)/eps1,
    W2(s) = phi(y) / (eps1 phi'(y)), which increases in y; so one bisection
    in y finds the root, and the root is phi(y)/eps1.
    """
    if modulusB.is_linear or dampingH.is_linear:
        raise InputError("both moduli must be strictly convex for this envelope")
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    Bbar = extend_modulus(modulusB)
    Hbar = extend_modulus(dampingH)
    expo = 1.0 / (1.0 + eps)

    def phi(y):
        return Bbar.inverse(y) ** expo + Hbar.inverse(y) ** expo

    def W2_of_y(y):
        rb, rh = Bbar.inverse(y), Hbar.inverse(y)
        # rb = rh = 0 at y = 0, where W2 is 0 and the quotient is not used
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_p = expo * (rb ** (expo - 1.0) / Bbar.deriv(rb) + rh ** (expo - 1.0) / Hbar.deriv(rh))
            return np.where(y > 0.0, (rb**expo + rh**expo) / (eps1 * phi_p), 0.0)

    def _eval(t):
        acc = xi.integral_power(t0, t, 1.0)
        if np.any(acc <= 0.0):
            raise DomainError("weight integral vanishes on the evaluation window")
        tau = (t - t0) ** expo
        y = invert_increasing(W2_of_y, c / (tau * acc))
        return c * tau * phi(y) / eps1

    return DecayEnvelope(t0, _eval)


# ---------------------------------------------------------------------------
# Catalog spec strings


def _parse_args(spec: str, name: str, count: tuple) -> list[float]:
    inner = spec[len(name) + 1 : -1]
    parts = [p.strip() for p in inner.split(",") if p.strip()]
    if len(parts) not in count:
        raise InputError(f"{name!r} expects {' or '.join(map(str, count))} arguments, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"non-numeric argument in {spec!r}") from exc
    if not np.isfinite(values).all():
        raise InputError(f"non-finite argument in {spec!r}")
    return values


def parse_kernel_spec(spec: str) -> RelaxationKernel:
    """Parse catalog kernel strings: "exp(b0,a)", "power(b0,q)", "none"."""
    s = spec.strip()
    if s == "none":
        return RelaxationKernel.zero()
    if s.startswith("exp(") and s.endswith(")"):
        b0, rate = _parse_args(s, "exp", (2,))
        return RelaxationKernel.exponential(b0, rate)
    if s.startswith("power(") and s.endswith(")"):
        b0, q = _parse_args(s, "power", (2,))
        return RelaxationKernel.power_law(b0, q)
    raise InputError(f"unknown kernel spec {spec!r}")


def parse_damping_spec(spec: str) -> DampingLaw:
    """Parse catalog damping strings: "damp-linear(c)", "damp-cubic(eps)", "none"."""
    s = spec.strip()
    if s == "none":
        return DampingLaw.none()
    if s.startswith("damp-linear(") and s.endswith(")"):
        (c,) = _parse_args(s, "damp-linear", (1,))
        return DampingLaw.linear(c)
    if s.startswith("damp-cubic(") and s.endswith(")"):
        (eps,) = _parse_args(s, "damp-cubic", (1,))
        return DampingLaw.origin_power(3.0, eps)
    raise InputError(f"unknown damping spec {spec!r}")


def parse_xi_spec(spec: str) -> XiWeight:
    """Parse weight strings: "const(x0)", "rational(theta)" or "rational(theta,x0)"."""
    s = spec.strip()
    if s.startswith("const(") and s.endswith(")"):
        (x0,) = _parse_args(s, "const", (1,))
        return XiWeight.constant(x0)
    if s.startswith("rational(") and s.endswith(")"):
        args = _parse_args(s, "rational", (1, 2))
        return XiWeight.rational(args[0], args[1] if len(args) == 2 else 1.0)
    raise InputError(f"unknown weight spec {spec!r}")


def parse_modulus_spec(spec: str) -> ConvexModulus:
    """Parse modulus strings: "linear(slope)", "pow(p)", "pow(p,r1)"."""
    s = spec.strip()
    if s.startswith("linear(") and s.endswith(")"):
        (slope,) = _parse_args(s, "linear", (1,))
        return ConvexModulus.linear(slope)
    if s.startswith("pow(") and s.endswith(")"):
        args = _parse_args(s, "pow", (1, 2))
        return ConvexModulus.power(args[0], r1=args[1] if len(args) == 2 else 1.0)
    raise InputError(f"unknown modulus spec {spec!r}")
