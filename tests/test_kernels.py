"""Kernel, modulus, damping, and envelope unit tests.

Closed-form expectations are frozen here; anything without a closed form is
checked against an independent oracle (scipy quadrature, brute-force scans).
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from viscoplate.errors import DomainError, InputError
from viscoplate.kernels import (
    ConvexModulus,
    DampingLaw,
    RelaxationKernel,
    XiWeight,
    convex_conjugate,
    envelope_linear_B,
    envelope_nonlinear_B,
    envelope_nonlinear_both,
    extend_modulus,
    invert_increasing,
    parse_damping_spec,
    parse_kernel_spec,
    parse_modulus_spec,
    parse_xi_spec,
    validate_h1,
    validate_h2,
    validate_h3,
)

GRID = np.linspace(0.0, 30.0, 2001)


# --- inversion helper ---------------------------------------------------


def test_invert_increasing_cube_root():
    root = invert_increasing(lambda s: s**3, 8.0)
    assert abs(root - 2.0) < 1e-11


def test_invert_increasing_below_bracket():
    with pytest.raises(DomainError):
        invert_increasing(lambda s: s + 1.0, 0.5, lo=0.0, hi=4.0)


def test_invert_increasing_above_explicit_bracket():
    with pytest.raises(DomainError, match="above"):
        invert_increasing(lambda s: s**3, 100.0, 0.0, 2.0)


# --- kernel admissibility ------------------------------------------------


def test_h1_exponential_pass():
    rep = validate_h1(RelaxationKernel.exponential(0.5, 1.0), GRID)
    assert rep.passed
    assert abs(rep.data["l"] - 0.5) < 1e-14


def test_h1_overweight_fail():
    rep = validate_h1(RelaxationKernel.exponential(2.0, 1.0), GRID)
    assert not rep.passed
    assert abs(rep.data["l"] + 1.0) < 1e-14
    assert any("deficit" in v for v in rep.violations)


def test_h1_nonmonotone_tabulated_fail():
    # no catalog family is nonmonotone: a piecewise-linear table stands in
    t = np.linspace(0.0, 10.0, 4001)
    wiggly = np.exp(-t) * (1.0 + 0.5 * np.sin(10.0 * t))
    kernel = SimpleNamespace(value=lambda s: np.interp(s, t, wiggly), l=1.0 - np.trapezoid(wiggly, t))
    rep = validate_h1(kernel, t)
    assert not rep.passed
    assert any("increase" in v for v in rep.violations)


def test_h1_empty_grid():
    with pytest.raises(InputError):
        validate_h1(RelaxationKernel.exponential(0.5, 1.0), np.array([]))


def test_power_kernel_rejects_nonintegrable():
    with pytest.raises(InputError):
        RelaxationKernel.power_law(0.5, 1.0)


def test_kernel_calculus_against_quadrature():
    # derivative and running integral vs scipy on both closed-form families
    for ker in (RelaxationKernel.exponential(0.5, 1.3), RelaxationKernel.power_law(0.4, 2.5)):
        for t in (0.7, 2.0, 6.0):
            fd = (float(ker.value(t + 1e-6)) - float(ker.value(t - 1e-6))) / 2e-6
            assert abs(fd - float(ker.deriv(t))) < 1e-7
            ref, _ = quad(lambda s: float(ker.value(s)), 0.0, t)
            assert abs(ref - float(ker.integral_to(t))) < 1e-10


# --- decay law (kernel vs modulus/weight) --------------------------------


def test_h2_exponential_equality():
    ker = RelaxationKernel.exponential(0.5, 1.0)
    rep = validate_h2(ker, ker.natural_modulus(), ker.natural_xi(), GRID)
    assert rep.passed
    assert rep.data["max_relative_excess"] <= 1e-12


def test_h2_power_equality():
    ker = RelaxationKernel.power_law(0.5, 2.0)
    mod = ker.natural_modulus()
    xi = ker.natural_xi()
    assert abs(xi.xi0 - 2.0 / math.sqrt(0.5)) < 1e-14
    rep = validate_h2(ker, mod, xi, GRID)
    assert rep.passed
    assert rep.data["max_relative_excess"] <= 1e-12


def test_h2_overtight_weight_fails():
    ker = RelaxationKernel.exponential(0.5, 1.0)
    rep = validate_h2(ker, ConvexModulus.linear(1.0, r1=0.5), XiWeight.constant(2.0), GRID)
    assert not rep.passed


def test_h2_range_exceeds_modulus_domain():
    ker = RelaxationKernel.exponential(2.0, 4.0)  # passes h1 (l = 0.5) but b(0) = 2
    with pytest.raises(DomainError):
        validate_h2(ker, ConvexModulus.power(1.5, r1=1.0), XiWeight.constant(1.0), GRID)


def test_catalog_natural_pairs_pass_at_1e10():
    kernels = [
        RelaxationKernel.exponential(0.5, 1.0),
        RelaxationKernel.exponential(0.3, 2.0),
        RelaxationKernel.power_law(0.5, 2.0),
        RelaxationKernel.power_law(0.3, 1.5),
        RelaxationKernel.power_law(0.6, 3.0),
    ]
    for ker in kernels:
        assert validate_h1(ker, GRID).passed
        rep = validate_h2(ker, ker.natural_modulus(), ker.natural_xi(), GRID, rel_tol=1e-10)
        assert rep.passed, (ker.family, rep.violations)


# --- damping -------------------------------------------------------------

SYM_GRID = np.linspace(-3.0, 3.0, 1201)


def test_h3_identity_damping():
    law = DampingLaw.linear(1.0)
    rep = validate_h3(law, SYM_GRID)
    assert rep.passed
    assert rep.data["c1"] == 1.0 and rep.data["c2"] == 1.0


def test_h3_cubic_splice():
    law = DampingLaw.origin_power(3.0, 0.5)
    assert abs(law.c1 - 0.25) < 1e-15
    assert abs(law.c2 - 0.75) < 1e-15
    assert abs(law.r2 - 0.25) < 1e-15
    assert abs(float(law.h(0.3)) - 0.027) < 1e-15
    assert abs(float(law.h(0.8)) - (0.125 + 0.75 * 0.3)) < 1e-15
    rep = validate_h3(law, SYM_GRID)
    assert rep.passed, rep.violations


def test_h3_sign_violation():
    law = replace(DampingLaw.linear(1.0), c=-1.0)  # h(s) = -s
    rep = validate_h3(law, SYM_GRID)
    assert not rep.passed
    assert any("sign" in v for v in rep.violations)


def test_h3_asymmetric_grid_rejected():
    with pytest.raises(InputError):
        validate_h3(DampingLaw.linear(1.0), np.linspace(-1.0, 2.0, 31))


def test_damping_h1_inverse():
    law = DampingLaw.origin_power(3.0, 0.5)
    assert abs(law.h1_inverse(0.008) - 0.2) < 1e-11


def test_cubic_convexifier_is_square():
    H = DampingLaw.origin_power(3.0, 0.5).convexifier()
    s = np.linspace(0.01, 0.25, 25)
    assert np.max(np.abs(H.value(s) - s**2)) < 1e-14
    second = np.diff(H.value(s), 2)
    assert np.all(second > 0)


def test_linear_convexifier_slope():
    # slope is min(c, 1/c) so the sandwich closes on both sides
    H = DampingLaw.linear(4.0).convexifier()
    assert H.is_linear and abs(H.slope - 0.25) < 1e-15


# --- modulus extension and conjugates ------------------------------------


def test_extend_square_is_exact():
    ext = extend_modulus(ConvexModulus.power(2.0, r1=1.0))
    for s in (0.5, 1.0, 3.0, 5.0):
        assert abs(float(ext.value(s)) - s * s) < 1e-12


def test_extend_p32_continuation_value():
    # quadratic continuation 1 + 1.5 (s-1) + 0.5 * 0.75 (s-1)^2 at s = 2
    ext = extend_modulus(ConvexModulus.power(1.5, r1=1.0))
    assert abs(float(ext.value(2.0)) - 2.875) < 1e-12


def test_extend_c2_matching():
    ext = extend_modulus(ConvexModulus.power(1.5, r1=1.0))
    h = 1e-4
    for order, fd in (
        (0, None),
        (1, (float(ext.value(1.0 + h)) - float(ext.value(1.0 - h))) / (2 * h)),
        (2, (float(ext.value(1.0 + h)) - 2.0 * float(ext.value(1.0)) + float(ext.value(1.0 - h))) / h**2),
    ):
        if order == 0:
            assert abs(float(ext.value(1.0)) - 1.0) < 1e-12
        elif order == 1:
            assert abs(fd - 1.5) < 1e-7
        else:
            assert abs(fd - 0.75) < 1e-4


def test_extend_linear_passthrough():
    mod = ConvexModulus.linear(2.0)
    assert extend_modulus(mod) is mod
    assert abs(float(mod.value(5.0)) - 10.0) < 1e-15


def test_unextended_power_raises_beyond_edge():
    with pytest.raises(DomainError):
        ConvexModulus.power(1.5, r1=1.0).value(2.0)


def test_conjugate_quadratic():
    K = ConvexModulus.power(2.0, coef=0.5, r1=10.0)  # s^2 / 2
    assert abs(convex_conjugate(K, 3.0) - 4.5) < 1e-10


def test_conjugate_cubic():
    K = ConvexModulus.power(3.0, coef=1.0 / 3.0, r1=10.0)  # s^3 / 3
    assert abs(convex_conjugate(K, 4.0) - 16.0 / 3.0) < 1e-10


def test_conjugate_domain():
    K = ConvexModulus.power(2.0, coef=0.5, r1=1.0)
    with pytest.raises(DomainError):
        convex_conjugate(K, 3.0)  # K'(1) = 1 < 3
    with pytest.raises(DomainError):
        convex_conjugate(K, 0.0)


def test_young_example():
    K = ConvexModulus.power(2.0, coef=0.5, r1=10.0)
    gap = convex_conjugate(K, 0.3) + float(K.value(0.5)) - 0.15
    assert abs(gap - 0.02) < 1e-10
    assert gap >= 0.0


def test_young_sweep():
    rng = np.random.RandomState(42)
    for K, r in ((ConvexModulus.power(2.0, coef=0.5, r1=4.0), 4.0),
                 (ConvexModulus.power(3.0, coef=1.0 / 3.0, r1=2.0), 2.0)):
        kmax = float(K.deriv(np.asarray(r)))
        a = 10.0 ** rng.uniform(-4, 0, 5000) * kmax * 0.999
        b = 10.0 ** rng.uniform(-4, 0, 5000) * r
        worst = 0.0
        for ai, bi in zip(a, b):
            gap = convex_conjugate(K, ai, r=r) + float(K.value(bi)) - ai * bi
            worst = min(worst, gap)
        assert worst >= -1e-12, worst


def test_deriv_inverse_roundtrip():
    # bisection carries absolute 1e-12 accuracy on s, so tau is kept away from 0
    # where flat K'' would amplify that into a large relative error
    rng = np.random.RandomState(7)
    for K, lo in ((ConvexModulus.power(1.5, r1=1.0), 0.1),
                  (ConvexModulus.power(2.0, coef=0.5, r1=1.0), 1e-2)):
        kmax = K.deriv(1.0)
        for tau in rng.uniform(lo, 0.999, 150) * kmax:
            s = K.deriv_inverse(tau)
            assert abs(K.deriv(s) - tau) <= 1e-10 * tau


def test_deriv_inverse_beyond_edge():
    K = ConvexModulus.power(2.0)  # B'(1) = 2
    with pytest.raises(DomainError, match="above B'"):
        K.deriv_inverse(10.0)
    # the extension B'(s) = 2 + 2 (s - 1) inverts past r1
    assert extend_modulus(K).deriv_inverse(10.0) == 5.0


@pytest.mark.parametrize(
    "p, coef, r", [(1.5, 1.0, 1.0), (2.0, 0.5, 4.0), (3.0, 1.0 / 3.0, 2.0)], ids=["p1.5", "p2", "p3"]
)
def test_conjugate_arrays_match_scalar_calls(p, coef, r):
    K = ConvexModulus.power(p, coef=coef, r1=r)
    tau = np.geomspace(1e-6, 0.999, 257) * float(K.deriv(r))
    out = convex_conjugate(K, tau)
    assert np.array_equal(out, [convex_conjugate(K, float(t)) for t in tau])
    assert type(convex_conjugate(K, float(tau[0]))) is float


# --- xi weights ----------------------------------------------------------


def test_xi_rational_integral_closed_forms():
    xi = XiWeight.rational(1.0)
    # power 1.5: int (1+s)^(-3/2) = 2 (1 - (1+t)^(-1/2))
    assert abs(xi.integral_power(0.0, 3.0, 1.5) - 1.0) < 1e-13
    # power 1 hits the logarithmic branch
    assert abs(xi.integral_power(0.0, 3.0, 1.0) - math.log(4.0)) < 1e-13


def test_xi_validation():
    with pytest.raises(InputError):
        XiWeight.rational(1.5)
    with pytest.raises(InputError):
        XiWeight.constant(-1.0)


# --- decay envelopes -----------------------------------------------------


def test_envelope_linear_constant_xi():
    env = envelope_linear_B(XiWeight.constant(1.0), 0.5, 1.0, 0.0)
    assert abs(env(3.0) - 1.0 / 16.0) < 1e-13
    assert abs(env(0.0) - 1.0) < 1e-15


def test_envelope_linear_rational_xi():
    env = envelope_linear_B(XiWeight.rational(1.0), 0.5, 1.0, 0.0)
    assert abs(env(3.0) - 0.25) < 1e-13


def test_envelope_linear_eps0_domain():
    for bad in (0.0, 1.0, 1.2, -0.3):
        with pytest.raises(DomainError):
            envelope_linear_B(XiWeight.constant(1.0), bad, 1.0, 0.0)


def test_envelope_linear_monotone():
    env = envelope_linear_B(XiWeight.rational(0.7), 0.5, 2.0, 1.0)
    t = np.linspace(1.0, 200.0, 400)
    vals = env(t)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(vals > 0)


def test_envelope_nonlinear_B_closed_form():
    # B = s^2, eps0 = 1: K(t) = t^4, K1(t) = 4 eps1^3 t^4
    eps1, c, c1 = 0.37, 2.0, 0.8
    env = envelope_nonlinear_B(
        XiWeight.constant(1.0), 1.0, eps1, c, c1, 0.0, 1.0, ConvexModulus.power(2.0, r1=1.0)
    )
    for t in (2.0, 3.0, 5.0, 9.0):
        assert abs(env.K1(t) - 4.0 * eps1**3 * t**4) < 1e-12 * t**4
        tau = math.sqrt(t)
        expected = c * tau * (c1 / (tau * (t - 1.0)) / (4.0 * eps1**3)) ** 0.25
        assert abs(env(t) - expected) < 1e-10 * expected


def test_envelope_nonlinear_B_monotone_on_catalog_config():
    # p = 3/2 with eps0 = 1/2 stays below the monotonicity threshold
    env = envelope_nonlinear_B(
        XiWeight.constant(1.0), 0.5, 0.5, 1.0, 1.0, 0.0, 1.0, ConvexModulus.power(1.5, r1=1.0)
    )
    t = np.linspace(1.5, 60.0, 300)
    vals = env(t)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[-1] < 0.5 * vals[0]
    # a diverging weight integral sends the inverted map to 0
    root = invert_increasing(env.K1, 1e-20)
    assert 0.0 < root < 1e-4


def test_envelope_nonlinear_B_rejects_early_evaluation():
    env = envelope_nonlinear_B(
        XiWeight.constant(1.0), 0.5, 0.5, 1.0, 1.0, 0.0, 1.0, ConvexModulus.power(1.5, r1=1.0)
    )
    with pytest.raises(DomainError):
        env(0.5)
    with pytest.raises(DomainError):
        env(1.0)


def test_envelope_nonlinear_B_requires_nonlinear_modulus():
    with pytest.raises(InputError):
        envelope_nonlinear_B(
            XiWeight.constant(1.0), 0.5, 0.5, 1.0, 1.0, 0.0, 1.0, ConvexModulus.linear(1.0)
        )


def test_envelope_both_closed_form():
    # Bbar = Hbar = s^2, eps = 1: W(t) = (t/2)^4, W2(t) = eps1^3 t^4 / 4
    eps1, c = 0.61, 1.7
    sq = ConvexModulus.power(2.0, r1=1.0)
    env = envelope_nonlinear_both(XiWeight.constant(1.0), 1.0, eps1, c, 0.0, sq, sq)
    for t in (1.0, 2.0, 3.0, 4.0, 8.0):
        tau = math.sqrt(t)
        expected = c * tau * (4.0 * (c / (tau * t)) / eps1**3) ** 0.25
        assert abs(env(t) - expected) < 1e-9 * expected


def _bisect_to_ulp(f, y):
    """Solve f(s) = y for increasing f on [0, inf) until the bracket is adjacent floats."""
    lo, hi = 0.0, 1.0
    while f(hi) < y:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < y:
            lo = mid
        else:
            hi = mid


def _float_inverse(mod):
    """B^{-1} of an extended power modulus on plain floats: no numpy call per step."""
    c, p, r1 = mod.coef, mod.p, mod.r1
    v1, d1, kap = (float(x) for x in mod.ext)

    def inverse(y):
        if y <= v1:
            return (max(y, 0.0) / c) ** (1.0 / p)
        return r1 + (math.sqrt(d1 * d1 + 2.0 * kap * (y - v1)) - d1) / kap

    return inverse


def _two_level_both(xi, eps, eps1, c, t0, modB, modH, t):
    """The nonlinear-both envelope by nested bisection: W = phi^{-1}, then W2^{-1}.

    Returns the envelope value and y = W(eps1 * root), the modulus value at
    which Bbar and Hbar were inverted.
    """
    Bbar, Hbar = extend_modulus(modB), extend_modulus(modH)
    e = 1.0 / (1.0 + eps)
    binv, hinv = _float_inverse(Bbar), _float_inverse(Hbar)

    def phi(y):
        return binv(y) ** e + hinv(y) ** e

    def W2(s):
        y = _bisect_to_ulp(phi, eps1 * s)
        if y <= 0.0:
            return 0.0
        rb, rh = Bbar.inverse(y), Hbar.inverse(y)
        dphi = e * (rb ** (e - 1.0) / Bbar.deriv(rb) + rh ** (e - 1.0) / Hbar.deriv(rh))
        return s / dphi

    tau = (t - t0) ** e
    root = _bisect_to_ulp(W2, c / (tau * xi.integral_power(t0, t)))
    return c * tau * root, _bisect_to_ulp(phi, eps1 * root)


def test_envelope_both_matches_two_level_bisection():
    # one bisection in y against the nested form on random power moduli; the
    # small r1 and the early evaluation point reach the quadratic extensions
    rng = np.random.default_rng(20240607)
    worst, extended = 0.0, 0
    for draw in range(10):
        pB, pH = rng.uniform(1.1, 3.0, 2)
        r1B, r1H = rng.uniform(0.02, 0.3, 2)
        eps, eps1, c = rng.uniform(0.1, 1.5), rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
        t0 = rng.uniform(0.0, 1.0)
        if draw % 2:
            xi = XiWeight.rational(rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0))
        else:
            xi = XiWeight.constant(rng.uniform(0.5, 2.0))
        modB, modH = ConvexModulus.power(pB, r1=r1B), ConvexModulus.power(pH, r1=r1H)
        env = envelope_nonlinear_both(xi, eps, eps1, c, t0, modB, modH)
        for t in (t0 + 0.05, t0 + 4.0):
            ref, y = _two_level_both(xi, eps, eps1, c, t0, modB, modH, t)
            worst = max(worst, abs(env(t) - ref) / ref)
            extended += y > min(r1B**pB, r1H**pH)
    assert worst < 1e-8
    assert 0 < extended < 20


def test_envelope_both_positive_decreasing():
    # growth power 3/2 keeps the curve below the monotone-decay threshold;
    # the early transient peaks near t = 0.21, so the scan starts past it
    mod = ConvexModulus.power(1.5, r1=1.0)
    env = envelope_nonlinear_both(XiWeight.constant(1.0), 0.5, 0.5, 1.0, 0.0, mod, mod)
    t = np.linspace(0.5, 40.0, 160)
    vals = env(t)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 1e-12)


# --- one array path: arrays give the bits of per-element scalar calls ----


def _each(fn, xs):
    out = [fn(float(x)) for x in xs]
    assert all(type(v) is float for v in out)
    return np.array(out)


R1 = 0.5
INSIDE = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.01, R1, 24), [R1, R1 * (1.0 + 1e-13)]])
BEYOND = np.concatenate([[R1 * (1.0 + 1e-11)], np.linspace(0.6, 40.0, 23)])
MODULI = {
    "linear": (ConvexModulus.linear(2.0, r1=R1), np.concatenate([INSIDE, BEYOND])),
    "power": (ConvexModulus.power(1.5, coef=0.7, r1=R1), INSIDE),
    "extended-power": (extend_modulus(ConvexModulus.power(2.5, r1=R1)), np.concatenate([INSIDE, BEYOND])),
}


@pytest.mark.parametrize("name", sorted(MODULI))
def test_modulus_arrays_match_scalar_calls(name):
    mod, s = MODULI[name]
    for fn in (mod.value, mod.deriv):
        assert np.array_equal(fn(s), _each(fn, s))
    beyond = [1e3] if mod.ext is not None or mod.is_linear else []
    y = np.concatenate([[-1.0, 0.0], mod.value(s), beyond])
    assert np.array_equal(mod.inverse(y), _each(mod.inverse, y))
    assert np.allclose(mod.inverse(mod.value(s)), s, rtol=1e-12, atol=1e-12)


def test_unextended_modulus_array_raises_beyond_edge():
    mod = ConvexModulus.power(1.5, coef=0.7, r1=R1)
    with pytest.raises(DomainError):
        mod.value(np.array([0.1, 0.7]))
    with pytest.raises(DomainError):
        mod.inverse(np.array([0.1, 1.0]))


@pytest.mark.parametrize(
    "xi, power",
    [
        (XiWeight.constant(1.3), 1.5),
        (XiWeight.rational(0.5, 2.0), 1.5),
        (XiWeight.rational(0.5, 2.0), 2.0),  # mu = 1: the logarithmic branch
        (XiWeight.rational(1.0), 1.0),
    ],
)
def test_xi_integral_power_arrays_match_scalar_calls(xi, power):
    t = np.linspace(0.3, 50.0, 60)
    each = _each(lambda ti: xi.integral_power(0.3, ti, power), t)
    assert np.array_equal(xi.integral_power(0.3, t, power), each)
    t0 = 0.5 * t
    pairs = [xi.integral_power(float(a), float(b), power) for a, b in zip(t0, t)]
    assert np.array_equal(xi.integral_power(t0, t, power), np.array(pairs))
    with pytest.raises(DomainError):
        xi.integral_power(1.0, np.array([2.0, 0.5]), power)


@pytest.mark.parametrize("law", [DampingLaw.linear(4.0), DampingLaw.origin_power(3.0, 0.5)])
def test_h1_inverse_arrays_match_scalar_calls(law):
    y = np.linspace(0.0, 0.5, 51)
    assert np.array_equal(law.h1_inverse(y), _each(law.h1_inverse, y))


def _envelopes():
    mod = ConvexModulus.power(1.5, r1=0.3)
    return {
        "linear": envelope_linear_B(XiWeight.rational(0.7), 0.5, 2.0, 1.0),
        "nonlinear-B": envelope_nonlinear_B(XiWeight.constant(1.0), 0.5, 0.5, 1.0, 1.0, 0.0, 1.0, mod),
        "nonlinear-both": envelope_nonlinear_both(
            XiWeight.rational(0.6, 1.5), 0.5, 0.5, 1.0, 0.0, mod, ConvexModulus.power(2.0, r1=0.05)
        ),
    }


@pytest.mark.parametrize("name", ["linear", "nonlinear-B", "nonlinear-both"])
def test_envelope_arrays_match_scalar_calls(name):
    env = _envelopes()[name]
    t = np.linspace(env.validity_start + 1e-3, 60.0, 64)
    vals = env(t)
    assert np.array_equal(vals, _each(env, t))
    assert np.all(vals > 0)


def _scalar_bisection(f, y, lo, hi=None):
    """The Python-float loop invert_increasing ran before it vectorised.

    Returns the root with the number of bracket doublings and halvings.
    """
    doublings = 0
    if hi is None:
        hi = max(1.0, 2.0 * lo)
        while f(hi) < y:
            hi *= 2.0
            doublings += 1
    for halvings in range(1, 201):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi), doublings, halvings


def test_invert_increasing_array_matches_scalar_loop():
    # s^3 + s is the same arithmetic on floats and arrays; the targets need
    # 0 to 7 bracket doublings, and lo varies, so elements stop at different halvings
    def f(s):
        return s * s * s + s

    y = np.array([1e-9, 0.3, 2.0, 9.5, 700.0, 3e5, 5.0])
    lo = np.array([0.0, 0.0, 0.5, 0.0, 2.0, 0.0, 0.9])
    ref = [_scalar_bisection(f, float(v), float(l)) for v, l in zip(y, lo)]
    assert {d for _, d, _ in ref} >= {0, 1, 7}
    assert len({h for _, _, h in ref}) >= 3
    roots = invert_increasing(f, y, lo)
    assert np.array_equal(roots, [r for r, _, _ in ref])
    assert np.array_equal(roots, [invert_increasing(f, float(v), float(l)) for v, l in zip(y, lo)])
    assert type(invert_increasing(f, 2.0)) is float


# --- catalog strings -----------------------------------------------------


def test_parse_kernel_specs():
    ker = parse_kernel_spec("exp(0.5, 1.0)")
    assert ker.family == "exponential" and abs(ker.l - 0.5) < 1e-14
    ker = parse_kernel_spec("power(0.5,2)")
    assert ker.family == "power" and ker.q == 2.0
    assert parse_kernel_spec("none").is_zero
    with pytest.raises(InputError):
        parse_kernel_spec("exp(0.5)")
    with pytest.raises(InputError):
        parse_kernel_spec("gauss(1,1)")


def test_parse_damping_specs():
    law = parse_damping_spec("damp-linear(0.8)")
    assert law.form == "linear" and law.c == 0.8
    law = parse_damping_spec("damp-cubic(0.5)")
    assert law.form == "origin_power" and law.p == 3.0 and law.eps == 0.5
    assert parse_damping_spec("none").is_none
    with pytest.raises(InputError):
        parse_damping_spec("damp-quintic(1)")


def test_parse_xi_and_modulus_specs():
    assert parse_xi_spec("const(2.0)").xi0 == 2.0
    xi = parse_xi_spec("rational(0.5, 3.0)")
    assert xi.theta == 0.5 and xi.xi0 == 3.0
    assert parse_modulus_spec("linear(2)").slope == 2.0
    mod = parse_modulus_spec("pow(1.5, 0.5)")
    assert mod.p == 1.5 and mod.r1 == 0.5


_SPEC_HEADS = ("exp", "power", "damp-linear", "damp-cubic", "const", "rational", "linear", "pow", "none")
_ODD_ARGS = ["", " ", "nan", "-inf", "1e400", "1_0", "0x1", "(", "é"]
_SPEC_ARG = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from(_ODD_ARGS))
_SPEC_TEXT = st.one_of(
    # a fixed alphabet spares hypothesis building its unicode table, about 2 s on a cold cache
    st.text("expowrdamlincubstna(),.;-+_ 019é\t\x00", max_size=24),
    st.builds(
        lambda head, args, sep, close: f"{head}({sep.join(map(str, args))}{close}",
        st.sampled_from(_SPEC_HEADS), st.lists(_SPEC_ARG, max_size=3), st.sampled_from([",", ", ", ";"]),
        st.sampled_from([")", "", "))"]),
    ),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_SPEC_TEXT)
def test_spec_parsers_raise_only_input_error(text):
    for parser in (parse_kernel_spec, parse_damping_spec, parse_xi_spec, parse_modulus_spec):
        try:
            parser(text)
        except InputError:
            pass
