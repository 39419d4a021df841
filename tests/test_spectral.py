"""Spectral-layer tests: roots, mode tables, Grams, projections, c_p.

Root and eigenvalue results are cross-checked against independent routes
(scipy's brentq, numpy's symmetric eigensolver on the Cholesky-reduced
pencil) rather than against the implementation's own machinery.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from viscoplate.errors import AssemblyError, InputError
from viscoplate.spectral import (
    Basis,
    _mode_tables,
    assemble_grams,
    beam_roots,
    build_basis,
    estimate_cp,
    eval_field,
    eval_laplacian,
    project_initial,
)

# first two characteristic roots, frozen from the bisection oracle
BETA1 = 4.730040744862704
BETA2 = 7.853204624095838


def oracle_roots(count):
    out = []
    for j in range(1, count + 1):
        lo, hi = (j + 0.25) * math.pi, (j + 0.75) * math.pi
        out.append(brentq(lambda b: math.cos(b) - 1.0 / math.cosh(b), lo, hi, xtol=1e-14))
    return np.array(out)


def test_first_roots_frozen():
    r = beam_roots(2)
    assert abs(r[0] - BETA1) < 1e-10
    assert abs(r[1] - BETA2) < 1e-10


def test_roots_match_brentq_oracle():
    r = beam_roots(20)
    assert np.max(np.abs(r - oracle_roots(20))) < 1e-10


def _scalar_bisection_roots(count):
    """Per-root scalar bisection on Python floats: the loop beam_roots ran before it vectorised."""
    def f(b):
        return math.cos(b) - 1.0 / math.cosh(b)

    roots = []
    for j in range(1, count + 1):
        lo, hi = (j + 0.25) * math.pi, (j + 0.75) * math.pi
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (f(mid) < 0.0) == (flo < 0.0):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12:
                break
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


@pytest.mark.parametrize("count", [1, 8, 48, 100])
def test_roots_bit_identical_to_scalar_bisection(count):
    assert np.array_equal(beam_roots(count), _scalar_bisection_roots(count))


def test_roots_approach_half_integer_multiples():
    # the true gap behaves like 2 e^{-beta}; below the 1e-12 root tolerance
    # it is indistinguishable from rounding, so monotonicity is only asserted
    # while the gap is resolvable
    r = beam_roots(20)
    gap = np.abs(r - (np.arange(1, 21) + 0.5) * math.pi)
    assert np.all(np.diff(gap[:7]) < 0)
    assert np.all(gap[7:] < 1e-10)


def test_roots_count_validation():
    with pytest.raises(InputError):
        beam_roots(0)


# --- basis construction --------------------------------------------------


@pytest.fixture(scope="module")
def basis8():
    return build_basis(1, 8)


@pytest.fixture(scope="module")
def grams8(basis8):
    return assemble_grams(basis8)


@pytest.fixture(scope="module")
def basis2d():
    return build_basis(2, 4)


@pytest.fixture(scope="module")
def grams2d(basis2d):
    return assemble_grams(basis2d)


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        build_basis(3, 4)
    with pytest.raises(InputError):
        build_basis(1, 0)
    with pytest.raises(InputError):
        build_basis(1, 8, 1.0, quad_order=10)  # < 2n+4


def test_clamped_boundary_values():
    basis = build_basis(1, 32)
    for xb in (0.0, basis.L):
        w, w1, _ = _mode_tables(basis.beam_roots, np.array([xb]), basis.L)
        w = w * basis.axis_scale[:, None]
        w1 = w1 * basis.axis_scale[:, None]
        assert np.max(np.abs(w)) < 1e-8
        assert np.max(np.abs(w1)) < 1e-8


def test_boundary_sample_points_2d(basis2d):
    # 20 points along each edge of the square; value and normal slope vanish
    s = np.linspace(0.0, 1.0, 20)
    n = basis2d.modes_per_axis
    for j in range(basis2d.dim):
        coeffs = np.zeros(basis2d.dim)
        coeffs[j] = 1.0
        for edge in (np.column_stack([s, np.zeros_like(s)]),
                     np.column_stack([s, np.ones_like(s)]),
                     np.column_stack([np.zeros_like(s), s]),
                     np.column_stack([np.ones_like(s), s])):
            assert np.max(np.abs(eval_field(coeffs, basis2d, edge))) < 1e-8


def test_normalization_and_orthogonality(basis8):
    qw = basis8.qw
    overlaps = (basis8.phi * qw) @ basis8.phi.T
    assert np.max(np.abs(np.diag(overlaps) - 1.0)) < 1e-12
    off = overlaps - np.diag(np.diag(overlaps))
    assert np.max(np.abs(off)) < 1e-10


def test_m0_identity(grams8):
    assert np.max(np.abs(grams8.M0 - np.eye(8))) < 1e-10


def test_m2_diagonal_beam_relation(basis8, grams8):
    # w'''' = (beta/L)^4 w makes M2 diagonal with those eigenvalues
    expect = (basis8.beam_roots / basis8.L) ** 4
    diag = np.diag(grams8.M2)
    assert np.max(np.abs(diag - expect) / expect) < 1e-8
    scale = np.sqrt(np.outer(diag, diag))
    off = (grams8.M2 - np.diag(diag)) / scale
    assert np.max(np.abs(off)) < 1e-8


def test_m2_diagonal_at_n32():
    basis = build_basis(1, 32)
    grams = assemble_grams(basis)
    expect = (basis.beam_roots / basis.L) ** 4
    assert np.max(np.abs(np.diag(grams.M2) - expect) / expect) < 1e-8


def test_m1_exactly_symmetric(grams8, grams2d):
    assert np.max(np.abs(grams8.M1 - grams8.M1.T)) == 0.0
    assert np.max(np.abs(grams2d.M1 - grams2d.M1.T)) == 0.0


def test_degenerate_basis_raises_assembly_error(basis8):
    phi = basis8.phi.copy()
    phi[1] = phi[0]  # duplicated mode makes M0 singular
    broken = replace(basis8, phi=phi)
    with pytest.raises(AssemblyError):
        assemble_grams(broken)


def test_2d_mass_identity(grams2d):
    assert np.max(np.abs(grams2d.M0 - np.eye(16))) < 1e-10


def test_2d_grams_spd(grams2d):
    for M in (grams2d.M0, grams2d.M1, grams2d.M2):
        w = np.linalg.eigvalsh(M)
        assert w.min() > 0


# --- projections ---------------------------------------------------------


def test_project_basis_function_roundtrip(basis8, grams8):
    e3 = np.zeros(8)
    e3[3] = 1.0
    coeffs = project_initial(lambda x: eval_field(e3, basis8, x), basis8, grams8)
    assert np.max(np.abs(coeffs - e3)) < 1e-10


def test_project_zero(basis8, grams8):
    coeffs = project_initial(lambda x: np.zeros_like(x), basis8, grams8)
    assert np.max(np.abs(coeffs)) < 1e-14


def test_project_scalar_only_field(basis8, grams8):
    # scalar-only callables take the slow fallback but agree with the
    # vectorized path; sin has nonzero boundary slope, so the clamped basis
    # converges slowly and only a loose reconstruction bound makes sense
    scalar = project_initial(lambda x: math.sin(math.pi * x), basis8, grams8)
    vector = project_initial(lambda x: np.sin(math.pi * x), basis8, grams8)
    assert np.max(np.abs(scalar - vector)) < 1e-13
    recon = eval_field(scalar, basis8, basis8.qpts[:, 0])
    target = np.sin(math.pi * basis8.qpts[:, 0])
    assert np.sqrt(basis8.qw @ (recon - target) ** 2) < 0.05


def test_projection_error_decreases():
    errs = []
    for n in (4, 8, 16):
        basis = build_basis(1, n)
        grams = assemble_grams(basis)
        coeffs = project_initial(lambda x: x * (1.0 - x), basis, grams)
        recon = eval_field(coeffs, basis, basis.qpts[:, 0])
        target = basis.qpts[:, 0] * (1.0 - basis.qpts[:, 0])
        errs.append(np.sqrt(basis.qw @ (recon - target) ** 2))
    assert errs[1] < errs[0] and errs[2] < errs[1]


# --- embedding constant --------------------------------------------------


def test_cp_single_mode():
    basis = build_basis(1, 1)
    grams = assemble_grams(basis)
    expect = grams.M1[0, 0] / grams.M2[0, 0]
    assert abs(estimate_cp(grams) - expect) < 1e-12


def test_cp_matches_cholesky_reduced_oracle(grams8, grams2d):
    # numpy's symmetric eigensolver on L^-1 M1 L^-T, L = cholesky(M2), not
    # the scipy generalized eigensolver that estimate_cp calls; 1D and 2D
    for grams in (grams8, grams2d):
        L = np.linalg.cholesky(grams.M2)
        reduced = np.linalg.solve(L, np.linalg.solve(L, grams.M1).T)
        oracle = np.linalg.eigvalsh(reduced)[-1]
        assert abs(estimate_cp(grams) - oracle) <= 1e-13 * oracle


def test_cp_monotone_and_stable():
    vals = {}
    for m in (4, 8, 16, 32):
        grams = assemble_grams(build_basis(1, m))
        vals[m] = estimate_cp(grams)
    assert vals[8] >= vals[4]
    assert vals[16] >= vals[8]
    assert abs(vals[32] - vals[16]) / vals[16] < 1e-3


def test_k0_plugin_positive(grams8):
    cp = estimate_cp(grams8)
    k0 = 2.0 * math.pi * 0.5 * math.e**3 / cp
    assert np.isfinite(k0) and k0 > 0


# --- field evaluation ----------------------------------------------------


def test_eval_zero_coeffs(basis8):
    pts = np.linspace(0.1, 0.9, 7)
    assert np.max(np.abs(eval_field(np.zeros(8), basis8, pts))) == 0.0


def test_eval_outside_domain(basis8, basis2d):
    with pytest.raises(InputError):
        eval_field(np.zeros(8), basis8, np.array([1.5]))
    with pytest.raises(InputError):
        eval_field(np.zeros(16), basis2d, np.array([[0.5, -0.2]]))


def test_parseval(basis8, grams8):
    rng = np.random.RandomState(11)
    for _ in range(20):
        g = rng.standard_normal(8)
        vals = eval_field(g, basis8, basis8.qpts[:, 0])
        quad = basis8.qw @ vals**2
        assert abs(quad - g @ grams8.M0 @ g) < 1e-10 * max(1.0, quad)


def test_bending_gram_consistency(basis8, grams8, basis2d, grams2d):
    rng = np.random.RandomState(23)
    for basis, grams, m in ((basis8, grams8, 8), (basis2d, grams2d, 16)):
        for _ in range(50):
            g = rng.standard_normal(m)
            if basis.spatial_dim == 1:
                vals = eval_laplacian(g, basis, basis.qpts[:, 0])
            else:
                vals = eval_laplacian(g, basis, basis.qpts)
            quad = basis.qw @ vals**2
            ref = g @ grams.M2 @ g
            assert abs(quad - ref) < 1e-9 * max(1.0, ref)


def test_eval_matches_tables(basis8):
    # the synthesis path and the precomputed quadrature tables must agree
    rng = np.random.RandomState(3)
    g = rng.standard_normal(8)
    direct = g @ basis8.phi
    synth = eval_field(g, basis8, basis8.qpts[:, 0])
    assert np.max(np.abs(direct - synth)) < 1e-11
