"""Galerkin space for the clamped plate: beam-mode basis, Gram matrices,
projections, and the embedding-constant estimate.

The basis realizes the abstract separable space concretely: clamped-clamped
Euler beam eigenfunctions on (0, L) in 1D and their tensor products on the
square in 2D.  Both the function and its normal derivative vanish at the
boundary, and the 1D modes diagonalize the bending Gram matrix.

Mode shapes are evaluated in an exponential form that avoids the cosh/cos
cancellation: with z = beta x / L and sigma the standard clamped-mode mixing
ratio, the difference 1 - sigma is computed from a cancellation-free closed
form so that (1 - sigma) e^z stays O(1) even for beta ~ 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve

from .errors import AssemblyError, InputError
from .kernels import invert_increasing

CP_TOL = 1e-10


def beam_roots(count: int) -> np.ndarray:
    """First `count` positive roots of cos(b) cosh(b) = 1.

    One elementwise bisection on the brackets ((j + 1/4) pi, (j + 3/4) pi) of
    cos(b) - sech(b), signed per bracket to increase; sech avoids cosh overflow.
    """
    if count < 1:
        raise InputError("need at least one root")
    j = np.arange(1, count + 1)
    sign = np.where(j % 2 == 1, 1.0, -1.0)  # cos((j + 1/4) pi) has the sign of (-1)^j

    def f(b):
        return sign * (np.cos(b) - 1.0 / np.cosh(b))

    return invert_increasing(f, np.zeros(count), (j + 0.25) * math.pi, (j + 0.75) * math.pi)


def _one_minus_sigma(beta: np.ndarray) -> np.ndarray:
    # 1 - (cosh b - cos b)/(sinh b - sin b) without catastrophic cancellation
    return (np.cos(beta) - np.sin(beta) - np.exp(-beta)) / (np.sinh(beta) - np.sin(beta))


def _mode_tables(roots: np.ndarray, x: np.ndarray, L: float):
    """Raw (unnormalized) mode values and first/second derivatives.

    Returns three arrays of shape (len(roots), len(x)).
    """
    beta = np.asarray(roots, dtype=float)
    x = np.asarray(x, dtype=float)
    oms = _one_minus_sigma(beta)[:, None]  # 1 - sigma, exact to rounding
    sig = 1.0 - oms
    z = np.outer(beta / L, x)
    # (1 - sigma) ~ e^{-beta}, so this product stays O(1) instead of
    # overflowing the way cosh(z) - sigma sinh(z) would lose digits
    ep = 0.5 * oms * np.exp(z)
    em = 0.5 * (1.0 + sig) * np.exp(-z)
    cz, sz = np.cos(z), np.sin(z)
    scale = (beta / L)[:, None]
    w = ep + em - cz + sig * sz
    w1 = scale * (ep - em + sz + sig * cz)
    w2 = scale**2 * (ep + em + cz - sig * sz)
    return w, w1, w2


@dataclass(frozen=True, eq=False)
class Basis:
    """Precomputed Galerkin basis with flattened quadrature tables.

    phi, lap hold mode values / Laplacians at the flattened quadrature
    points (shape (dim, nq)); grad holds one table per space direction;
    qw are the flattened quadrature weights and qpts the node coordinates.
    """

    spatial_dim: int
    modes_per_axis: int
    dim: int
    beam_roots: np.ndarray
    L: float
    quad_order: int
    axis_scale: np.ndarray
    phi: np.ndarray
    lap: np.ndarray
    grad: tuple
    qw: np.ndarray
    qpts: np.ndarray


def build_basis(spatial_dim: int, n: int, L: float = 1.0, quad_order: int | None = None) -> Basis:
    """Assemble the normalized mode tables on a Gauss-Legendre grid.

    quad_order defaults to 2n + 16; anything below 2n + 4 is refused since
    products of the highest modes would alias.
    """
    if spatial_dim not in (1, 2):
        raise InputError(f"spatial_dim must be 1 or 2, got {spatial_dim}")
    if n < 1:
        raise InputError("need at least one mode per axis")
    if L <= 0:
        raise InputError("domain length must be positive")
    if quad_order is None:
        quad_order = 2 * n + 16
    if quad_order < 2 * n + 4:
        raise InputError(f"quad_order {quad_order} under-resolves {n} modes (need >= {2 * n + 4})")

    t, wt = leggauss(quad_order)
    x = 0.5 * L * (t + 1.0)
    wx = 0.5 * L * wt
    roots = beam_roots(n)
    W, W1, W2 = _mode_tables(roots, x, L)
    nrm = np.sqrt((W**2) @ wx)
    scale = 1.0 / nrm
    W, W1, W2 = W * scale[:, None], W1 * scale[:, None], W2 * scale[:, None]

    if spatial_dim == 1:
        phi, lap, grad = W, W2, (W1,)
        qw = wx
        qpts = x[:, None]
        dim = n
    else:
        dim = n * n
        nq = quad_order * quad_order
        phi = np.einsum("ja,kb->jkab", W, W).reshape(dim, nq)
        lap = (
            np.einsum("ja,kb->jkab", W2, W) + np.einsum("ja,kb->jkab", W, W2)
        ).reshape(dim, nq)
        gx = np.einsum("ja,kb->jkab", W1, W).reshape(dim, nq)
        gy = np.einsum("ja,kb->jkab", W, W1).reshape(dim, nq)
        grad = (gx, gy)
        qw = np.outer(wx, wx).ravel()
        X, Y = np.meshgrid(x, x, indexing="ij")
        qpts = np.column_stack([X.ravel(), Y.ravel()])

    return Basis(
        spatial_dim=spatial_dim,
        modes_per_axis=n,
        dim=dim,
        beam_roots=roots,
        L=float(L),
        quad_order=quad_order,
        axis_scale=scale,
        phi=phi,
        lap=lap,
        grad=grad,
        qw=qw,
        qpts=qpts,
    )


@dataclass(frozen=True, eq=False)
class GramSet:
    """Mass, gradient, and bending Gram matrices with cached factorizations."""

    M0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    _cho_m0: tuple = field(repr=False, default=None)
    _cho_m2: tuple = field(repr=False, default=None)

    def solve_m0(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._cho_m0, rhs)

    def solve_m2(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._cho_m2, rhs)


def assemble_grams(basis: Basis) -> GramSet:
    """Quadrature assembly of M0, M1, M2; SPD verified by Cholesky."""
    qw = basis.qw
    M0 = (basis.phi * qw) @ basis.phi.T
    M2 = (basis.lap * qw) @ basis.lap.T
    M1 = np.zeros_like(M0)
    for g in basis.grad:
        M1 += (g * qw) @ g.T
    M0 = 0.5 * (M0 + M0.T)
    M1 = 0.5 * (M1 + M1.T)
    M2 = 0.5 * (M2 + M2.T)
    try:
        cho0 = cho_factor(M0)
        cho_factor(M1)
        cho2 = cho_factor(M2)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"Gram matrix not positive definite: {exc}") from exc
    except ValueError as exc:
        raise AssemblyError(f"Gram assembly produced invalid entries: {exc}") from exc
    return GramSet(M0=M0, M1=M1, M2=M2, _cho_m0=cho0, _cho_m2=cho2)


def project_initial(fieldfun, basis: Basis, grams: GramSet) -> np.ndarray:
    """L2 projection of a pointwise function onto the basis."""
    coords = [basis.qpts[:, d] for d in range(basis.spatial_dim)]
    try:
        vals = np.asarray(fieldfun(*coords), dtype=float)
        if vals.shape != (basis.qpts.shape[0],):
            raise TypeError
    except TypeError:
        vals = np.array([float(fieldfun(*p)) for p in basis.qpts])
    load = basis.phi @ (basis.qw * vals)
    coeffs = grams.solve_m0(load)
    if not np.all(np.isfinite(coeffs)):
        raise AssemblyError("projection produced non-finite coefficients")
    return coeffs


def estimate_cp(grams: GramSet, tol: float = CP_TOL, max_iter: int = 20000) -> float:
    """Largest generalized eigenvalue of M1 x = lambda M2 x by power iteration.

    This is the subspace Poincare-type constant tying the gradient norm to
    the bending norm; it underestimates the true constant and grows with m.
    """
    m = grams.M1.shape[0]
    x = np.ones(m) / math.sqrt(m)
    lam = 0.0
    for _ in range(max_iter):
        y = grams.solve_m2(grams.M1 @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise AssemblyError("power iteration collapsed to the null vector")
        x_new = y / ny
        lam_new = float(x_new @ grams.M1 @ x_new) / float(x_new @ grams.M2 @ x_new)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam, x = lam_new, x_new
    return lam


def _point_tables(basis: Basis, points: np.ndarray):
    pts = np.asarray(points, dtype=float)
    if basis.spatial_dim == 1:
        pts = np.atleast_1d(pts.squeeze())
        if pts.ndim != 1:
            raise InputError("1D evaluation expects a flat array of points")
        coords = [pts]
    else:
        pts = np.atleast_2d(pts)
        if pts.shape[1] != 2:
            raise InputError("2D evaluation expects points of shape (p, 2)")
        coords = [pts[:, 0], pts[:, 1]]
    for c in coords:
        if np.any(c < -1e-12) or np.any(c > basis.L + 1e-12):
            raise InputError("evaluation point outside the domain")
    tabs = []
    for c in coords:
        w, w1, w2 = _mode_tables(basis.beam_roots, c, basis.L)
        s = basis.axis_scale[:, None]
        tabs.append((w * s, w1 * s, w2 * s))
    return tabs


def eval_field(coeffs: np.ndarray, basis: Basis, points) -> np.ndarray:
    """Pointwise synthesis sum_j g_j w_j at arbitrary interior points."""
    coeffs = np.asarray(coeffs, dtype=float)
    tabs = _point_tables(basis, points)
    if basis.spatial_dim == 1:
        return coeffs @ tabs[0][0]
    n = basis.modes_per_axis
    G = coeffs.reshape(n, n)
    return np.einsum("jk,jp,kp->p", G, tabs[0][0], tabs[1][0])


def eval_laplacian(coeffs: np.ndarray, basis: Basis, points) -> np.ndarray:
    """Pointwise synthesis of the Laplacian of the represented field."""
    coeffs = np.asarray(coeffs, dtype=float)
    tabs = _point_tables(basis, points)
    if basis.spatial_dim == 1:
        return coeffs @ tabs[0][2]
    n = basis.modes_per_axis
    G = coeffs.reshape(n, n)
    return np.einsum("jk,jp,kp->p", G, tabs[0][2], tabs[1][0]) + np.einsum(
        "jk,jp,kp->p", G, tabs[0][0], tabs[1][2]
    )
