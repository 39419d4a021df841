"""Galerkin space for the clamped plate: beam-mode basis, Gram matrices,
projections, and the embedding constant.

The basis realizes the abstract separable space concretely: clamped-clamped
Euler beam eigenfunctions on (0, L) in 1D and their tensor products on the
square in 2D.  Both the function and its normal derivative vanish at the
boundary, and the 1D modes diagonalize the bending Gram matrix.  The basis
holds values and Laplacians only: since every mode is 0 on the boundary,
Green's identity gives the gradient Gram from them, int grad w_i . grad w_j
= -int (Laplacian w_i) w_j, so no first-derivative table is formed.

Mode shapes are evaluated in an exponential form that avoids the cosh/cos
cancellation: with z = beta x / L and sigma the standard clamped-mode mixing
ratio, the difference 1 - sigma is computed from a cancellation-free closed
form so that (1 - sigma) e^z stays O(1).  e^beta itself must stay finite:
the j-th root tends to (j + 1/2) pi exponentially fast, so at most
MAX_MODES = 225 modes per axis have roots below log(float max) = 709.78.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AssemblyError, InputError
from .kernels import invert_increasing

_LOG_MAX = math.log(np.finfo(float).max)  # 709.78
MAX_MODES = int(_LOG_MAX / math.pi - 0.5)  # 225, the last beam root below _LOG_MAX


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
    """Raw (unnormalized) mode values and second derivatives.

    Returns two arrays of shape (len(roots), len(x)).
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
    w2 = scale**2 * (ep + em + cz - sig * sz)
    return w, w2


@dataclass(frozen=True, eq=False)
class Basis:
    """Precomputed Galerkin basis with flattened quadrature tables.

    phi, lap hold mode values / Laplacians at the flattened quadrature
    points (shape (dim, nq)); no gradient table is held, since every mode
    vanishes on the boundary and M1 follows from lap and phi (GramSet);
    qw are the flattened quadrature weights, phi_qw = phi * qw projects
    point values onto the basis, and qpts are the node coordinates.
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
    qw: np.ndarray
    phi_qw: np.ndarray
    qpts: np.ndarray


def check_basis_args(spatial_dim: int, n: int, L: float, quad_order: int | None) -> None:
    """Refuse the arguments build_basis cannot honour.

    A quad_order below 2n + 4 is refused since products of the highest
    modes would alias, and more than MAX_MODES modes since their tables
    would overflow.
    """
    if spatial_dim not in (1, 2):
        raise InputError(f"spatial_dim must be 1 or 2, got {spatial_dim}")
    if n < 1:
        raise InputError("need at least one mode per axis")
    if n > MAX_MODES:
        raise InputError(
            f"{n} modes per axis overflow the mode tables: the largest beam root, about "
            f"{(n + 0.5) * math.pi:.2f}, passes log(float max) = {_LOG_MAX:.2f} "
            f"(at most {MAX_MODES} modes)"
        )
    if L <= 0:
        raise InputError("domain length must be positive")
    if quad_order is not None and quad_order < 2 * n + 4:
        raise InputError(f"quad_order {quad_order} under-resolves {n} modes (need >= {2 * n + 4})")


def _tensor(tables: list) -> np.ndarray:
    """Kronecker product of per-axis (modes, points) tables, the first axis slowest."""
    out = tables[0]
    for table in tables[1:]:
        out = np.einsum("ja,kb->jkab", out, table).reshape(len(out) * len(table), -1)
    return out


def build_basis(spatial_dim: int, n: int, L: float = 1.0, quad_order: int | None = None) -> Basis:
    """Assemble the normalized mode tables on a Gauss-Legendre grid.

    quad_order defaults to 2n + 16; see check_basis_args for what is refused.
    Tables too large to allocate raise InputError.
    """
    check_basis_args(spatial_dim, n, L, quad_order)
    if quad_order is None:
        quad_order = 2 * n + 16
    try:
        return _build_basis(spatial_dim, n, float(L), quad_order)
    except MemoryError:
        # the largest table: leggauss's q x q companion matrix in 1D, phi's n^2 x q^2 in 2D
        nbytes = 8 * max(quad_order**2, (n * quad_order) ** spatial_dim)
        raise InputError(
            f"{n} modes per axis at quadrature order {quad_order} in {spatial_dim}D need a "
            f"{nbytes:.3g}-byte table, more than can be allocated"
        ) from None


def _build_basis(spatial_dim: int, n: int, L: float, quad_order: int) -> Basis:
    t, wt = leggauss(quad_order)
    x = 0.5 * L * (t + 1.0)
    wx = 0.5 * L * wt
    roots = beam_roots(n)
    # an L near 0 overflows the second-derivative table; assemble_grams refuses the inf
    with np.errstate(over="ignore"):
        W, W2 = _mode_tables(roots, x, L)
        nrm = np.sqrt((W**2) @ wx)
        scale = 1.0 / nrm
        W, W2 = W * scale[:, None], W2 * scale[:, None]

    phi = _tensor([W] * spatial_dim)
    # the Laplacian: W2 on axis k and W on the others, summed over the axes k
    axes = range(spatial_dim)
    lap = functools.reduce(np.add, [_tensor([W2 if i == k else W for i in axes]) for k in axes])
    qw = _tensor([wx[None, :]] * spatial_dim)[0]
    qpts = np.column_stack([X.ravel() for X in np.meshgrid(*[x] * spatial_dim, indexing="ij")])

    return Basis(
        spatial_dim=spatial_dim,
        modes_per_axis=n,
        dim=len(phi),
        beam_roots=roots,
        L=L,
        quad_order=quad_order,
        axis_scale=scale,
        phi=phi,
        lap=lap,
        qw=qw,
        phi_qw=phi * qw,
        qpts=qpts,
    )


@dataclass(frozen=True, eq=False)
class GramSet:
    """Mass, gradient, and bending Gram matrices, and their sum S = M0 + M2.

    The gradient Gram M1 comes from Green's identity, M1 = -int (Laplacian
    w_i) w_j, which holds because every basis function is 0 on the boundary.
    """

    M0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    S: np.ndarray


def assemble_grams(basis: Basis) -> GramSet:
    """Quadrature assembly of M0, M1, M2; finite entries and SPD verified (Cholesky).

    M1 = -(lap * qw) @ phi.T by Green's identity (w = 0 on the boundary), so
    it needs no gradient table; each Gram is symmetrised as (M + M.T) / 2.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite tables are refused below
        lap_qw = basis.lap * basis.qw
        M0 = basis.phi_qw @ basis.phi.T
        M1 = -(lap_qw @ basis.phi.T)
        M2 = lap_qw @ basis.lap.T
        M0 = 0.5 * (M0 + M0.T)
        M1 = 0.5 * (M1 + M1.T)
        M2 = 0.5 * (M2 + M2.T)
    for M in (M0, M1, M2):
        if not np.isfinite(M).all():
            raise AssemblyError("Gram assembly produced invalid entries: non-finite values")
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"Gram matrix not positive definite: {exc}") from exc
    return GramSet(M0=M0, M1=M1, M2=M2, S=M0 + M2)


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
    coeffs = np.linalg.solve(grams.M0, load)
    if not np.all(np.isfinite(coeffs)):
        raise AssemblyError("projection produced non-finite coefficients")
    return coeffs


def estimate_cp(grams: GramSet) -> float:
    """Largest generalized eigenvalue of M1 x = lambda M2 x.

    Reduced by the Cholesky factor M2 = L L^T to the symmetric problem for
    L^-1 M1 L^-T.  This is the subspace Poincare-type constant tying the
    gradient norm to the bending norm; it underestimates the true constant
    and grows with m.
    """
    L = np.linalg.cholesky(grams.M2)
    reduced = np.linalg.solve(L, np.linalg.solve(L, grams.M1).T)
    return float(np.linalg.eigvalsh(reduced)[-1])


# Rows per block of a product over a run's samples.  OpenBLAS (0.3.31)
# hands a product of about 1e6 multiply-adds to its thread pool, and a
# woken worker then spins through the code that follows.  A block of up
# to 2 * ROW_BLOCK - 1 rows stays under that for every 1D basis of up to
# 16 modes (16 x 48 per row), so it runs on the calling thread.
ROW_BLOCK = 512


def sample_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for a tall A with one row per sample, in blocks of ROW_BLOCK rows.

    The last block also takes the remainder, so no block has a single row
    (numpy sends one row to gemv, whose sums may round differently).  With
    at most 16 columns in A, and for the 2D 64-mode table, the result has
    the bits of A @ B; wider A may differ in the last bit, since OpenBLAS
    picks its kernel by the product's size.
    """
    count = len(A) // ROW_BLOCK
    if count < 2:
        return A @ B
    out = np.empty((len(A), B.shape[1]))
    for i in range(count):
        rows = slice(i * ROW_BLOCK, (i + 1) * ROW_BLOCK if i + 1 < count else len(A))
        np.matmul(A[rows], B, out=out[rows])
    return out


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
    s = basis.axis_scale[:, None]
    return [tuple(t * s for t in _mode_tables(basis.beam_roots, c, basis.L)) for c in coords]


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
        return coeffs @ tabs[0][1]
    n = basis.modes_per_axis
    G = coeffs.reshape(n, n)
    return np.einsum("jk,jp,kp->p", G, tabs[0][1], tabs[1][0]) + np.einsum(
        "jk,jp,kp->p", G, tabs[0][0], tabs[1][1]
    )
