"""Property tests for the run-length memory series.

The oracle is the product-trapezoid sum written out as direct sums with
one lower-triangular weight matrix: row n holds, for the nodes t_i with lag
t_n - t_i >= lag_min, trapezoid weights from their spacing times the kernel
at each lag.  It shares no code with the FFT evaluation in
viscoplate.memory.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscoplate import memory
from viscoplate.kernels import RelaxationKernel
from viscoplate.spectral import assemble_grams, build_basis

LAG_TOL = 1e-9


@functools.cache
def bending_gram(cols: int) -> np.ndarray:
    # 1 and 8 columns: 1D bases; 64 columns: the 2D n = 8 basis
    basis = build_basis(2, 8) if cols == 64 else build_basis(1, cols)
    return assemble_grams(basis).M2


def brute_series(times, G, M2, fn, dt, lag_min):
    """(scal, C, Bw, nodes per row, absolute weight sum per row).

    Row n of the lower-triangular matrix W holds the weights of the nodes
    t_i with lag t_n - t_i >= lag_min: half the spacing to each
    neighbouring node, times the kernel at the lag.  Those nodes are
    0 .. last[n], which the oracle checks rather than assumes.
    """
    N = len(times)
    lag = times[:, None] - times[None, :]
    col = np.arange(N)[None, :]
    use = (col <= col.T) & (lag >= lag_min - LAG_TOL * max(dt, 1.0))
    count = use.sum(axis=1)
    last = (count - 1)[:, None]
    assert np.array_equal(use, col <= last)
    half = 0.5 * np.diff(times)
    W = np.where(col < last, np.append(half, 0.0), 0.0)  # the interval after node i
    W += np.where((col >= 1) & (col <= last), np.insert(half, 0, 0.0), 0.0)  # the one before
    W *= fn(np.where(W != 0.0, lag, 0.0))
    # |D(g_n - g_i)|^2 = p_n + p_i - 2 g_n M2 g_i for every pair
    Q = G @ M2 @ G.T
    p = np.diag(Q)
    scal = (W * (p[:, None] + p[None, :] - 2.0 * Q)).sum(axis=1)
    return scal, W @ G, W.sum(axis=1), count, np.abs(W).sum(axis=1)


def tabulated_kernel(table_t, values, horizon):
    """Piecewise-linear b and its slope, zero beyond the horizon (a jump)."""
    slopes = np.gradient(values, table_t)

    def cut(t, table):
        t = np.asarray(t, dtype=float)
        return np.where(t > horizon, 0.0, np.interp(t, table_t, table))

    return SimpleNamespace(value=lambda t: cut(t, values), deriv=lambda t: cut(t, slopes))


@st.composite
def cases(draw):
    N = draw(st.integers(2, 400))
    dt = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    times = np.arange(N) * dt
    cols = draw(st.sampled_from([1, 8, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((N, cols)) * 10.0 ** draw(st.integers(-3, 1))
    family = draw(st.sampled_from(["exponential", "power", "tabulated"]))
    if family == "exponential":
        kernel = RelaxationKernel.exponential(draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 20.0)))
    elif family == "power":
        kernel = RelaxationKernel.power_law(draw(st.floats(0.1, 2.0)), draw(st.floats(1.1, 4.0)))
    else:
        # a jump on a node would be decided by the rounding of t_n - t_i,
        # so the horizon sits midway between grid lags, inside the run
        horizon = (draw(st.integers(0, N - 2)) + 0.5) * dt
        table_t = np.linspace(0.0, draw(st.floats(0.5, 2.0)) * (times[-1] + dt), 7)
        kernel = tabulated_kernel(table_t, rng.uniform(0.0, 1.0, 7), horizon)
    where = draw(st.sampled_from(["zero", "on grid", "off grid", "past the end"]))
    j = draw(st.integers(0, N - 1))
    if where == "zero":
        lag_min = 0.0
    elif where == "on grid":
        lag_min = times[j]
    elif where == "off grid":
        lag_min = (j + draw(st.floats(0.05, 0.95))) * dt
    else:
        lag_min = times[-1] + draw(st.sampled_from([0.0, 0.3 * dt, 10.0]))
    return times, G, kernel, dt, lag_min, where


def history(G, M2):
    """(G, G M2, p) with p_n = g_n M2 g_n: the rows `memory.series` reads."""
    GM2 = G @ M2
    return G, GM2, np.einsum("ij,ij->i", GM2, G)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cases())
def test_series_matches_brute_force_product_trapezoid(case):
    # one call with the value and derivative terms, from lag 0 and from the
    # drawn lag_min, each checked against the oracle
    times, G, kernel, dt, lag_min, where = case
    M2 = bending_gram(G.shape[1])
    G, GM2, p = history(G, M2)
    terms = [(fn, lm) for lm in (0.0, lag_min) for fn in (kernel.value, kernel.deriv)]
    for (fn, lm), (scal, C, Bw) in zip(terms, memory.series(G, GM2, p, dt, terms), strict=True):
        ref_scal, ref_C, ref_Bw, count, absw = brute_series(times, G, M2, fn, dt, lm)
        # error scales: sums of |w b| times the largest term of each column
        scale_B = float(absw.max())
        assert np.max(np.abs(Bw - ref_Bw)) <= 1e-12 * scale_B
        assert np.max(np.abs(C - ref_C)) <= 1e-12 * scale_B * float(np.abs(G).max())
        assert np.max(np.abs(scal - ref_scal)) <= 1e-12 * scale_B * 4.0 * float(p.max())
        short = count < 2
        assert np.all(scal[short] == 0.0) and np.all(Bw[short] == 0.0)
        assert np.all(C[short] == 0.0)
        if lm == lag_min and where == "past the end":
            assert short.all()


def test_multi_term_series_equals_single_term_calls_bit_for_bit():
    dt, N = 1e-2, 700
    G = 0.01 * np.random.default_rng(7).standard_normal((N, 8))
    rows = history(G, bending_gram(8))
    terms = []
    for kernel in (RelaxationKernel.exponential(0.5, 1.0), RelaxationKernel.power_law(0.4, 3.0)):
        terms += [(kernel.value, 0.0), (kernel.deriv, 0.0), (kernel.deriv, 1.23)]
    for term, got in zip(terms, memory.series(*rows, dt, terms), strict=True):
        (want,) = memory.series(*rows, dt, [term])
        for x, y in zip(got, want, strict=True):
            assert np.array_equal(x, y)


def test_series_of_a_zero_lag_table_is_positive_zero_without_a_transform(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a zero lag table needs no transform")

    monkeypatch.setattr(memory, "rfft", refuse)
    dt, N = 1e-2, 300
    G = np.random.default_rng(3).standard_normal((N, 8))
    kernel = RelaxationKernel.zero()
    terms = [(kernel.value, 0.0), (kernel.deriv, 0.0), (kernel.deriv, 1.0)]
    out = memory.series(*history(G, bending_gram(8)), dt, terms)
    assert len(out) == len(terms)
    for scal, C, Bw in out:
        assert scal.shape == Bw.shape == (N,) and C.shape == (N, 8)
        for x in (scal, C, Bw):
            assert np.all(x == 0.0) and not np.signbit(x).any()


# --- scipy.fft as the oracle of the FFT path ------------------------------


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    assert [memory._fast_len(n) for n in range(1, 20001)] == [
        next_fast_len(n, real=True) for n in range(1, 20001)
    ]


@pytest.mark.parametrize("N", [1001, 5001])
def test_series_bit_identical_to_scipy_fft(monkeypatch, N):
    # numpy.fft and scipy.fft both run pocketfft: the series must not move
    # a bit when scipy's transforms and fast length are swapped in
    import scipy.fft

    dt = 1e-3
    G = 0.01 * np.random.default_rng(N).standard_normal((N, 8))
    M2 = bending_gram(8)
    fn = RelaxationKernel.exponential(0.5, 1.0).value
    (got,) = memory.series(*history(G, M2), dt, [(fn, 0.0)])
    monkeypatch.setattr(memory, "rfft", scipy.fft.rfft)
    monkeypatch.setattr(memory, "irfft", scipy.fft.irfft)
    monkeypatch.setattr(memory, "_fast_len", lambda n: scipy.fft.next_fast_len(n, real=True))
    (want,) = memory.series(*history(G, M2), dt, [(fn, 0.0)])
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


# --- the substep fallback's sums against exact lags -----------------------


def exact_lag_conv(kernel, dt, G, n, sub, pieces):
    """off_grid's conv in 30-digit arithmetic: the nodes sit at the integer
    positions i pieces and n pieces + k, each lag is the exact position
    difference times h = dt / pieces, and the trapezoid weight of a node is
    half the spacing to its neighbours; the end node's weight is the form's.
    """
    import mpmath

    with mpmath.workdps(30):
        h = mpmath.mpf(dt) / pieces
        b0 = mpmath.mpf(kernel.b0)
        if kernel.family == "exponential":
            rate = mpmath.mpf(kernel.rate)
            b = lambda t: b0 * mpmath.exp(-rate * t)  # noqa: E731
        else:
            q = mpmath.mpf(kernel.q)
            b = lambda t: b0 * (1 + t) ** -q  # noqa: E731
        pos = [i * pieces for i in range(n + 1)] + [n * pieces + k for k in range(1, len(sub) + 1)]
        rows = np.vstack((G[: n + 1], sub[:-1]))
        spans = [mpmath.mpf(pos[i + 1] - pos[max(i - 1, 0)]) / 2 for i in range(len(rows))]
        c = [span * b((pos[-1] - p) * h) * h for span, p in zip(spans, pos)]
        return np.array([float(mpmath.fdot(c, [mpmath.mpf(x) for x in col])) for col in rows.T])


@pytest.mark.parametrize("kernel", [RelaxationKernel.exponential(0.5, 1.0), RelaxationKernel.power_law(0.4, 3.0)])
@pytest.mark.parametrize("dt", [1e-3, 1.9])
def test_off_grid_matches_exact_lag_sum(kernel, dt):
    # every substep J of 2 and 8 pieces after n = 0, 1 and 300 grid steps:
    # off_grid's conv within 2e-15 of the largest entry of the exact-lag
    # sum.  Node times rounded to floats moved these sums by up to 3e-15 at
    # dt = 1e-3 and 3e-13 at dt = 1.9
    rng = np.random.default_rng(17)
    for n in (0, 1, 300):
        G = rng.standard_normal((n + 1, 3))
        load = memory.StepLoad(kernel, dt, n + 1)
        for pieces in (2, 8):
            sub = rng.standard_normal((pieces, 3))
            for J in range(1, pieces + 1):
                got = load.off_grid(G, n, sub[:J], pieces)
                want = exact_lag_conv(kernel, dt, G, n, sub[:J], pieces)
                assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
