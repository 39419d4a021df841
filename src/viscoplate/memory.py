"""The product-trapezoid rule for the fading-memory convolution.

Every memory integral int b(t - s) f(s) ds in the package uses one rule:
trapezoid weights on the history nodes times the kernel at the lag, which
keeps the discrete energy identity exact.  `weights` evaluates it at one
time, directly (the reference that acceptance criterion C07 checks);
`series` evaluates it at every sample of a run as FFT convolutions, one
per kernel term over one transform of the history (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985);
`StepLoad` gives it to each step of the Newmark stepper.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import irfft, rfft


def weights(nodes: np.ndarray, t: float, fn) -> np.ndarray:
    """Trapezoid weights of the nodes s_i times fn(t - s_i).

    fn is kernel.value or kernel.deriv.  Fewer than two nodes span no
    interval, so their weights are zero.
    """
    w = np.zeros(nodes.shape[0])
    if nodes.shape[0] < 2:
        return w
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return w * fn(t - nodes)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast."""
    best = 1
    while best < n:
        best *= 2
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def series(G: np.ndarray, GM2: np.ndarray, p: np.ndarray, dt: float, terms):
    """Product-trapezoid convolutions at every sample t_n = n dt of a run.

    G holds the rows g_n, GM2 the rows g_n M2 and p the bending g_n M2 g_n.
    Each term (fn, lag_min) gives its row n as the integral over the nodes
    i = 0 .. n - m, where m is the first lag index with m dt >= lag_min -
    1e-9 max(dt, 1), with weights dt halved at both ends; rows with fewer
    than two nodes are zero, and so is every row of a term whose kernel is
    zero at each of its lags (no transform is taken for it).  With b = fn
    at the lags j dt, each term gives (scal, C, Bw):

        scal[n] = sum_i w_i b(t_n - t_i) |D(g_n - g_i)|^2   (M2 form)
        C[n]    = sum_i w_i b(t_n - t_i) g_i
        Bw[n]   = sum_i w_i b(t_n - t_i)

    All terms share one transform of the history [G, p, 1].
    """
    N = len(G)
    lags = np.arange(N) * dt
    X = np.column_stack([G, p, np.ones(N)])
    size, FX, out = _fast_len(2 * N - 1), None, []
    for fn, lag_min in terms:
        m = int(np.searchsorted(lags, lag_min - 1e-9 * max(dt, 1.0)))
        K = dt * fn(lags)
        K[:m] = 0.0
        if N - m < 2 or not K.any():
            out.append((np.zeros(N), np.zeros_like(G), np.zeros(N)))
            continue
        FX = rfft(X, size, axis=0) if FX is None else FX
        S = irfft(rfft(K, size)[:, None] * FX, size, axis=0)[:N]
        # the full convolution weighs every node by dt; halve both ends
        rows = np.arange(m + 1, N)
        S[rows] -= 0.5 * (K[rows, None] * X[0] + K[m] * X[rows - m])
        S[: m + 1] = 0.0
        C, Bw = S[:, :-2], S[:, -1]
        out.append((p * Bw + S[:, -2] - 2.0 * np.einsum("ij,ij->i", GM2, C), C, Bw))
    return out


class StepLoad:
    """The memory sums of the Newmark steps of one run on the grid t_i = i dt.

    The load of the step t_n -> t_n+1 is M2 (conv + w_end g_n+1), with the
    product-trapezoid sum conv = sum_i w_i K[n+1-i] g_i over the rows
    g_0 .. g_n (w_0 = 1/2, w_i = 1 otherwise) of the lags K[j] = dt b(j dt),
    and w_end = K[0] / 2.  An exponential kernel has K[j+1] = q K[j] with
    q = exp(-rate dt), so conv_n = q conv_n-1 + K[1] g_n is carried from
    step to step, built from K[0] and K[1] alone: O(1) per step.  Any other
    kernel takes conv as one product with the lag table of the run's steps,
    built once.  `grid` writes conv into the stepper's step row, where the
    exponential carry lives.  Sums at the off-grid times of the substep
    fallback use `weights`.
    """

    def __init__(self, kernel, dt: float, steps: int):
        self.kernel = kernel
        self._lags = None
        if kernel.family == "exponential":
            k0, self._k1 = dt * kernel.value(np.array([0.0, dt]))
            self._q, self._n = math.exp(-kernel.rate * dt), -1
        else:
            # entry steps + 1 - j is K[j], so the lags n+1 .. 1 of step n
            # are the contiguous slice [-n-2:-1]
            self._lags = dt * kernel.value(np.arange(steps + 1, -1, -1) * dt)
            k0 = self._lags[-1]
        self.w_end = 0.5 * k0

    def grid(self, G: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
        """conv of the step from t_n, over the rows G[0 .. n], written to out
        (the conv part of the stepper's step row) and returned.  The carry of
        an exponential kernel lives in out: each step passes the same array,
        the steps in order, and a second call at the same n leaves it."""
        if self._lags is None:
            if n != self._n:
                if n == 0:
                    np.multiply(G[0], 0.5 * self._k1, out=out)
                else:
                    np.multiply(out, self._q, out=out)
                    out += self._k1 * G[n]
                self._n = n
            return out
        w = self._lags[-n - 2 : -1]
        w.dot(G[: n + 1], out=out)
        out -= (0.5 * w[0]) * G[0]  # the trapezoid halves the first node
        return out

    def off_grid(self, nodes: np.ndarray, rows: np.ndarray, t: float):
        """(conv, w_end) of the integral to t over the nodes, with rows, and t."""
        w = weights(np.append(nodes, t), t, self.kernel.value)
        return rows.T @ w[:-1], w[-1]
