"""Reference values the benchmark computes itself, without importing walsh_lab.

The Paley-ordered Walsh matrix is ``H[n, i] = (-1)**popcount(n & rev(i))``
with ``rev`` the m-bit reversal, so ``H @ x`` is the Sylvester-ordered
Hadamard transform of ``x[rev]``.  The transform below permutes the input
(the package permutes the output) and runs its butterfly from the widest
stride down (the package runs it from the narrowest up), so the two share no
code and no operation order.  ``H`` is symmetric, hence ``H @ H = N I`` and a
multiplier with coefficient diagonal ``a`` is ``H (a * H x) / N``.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf
# Relative tolerance for float results that the package and the oracle
# compute in different operation orders: a 20-level butterfly in float64
# agrees to about 1e-15 relative in the 2-norm, so this leaves a wide margin.
REL_TOL = 1e-12


def bit_reversal(m: int) -> np.ndarray:
    """rev[i] = i with its m binary digits reversed (axis-reversal of a 2**m cube)."""
    if m == 0:
        return np.zeros(1, dtype=np.int64)
    return np.arange(1 << m, dtype=np.int64).reshape((2,) * m).transpose().ravel()


def paley_transform(x: np.ndarray) -> np.ndarray:
    """Unnormalised Paley-ordered Walsh transform along the last axis."""
    x = np.asarray(x)
    n = x.shape[-1]
    m = n.bit_length() - 1
    dtype = np.int64 if x.dtype.kind in "bui" else np.result_type(x.dtype, np.float64)
    y = np.ascontiguousarray(x[..., bit_reversal(m)], dtype=dtype)
    rows = y.reshape(-1, n)
    h = n // 2
    while h >= 1:
        v = rows.reshape(rows.shape[0], -1, 2, h)
        lo, hi = v[:, :, 0, :], v[:, :, 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h //= 2
    return y


def walsh_function(n: int, m: int) -> np.ndarray:
    """Cell values of W_n at resolution m, as float64 +-1."""
    parity = np.bitwise_count(np.bitwise_and(np.int64(n), bit_reversal(m))) & 1
    return 1.0 - 2.0 * parity


def apply_multiplier(diag: np.ndarray, values: np.ndarray) -> np.ndarray:
    return paley_transform(paley_transform(values) * diag) / diag.shape[-1]


def lp_norm(values: np.ndarray, p: float) -> float:
    """L^p[0, 1) norm of cell values (uniform cell weight 2**-m)."""
    mags = np.abs(values)
    if p == INF:
        return float(mags.max())
    return float(np.mean(mags**p) ** (1.0 / p))


def young_exponent(p: float, q: float) -> float:
    """r with 1/p + 1/r = 1 + 1/q when q >= p, else 1 (then ||T||_{p->q} <= ||T||_{p->p})."""
    if q < p:
        return 1.0
    inv = 1.0 + (0.0 if q == INF else 1.0 / q) - (0.0 if p == INF else 1.0 / p)
    return INF if inv == 0.0 else 1.0 / inv


def norm_bracket(diag: np.ndarray, p: float, q: float) -> tuple[float, float]:
    """Certified [lower, upper] for the L^p -> L^q norm of the multiplier.

    Lower: sup |a_n|, reached on a Walsh function.  Upper: Young's inequality
    with the convolution kernel k = H @ diag, whose L^r norm is taken with
    the uniform cell weight.
    """
    kernel = paley_transform(diag)
    return float(np.abs(diag).max()), lp_norm(kernel, young_exponent(p, q))


def close(out: np.ndarray, ref: np.ndarray, scale: float) -> bool:
    """2-norm distance within REL_TOL of scale."""
    return bool(np.linalg.norm(np.ravel(out - ref)) <= REL_TOL * scale)


def rel_eq(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def alternating_distance(lam: complex) -> float:
    """Distance from lam to the closure {-1, 1} of (-1)**n."""
    return min(abs(lam - 1.0), abs(lam + 1.0))


def reciprocal_distance(lam: complex) -> float:
    """Distance from lam to the closure {0} u {1/(n+1)} of 1/(n+1).

    Scans the first 4096 points, then the points around 1/Re(lam) where
    the nearest far point must lie.
    """
    pts = 1.0 / np.arange(1, 4097, dtype=np.float64)
    best = min(abs(lam), float(np.abs(pts - lam).min()))
    if lam.real > 0:
        centre = int(1.0 / lam.real)
        for k in range(max(1, centre - 3), centre + 4):
            best = min(best, abs(lam - 1.0 / k))
    return best
