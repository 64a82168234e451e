"""Walsh-Paley analysis at finite dyadic resolution.

A function constant on the ``2**m`` equal cells of ``[0, 1)`` lies exactly in
the span of the first ``2**m`` Walsh functions, and every Walsh function with
index below ``2**m`` is itself constant on those cells.  All integrals in this
module are therefore finite sums evaluated without quadrature error.

Conventions:

* Paley ordering throughout: ``W_n = prod_k r_k ** b_k`` where
  ``n = sum_k b_k 2**k`` is the binary expansion of the index.
* Cell values are read off the binary digits of the cell's left endpoint.
  ``sign(sin(2**(k+1) pi x))`` vanishes exactly at the dyadic breakpoints, so
  the sign is taken from the cell interior, where it is constant.
* ``fwht`` is unnormalized (it computes ``H @ x`` with
  ``H[n, i] = walsh_value(n, i, res)``), which keeps the butterfly
  integer-exact on ``+-1`` inputs.  ``analysis`` divides by ``2**m``;
  ``synthesis`` is a plain ``fwht``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Resolution",
    "StepFunction",
    "CoeffVector",
    "rademacher_value",
    "walsh_value",
    "walsh_step",
    "walsh_matrix",
    "fwht",
    "analysis",
    "synthesis",
    "step_function",
    "coeff_vector",
]

# Dense 2**m x 2**m storage is quadratic; keep materialization honest.
MAX_DENSE_LEVELS = 12
# Past this the value arrays alone stop being sensible on one machine.
MAX_LEVELS = 26
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Resolution:
    """Number of dyadic levels; the cell count is ``dim = 2**m``."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"resolution level must be a nonnegative integer, got {self.m!r}")
        if self.m > MAX_LEVELS:
            raise ValueError(f"resolution level {self.m} too large (max {MAX_LEVELS})")

    @property
    def dim(self) -> int:
        return 1 << self.m


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Complex values on the ``2**m`` cells ``[i * 2**-m, (i+1) * 2**-m)``.

    Represents an element of every ``L^p[0, 1]`` exactly.  Values are stored
    as ``complex128`` and treated as read-only.
    """

    resolution: Resolution
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if vals.size != self.resolution.dim:
            raise ValueError(
                f"expected {self.resolution.dim} cell values, got {vals.size}"
            )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """Paley-ordered Walsh-Fourier coefficients ``(f_hat(n))_{n < 2**m}``."""

    resolution: Resolution
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if c.size != self.resolution.dim:
            raise ValueError(f"expected {self.resolution.dim} coefficients, got {c.size}")
        object.__setattr__(self, "coeffs", c)


def step_function(values) -> StepFunction:
    """Wrap cell values, inferring the resolution from the length."""
    vals = np.asarray(values).reshape(-1)
    m = _levels_for_length(vals.size)
    return StepFunction(Resolution(m), vals)


def coeff_vector(coeffs) -> CoeffVector:
    """Wrap a coefficient array, inferring the resolution from the length."""
    c = np.asarray(coeffs).reshape(-1)
    m = _levels_for_length(c.size)
    return CoeffVector(Resolution(m), c)


def _levels_for_length(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


@lru_cache(maxsize=None)
def _bit_reversal(m: int) -> np.ndarray:
    """Permutation sending cell index i to its m-bit reversal."""
    idx = np.arange(1 << m, dtype=np.int64)
    rev = np.zeros_like(idx)
    for k in range(m):
        rev |= ((idx >> k) & 1) << (m - 1 - k)
    rev.flags.writeable = False
    return rev


def rademacher_value(k: int, cell: int, res: Resolution) -> int:
    """Value of r_k = sign(sin(2**(k+1) pi x)) on the given cell.

    Equals +1 when the (k+1)-th binary digit of the cell's left endpoint is
    0, else -1.  Requires ``k < m`` so that r_k is constant on the cell.
    """
    m = res.m
    if not 0 <= k < m:
        raise ValueError(f"resolution too coarse for level {k} (need m > {k}, have m = {m})")
    if not 0 <= cell < res.dim:
        raise ValueError(f"cell index {cell} out of range for m = {m}")
    return -1 if (cell >> (m - 1 - k)) & 1 else 1


def walsh_value(n: int, cell: int, res: Resolution) -> int:
    """Value of the Paley-ordered Walsh function W_n on the given cell.

    ``W_n = prod_k r_k**b_k`` over the binary digits of n; on cells this is
    ``(-1)**popcount(n & bitreverse(cell))``.
    """
    m = res.m
    if not 0 <= n < res.dim:
        raise ValueError(f"Walsh index {n} out of range for m = {m} (need n < {res.dim})")
    if not 0 <= cell < res.dim:
        raise ValueError(f"cell index {cell} out of range for m = {m}")
    rev = int(_bit_reversal(m)[cell])
    return -1 if (n & rev).bit_count() & 1 else 1


def walsh_step(n: int, res: Resolution) -> StepFunction:
    """Step form of W_n at the given resolution (all cells at once)."""
    if not 0 <= n < res.dim:
        raise ValueError(f"Walsh index {n} out of range for m = {res.m}")
    parity = np.bitwise_count(np.bitwise_and(np.int64(n), _bit_reversal(res.m))) & 1
    return StepFunction(res, 1.0 - 2.0 * parity)


def walsh_matrix(m: int) -> np.ndarray:
    """Dense Paley-ordered Walsh matrix ``H[n, i] = walsh_value(n, i)``.

    The Sylvester Hadamard matrix ``(-1)**popcount(r & i)`` with the row
    index bit-reversed, as an int64 array.  Refuses m > MAX_DENSE_LEVELS.
    """
    if not 0 <= m <= MAX_DENSE_LEVELS:
        raise ValueError(f"dense Walsh matrix limited to m <= {MAX_DENSE_LEVELS}, got {m}")
    idx = np.arange(1 << m, dtype=np.uint16)
    parity = np.bitwise_count(idx[_bit_reversal(m), None] & idx) & 1
    return np.subtract(1, 2 * parity, dtype=np.int64)


def fwht(values, /) -> np.ndarray:
    """Fast Walsh-Hadamard transform in Paley order, unnormalized.

    Operates on the last axis, which must have power-of-two length N, and
    returns ``H @ x`` in O(N log N) butterfly operations.  Applying it twice
    multiplies by N.  Integer inputs stay in int64 and are exact: partial sums
    are bounded by ``max|x| * N``, and ``max|x| * N > 2**63 - 1`` raises
    ``OverflowError``.  Float and complex inputs are computed in float64.

    The butterfly is the constant-geometry (Pease) form inside shrinking
    blocks, ping-ponging between two buffers: stage k splits the index range
    into ``2**k`` blocks and writes the sums of neighbouring pairs to each
    block's first half, their differences to its second half, so a level is
    two ufunc passes with no temporary.  Index bits are paired bottom-up, so
    every add and subtract takes the same operands as the in-place radix-2
    loop (and the result is bit for bit the same); as stage k writes its bit
    to the top of its block, the output lands in Paley order with no
    bit-reversal gather.  The input is only read.

    The buffers are ``(N, rows)`` arrays, the batch axis fastest in memory,
    and the result is their transpose; a C-ordered batch is transposed by
    the first stage's reads.
    """
    a = np.asarray(values)
    if a.ndim == 0:
        raise ValueError("expected at least one axis")
    kind = a.dtype.kind
    if kind in "bui":
        if a.size:
            # Python ints: neither abs(int64 min) nor a uint64 above 2**63 - 1
            # can be formed in int64.
            top = max(int(a.max()), -int(a.min())) * a.shape[-1]
            if top > _INT64_MAX:
                raise OverflowError(
                    f"integer fwht needs max|x| * N <= 2**63 - 1, got max|x| * N = {top}"
                )
        dtype = np.int64
    elif kind == "f":
        dtype = np.float64
    elif kind == "c":
        dtype = np.complex128
    else:
        raise TypeError(f"cannot transform values of dtype {a.dtype}")
    n = a.shape[-1]
    m = _levels_for_length(n)
    if not m:
        return a.astype(dtype)

    src = a.reshape(-1, n).T
    rows = src.shape[1]
    out = np.empty((n, rows), dtype)
    spare = np.empty_like(out)
    for k in range(m):
        # The last stage (k = m - 1) writes into ``out``.
        dst = out if (m - k) % 2 else spare
        pairs = src.reshape(1 << k, n >> (k + 1), 2, rows)
        halves = dst.reshape(1 << k, 2, n >> (k + 1), rows)
        # ``dtype`` casts bool, uint8, float32, ... inputs on the first read.
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, 0], dtype=dtype)
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, 1], dtype=dtype)
        src = dst
    return out.T.reshape(a.shape)


def analysis(f: StepFunction) -> CoeffVector:
    """Walsh-Fourier coefficients ``f_hat(n) = int_0^1 f W_n dx``.

    Exact for step functions: both factors are constant on each cell, so the
    integral is ``2**-m`` times a signed sum of the cell values.
    """
    dim = f.resolution.dim
    return CoeffVector(f.resolution, fwht(f.values) / dim)


def synthesis(c: CoeffVector) -> StepFunction:
    """Step form of ``sum_{n < 2**m} c_n W_n`` (exact at this resolution)."""
    return StepFunction(c.resolution, fwht(c.coeffs))
