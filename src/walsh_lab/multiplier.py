"""Application of multiplier symbols to step functions, and the operator
record every estimator reads.

On the span of the first ``2**m`` Walsh functions a multiplier acts exactly:
transform, scale coefficient ``n`` by ``a_n``, transform back.  In cell
space the same operator is a dyadic convolution: its matrix is
``M[i, j] = k[i ^ j]`` with the kernel ``k = fwht(diag) / 2**m``
(Schipp-Wade-Simon, *Walsh Series*, ch. 1).  ``kernel`` computes ``k`` in
O(N log N); ``kernel_matrix`` builds the matrix for small resolutions;
everything else goes through the fast transform.

``MultiplierMatrix(sym, res)`` is the one place where the facts about a
symbol at resolution m that the estimators read are derived, each on its
first read and at most once per record.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .dyadic import (
    Resolution,
    StepFunction,
    _check_dense,
    _scale,
    fwht,
)
from .metrics import pnorm
from .symbols import Symbol, resolvent_symbol

_EPS = np.finfo(np.float64).eps


def _scaled_transform(diag: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``fwht(values) * diag``, written over the fresh transform where that
    keeps the bytes (see ``dyadic._scale``)."""
    return _scale(np.multiply, fwht(values), diag)


def _inverse_fwht(x: np.ndarray) -> np.ndarray:
    """``fwht(x) / N``, the inverse transform, written over the fresh
    transform where that keeps the bytes."""
    return _scale(np.divide, fwht(x), x.shape[-1])


def apply_diag(diag: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Multiplier with coefficient diagonal ``diag`` applied to cell values.

    Batched over leading axes.  Exact on Walsh functions: the only rounding
    is the butterfly's, and divisions are by powers of two.  Both scalings
    write over the transform they scale where that keeps the bytes (see
    ``dyadic._scale``), which saves two arrays the size of the result.
    """
    return _inverse_fwht(_scaled_transform(diag, values))


def kernel(diag: np.ndarray) -> np.ndarray:
    """Dyadic convolution kernel ``k = fwht(diag) / N``: every row and every
    column of the cell-space matrix is a permutation of it."""
    return _inverse_fwht(diag)


def kernel_matrix(diag: np.ndarray) -> np.ndarray:
    """Cell-space matrix ``M[i, j] = k[i ^ j]`` of the multiplier, ``k = kernel(diag)``.

    ``M @ v`` equals ``apply_diag(diag, v)`` up to rounding.  The Paley
    Walsh matrix is symmetric, so ``M`` is symmetric and the adjoint
    multiplier (diagonal ``conj(diag)``) has matrix ``conj(M)``.  Refused
    above ``dyadic.MAX_DENSE_LEVELS`` before anything is built.
    """
    _check_dense(diag.shape[-1].bit_length() - 1)
    k = kernel(diag)
    idx = np.arange(diag.shape[-1])
    return k[idx[:, None] ^ idx]


def apply(sym: Symbol, f: StepFunction) -> StepFunction:
    """Apply the multiplier: coefficient n is scaled by ``sym.value(n)``."""
    res = f.resolution
    # ``apply_diag`` in its two halves: the diagonal is built before the
    # first transform and freed before the second.
    return StepFunction(res, _inverse_fwht(_scaled_transform(sym.values(res.dim), f.values)))


class MultiplierMatrix:
    """A symbol restricted to the ``2**m``-dimensional step-function space.

    ``diag`` holds ``a_n`` for n < 2**m, ``transform`` the cell values
    ``fwht(diag)`` of the kernel ``K = sum_n a_n W_n``, ``adjoint`` the record
    of ``conj(diag)``.  ``dense()`` builds the matrix ``k[i ^ j]`` (m <= 12).
    """

    def __init__(self, sym: Symbol | None, res: Resolution):
        self.symbol = sym
        self.resolution = res
        self._dense: np.ndarray | None = None

    @classmethod
    def from_diag(cls, diag: np.ndarray) -> MultiplierMatrix:
        """The record of a given diagonal, of power-of-two length, with no symbol."""
        op = cls(None, Resolution(diag.shape[-1].bit_length() - 1))
        op.__dict__["diag"] = diag
        return op

    @cached_property
    def diag(self) -> np.ndarray:
        return self.symbol.values(self.resolution.dim)

    @cached_property
    def sup(self) -> float:
        return float(np.abs(self.diag).max())

    @cached_property
    def transform(self) -> np.ndarray:
        return fwht(self.diag)

    @cached_property
    def kernel_l1_upper(self) -> float:
        """``||k||_1`` of the kernel ``k = fwht(diag) / N``, the exact (1, 1)
        norm, raised by its rounding bound (``m sum|a_n| u`` in the butterfly,
        ``N ||k||_1 u`` in the sum, ``sum|a_n| <= N ||k||_1``); otherwise a
        one-signed kernel, where ``||k||_1 = sup|a_n|``, can land an ulp low."""
        m, dim = self.resolution.m, self.resolution.dim
        value = max(pnorm(self.transform, 1.0, 2.0**-m), self.sup)
        return float(value * (1.0 + (m + 4) * dim * _EPS))

    @cached_property
    def popcount_max(self) -> np.ndarray:
        """``M_j = max |a_n|`` over the n with popcount ``|n| = j``, j = 0 .. m,
        in one pass."""
        out = np.zeros(self.resolution.m + 1)
        np.maximum.at(out, np.bitwise_count(np.arange(self.resolution.dim)), np.abs(self.diag))
        return out

    @cached_property
    def adjoint(self) -> MultiplierMatrix:
        # Built from the conjugated diagonal, not from ``sym.conjugate()``,
        # whose values can differ in the sign of a zero imaginary part.
        return MultiplierMatrix.from_diag(np.conj(self.diag))

    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = kernel_matrix(self.diag)
        return self._dense


def compose_check(sym: Symbol, lam: complex, f: StepFunction, tolerance: float = 1e-12) -> float:
    """Residual of the two-sided inverse identity for the shifted multiplier.

    With ``b_n = 1/(a_n - lam)`` both compositions ``b (a - lam) f`` and
    ``(a - lam) b f`` must reproduce the cell values f: returns the larger of
    the two L^2 residuals.  Multipliers compose by the pointwise product of
    their symbols, so this is a rounding check of the transform, not an
    ``L^p`` bound.  It scales like 1/delta times the rounding unit, so small
    certified gaps inflate it.
    """
    res = f.resolution
    b, _ = resolvent_symbol(sym, lam, tolerance)
    a_diag = sym.values(res.dim)
    b_diag = b.values(res.dim)
    values = f.values
    w = 2.0**-res.m

    shifted = apply_diag(a_diag, values) - b.shift * values
    left = apply_diag(b_diag, shifted) - values

    inv = apply_diag(b_diag, values)
    right = apply_diag(a_diag, inv) - b.shift * inv - values

    return max(pnorm(left, 2.0, w), pnorm(right, 2.0, w))
