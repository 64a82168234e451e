"""Application of multiplier symbols to step functions.

On the span of the first ``2**m`` Walsh functions a multiplier acts exactly:
transform, scale coefficient ``n`` by ``a_n``, transform back.  In cell
space the same operator is a dyadic convolution: its matrix is
``M[i, j] = k[i ^ j]`` with the kernel ``k = fwht(diag) / 2**m``
(Schipp-Wade-Simon, *Walsh Series*, ch. 1).  ``kernel`` computes ``k`` in
O(N log N); ``kernel_matrix`` builds the matrix for small resolutions;
everything else goes through the fast transform.
"""

from __future__ import annotations

import numpy as np

from .dyadic import (
    Resolution,
    StepFunction,
    _scale,
    fwht,
)
from .metrics import pnorm
from .symbols import Symbol, resolvent_symbol

# ``MultiplierMatrix.dense`` holds 16 * 4**m bytes of complex128: 256 MB at
# m = 12 (about 0.3 s to build), and each further level quadruples it.
MAX_DENSE_MULTIPLIER_LEVELS = 12


def apply_diag(diag: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Multiplier with coefficient diagonal ``diag`` applied to cell values.

    Batched over leading axes.  Exact on Walsh functions: the only rounding
    is the butterfly's, and divisions are by powers of two.  Both scalings
    write over the transform they scale where that keeps the bytes (see
    ``dyadic._scale``), which saves two arrays the size of the result.
    """
    scaled = _scale(np.multiply, fwht(values), diag)
    return _scale(np.divide, fwht(scaled), diag.shape[-1])


def kernel(diag: np.ndarray) -> np.ndarray:
    """Dyadic convolution kernel ``k = fwht(diag) / N``: every row and every
    column of the cell-space matrix is a permutation of it."""
    return _scale(np.divide, fwht(diag), diag.shape[-1])


def kernel_matrix(diag: np.ndarray) -> np.ndarray:
    """Cell-space matrix ``M[i, j] = k[i ^ j]`` of the multiplier, ``k = kernel(diag)``.

    ``M @ v`` equals ``apply_diag(diag, v)`` up to rounding.  The Paley
    Walsh matrix is symmetric, so ``M`` is symmetric and the adjoint
    multiplier (diagonal ``conj(diag)``) has matrix ``conj(M)``.
    """
    k = kernel(diag)
    idx = np.arange(diag.shape[-1])
    return k[idx[:, None] ^ idx]


def apply(sym: Symbol, f: StepFunction) -> StepFunction:
    """Apply the multiplier: coefficient n is scaled by ``sym.value(n)``."""
    res = f.resolution
    diag = sym.values(res.dim)
    return StepFunction(res, apply_diag(diag, f.values))


class MultiplierMatrix:
    """A symbol restricted to the ``2**m``-dimensional step-function space.

    ``dense()`` materializes the cell-space matrix ``k[i ^ j]`` (only for
    m <= 12) and caches it; ``apply_diag(self.diag, v)`` is the fast product.
    """

    def __init__(self, sym: Symbol, res: Resolution):
        self.symbol = sym
        self.resolution = res
        self.diag = sym.values(res.dim)
        self._dense: np.ndarray | None = None

    def dense(self) -> np.ndarray:
        if self._dense is None:
            m = self.resolution.m
            if m > MAX_DENSE_MULTIPLIER_LEVELS:
                raise ValueError(
                    f"dense multiplier matrices are limited to m <= {MAX_DENSE_MULTIPLIER_LEVELS}, got {m}"
                )
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
