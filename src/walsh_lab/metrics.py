"""Exact L^p norms of step functions and l^q norms of coefficient vectors.

Step functions make every L^p norm a finite weighted sum, so the values here
are exact up to floating-point rounding.  ``p = inf`` is admitted everywhere
and handled as the max norm; the dual exponent pairs 1 with inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import CoeffVector, Resolution, StepFunction, _scale, fwht, walsh_step

INF = math.inf


def _check_exponent(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return p


def dual_exponent(p: float) -> float:
    """Conjugate exponent p' = p / (p - 1), with 1' = inf and inf' = 1."""
    p = _check_exponent(p)
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def pnorm(a: np.ndarray, p: float, weight: float = 1.0):
    """(weight * sum |a_i|^p)^(1/p), max |a_i| for p = inf, over the last axis.

    A 1-D input gives a float, a batch the array of its row norms; each row
    of a batch comes out bit for bit as it would on its own, whatever the
    memory layout.  numpy sums a contiguous row pairwise and a strided one
    in sequence, so the magnitudes are taken into C order first.  The max
    is factored out before powering, so large exponents do not overflow.
    The quotient and the power are written over the magnitudes, so the
    only temporary the size of the input is that one array.
    ``weight = 2**-m`` turns the plain sum into an integral over [0, 1);
    ``weight = 1`` gives the sequence norm.
    """
    p = _check_exponent(p)
    mags = np.abs(np.asarray(a), order="C")
    top = mags.max(axis=-1, keepdims=True, initial=0.0)
    if p != INF:
        # An integer ``a`` has integer magnitudes, which divide to float64.
        inexact = mags.dtype.kind == "f"
        mags = np.divide(mags, np.where(top > 0, top, 1.0), out=mags if inexact else None)
        mags **= p
        s = mags.sum(axis=-1, keepdims=True) * weight
        top = top * s ** (1.0 / p)
    out = top[..., 0]
    return float(out) if out.ndim == 0 else out


def lp_norm(f: StepFunction, p: float) -> float:
    """L^p[0,1] norm of a step function: (2**-m sum |f_i|^p)^(1/p)."""
    return pnorm(f.values, p, weight=2.0 ** -f.resolution.m)


def lq_norm(c: CoeffVector, q: float) -> float:
    """l^q norm of a coefficient vector: (sum |c_n|^q)^(1/q)."""
    return pnorm(c.coeffs, q)


def walsh_distance(n: int, m_idx: int, p: float, res: Resolution) -> float:
    """L^p distance between W_n and W_m.

    For distinct indices this equals ``2**(1 - 1/p)`` (max-norm value 2 at
    p = inf): the product W_n * W_m is a nontrivial Walsh function, so the
    two factors agree on exactly half of [0, 1).
    """
    _check_exponent(p)
    diff = walsh_step(n, res).values - walsh_step(m_idx, res).values
    return pnorm(diff, p, weight=2.0 ** -res.m)


def hy_exponent(p: float) -> float:
    """p as a float if the analysis ratio admits it (1 < p <= 2), else ValueError."""
    p = _check_exponent(p)
    if not 1.0 < p <= 2.0:
        raise ValueError(f"analysis ratio needs 1 < p <= 2, got {p}")
    return p


def synthesis_exponent(p: float) -> float:
    """p as a float if the synthesis ratio admits it (1 < p < 2), else ValueError."""
    p = _check_exponent(p)
    if not 1.0 < p < 2.0:
        raise ValueError(f"synthesis ratio needs 1 < p < 2, got {p}")
    return p


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


@dataclass(frozen=True)
class RatioForm:
    """A ratio ``pnorm(fwht(x) / divisor, num_p, num_weight) / pnorm(x, den_p,
    den_weight)`` of the transform of x to x, row-wise, 0 for a zero row.

    ``hy_ratios`` and ``synthesis_ratios`` are two such forms; the probe
    ascent takes the parts apart, to evaluate candidates from a transform it
    updates itself.
    """

    num_p: float
    num_weight: float
    divisor: int
    den_p: float
    den_weight: float

    def scaled(self, transforms: np.ndarray) -> np.ndarray:
        return transforms if self.divisor == 1 else transforms / self.divisor

    def denominators(self, values: np.ndarray):
        return pnorm(values, self.den_p, self.den_weight)

    def of(self, scaled: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The ratios, given ``scaled = self.scaled(fwht(values))``."""
        return _ratios(pnorm(scaled, self.num_p, self.num_weight), self.denominators(values))

    def ratios(self, values: np.ndarray) -> np.ndarray:
        # The fresh transform is divided in place; ``scaled`` allocates,
        # because a probe start's running transform estimate must keep
        # its unscaled values.
        transforms = fwht(values)
        if self.divisor != 1:
            transforms = _scale(np.divide, transforms, self.divisor)
        return self.of(transforms, values)


def hy_form(p: float, dim: int) -> RatioForm:
    """``||fwht(x) / dim||_{p'} / ||x||_{L^p}`` on ``dim`` cells; p unchecked."""
    return RatioForm(dual_exponent(p), 1.0, dim, p, 1.0 / dim)


def synthesis_form(p: float, dim: int) -> RatioForm:
    """``||fwht(c)||_{L^p} / ||c||_{p'}`` on ``dim`` coefficients; p unchecked."""
    return RatioForm(p, 1.0 / dim, 1, dual_exponent(p), 1.0)


def hy_ratios(values: np.ndarray, p: float) -> np.ndarray:
    """``hy_ratio`` of each row of cell values, 0 for a zero row; p unchecked."""
    return hy_form(p, values.shape[-1]).ratios(values)


def synthesis_ratios(coeffs: np.ndarray, p: float) -> np.ndarray:
    """``synthesis_ratio`` of each row of coefficients, 0 for a zero row; p unchecked."""
    return synthesis_form(p, coeffs.shape[-1]).ratios(coeffs)


def hy_ratio(f: StepFunction, p: float) -> float:
    """Ratio ||f_hat||_{p'} / ||f||_p for 1 < p <= 2.

    Each observed ratio is a lower bound for the best analysis constant at
    this resolution.  At p = 2 the ratio is identically 1 (Parseval).
    """
    p = hy_exponent(p)
    if not f.values.any():
        raise ValueError("undefined ratio for identically zero input")
    return float(hy_ratios(f.values, p))


def synthesis_ratio(c: CoeffVector, p: float) -> float:
    """Ratio ||sum c_n W_n||_p / ||c||_{p'} for 1 < p < 2.

    Lower bound for the best synthesis constant at this resolution; no
    ceiling is asserted (see the constant probes for measured growth).
    """
    p = synthesis_exponent(p)
    if not c.coeffs.any():
        raise ValueError("undefined ratio for identically zero input")
    return float(synthesis_ratios(c.coeffs, p))
