"""Exact L^p norms of step functions and l^q norms of coefficient vectors.

Step functions make every L^p norm a finite weighted sum, so the values here
are exact up to floating-point rounding.  ``p = inf`` is admitted everywhere
and handled as the max norm; the dual exponent pairs 1 with inf.
"""

from __future__ import annotations

import math

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


def hy_ratio(f: StepFunction, p: float) -> float:
    """Ratio ||f_hat||_{p'} / ||f||_p for 1 < p <= 2.

    At most 1, attained by ``W_0`` (``opnorm.constant_probe`` gives the
    proof).  At p = 2 the ratio is identically 1 (Parseval).
    """
    p = hy_exponent(p)
    if not f.values.any():
        raise ValueError("undefined ratio for identically zero input")
    dim = f.values.shape[-1]
    coeffs = _scale(np.divide, fwht(f.values), dim)
    num, den = pnorm(coeffs, dual_exponent(p)), pnorm(f.values, p, 1.0 / dim)
    return num / den if den > 0 else 0.0


def synthesis_ratio(c: CoeffVector, p: float) -> float:
    """Ratio ||sum c_n W_n||_p / ||c||_{p'} for 1 < p < 2.

    At most ``2**(m/p - m/2)`` at resolution m, attained by
    ``c_n = i**|n|`` (``opnorm.constant_probe`` gives the proof).
    """
    p = synthesis_exponent(p)
    if not c.coeffs.any():
        raise ValueError("undefined ratio for identically zero input")
    dim = c.coeffs.shape[-1]
    num, den = pnorm(fwht(c.coeffs), p, 1.0 / dim), pnorm(c.coeffs, dual_exponent(p))
    return num / den if den > 0 else 0.0
