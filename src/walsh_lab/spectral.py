"""Spectrum and compactness diagnostics for Walsh multipliers.

Everything here starts from one theorem: ``T W_n = a_n W_n``, so every
coefficient value is an eigenvalue with the Walsh function ``W_n`` as its
eigenvector (Schipp-Wade-Simon, *Walsh Series*, ch. 1).  The layer returns
what the theorem gives and does not re-check it per call; ``tests/`` and
``walsh-lab verify multiplier`` own that check.

At p = 2 the description is complete: the spectrum is the closure of the
coefficient values and the resolvent norm is the reciprocal gap.  For other
exponents only the inclusion closure{a_n} within the spectrum is certified:
outside it the inverse is the multiplier with symbol ``1/(a_n - lam)``
(multipliers compose by the pointwise product of their symbols), returned
with its kernel bound at resolution m; inside it Walsh functions are
explicit (quasi-)eigenvectors.  No claim is ever emitted that the spectrum
is exhausted for p != 2.  The composition identity itself is a theorem;
``multiplier.compose_check``, ``tests/`` and ``walsh-lab verify`` own its
rounding check.

Compactness at finite resolution is diagnosed from truncation tails: the
remainder norm tracks ``sup_{n > N} |a_n|``, which decays exactly when the
symbol values tend to zero.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .dyadic import Resolution, walsh_step
from .metrics import _check_exponent, pnorm
from .multiplier import MultiplierMatrix, apply_diag
from .opnorm import NormEstimate, tail_norm
from .symbols import ResolventSymbol, Symbol

INF = math.inf

_WITNESS_SCAN = 1 << 16
_MAX_WITNESSES = 12
# ``riesz_schauder_check`` counts the values of this many indices at a time.
_COUNT_BLOCK = 1 << 16

IN_SPECTRUM = "in_spectrum"
IN_RESOLVENT = "in_resolvent"


@dataclass(frozen=True)
class SpectralQuery:
    """One membership question: shift, exponent, resolution, gap tolerance."""

    lam: complex
    p: float = 2.0
    m: int = 8
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        _check_exponent(self.p)
        Resolution(self.m)


@dataclass
class MembershipCertificate:
    """Verdict for one shift plus the evidence backing it.

    In the resolvent case: the certified gap, the inverse symbol
    ``b_n = 1/(a_n - lam)`` (``b (a - lam) = 1`` pointwise, so its multiplier
    inverts the shifted operator) and, for p != 2, the kernel bound
    ``lp_upper``.  In the spectrum case: indices whose coefficient values
    approach the shift, each one a norm-one Walsh quasi-eigenvector with
    residual exactly |a_n - lam|.
    """

    verdict: str
    lam: complex
    p: float
    delta: float
    resolvent: Symbol | None = None
    witness_indices: list[int] = field(default_factory=list)
    witness_gaps: list[float] = field(default_factory=list)
    _bound: Callable[[], float | None] = field(default=lambda: None, repr=False, compare=False)

    @cached_property
    def lp_upper(self) -> float | None:
        """For a p != 2 resolvent shift the kernel bound ``||k_b||_1`` at
        resolution m (``k_b = fwht(b) / 2**m``, rounded up by its error
        bound), an upper bound on the p -> p norm of the inverse there (see
        ``MultiplierMatrix.kernel_l1_upper``); None otherwise.  Computed on
        first read."""
        return self._bound()


@dataclass
class CompactnessRow:
    cutoff: int
    estimate: NormEstimate
    analytic_sup: float


@dataclass
class CompactnessReport:
    family: str
    p_in: float
    p_out: float
    m: int
    rows: list[CompactnessRow]
    verdict: str  # 'compact' | 'not_compact'
    corroborated: bool
    tail_limit: float


@dataclass
class SpectralReport:
    """Full per-symbol report at one resolution and shift."""

    family: str
    m: int
    point_spectrum: np.ndarray
    membership: MembershipCertificate
    resolvent_norm_l2: float
    compactness: str
    accumulation_check: str  # 'pass' | 'fail' | 'n/a'

    def to_json_dict(self) -> dict:
        """JSON-ready dict.  ``point_spectrum`` becomes ``{"count": 2**m,
        "head": [[n, [re, im]], ...], "sha256": ...}``: the pairs for the
        first ``min(2**m, 8)`` indices and the digest of all the values'
        complex128 bytes, which ``point_spectrum(sym, res)`` reproduces."""
        cert = self.membership
        values = np.ascontiguousarray(self.point_spectrum, dtype=np.complex128)
        head = values[:8].tolist()
        return {
            "family": self.family,
            "m": self.m,
            "point_spectrum": {
                "count": len(values),
                "head": [[n, [z.real, z.imag]] for n, z in enumerate(head)],
                "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
            },
            "membership": {
                "verdict": cert.verdict,
                "lambda": [cert.lam.real, cert.lam.imag],
                "p": cert.p,
                "delta": cert.delta,
                "lp_upper": cert.lp_upper,
                "witness_indices": cert.witness_indices,
                "witness_gaps": cert.witness_gaps,
            },
            "resolvent_norm_l2": None if self.resolvent_norm_l2 == INF else self.resolvent_norm_l2,
            "compactness": self.compactness,
            "accumulation_check": self.accumulation_check,
        }


def point_spectrum(sym: Symbol, res: Resolution) -> np.ndarray:
    """Eigenvalues ``a_n`` for n < 2**m as a complex array, entry n for the
    eigenvector ``walsh_step(n, res)``.

    ``T W_n = a_n W_n`` holds bit for bit in floating point: the transform
    of a Walsh function is one nonzero coefficient, so ``apply_diag`` returns
    exactly ``a_n W_n``.  This is O(N) at every resolution.
    """
    return sym.values(res.dim)


def resolvent_norm_l2(sym: Symbol, lam: complex) -> float:
    """sup_n 1/|a_n - lam| via the closed-form gap; inf when lam touches
    the closure of the values."""
    d = sym.closure_distance(lam)
    return INF if d == 0.0 else 1.0 / d


def membership(sym: Symbol, query: SpectralQuery) -> MembershipCertificate:
    """Classify the shift and produce the corresponding certificate.

    Exactly one of the verdicts holds: a certified gap above the query
    tolerance yields the resolvent verdict, anything at or below it the
    spectrum verdict.  A resolvent shift gets its inverse symbol as the
    theorem gives it; at p != 2 its kernel bound is one transform of
    ``1/(a_n - lam)``, run on the first read of ``lp_upper``.  A spectrum
    shift gets the witnesses of a scan of the values, each gap read off it.
    """
    lam = complex(query.lam)
    delta = sym.closure_distance(lam)
    if delta > query.tolerance:
        b = ResolventSymbol(sym, lam, delta)
        cert = MembershipCertificate(verdict=IN_RESOLVENT, lam=lam, p=query.p, delta=delta, resolvent=b)
        if query.p != 2.0:
            cert._bound = lambda: MultiplierMatrix(b, Resolution(query.m)).kernel_l1_upper
        return cert

    gaps = np.abs(sym.values(_WITNESS_SCAN) - lam)
    # Index 0, then every index whose gap falls below all earlier ones.
    records = np.flatnonzero(gaps[1:] < np.minimum.accumulate(gaps)[:-1]) + 1
    picks = [0, *records.tolist()][-_MAX_WITNESSES:]
    # ``(T - lam) W_n = (a_n - lam) W_n`` has constant modulus, so its L^p
    # norm is the scanned gap at every p.
    return MembershipCertificate(
        verdict=IN_SPECTRUM,
        lam=lam,
        p=query.p,
        delta=delta,
        witness_indices=picks,
        witness_gaps=gaps[picks].tolist(),
    )


def compactness_report(
    sym: Symbol,
    p_in: float,
    p_out: float,
    res: Resolution,
    cutoffs,
    **opts,
) -> CompactnessReport:
    """Truncation-tail decay table plus the compactness verdict.

    The verdict follows the symbol's decay flag; the table corroborates it:
    decaying analytic sups for a compact symbol, tail norms bounded away
    from zero for a non-compact one.
    """
    cutoffs = [int(c) for c in cutoffs]
    if not cutoffs:
        raise ValueError("need at least one cutoff")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    if cutoffs[0] < 0 or cutoffs[-1] >= res.dim:
        raise ValueError(f"cutoffs must lie in [0, {res.dim})")

    rows = []
    for cutoff in cutoffs:
        est, analytic = tail_norm(sym, cutoff, res, p_in, p_out, **opts)
        rows.append(CompactnessRow(cutoff, est, analytic))

    tail_limit = sym.tail_sup(1 << 40)
    sups = [r.analytic_sup for r in rows]
    if sym.is_c0:
        verdict = "compact"
        corroborated = tail_limit <= 1e-9 and all(b <= a for a, b in zip(sups, sups[1:]))
    else:
        verdict = "not_compact"
        floor = max(1e-9, 0.5 * tail_limit)
        corroborated = all(r.estimate.value >= floor for r in rows)
    return CompactnessReport(
        family=sym.family,
        p_in=float(p_in),
        p_out=float(p_out),
        m=res.m,
        rows=rows,
        verdict=verdict,
        corroborated=corroborated,
        tail_limit=tail_limit,
    )


def separation_distance(
    sym: Symbol, k: int, j: int, p: float, res: Resolution
) -> tuple[float, float]:
    """Measured and closed-form L^p distance between the multiplier images
    of phase-normalized Walsh inputs at indices k and j.

    With ``f_k = (conj(a_k)/|a_k|) W_k`` (plain ``W_k`` when ``a_k = 0``) the
    image is ``|a_k| W_k``, and the distance has the exact two-level form
    ``(|| |a_k| - |a_j| |**p + (|a_k| + |a_j|)**p) / 2)**(1/p)``.
    """
    if k == j:
        raise ValueError("indices must be distinct")
    dim = res.dim
    if not (0 <= k < dim and 0 <= j < dim):
        raise ValueError(f"indices must be below 2**m = {dim}")
    diag = MultiplierMatrix(sym, res).diag
    ak = complex(diag[k])
    aj = complex(diag[j])

    def normalized(n: int, a: complex) -> np.ndarray:
        w = walsh_step(n, res).values
        return w if a == 0 else (a.conjugate() / abs(a)) * w

    image = apply_diag(diag, normalized(k, ak) - normalized(j, aj))
    measured = pnorm(image, p, 2.0**-res.m)

    rk, rj = abs(ak), abs(aj)
    if p == INF:
        formula = max(abs(rk - rj), rk + rj)
    else:
        formula = (0.5 * abs(rk - rj) ** p + 0.5 * (rk + rj) ** p) ** (1.0 / p)
    return measured, formula


def _counts_at_least(sym: Symbol, start: int, stop: int, eps: np.ndarray) -> np.ndarray:
    """Per threshold, the number of n in [start, stop) with ``|a_n| >= eps``,
    counted ``_COUNT_BLOCK`` indices at a time (``_range`` is elementwise)."""
    counts = np.zeros(eps.size, dtype=np.int64)
    for lo in range(start, stop, _COUNT_BLOCK):
        mags = np.abs(sym._range(lo, min(lo + _COUNT_BLOCK, stop)))
        counts += (mags[:, None] >= eps).sum(axis=0)
    return counts


def riesz_schauder_check(sym: Symbol, res: Resolution, eps_grid) -> list[dict]:
    """Finite-count check for the accumulation structure of a decaying symbol.

    For each threshold the number of coefficient values at or above it must
    be finite uniformly in the resolution: the count is computed at m and
    m + 1 and certified final when the analytic tail sup has dropped below
    the threshold.  Zero must lie in the closure of the values.  The values
    are counted block by block, never held whole.
    """
    if not sym.is_c0:
        raise ValueError("accumulation check applies only to symbols with a_n -> 0")
    eps = np.array([float(e) for e in eps_grid])
    if (eps <= 0).any():
        raise ValueError("thresholds must be positive")
    m2 = res.m + 1
    counts1 = _counts_at_least(sym, 0, res.dim, eps)
    counts2 = counts1 + _counts_at_least(sym, res.dim, 1 << m2, eps)
    zero_ok = sym.closure_distance(0.0) <= 1e-15
    rows = []
    for e, count1, count2 in zip(eps.tolist(), counts1.tolist(), counts2.tolist()):
        settled = sym.tail_sup((1 << m2) - 1) < e
        rows.append(
            {
                "eps": e,
                "count": count1,
                "count_next": count2,
                "stabilized": bool(count1 == count2 and settled),
                "zero_in_closure": bool(zero_ok),
            }
        )
    return rows


def spectral_report(sym: Symbol, query: SpectralQuery) -> SpectralReport:
    """Assemble the full diagnostic for one symbol and shift."""
    res = Resolution(query.m)
    cert = membership(sym, query)
    acc = "n/a"
    if sym.is_c0:
        rows = riesz_schauder_check(sym, res, [0.5, 0.1, 0.05])
        acc = "pass" if all(r["stabilized"] and r["zero_in_closure"] for r in rows) else "fail"
    return SpectralReport(
        family=sym.family,
        m=res.m,
        point_spectrum=point_spectrum(sym, res),
        membership=cert,
        resolvent_norm_l2=INF if cert.delta == 0.0 else 1.0 / cert.delta,
        compactness="compact" if sym.is_c0 else "not_compact",
        accumulation_check=acc,
    )
