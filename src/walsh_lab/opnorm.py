"""Operator norms of Walsh multipliers on the finite step-function space.

Exact paths:

* p_in >= 2 >= p_out: the norm is ``sup |a_n|``.  ``T W_n = a_n W_n`` with
  ``||W_n||_r = 1`` gives it from below; from above,
  ``||Tf||_q <= ||Tf||_2 <= sup|a| ||f||_2 <= sup|a| ||f||_p`` because [0, 1)
  is a probability space.  No iteration runs, (2, 2) included.
* p_in = 1 or p_out = inf: T is dyadic convolution with the kernel
  ``K = sum_n a_n W_n`` (cell values ``fwht(a)``), so
  ``||T||_{1 -> q} = ||K||_{L^q}`` and ``||T||_{p -> inf} = ||K||_{L^{p'}}``.
  As ``||K||_{L^r} >= |a_n|``, the value is raised to ``sup |a_n|`` if
  rounding left it below, so it never contradicts the paths above.

Every other regime gets a *lower* bound from a dual power iteration whose
Rayleigh-type ratio never decreases, reported together with convergence
metadata.  It is a lower bound up to a few ulps of rounding, not a certified
one: run on geometric r = 0.7 at m = 7, (1.25, inf) (since given the exact
path above), the loop returned a value 1.5e-15 relative above the exact
norm.  For dim <= ``GEMM_MAX_DIM`` each power step is one matrix product
against the cell-space kernel matrix ``k[i ^ j]``, ``k = K / 2**m``; above
it, the fast-transform pair.  That matrix commutes with every translation
``i -> i ^ h``, so the cell start ``e_h`` repeats the run from ``e_0``
translated, and the start block holds ``e_0`` alone: 21 starts at m >= 2.

Certified upper bounds (``certified_upper``, rounded up):

* Bonami-Beckner hypercontractivity (Bonami 1970; Beckner, Ann. Math. 102,
  1975).  The noise operator ``T_rho W_n = rho**|n| W_n``, ``|n|`` the
  popcount, maps L^p into L^2 with norm 1 for ``rho <= sqrt(p - 1)`` and
  L^2 into L^q with norm 1 for ``rho <= 1 / sqrt(q - 1)``.  Factoring
  ``T_a = T_rho_out T_b T_rho_in`` through L^2 gives
  ``||T_a||_{p -> q} <= max_n |a_n| ((max(q, 2) - 1) / (min(p, 2) - 1))**(|n|/2)``
  for ``1 < p <= inf``, ``1 <= q < inf``.  Complex inputs are covered:
  ``T_rho`` has a nonnegative kernel, so ``|T_rho f| <= T_rho |f|``.  On
  ``1/(n+1)`` at (1.5, 3), (1.5, 1.5) and (3, 3) the bound is 1, the norm,
  since ``n + 1 >= 2**|n|``.
* ``||k||_1``, the (1, 1) and (inf, inf) norm, bounds every p -> p norm
  (Riesz-Thorin between the equal endpoint norms), and so every p -> q norm
  with q <= p (monotonicity of L^q norms on a probability space).

The power loop ends once its best start has stopped and its ratio meets the
certified upper bound to within ``tol``: the bracket is closed, and no other
start can raise the value by more than ``tol``.

General matrix p-norms are NP-hard to certify; the ``kind`` tag is honest
about which path produced a value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import Resolution, _bit_reversal, fwht, walsh_step
from .metrics import (
    RatioForm,
    dual_exponent,
    hy_exponent,
    hy_form,
    pnorm,
    synthesis_exponent,
    synthesis_form,
)
from .multiplier import apply_diag, kernel_matrix
from .symbols import ExplicitSymbol, Symbol, tail

INF = math.inf

EXACT = "exact"
LOWER = "lower"
UPPER = "upper"

# Iteration defaults; the acceptance tolerances assume these.
DEFAULT_RANDOM_STARTS = 16
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500
_WALSH_STARTS = 3
_MONOTONE_SLACK = 1e-9
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps
# Power steps multiply by the dense kernel matrix up to this dimension and
# use the transform pair above it.  Per (21, dim) complex batch on a 2-vCPU
# x86-64 VM with OpenBLAS 0.3.31 (medians of 400 calls, three runs), the
# product takes 0.011 ms against 0.085 ms for the pair at 64, and 0.108 ms
# wall (0.22 ms CPU, two BLAS threads) against 0.25-0.28 ms at 256; at 512
# it still wins in wall time (0.39 against 0.51-0.55 ms) but costs more CPU
# (0.78 against 0.52-0.55 ms).  Moving the cutoff would also change the
# rounding, and so the printed bytes, of power-loop values at the dims
# between the old and the new cutoff.  After each product OpenBLAS's worker
# threads spin for a while, and that CPU is billed to whatever runs next: a
# ``constant_probe("hy", 1.5, Resolution(6), trials=2000)`` right after an
# m = 8 ``opnorm`` took 61 ms wall and 120 ms CPU on the VM above, against
# 55 ms of each with OPENBLAS_NUM_THREADS=1 (and CPU no more than wall after
# a second idle).  numpy offers no per-call thread control, and this package
# sets no environment variable: a caller who counts CPU time can set
# OPENBLAS_NUM_THREADS=1 before numpy is first imported.
GEMM_MAX_DIM = 256
# The power loop holds about 170 bytes per start and cell at its peak
# (14 MB for 21 starts at m = 12, 3.7 GB at m = 20), and one step at m = 12
# takes about 18 ms on the VM above, so 500 steps about 9 s; each further
# level doubles both.
MAX_POWER_LEVELS = 12
# The constant probes' ascent screens the candidates of all its starts in
# each round (``constant_probe``); a start's block holds up to
# ``4 * PROBE_SPECULATION_MAX_DIM // dim`` coordinates (three rows each) at or
# below this dimension and one coordinate above it.  A screened row costs an
# O(dim) update and norm, and each round a fixed numpy overhead.  On the VM
# above (one run each), hy 1.5 at m = 10 with 50 trials took 3.8 s at this
# cutoff against 4.5 s at 256, 4.0 s at 4096 and 4.9 s at 16384 (synthesis
# 1.5: 5.1 against 6.4, 5.8 and 8.1 s); at m = 6 and 8 with 2000 trials the
# four cutoffs were within the run-to-run spread.  The cutoff changes speed
# only, never bytes.
PROBE_SPECULATION_MAX_DIM = 1024
# ``constant_probe`` refuses ``trials * 2**m`` above MAX_PROBE_ELEMS: its
# (trials, 2**m) complex batch (16 B per element) and the temporaries of its
# ratios (40 B, tracemalloc at m = 8, 12 and 16) peak at about
# PROBE_BYTES_PER_ELEM, so 2**26 elements need about 3.8 GB.
PROBE_BYTES_PER_ELEM = 56
MAX_PROBE_ELEMS = 2**26
# ``constant_probe`` also refuses m above MAX_PROBE_LEVELS, whatever the
# trial count: the ascent screens three candidates per coordinate, each an
# O(2**m) update and norm, so a pass costs O(4**m).
# ``constant_probe("synthesis", 1.5, Resolution(m), trials=50, seed=3)`` took
# 6.0 / 17.6 / 52.8 s at m = 10 / 11 / 12 on the VM above (hy 1.5: 4.1 / 12.6
# / 37.7 s), about 3x per level; at m = 20 it would take days.
MAX_PROBE_LEVELS = 12
_PROBE_STARTS = 4
_PROBE_PASSES = 16
# The ascent's moves in trial order, each with the quarter turns it adds.
_MOVES = ((-1.0, 2), (1j, 1), (-1j, 3))
_MOVE_MULTIPLIERS = np.array([mul for mul, _ in _MOVES])
# The row, in move order, of the candidate one, two and three quarter turns on.
_ROW_OF_TURN = (1, 0, 2)
# A move is kept when it raises the ratio past ``current * _GAIN``.
_GAIN = 1.0 + 1e-14
# Factor on the probe screen's first-order error bound (``constant_probe``).
_SCREEN_SAFETY = 2.0
_ETA = float(np.finfo(np.float64).smallest_subnormal)


@dataclass(frozen=True)
class NormEstimate:
    """A norm value tagged exact / lower / upper with convergence metadata.

    ``converged`` is false when the iteration behind a ``lower`` value used up
    ``max_iter`` without meeting its tolerance.
    """

    value: float
    kind: str
    iterations: int = 0
    residual: float = 0.0
    starts: int = 0
    converged: bool = True


@dataclass
class ConstantProbe:
    """Best observed ratio for one of the measured inequalities.

    ``best_ratio`` is reproducible from the stored witness; the constants
    themselves are never asserted, only measured.
    """

    inequality: str  # 'hy' | 'synthesis' | 'multiplier_bound'
    p: float
    m: int
    best_ratio: float
    witness: np.ndarray = field(repr=False)
    trials: int = 0
    seed: int = 0
    symbol: Symbol | None = None

    def recompute(self) -> float:
        """Re-evaluate the ratio from the stored witness."""
        from .dyadic import coeff_vector, step_function
        from .metrics import hy_ratio, synthesis_ratio

        if self.inequality == "hy":
            return hy_ratio(step_function(self.witness), self.p)
        if self.inequality == "synthesis":
            return synthesis_ratio(coeff_vector(self.witness), self.p)
        if self.inequality == "multiplier_bound":
            if self.symbol is None:
                raise ValueError("multiplier-bound probes need their symbol to recompute")
            m = self.m
            diag = self.symbol.values(1 << m)
            w = 2.0**-m
            out = apply_diag(diag, self.witness)
            sup = float(np.abs(diag).max())
            num = pnorm(out, self.p, w) / pnorm(self.witness, self.p, w)
            return num / sup if sup > 0 else 0.0
        raise ValueError(f"unknown inequality {self.inequality!r}")


@dataclass
class _PowerResult:
    value: float
    witness: np.ndarray
    iterations: int
    residual: float
    starts: int
    converged: bool
    histories: list[list[float]] | None = None

    def estimate(self) -> NormEstimate:
        return NormEstimate(self.value, LOWER, self.iterations, self.residual, self.starts, self.converged)


def _phase(v: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """v / |v|, zero where |v| is zero or subnormal.

    Dividing by a subnormal modulus overflows.  Such entries arise when the
    duality map's powers shrink a start's minor coordinates and the kernel
    product carries them through exactly; their phases weigh nothing.
    """
    out = np.zeros_like(v)
    np.divide(v, mags, out=out, where=mags >= _TINY)
    return out


def _dual_map_rows(v: np.ndarray, q: float, mags: np.ndarray | None = None) -> np.ndarray:
    """Row-wise Hoelder duality map: phase(v) |v|**(q-1), scale-free.

    q = 1 keeps only the phases; q = inf keeps those of the max-modulus
    coordinates.  Rows of zeros map to zeros.  ``mags`` is ``np.abs(v)`` when
    the caller already has it.
    """
    if mags is None:
        mags = np.abs(v)
    if q == 1.0:
        return _phase(v, mags)
    top = mags.max(axis=-1, keepdims=True)
    safe = np.where(top > 0, top, 1.0)
    return _phase(v, mags) * (mags / safe) ** (q - 1.0)


def _start_matrix(
    diag: np.ndarray,
    m: int,
    random_starts: int,
    seed: int,
    extra_starts,
) -> np.ndarray:
    """Default multi-start block: all-ones, the cell vector ``e_0``, the Walsh
    functions with the largest |a_n|, then seeded random vectors.

    The other cell vectors would add nothing: the kernel matrix
    ``M[i, j] = k(i ^ j)`` commutes with every translation ``i -> i ^ h``, and
    so do the duality maps and ``pnorm``, which act per coordinate or through
    row maxima and sums.  The run from ``e_h`` is the run from ``e_0``
    translated, with the same ratios up to summation-order rounding.
    """
    dim = 1 << m
    rows = [np.ones((1, dim))]
    rows.append(np.eye(1, dim))
    order = np.argsort(-np.abs(diag), kind="stable")[: min(_WALSH_STARTS, dim)]
    rows.append(np.vstack([walsh_step(int(n), Resolution(m)).values.real for n in order]))
    if random_starts > 0:
        rng = np.random.default_rng(seed)
        rows.append(
            rng.standard_normal((random_starts, dim)) + 1j * rng.standard_normal((random_starts, dim))
        )
    if extra_starts is not None:
        for x in extra_starts:
            rows.append(np.asarray(x, dtype=np.complex128).reshape(1, dim))
    return np.vstack([r.astype(np.complex128) for r in rows])


def _row_operators(diag: np.ndarray):
    """The multiplier and its adjoint as maps on row batches of cell values.

    Up to ``GEMM_MAX_DIM`` both are one product with the symmetric kernel
    matrix ``M`` (``x @ M`` and ``x @ conj(M)``); above it, the transform
    pair of ``apply_diag``.
    """
    if diag.shape[-1] <= GEMM_MAX_DIM:
        mat = kernel_matrix(diag)
        adj = np.conj(mat)
        return (lambda v: v @ mat), (lambda v: v @ adj)
    conj_diag = np.conj(diag)
    return (lambda v: apply_diag(diag, v)), (lambda v: apply_diag(conj_diag, v))


def _power_lower(
    diag: np.ndarray,
    m: int,
    p_in: float,
    p_out: float,
    *,
    seed: int = 0,
    random_starts: int = DEFAULT_RANDOM_STARTS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    extra_starts=None,
    want_history: bool = False,
) -> _PowerResult:
    """Dual power iteration for the L^{p_in} -> L^{p_out} norm, all starts batched.

    Per start the ratio ||T x_k|| / ||x_k|| is nondecreasing in k; a start
    stops when its relative change drops below ``tol``.  The reduction over
    starts is a max with ties resolved by the lowest start index;
    ``converged`` says whether that start stopped on ``tol`` or as a zero row
    rather than at ``max_iter``.

    The whole loop ends after a step in which the best start has stopped and
    its ratio is at least ``certified_upper(...) * (1 - tol)``; every other
    start keeps the ratio it has reached.  A start can only stop on ``tol``
    from step 1 on, so this never ends a run at step 0.  The best start alone
    decides: dropping the other starts from the batch early would change the
    rounding of the matrix products of those that remain.
    """
    if m > MAX_POWER_LEVELS:
        raise ValueError(
            f"power iteration limited to m <= {MAX_POWER_LEVELS}, got {m}: its "
            f"(starts x 2**m) complex arrays would need about 3.7 GB at m = 20"
        )
    w = 2.0**-m
    q_dual = dual_exponent(p_in)
    forward, adjoint = _row_operators(diag)
    closes_at = certified_upper(diag, m, p_in, p_out) * (1.0 - tol)

    x = _start_matrix(diag, m, random_starts, seed, extra_starts)
    norms = pnorm(x, p_in, w)
    keep = norms > 0
    x = x[keep] / norms[keep][:, None]
    n_starts = x.shape[0]

    gamma = np.zeros(n_starts)
    residual = np.full(n_starts, np.inf)
    iterations = np.zeros(n_starts, dtype=int)
    witness = x.copy()
    active = np.ones(n_starts, dtype=bool)
    histories: list[list[float]] | None = [[] for _ in range(n_starts)] if want_history else None

    for step in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        xa = x[idx]
        y = forward(xa)
        mags_y = np.abs(y)
        g = pnorm(mags_y, p_out, w)
        prev = gamma[idx]

        if step > 0:
            drops = g < prev - _MONOTONE_SLACK * (1.0 + np.abs(g))
            if drops.any():
                raise RuntimeError(
                    "power-iteration ratio decreased; this contradicts the ascent property"
                )
        if histories is not None:
            for local, row in enumerate(idx):
                if g[local] > 0:
                    histories[row].append(float(g[local]))

        witness[idx] = xa
        gamma[idx] = np.maximum(g, prev)
        iterations[idx] += 1

        rel = np.abs(g - prev) / np.where(g > 0, g, 1.0)
        residual[idx] = rel
        dead = g == 0
        done = dead | ((step > 0) & (rel <= tol))
        active[idx[done]] = False
        best = int(np.argmax(gamma))
        if not active[best] and gamma[best] >= closes_at:
            break
        still = idx[~done]
        if still.size == 0:
            continue

        u = _dual_map_rows(y[~done], p_out, mags_y[~done])
        z = adjoint(u)
        xn = _dual_map_rows(z, q_dual)
        nn = pnorm(xn, p_in, w)
        alive = nn > 0
        active[still[~alive]] = False
        sel = still[alive]
        x[sel] = xn[alive] / nn[alive][:, None]

    best = int(np.argmax(gamma))
    return _PowerResult(
        value=float(gamma[best]),
        witness=witness[best],
        iterations=int(iterations[best]),
        residual=float(residual[best]) if math.isfinite(residual[best]) else float("inf"),
        starts=n_starts,
        converged=not active[best],
        histories=histories,
    )


def _exponents(p_in, p_out) -> tuple[float, float]:
    for p in (p_in, p_out):
        if math.isnan(float(p)) or float(p) < 1.0:
            raise ValueError(f"exponents must lie in [1, inf], got {p}")
    return float(p_in), float(p_out)


def _exact_norm(diag: np.ndarray, m: int, p_in: float, p_out: float) -> float | None:
    """The norm on the exact paths of the module docstring, else None."""
    sup = float(np.abs(diag).max())
    if p_in >= 2.0 >= p_out:
        return sup
    if p_in == 1.0 or p_out == INF:
        r = p_out if p_in == 1.0 else dual_exponent(p_in)
        return max(pnorm(fwht(diag), r, 2.0**-m), sup)
    return None


def opnorm(
    sym: Symbol,
    res: Resolution,
    p_in: float,
    p_out: float,
    *,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> NormEstimate:
    """Norm of the multiplier on the 2**m-dimensional step-function space,
    measured from the L^{p_in} domain norm to the L^{p_out} range norm.

    Paths:

    * ``p_in >= 2 >= p_out``, (2, 2) included: exact, ``max |a_n|`` in closed
      form, no iteration (see the module docstring for the two-line proof).
    * ``p_in = 1`` or ``p_out = inf``: exact, ``||K||_{L^r}`` of the kernel
      ``K = fwht(a)`` with ``r = p_out`` if ``p_in = 1``, else ``r = p_in'``
      (the dual exponent), raised to ``max |a_n|`` if rounding left it below;
      O(N log N) at every m.
    * anything else: iterative lower bound (see ``_power_lower``), m <= 12;
      ``opnorm_upper`` gives the certified upper end of the bracket.
    """
    p_in, p_out = _exponents(p_in, p_out)
    diag = sym.values(res.dim)
    exact = _exact_norm(diag, res.m, p_in, p_out)
    if exact is not None:
        return NormEstimate(exact, EXACT)
    return _power_lower(diag, res.m, p_in, p_out, seed=seed, tol=tol).estimate()


def kernel_l1_upper(diags: np.ndarray) -> np.ndarray:
    """Row-wise ``||k||_1`` of the kernel ``k = fwht(diag) / N``, rounded up.

    This is the exact (1, 1) norm of ``opnorm``, and an upper bound for
    every p -> p norm.  The value is raised by its rounding bound
    (``m sum|a_n| u`` in the butterfly, ``N ||k||_1 u`` in the sum,
    ``sum|a_n| <= N ||k||_1``); otherwise a one-signed kernel, where
    ``||k||_1 = sup|a_n|``, can land an ulp low.  Batched over leading
    axes, each row bit for bit the row on its own.
    """
    dim = diags.shape[-1]
    m = dim.bit_length() - 1
    value = np.maximum(pnorm(fwht(diags), 1.0, 2.0**-m), np.abs(diags).max(axis=-1))
    return value * (1.0 + (m + 4) * dim * _EPS)


def certified_upper(diag: np.ndarray, m: int, p_in: float, p_out: float) -> float:
    """Upper bound for the L^{p_in} -> L^{p_out} norm, rounded up.

    The smaller of the hypercontractive bound of the module docstring (O(N);
    infinite for ``p_in = 1`` or ``p_out = inf``) and, when ``p_out <= p_in``,
    ``kernel_l1_upper`` (O(N log N)).  The hypercontractive bound is raised by
    its rounding bound: ``max(q, 2) - 1``, the quotient, the square root, the
    power (at most the m-th, one ulp) and ``|a_n|`` leave a relative error of
    at most ``(m + 2.5) eps``.
    """
    upper = INF
    if p_in > 1.0 and p_out < INF:
        growth = math.sqrt((max(p_out, 2.0) - 1.0) / (min(p_in, 2.0) - 1.0))
        weights = growth ** np.arange(m + 1, dtype=np.float64)
        mags = np.abs(diag)
        weighted = mags * weights[np.bitwise_count(np.arange(diag.shape[-1]))]
        upper = float(np.max(weighted, where=mags > 0, initial=0.0)) * (1.0 + (m + 4) * _EPS)
    if p_out <= p_in:
        upper = min(upper, float(kernel_l1_upper(diag)))
    return float(upper)


def opnorm_upper(sym: Symbol, res: Resolution, p_in: float, p_out: float) -> NormEstimate:
    """Upper end of the ``opnorm`` bracket: the exact value on its exact
    paths, else the ``certified_upper`` bound its power loop stops on, tagged
    ``upper``.  O(N log N) at every m.
    """
    p_in, p_out = _exponents(p_in, p_out)
    diag = sym.values(res.dim)
    exact = _exact_norm(diag, res.m, p_in, p_out)
    if exact is not None:
        return NormEstimate(exact, EXACT)
    return NormEstimate(certified_upper(diag, res.m, p_in, p_out), UPPER)


def tail_norm(
    sym: Symbol,
    cutoff: int,
    res: Resolution,
    p_in: float,
    p_out: float,
    **opts,
) -> tuple[NormEstimate, float]:
    """Norm of the truncation remainder (indices > cutoff) plus the analytic
    reference ``sup_{cutoff < n < 2**m} |a_n|``.

    In the (2, 2) and (p, 2) regimes the two coincide: the remainder norm is
    sandwiched between the Walsh-function witness at the largest remaining
    coefficient and the Parseval/embedding estimate from above.
    """
    if not 0 <= cutoff < res.dim:
        raise ValueError(f"cutoff {cutoff} out of range for m = {res.m}")
    rest = tail(sym, cutoff)
    vals = np.abs(sym.values(res.dim)[cutoff + 1 :])
    analytic = float(vals.max()) if vals.size else 0.0
    return opnorm(rest, res, p_in, p_out, **opts), analytic


@dataclass
class MultiplierBoundReport:
    """Measured p -> p norm of a multiplier against its coefficient sup."""

    p: float
    m: int
    estimate: NormEstimate
    dual_estimate: NormEstimate
    sup: float
    ratio: float
    duality_gap: float
    probe: ConstantProbe

    @property
    def duality_ok(self) -> bool:
        scale = max(1.0, self.estimate.value)
        return self.duality_gap <= 1e-6 * scale


def _dual_witness(diag: np.ndarray, m: int, p: float, x: np.ndarray) -> np.ndarray:
    """Convert a domain witness for T into a start for the adjoint at p'.

    With y = T x, the duality-map image of y pairs with x at the achieved
    ratio, so the adjoint run starts at least as high (Hoelder equality)."""
    y = apply_diag(diag, x)
    u = _dual_map_rows(y[None, :], p)[0]
    w = 2.0**-m
    nu = pnorm(u, dual_exponent(p), w)
    return u / nu if nu > 0 else u


def multiplier_bound_check(
    sym: Symbol,
    res: Resolution,
    p: float,
    *,
    seed: int = 0,
) -> MultiplierBoundReport:
    """Measure the p -> p lower bound, its ratio to sup |a_n|, and the
    adjoint symmetry: the conjugate symbol at the dual exponent must give the
    same norm.

    The two power runs exchange Hoelder-dual witnesses until neither
    improves, so the reported pair agrees to iteration tolerance while both
    sides remain genuine lower bounds (at most 8 exchange rounds).
    """
    p = float(p)
    if not 1.0 < p < INF:
        raise ValueError(f"duality check needs 1 < p < inf, got {p}")
    q = dual_exponent(p)
    m = res.m
    dim = res.dim
    diag = sym.values(dim)
    conj_diag = np.conj(diag)
    sup = float(np.abs(diag).max())

    run_a = _power_lower(diag, m, p, p, seed=seed)
    run_b = _power_lower(conj_diag, m, q, q, seed=seed + 1)

    for _ in range(8):
        gap = abs(run_a.value - run_b.value)
        if gap <= DEFAULT_TOL * max(1.0, run_a.value, run_b.value):
            break
        start_b = _dual_witness(diag, m, p, run_a.witness)
        start_a = _dual_witness(conj_diag, m, q, run_b.witness)
        run_b = _power_lower(conj_diag, m, q, q, seed=seed + 1, extra_starts=[start_b])
        run_a = _power_lower(diag, m, p, p, seed=seed, extra_starts=[start_a])

    ratio = run_a.value / sup if sup > 0 else 0.0
    probe = ConstantProbe(
        inequality="multiplier_bound",
        p=p,
        m=m,
        best_ratio=ratio,
        witness=run_a.witness,
        trials=run_a.starts,
        seed=seed,
        symbol=sym,
    )
    return MultiplierBoundReport(
        p=p,
        m=m,
        estimate=run_a.estimate(),
        dual_estimate=run_b.estimate(),
        sup=sup,
        ratio=ratio,
        duality_gap=abs(run_a.value - run_b.value),
        probe=probe,
    )


class _Start:
    """One start of the probe ascent: its vector, the running estimate of its
    transform, and the bracket ``[lo, hi]`` known to hold its exact ratio."""

    def __init__(self, x: np.ndarray, transform: np.ndarray, ratio: float, form: RatioForm):
        self.x = x
        self.transform = transform
        self.lo = self.hi = ratio
        self.updates = 0  # rank-one updates since ``transform`` was exact
        self.den = float(form.denominators(x))
        self.l1 = float(np.abs(x).sum()) + x.size * _ETA
        self.pos = self.passes = 0
        self.size = 1
        self.improved = False

    def move(self, i: int, value: complex, transform: np.ndarray | None) -> None:
        """Set ``x_i`` and the transform estimate, one update further on."""
        self.x[i] = value
        self.transform = transform
        self.updates += 1

    def refresh(self, form: RatioForm) -> None:
        """Exact transform and ratio, bit for bit those of ``form.ratios``."""
        self.transform = fwht(self.x)
        self.updates = 0
        self.lo = self.hi = float(form.of(form.scaled(self.transform), self.x))


def _candidate_rows(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows of x with ``x_i`` replaced by ``-x_i``, ``i x_i`` and ``-i x_i`` in
    turn, three per coordinate of ``idx``: shape ``(3 * len(idx), dim)``."""
    size = idx.size
    rows = np.repeat(x[None], 3 * size, axis=0)
    rows.reshape(size, 3, -1)[np.arange(size), :, idx] = x[idx, None] * _MOVE_MULTIPLIERS
    return rows


def _screen(form: RatioForm, rev: np.ndarray, blocks):
    """Estimated transforms and certified ratio brackets of the three moves at
    every coordinate of every block ``(start, idx)``, all blocks in one batch;
    ``rev`` is ``_bit_reversal(m)``.  For the C coordinates of the blocks in
    turn, returns the estimated transforms times ``W_i``, shape
    ``(C, 3, dim)`` in the move order ``-1, +i, -i``; the ``W_i``, shape
    ``(C, dim)``; and nested lists ``lo``, ``hi`` of shape ``(C, 3)``
    ordered by quarter turns 1, 2, 3.  See ``constant_probe`` for the bound.
    """
    dim = rev.size
    m = dim.bit_length() - 1
    u = _EPS / 2
    grow = (form.num_weight * dim) ** (1.0 / form.num_p)
    rho = (dim / form.num_p + m + 16) * u
    sizes = [idx.size for _, idx in blocks]
    owner = np.repeat(np.arange(len(blocks)), sizes)
    coords = np.concatenate([idx for _, idx in blocks])
    # Column i of the Paley matrix, W_i on the cells: exactly +-1.
    signs = 1.0 - 2.0 * (np.bitwise_count(rev[coords, None] & np.arange(dim)) & 1)
    xi = np.stack([st.x for st, _ in blocks])[owner, coords][:, None]
    steps = xi * _MOVE_MULTIPLIERS - xi
    # ``w * F + step`` is ``w * (F + w * step)`` bit for bit (w = +-1, and
    # rounding is symmetric), so it has the candidate's moduli.
    signed = np.stack([st.transform for st, _ in blocks])[owner] * signs
    rows = signed[:, None, :] + steps[:, :, None]
    num = pnorm(rows, form.num_p, form.num_weight)[:, _ROW_OF_TURN] / form.divisor

    # Per start, the bracket is ``est +- (slope * est + offset)``.  With a
    # zero denominator every candidate's ratio is exactly 0: dividing by inf
    # and a zero offset give the bracket [0, 0].
    dens, offsets = [], []
    for st, _ in blocks:
        if st.den > 0:
            drift = grow * ((2 * m + 5 * (st.updates + 1)) * u * st.l1 / form.divisor + 2 * _ETA)
            dens.append(st.den)
            offsets.append(_SCREEN_SAFETY * ((drift + 2 * (grow + 1) * _ETA) / st.den + 2 * _ETA))
        else:
            dens.append(INF)
            offsets.append(0.0)
    est = num / np.repeat(dens, sizes)[:, None]
    margin = _SCREEN_SAFETY * (2 * rho + 2 * u) * est + np.repeat(offsets, sizes)[:, None]
    return rows, signs, (est - margin).tolist(), (est + margin).tolist()


def _sweep(x_i, lo, hi):
    """The ``-1, +i, -i`` first-improvement sweep at one coordinate, decided
    from brackets: ``lo[t] <= ratio <= hi[t]`` at ``x_i * i**t`` (t = 0 is the
    vector as it stands).  Returns the kept value and its quarter turns, or
    None when a bracket leaves a comparison open."""
    keep, turns = x_i, 0
    for mul, quarter in _MOVES:
        t = (turns + quarter) % 4
        if lo[t] > hi[turns] * _GAIN:
            keep, turns = keep * mul, t
        elif not hi[t] <= lo[turns] * _GAIN:
            return None
    return keep, turns


def _replay(st: _Start, idx, rows: np.ndarray, signs: np.ndarray, lo, hi, cap: int) -> int | None:
    """Sweep the coordinates ``idx`` of a start in order, from the brackets
    ``lo``, ``hi`` of their moves (as ``_screen`` returns them), until a move
    is kept.  A kept move updates the vector, the transform estimate (the
    candidate's estimated row, or None when ``rows`` is None: no screen ran)
    and the start's bracket.  Returns None after moving the start past the
    coordinates it decided, else the position in ``idx`` of the first
    coordinate a bracket left open."""
    for j, i in enumerate(idx):
        lo4 = (st.lo, *lo[j])
        hi4 = (st.hi, *hi[j])
        swept = _sweep(st.x[i], lo4, hi4)
        if swept is None:
            return j
        keep, turns = swept
        if turns:
            st.move(i, keep, None if rows is None else rows[j, _ROW_OF_TURN[turns - 1]] * signs[j])
            st.lo, st.hi = lo4[turns], hi4[turns]
            st.pos, st.size, st.improved = i + 1, 1, True
            return None
    st.pos = idx[-1] + 1
    st.size = min(2 * st.size, cap)
    return None


def constant_probe(
    inequality: str,
    p: float,
    res: Resolution,
    trials: int = 10000,
    seed: int = 0,
) -> ConstantProbe:
    """Empirical lower bound for an analysis/synthesis constant.

    Random complex starts evaluated in a batch, then coordinate sign/phase
    ascent from the 4 best starts: at each coordinate in turn the moves
    ``x_i -> -x_i``, then ``i x_i``, then ``-i x_i`` (each relative to the
    value kept so far) are tried, and a move is kept when it raises the ratio
    by more than a relative 1e-14.  A start stops after a pass with no kept
    move, or after 16 passes.  The observed maximum only ever grows, and the
    best witness is stored.  ``trials * 2**m`` above ``MAX_PROBE_ELEMS`` and
    m above ``MAX_PROBE_LEVELS`` are refused before drawing.

    Every decision is the one the one-candidate-at-a-time loop takes, which
    evaluates each candidate exactly (``hy_ratios`` or ``synthesis_ratios``:
    one transform and two norms), so ``best_ratio`` and the witness bytes are
    those of that loop.  Write the ratio as ``pnorm(H x / d, r, w) / den(x)``
    (``metrics.RatioForm``), H the Paley matrix, N = 2**m and u = eps / 2.

    *Screen.*  Each start keeps an estimate F of ``H x``.  The move
    ``x_i -> mu x_i`` (mu in {-1, i, -i}) changes ``H x`` by
    ``(mu - 1) x_i w_i``, where ``w_i``, column i of the symmetric H, is
    ``W_i`` on the cells and exactly +-1, so a candidate costs one O(N)
    update and one ``pnorm``.  Its denominator is the start's own, bit for
    bit: products by +-1 and +-i are exact and the modulus ignores signs and
    order, so ``|mu x_i| == |x_i|``.  A candidate's exact ratio lies within
    the estimate ``pnorm(F', r, w) / d / den`` plus or minus the sum of
    (``L1 = ||x||_1``, which moves never change; k the updates since F was
    exact):

    * the transforms' error: F and the exact path's ``fwht`` each lie within
      ``m u L1`` of ``H x'`` in every entry (a depth-m tree of additions),
      and each update adds at most ``5 u L1`` (``fl(mu x_i - x_i)`` and the
      sum), so they differ by at most ``(2 m + 5 (k + 1)) u L1`` per entry,
      and the numerators by ``(w N)**(1/r) / d`` times that;
    * ``pnorm``'s own rounding on each side, relative
      ``rho = (N / r + m + 16) u`` (the moduli, the quotients by the max, the
      powers, an N-term sum of nonnegative terms, the root);
    * the quotient by ``den``, one rounding on each side;
    * a few subnormal steps for underflow in the moduli, the division by d
      and the results.

    The bracket is the estimate plus and minus ``_SCREEN_SAFETY = 2`` times
    that first-order bound, which covers the dropped ``(1 + O(N u))``
    factors and the rounding of the bound itself.  A zero denominator makes
    every ratio exactly 0.

    *Replay.*  The start's ratio is known as a bracket too: exact after a
    refresh or a fallback, the kept candidate's bracket after a screened
    move.  A move is kept when its bracket lies wholly above the threshold
    ``current * (1 + 1e-14)`` taken over the start's bracket, and dropped
    when wholly at or below it; rounding is monotone, so either outcome is
    the exact loop's.  Where a bracket straddles its threshold, the rows of
    that coordinate and of the rest of its block (and the vector itself, if
    its ratio is a bracket) are evaluated exactly, batched over all starts,
    and the block replays from exact values.  A batch row of ``fwht`` and
    ``pnorm`` is bit for bit the row on its own.  Each further pass of a
    start begins with one exact ``fwht``, which resets k, and ``best_ratio``
    comes from one final exact evaluation of the finished starts.

    *Blocks.*  The starts advance in lockstep.  Each round, every active
    start screens a block of upcoming coordinates, all in one batch; at the
    first kept move it drops the rest of its block (screened against the old
    vector), and its next block starts at the following coordinate with one
    coordinate.  A block without a kept move doubles the next, up to
    ``4 * PROBE_SPECULATION_MAX_DIM // 2**m`` coordinates, one above
    ``PROBE_SPECULATION_MAX_DIM``.  At hy p = 2 the ratio is 1 for every
    vector (Parseval) and every move would tie within the bracket, so no
    screen runs: each block goes straight to exact rows, and the transform
    estimates are not kept.
    """
    if inequality == "hy":
        p = hy_exponent(p)
        make_form = hy_form
    elif inequality == "synthesis":
        p = synthesis_exponent(p)
        make_form = synthesis_form
    else:
        raise ValueError(f"unknown inequality {inequality!r} (expected 'hy' or 'synthesis')")
    if trials < 1:
        raise ValueError("need at least one trial")

    m = res.m
    dim = res.dim
    if trials * dim > MAX_PROBE_ELEMS:
        raise ValueError(
            f"probe batch of {trials} trials x 2**{m} cells = {trials * dim} elements "
            f"exceeds {MAX_PROBE_ELEMS}: at about {PROBE_BYTES_PER_ELEM} B per element "
            f"it would need {PROBE_BYTES_PER_ELEM * trials * dim / 1e9:.1f} GB"
        )
    if m > MAX_PROBE_LEVELS:
        raise ValueError(
            f"constant probes limited to m <= {MAX_PROBE_LEVELS}, got {m}: the "
            f"ascent screens each candidate with an O(2**m) update and norm, so "
            f"its time about triples per level (about a minute at m = 12)"
        )
    form = make_form(p, dim)
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((trials, dim)) + 1j * rng.standard_normal((trials, dim))
    ratios = form.ratios(batch)

    order = np.argsort(-ratios, kind="stable")[:_PROBE_STARTS]
    best_ratio = float(ratios[order[0]])
    best_witness = batch[order[0]].copy()

    cap = 4 * PROBE_SPECULATION_MAX_DIM // dim if dim <= PROBE_SPECULATION_MAX_DIM else 1
    rev = _bit_reversal(m)
    xs = batch[order]
    del batch
    starts = [
        _Start(x, transform, float(ratios[row]), form)
        for x, transform, row in zip(xs, fwht(xs), order)
    ]
    # Both norms L^2: every ratio is 1 up to rounding (Parseval), so every
    # screened move would tie within its bracket.
    parseval = form.num_p == form.den_p == 2.0
    active = list(starts)
    while active:
        blocks = [(st, np.arange(st.pos, st.pos + min(st.size, dim - st.pos))) for st in active]
        if parseval:
            undecided = [(st, idx, None, None) for st, idx in blocks]
        else:
            undecided = []
            rows, signs, lo, hi = _screen(form, rev, blocks)
            at = 0
            for st, idx in blocks:
                stop = at + idx.size
                j = _replay(st, idx.tolist(), rows[at:stop], signs[at:stop], lo[at:stop], hi[at:stop], cap)
                if j is not None:
                    undecided.append((st, idx[j:], rows[at + j : stop], signs[at + j : stop]))
                at = stop
        if undecided:
            # The rest of each block, and the vector whose ratio is a bracket.
            exact_rows = []
            for st, idx, _, _ in undecided:
                if st.lo != st.hi:
                    exact_rows.append(st.x[None])
                exact_rows.append(_candidate_rows(st.x, idx))
            exact = iter(form.ratios(np.concatenate(exact_rows)).tolist())
            for st, idx, rows, signs in undecided:
                if st.lo != st.hi:
                    st.lo = st.hi = next(exact)
                # ``exact`` runs in move order; brackets go by quarter turns.
                moves = itertools.islice(exact, 3 * idx.size)
                vals = [[by_move[k] for k in _ROW_OF_TURN] for by_move in zip(moves, moves, moves)]
                _replay(st, idx.tolist(), rows, signs, vals, vals, cap)
        for st in [st for st in active if st.pos == dim]:
            st.passes += 1
            st.pos = 0
            if not st.improved or st.passes == _PROBE_PASSES:
                active.remove(st)
            else:
                st.refresh(form)
            st.improved = False

    finals = form.ratios(np.stack([st.x for st in starts]))
    for st, final in zip(starts, finals.tolist()):
        if final > best_ratio:
            best_ratio = final
            best_witness = st.x

    return ConstantProbe(
        inequality=inequality,
        p=p,
        m=m,
        best_ratio=best_ratio,
        witness=best_witness,
        trials=trials,
        seed=seed,
    )


def random_explicit_symbol(rng: np.random.Generator, count: int) -> ExplicitSymbol:
    """Seeded random explicit symbol (zero tail); handy for probes and tests."""
    prefix = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return ExplicitSymbol(prefix, "zero")
