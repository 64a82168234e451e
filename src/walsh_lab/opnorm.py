"""Operator norms of Walsh multipliers on the finite step-function space.

Exact paths:

* p_in >= 2 >= p_out: the norm is ``sup |a_n|``.  ``T W_n = a_n W_n`` with
  ``||W_n||_r = 1`` gives it from below; from above,
  ``||Tf||_q <= ||Tf||_2 <= sup|a| ||f||_2 <= sup|a| ||f||_p`` because [0, 1)
  is a probability space.  At (2, 2) the value is cross-checked by iteration.
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
``||k||_1`` is also an upper bound for every p -> p norm (Riesz-Thorin
between the equal endpoint norms).

General matrix p-norms are NP-hard to certify; the ``kind`` tag is honest
about which path produced a value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import Resolution, fwht, walsh_step
from .metrics import (
    dual_exponent,
    hy_exponent,
    hy_ratios,
    pnorm,
    synthesis_exponent,
    synthesis_ratios,
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
# between the old and the new cutoff.
GEMM_MAX_DIM = 256
# The power loop holds about 170 bytes per start and cell at its peak
# (14 MB for 21 starts at m = 12, 3.7 GB at m = 20), and one step at m = 12
# takes about 18 ms on the VM above, so 500 steps about 9 s; each further
# level doubles both.
MAX_POWER_LEVELS = 12
# The constant probes' ascent batches the candidates of all its starts in
# each round; a start's block holds up to ``4 * PROBE_SPECULATION_MAX_DIM //
# dim`` coordinates (three rows each) at or below this dimension and one
# coordinate above it.  One 12-row ``hy_ratios`` call against 12 single-row
# calls, on the VM above (best of 40-200 repeats), ran 7.7x faster at m = 6,
# 4.4x at 8, 2.05x at 10, 1.24x at 11 and 0.72x at 12 (3 rows: 2.3x at 6,
# 1.0x at 10, 0.73x at 11, 0.54x at 12), so above it speculation rows cost
# more than the calls they save: ``constant_probe("synthesis", 1.5,
# Resolution(11), trials=50, seed=3)`` took 62-71 s with one-coordinate blocks,
# 82-90 s with two, and 74-83 s with one call per candidate.  The cutoff
# changes speed only, never bytes.
PROBE_SPECULATION_MAX_DIM = 1024
# ``constant_probe`` refuses ``trials * 2**m`` above MAX_PROBE_ELEMS: its
# (trials, 2**m) complex batch (16 B per element) and the temporaries of its
# ratios (40 B, tracemalloc at m = 8, 12 and 16) peak at about
# PROBE_BYTES_PER_ELEM, so 2**26 elements need about 3.8 GB.
PROBE_BYTES_PER_ELEM = 56
MAX_PROBE_ELEMS = 2**26
# ``constant_probe`` also refuses m above MAX_PROBE_LEVELS, whatever the
# trial count: above PROBE_SPECULATION_MAX_DIM the ascent makes one transform
# call per coordinate and pass, so each level about quadruples its time.
# ``constant_probe("synthesis", 1.5, Resolution(m), trials=50, seed=3)`` took
# 62-78 s at m = 11 and 371 s at m = 12 on the VM above; at m = 20 one pass
# of one start alone would take days.
MAX_PROBE_LEVELS = 12
_PROBE_STARTS = 4
_PROBE_PASSES = 16
# The ascent's moves in trial order, each with the quarter turns it adds.
_MOVES = ((-1.0, 2), (1j, 1), (-1j, 3))
_MOVE_MULTIPLIERS = np.array([mul for mul, _ in _MOVES])


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

    Per start the ratio ||T x_k|| / ||x_k|| is nondecreasing in k; iteration
    stops when its relative change drops below ``tol``.  The reduction over
    starts is a max with ties resolved by the lowest start index;
    ``converged`` says whether that start stopped on ``tol`` or as a zero row
    rather than at ``max_iter``.
    """
    if m > MAX_POWER_LEVELS:
        raise ValueError(
            f"power iteration limited to m <= {MAX_POWER_LEVELS}, got {m}: its "
            f"(starts x 2**m) complex arrays would need about 3.7 GB at m = 20"
        )
    w = 2.0**-m
    q_dual = dual_exponent(p_in)
    forward, adjoint = _row_operators(diag)

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

    * ``p_in = p_out = 2``: exact, ``max |a_n|``, cross-checked against the
      iterative estimator when m <= 10.
    * ``p_in >= 2 >= p_out`` otherwise: exact, ``max |a_n|`` in closed form,
      no iteration (see the module docstring for the two-line proof).
    * ``p_in = 1`` or ``p_out = inf``: exact, ``||K||_{L^r}`` of the kernel
      ``K = fwht(a)`` with ``r = p_out`` if ``p_in = 1``, else ``r = p_in'``
      (the dual exponent), raised to ``max |a_n|`` if rounding left it below;
      O(N log N) at every m.
    * anything else: iterative lower bound (see ``_power_lower``), m <= 12.
    """
    for p in (p_in, p_out):
        if math.isnan(float(p)) or float(p) < 1.0:
            raise ValueError(f"exponents must lie in [1, inf], got {p}")
    p_in = float(p_in)
    p_out = float(p_out)
    m = res.m
    diag = sym.values(res.dim)
    sup = float(np.abs(diag).max())

    if p_in == p_out == 2.0:
        iters = 0
        if m <= 10:
            run = _power_lower(
                diag, m, 2.0, 2.0,
                seed=seed, random_starts=4, tol=tol, max_iter=200,
            )
            if abs(run.value - sup) > 1e-8 * max(1.0, sup):
                raise RuntimeError(
                    f"p=2 exact norm {sup} and power iteration {run.value} disagree"
                )
            iters = run.iterations
        return NormEstimate(sup, EXACT, iterations=iters, residual=0.0, starts=0)

    if p_in >= 2.0 >= p_out:
        return NormEstimate(sup, EXACT)

    if p_in == 1.0 or p_out == INF:
        r = p_out if p_in == 1.0 else dual_exponent(p_in)
        return NormEstimate(max(pnorm(fwht(diag), r, 2.0**-m), sup), EXACT)

    run = _power_lower(diag, m, p_in, p_out, seed=seed, tol=tol)
    return NormEstimate(run.value, LOWER, run.iterations, run.residual, run.starts, run.converged)


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


def opnorm_upper_interpolated(sym: Symbol, res: Resolution, p: float) -> NormEstimate:
    """Upper bound ``||k||_1`` for the p -> p norm, the same for every p.

    ``k[i ^ j]`` is symmetric, so its endpoint norms are equal and
    Riesz-Thorin interpolation between them gives ``||k||_1``; see
    ``kernel_l1_upper``.
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return NormEstimate(float(kernel_l1_upper(sym.values(res.dim))), UPPER)


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
        estimate=NormEstimate(
            run_a.value, LOWER, run_a.iterations, run_a.residual, run_a.starts, run_a.converged
        ),
        dual_estimate=NormEstimate(
            run_b.value, LOWER, run_b.iterations, run_b.residual, run_b.starts, run_b.converged
        ),
        sup=sup,
        ratio=ratio,
        duality_gap=abs(run_a.value - run_b.value),
        probe=probe,
    )


def _candidate_ratios(ratios_of, p: float, xs, blocks) -> list[list[float]]:
    """Ratios of the three moves ``x_i -> -x_i, i x_i, -i x_i`` at every
    coordinate of every block ``(start, first, size)``, from one ``ratios_of``
    call over all rows, flattened per block as ``[-1, +i, -i]`` per coordinate.
    """
    parts = []
    for s, first, size in blocks:
        rows = np.repeat(xs[s][None], 3 * size, axis=0)
        idx = np.arange(first, first + size)
        rows.reshape(size, 3, -1)[np.arange(size), :, idx] = xs[s][idx, None] * _MOVE_MULTIPLIERS
        parts.append(rows)
    flat = iter(ratios_of(np.concatenate(parts), p).tolist())
    return [list(itertools.islice(flat, 3 * size)) for _, _, size in blocks]


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

    The starts advance in lockstep, each with its own coordinate, pass count
    and improvement flag.  Each round, every active start contributes a
    speculative block of upcoming coordinates, three candidate rows per
    coordinate (``x_i`` replaced by ``-x_i``, ``i x_i`` and ``-i x_i``), and
    all rows of all starts go through one ``ratios_of`` call.  The
    ``-1, +i, -i`` sweep only ever visits the four phases ``x_i {1, -1, i, -i}``
    and the ratio at phase 1 is the current one, so each start replays the
    sweep in order from the precomputed ratios.  At the first coordinate
    with a kept move it applies the move and drops the rest of its block
    (those rows were evaluated against the old vector); its next block
    starts at the following coordinate with one coordinate, and a block
    without a kept move doubles the next, up to
    ``4 * PROBE_SPECULATION_MAX_DIM // 2**m`` coordinates.  Above
    ``PROBE_SPECULATION_MAX_DIM`` a block is one coordinate, so a round
    evaluates the three candidates of every active start.

    Every row evaluated is a vector the one-candidate-at-a-time loop would
    evaluate, and a batch row of ``fwht`` and ``pnorm`` is bit for bit the
    row on its own, so ``best_ratio`` and the witness bytes are those of that
    loop whatever the block sizes.
    """
    if inequality == "hy":
        p = hy_exponent(p)
        ratios_of = hy_ratios
    elif inequality == "synthesis":
        p = synthesis_exponent(p)
        ratios_of = synthesis_ratios
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
            f"constant probes limited to m <= {MAX_PROBE_LEVELS}, got {m}: above "
            f"{PROBE_SPECULATION_MAX_DIM} cells the ascent makes one transform call "
            f"per coordinate and pass"
        )
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((trials, dim)) + 1j * rng.standard_normal((trials, dim))
    ratios = ratios_of(batch, p)

    order = np.argsort(-ratios, kind="stable")[:_PROBE_STARTS]
    best_ratio = float(ratios[order[0]])
    best_witness = batch[order[0]].copy()

    cap = 4 * PROBE_SPECULATION_MAX_DIM // dim if dim <= PROBE_SPECULATION_MAX_DIM else 1
    xs = [batch[row].copy() for row in order]
    current = [float(ratios[row]) for row in order]
    n = len(xs)
    pos, passes, size = [0] * n, [0] * n, [1] * n
    improved = [False] * n
    active = list(range(n))
    while active:
        blocks = [(s, pos[s], min(size[s], dim - pos[s])) for s in active]
        for (s, first, width), cand in zip(blocks, _candidate_ratios(ratios_of, p, xs, blocks)):
            x = xs[s]
            kept = False
            for j in range(width):
                i = first + j
                # Ratio at x_i times i**turns; turn 0 is the vector as it stands.
                by_turns = (current[s], cand[3 * j + 1], cand[3 * j], cand[3 * j + 2])
                keep, turns = x[i], 0
                for mul, quarter in _MOVES:
                    trial = by_turns[(turns + quarter) % 4]
                    if trial > current[s] * (1.0 + 1e-14):
                        current[s] = trial
                        keep = keep * mul
                        turns = (turns + quarter) % 4
                        kept = True
                x[i] = keep
                if kept:
                    break
            pos[s] = i + 1
            size[s] = 1 if kept else min(2 * size[s], cap)
            improved[s] |= kept
            if pos[s] == dim:
                passes[s] += 1
                pos[s] = 0
                if not improved[s] or passes[s] == _PROBE_PASSES:
                    active.remove(s)
                improved[s] = False

    for s in range(n):
        if current[s] > best_ratio:
            best_ratio = current[s]
            best_witness = xs[s]

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
