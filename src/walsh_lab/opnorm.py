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
norm.  For dim <= ``GEMM_MAX_DIM`` each power step multiplies by the
cell-space kernel matrix ``k[i ^ j]``, ``k = K / 2**m``; above it, by the
Kronecker-factored Walsh transform ``H_A (x) H_B`` with the diagonal between
(``_row_operators``), which holds nothing of size N x N.  That matrix
commutes with every translation ``i -> i ^ h``, so the cell start ``e_h``
repeats the run from ``e_0`` translated, and the start block holds ``e_0``
alone: 21 starts at m >= 2.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import MAX_TRANSFORM_LEVELS, Resolution, fwht, walsh_matrix, walsh_step
from .metrics import dual_exponent, hy_exponent, pnorm, synthesis_exponent
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
# by the Kronecker-factored transform above it.  Whole power loops (12
# unimodular random symbols in four regimes, geometric 0.9 and reciprocal at
# (1.5, 3); medians of 9 runs each, three processes) summed at m = 7 to
# 39-41 ms with the cutoff at 64 against 47-51 ms at 128, and at m = 6 to
# 31-34 ms with the dense product against 32-36 ms factored.  A dense
# product of 21 rows runs on two OpenBLAS threads (0.015-0.018 ms wall and
# twice that CPU at 64, 0.051 ms wall at 128), the factored one at m <= 8 on
# one (0.018-0.025 ms at 64, 0.029-0.040 ms at 128).  Measured on a 2-vCPU
# x86-64 VM with OpenBLAS 0.3.31.  After each threaded product OpenBLAS's
# worker threads spin for a while, and that CPU is billed to whatever runs
# next; numpy offers no per-call thread control, and this package sets no
# environment variable: a caller who counts CPU time can set
# OPENBLAS_NUM_THREADS=1 before numpy is first imported.
GEMM_MAX_DIM = 64
# The power loop holds about 150 bytes per start and cell at its peak
# (13 MB traced for 21 starts at m = 12, 3.2 GB at m = 20), and one step of
# 21 starts at m = 12 takes 6.4-6.9 ms on the VM above (17.5 ms with the
# transform pair), so 500 steps about 3.4 s; each further level doubles
# both.
MAX_POWER_LEVELS = 12


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
    """A ratio of one of the measured inequalities, with the witness that
    attains it; ``recompute()`` re-rates the witness.

    ``kind`` is ``exact`` when ``best_ratio`` is the constant itself: the
    analysis and synthesis probes of ``constant_probe`` return the closed
    forms, with their proofs there.  A ``multiplier_bound`` ratio comes from
    a power-iteration lower bound and is tagged ``lower``.
    """

    inequality: str  # 'hy' | 'synthesis' | 'multiplier_bound'
    p: float
    m: int
    best_ratio: float
    witness: np.ndarray = field(repr=False)
    trials: int = 0
    seed: int = 0
    symbol: Symbol | None = None
    kind: str = LOWER

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
    if np.min(mags, initial=np.inf) >= _TINY:
        return v / mags
    out = np.zeros_like(v)
    np.divide(v, mags, out=out, where=mags >= _TINY)
    return out


def _dual_map_rows(v: np.ndarray, q: float) -> np.ndarray:
    """Row-wise Hoelder duality map: phase(v) |v|**(q-1), scale-free.

    q = 1 keeps only the phases; q = inf keeps those of the max-modulus
    coordinates.  Rows of zeros map to zeros.
    """
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
    matrix ``M`` (``x @ M`` and ``x @ conj(M)``).  Above it they go through
    the Kronecker-factored Walsh transform.  Split N = A B with
    ``A = 2**floor(m/2)``, ``B = 2**ceil(m/2)``, cells as ``i = i_hi B + i_lo``
    and Walsh indices as ``n = n_hi A + n_lo``.  Paley order reverses the
    bits of the cell, so ``W_n(i) = W^A_{n_lo}(i_hi) W^B_{n_hi}(i_lo)``
    exactly: the Paley matrix is ``K = H_A (x) H_B`` with its rows reordered,
    and ``M = K diag(d') K / N`` with ``d'[n_lo, n_hi] = diag[n_hi A + n_lo]``.

    The batch is copied once into an (A, B, rows) layout, so that both
    contractions act on leading axes: ``H_A`` as one GEMM, ``H_B`` as one
    per value of the first index.  The +-1 factors are real, so every GEMM
    runs on the float64 view of the complex data, with half the flops of a
    complex one and, at m <= 8, below OpenBLAS's threading threshold.  The
    result is scaled by ``d' / N`` in that layout, transformed back the same
    way and copied out: four GEMM stages, two copies and one multiply per
    product.  The adjoint uses ``conj(d')``.  Nothing of size N x N is held;
    at m = 12 the factors take 32 KiB each.
    """
    dim = diag.shape[-1]
    if dim <= GEMM_MAX_DIM:
        mat = kernel_matrix(diag)
        adj = np.conj(mat)
        return (lambda v: v @ mat), (lambda v: v @ adj)
    m = dim.bit_length() - 1
    a, b = 1 << (m // 2), 1 << (m - m // 2)
    h_a, h_b = (walsh_matrix(k).astype(np.float64) for k in (m // 2, m - m // 2))
    scale = (diag / dim).reshape(b, a).T[:, :, None]

    def product(d: np.ndarray):
        def apply(v: np.ndarray) -> np.ndarray:
            rows = v.shape[0]
            t = v.reshape(rows, a, b).transpose(1, 2, 0).copy().view(np.float64)
            t = np.matmul(h_b, (h_a @ t.reshape(a, -1)).reshape(a, b, 2 * rows))
            scaled = t.view(np.complex128)
            scaled *= d
            t = h_a @ np.matmul(h_b, t).reshape(a, -1)
            out = t.view(np.complex128).reshape(a, b, rows).transpose(2, 0, 1)
            return np.ascontiguousarray(out).reshape(rows, dim)

        return apply

    return product(scale), product(np.conj(scale))


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

    The active starts are carried as one compact batch ``x``, start ``idx[i]``
    in row i.  Each step takes ``r = |y| / max|y|`` of ``y = T x`` once: it
    serves both the ``L^{p_out}`` norm (``r ** p_out``, as ``pnorm`` sums it)
    and the duality map (``r ** (p_out - 1)``), so the values are those of
    ``pnorm`` and ``_dual_map_rows`` bit for bit.
    """
    if m > MAX_POWER_LEVELS:
        raise ValueError(
            f"power iteration limited to m <= {MAX_POWER_LEVELS}, got {m}: its "
            f"(starts x 2**m) complex arrays would need about 3.2 GB at m = 20"
        )
    w = 2.0**-m
    q_dual = dual_exponent(p_in)
    forward, adjoint = _row_operators(diag)
    closes_at = certified_upper(diag, m, p_in, p_out) * (1.0 - tol)

    x = _start_matrix(diag, m, random_starts, seed, extra_starts)
    norms = pnorm(x, p_in, w)
    # Complex division by a real multiplies by its reciprocal, which
    # overflows for a subnormal norm: such a start is dropped like a zero one.
    keep = norms >= _TINY
    x = x[keep] / norms[keep][:, None]
    n_starts = x.shape[0]

    gamma = np.zeros(n_starts)
    residual = np.full(n_starts, np.inf)
    iterations = np.zeros(n_starts, dtype=int)
    witness = x.copy()
    active = np.ones(n_starts, dtype=bool)
    idx = np.arange(n_starts)
    histories: list[list[float]] | None = [[] for _ in range(n_starts)] if want_history else None

    for step in range(max_iter):
        if idx.size == 0:
            break
        y = forward(x)
        mags = np.abs(y, order="C")
        top = mags.max(axis=-1, keepdims=True, initial=0.0)
        r = mags / np.where(top > 0, top, 1.0)
        if p_out == INF:
            g = top[:, 0]
        else:
            g = (top * ((r**p_out).sum(axis=-1, keepdims=True) * w) ** (1.0 / p_out))[:, 0]
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

        witness[idx] = x
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
        still = ~done
        if not still.any():
            break
        if not still.all():
            idx, y, mags, r = idx[still], y[still], mags[still], r[still]

        u = _phase(y, mags)
        if p_out != 1.0:
            u *= r ** (p_out - 1.0)
        xn = _dual_map_rows(adjoint(u), q_dual)
        nn = pnorm(xn, p_in, w)
        alive = nn > 0
        active[idx[~alive]] = False
        idx = idx[alive]
        x = xn[alive] / nn[alive][:, None]

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


def constant_probe(
    inequality: str,
    p: float,
    res: Resolution,
    trials: int = 10000,
    seed: int = 0,
) -> ConstantProbe:
    """The exact analysis or synthesis constant at resolution m, N = 2**m,
    with a witness that attains it.

    *Analysis* (``hy``, 1 < p <= 2): ``sup ||f_hat||_{p'} / ||f||_{L^p} = 1``.
    ``|f_hat(n)| <= ||f||_{L^1}`` makes the constant 1 at p = 1, and Parseval
    makes it 1 at p = 2, so Riesz-Thorin bounds it by 1 in between.  ``W_0``,
    all cells 1, has ``f_hat = e_0`` and attains 1.

    *Synthesis* (1 < p < 2): ``sup ||g||_{L^p} / ||c||_{p'} = N**(1/p - 1/2)``
    for ``g = sum c_n W_n``.  ``||g||_{L^p} <= ||g||_{L^2}`` on a probability
    space, ``||g||_{L^2} = ||c||_2`` (Parseval) and
    ``||c||_2 <= N**(1/p - 1/2) ||c||_{p'}`` (Hoelder).  Equality needs |g|
    and |c| constant: ``c_n = i**|n|``, |n| the popcount, is the Kronecker
    power ``(1, i)**(x m)``, and its g, ``(1 + i, 1 - i)**(x m)``, has modulus
    ``2**(m/2)`` on every cell.  The value is ``2.0 ** (m/p - m/2)``, so exact
    powers of two stay exact.  The witness is looked up by popcount, not
    built by ``np.kron``, whose signed zeros would depend on the build order.

    ``recompute()`` re-rates the witness through ``hy_ratio`` or
    ``synthesis_ratio`` and agrees to rounding.  ``trials`` (at least 1) and
    ``seed`` are echoed into the result and select nothing.  m above
    ``MAX_TRANSFORM_LEVELS`` is refused.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m = res.m
    if m > MAX_TRANSFORM_LEVELS:
        raise ValueError(f"constant probes limited to m <= {MAX_TRANSFORM_LEVELS}, got {m}")
    if inequality == "hy":
        p = hy_exponent(p)
        best_ratio = 1.0
        witness = np.ones(res.dim, dtype=np.complex128)
    elif inequality == "synthesis":
        p = synthesis_exponent(p)
        best_ratio = 2.0 ** (m / p - m / 2)
        witness = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(res.dim)) & 3]
    else:
        raise ValueError(f"unknown inequality {inequality!r} (expected 'hy' or 'synthesis')")
    return ConstantProbe(
        inequality=inequality,
        p=p,
        m=m,
        best_ratio=best_ratio,
        witness=witness,
        trials=trials,
        seed=seed,
        kind=EXACT,
    )


def random_explicit_symbol(rng: np.random.Generator, count: int) -> ExplicitSymbol:
    """Seeded random explicit symbol (zero tail); handy for probes and tests."""
    prefix = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return ExplicitSymbol(prefix, "zero")
