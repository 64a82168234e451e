"""Operator norms of Walsh multipliers on the finite step-function space.
Every estimator reads its symbol through one ``MultiplierMatrix`` record.

Exact paths:

* p_in >= 2 >= p_out: the norm is ``sup |a_n|``.  ``T W_n = a_n W_n`` with
  ``||W_n||_r = 1`` gives it from below; from above,
  ``||Tf||_q <= ||Tf||_2 <= sup|a| ||f||_2 <= sup|a| ||f||_p`` because [0, 1)
  is a probability space.  No iteration runs, (2, 2) included, at every m.
* p_in = 1 or p_out = inf: T is dyadic convolution with the kernel
  ``K = sum_n a_n W_n`` (cell values ``fwht(a)``), so
  ``||T||_{1 -> q} = ||K||_{L^q}`` and ``||T||_{p -> inf} = ||K||_{L^{p'}}``.
  As ``||K||_{L^r} >= |a_n|``, the value is raised to ``sup |a_n|`` if
  rounding left it below, so it never contradicts the paths above.

Product symbols, p_in <= p_out (``_product_bracket``).  A symbol whose
``factors(m)`` are digit pairs ``(c_k(0), c_k(1))`` has
``a_n = prod_k c_k(n_k)`` over the binary digits of n < 2**m.  Paley order
gives ``W_n = prod_k r_k**n_k``, each Rademacher function ``r_k`` a function
of one binary digit of the cell, so the step-function space is the tensor
product of m uniform two-point spaces and ``T = (x)_k T_k`` with
``T_k(alpha + beta r) = c_k(0) alpha + c_k(1) beta r``.

* **Product theorem** (Beckner, Ann. Math. 102, 1975, Lemma 2): for p <= q,
  ``||(x)_k T_k||_{p -> q} = prod_k ||T_k||_{p -> q}``, for any linear T_k.
  Product functions give ">=".  For "<=" it suffices, by induction, to take
  ``S (x) T`` on functions F(x, y).  With ``G = (I (x) T) F``, apply S to
  each ``G(., y)``: ``||(S (x) T) F||_q <= ||S|| || ||G(., y)||_{L^p_x} ||_{L^q_y}``,
  which Minkowski's integral inequality (q / p >= 1) bounds by
  ``||S|| || ||G(x, .)||_{L^q_y} ||_{L^p_x} <= ||S|| ||T|| ||F||_p``.  For
  p > q Minkowski runs the other way and the product is only a lower bound,
  so those regimes take the paths below.
* **Two-point norms** (``two_point_norm``).  Scale ``|c0|`` out, so that
  the factor is ``(1, rho)``; it needs a real ``rho = c1 / c0``:

  - ``(0, c1)`` has norm ``|c1|``: it maps ``alpha + beta r`` to
    ``c1 beta r``, and ``|beta| <= (|alpha + beta| + |alpha - beta|) / 2 <=
    ||alpha + beta r||_p``, with equality at alpha = 0;
  - ``|rho| = 1`` is the identity or the swap of the two points, an
    isometry of every L^p, so the norm is
    ``2**(1/p - 1/q)``: ``||f||_q = 2**(-1/q) ||f||_{l^q} <=
    2**(-1/q) ||f||_{l^p} = 2**(1/p - 1/q) ||f||_p``, with equality at a
    point mass;
  - ``|rho| <= sqrt((p - 1) / (q - 1))`` has norm 1, reached by constants:
    Bonami's two-point inequality (Bonami 1970) for real functions, and for
    complex ones by the reduction below (at p = q every ``|rho| <= 1``);
  - any other ``|rho| < 1`` is searched.  For ``0 <= rho < 1``,
    ``T_rho = (1 + rho)/2 I + (1 - rho)/2 S``, S the swap, has a
    nonnegative kernel, so ``|T_rho f| <= T_rho |f|`` and the norm is
    reached over ``f >= 0``; a negative rho is ``T_|rho| S``, with S an
    isometry.  T_rho commutes with S, so f may have ``f(0) >= f(1)``, that
    is, by homogeneity, ``f = (1 + t, 1 - t)`` with t in [0, 1].  The value
    is the largest ``R(t) = ||T_rho f||_q / ||f||_p`` of a fixed-count
    golden-section search and both endpoints.  Each ``R(t)`` is the ratio
    at a real function, so whatever the search finds is a lower bound;
  - a complex rho, or ``|rho| > 1``, has no two-point norm here, and the
    symbol takes the paths below.

  The product of closed forms is tagged ``exact``, with ``upper`` equal to
  it; one searched factor makes it a ``lower`` value under
  ``certified_upper``.  The path costs O(m) and no transform, and reads no
  value of the symbol when it is exact.

Every other regime gets a *lower* bound.  At m <= ``MAX_POWER_LEVELS`` a
bracket that is closed at the start, ``sup |a_n| >= upper * (1 - tol)``,
returns ``sup |a_n|`` with no iteration.  Otherwise a dual power iteration
whose Rayleigh-type ratio never decreases gives the bound, reported
together with convergence metadata.  It is a lower bound up to a few ulps
of rounding, not a certified one: run on geometric r = 0.7 at m = 7,
(1.25, inf) (since given the exact path above), the loop returned a value
1.5e-15 relative above the exact norm.  Each power step multiplies by the
Kronecker-factored Walsh transform ``H_A (x) H_B`` with the diagonal between
(``_row_operators``), which holds nothing of size N x N.  The operator it applies, the cell-space kernel
matrix ``k[i ^ j]`` with ``k = K / 2**m``, commutes with every translation
``i -> i ^ h``, so the cell start ``e_h`` repeats the run from ``e_0``
translated, and the start block holds ``e_0`` alone: 21 starts at m >= 2.

Certified upper bounds (``certified_upper``, rounded up; one transform per
record, shared by every regime, plus O(m) per regime):

* Bonami-Beckner hypercontractivity (Bonami 1970; Beckner, Ann. Math. 102,
  1975).  The noise operator ``T_rho W_n = rho**|n| W_n``, ``|n|`` the
  popcount, maps L^p into L^2 with norm 1 for ``rho <= sqrt(p - 1)`` and
  L^2 into L^q with norm 1 for ``rho <= 1 / sqrt(q - 1)``.  Factoring
  ``T_a = T_rho_out T_b T_rho_in`` through L^2 gives
  ``||T_a||_{p -> q} <= max_n |a_n| ((max(q, 2) - 1) / (min(p, 2) - 1))**(|n|/2)``
  for ``1 < p <= inf``, ``1 <= q < inf``.  It is taken over the m + 1
  popcount maxima ``M_j = max_{|n| = j} |a_n|``: multiplying by a positive
  float is monotone, so that is the maximum over n bit for bit.  Complex
  inputs are covered: ``T_rho`` has a nonnegative kernel, so
  ``|T_rho f| <= T_rho |f|``.  On
  ``1/(n+1)`` at (1.5, 3), (1.5, 1.5) and (3, 3) the bound is 1, the norm,
  since ``n + 1 >= 2**|n|``.
* ``||k||_1``, the (1, 1) and (inf, inf) norm, bounds every p -> p norm
  (Riesz-Thorin between the equal endpoint norms), and so every p -> q norm
  with q <= p (monotonicity of L^q norms on a probability space).

Every ``NormEstimate`` carries the upper end of its bracket in ``upper``: the
value itself on the exact paths, ``certified_upper`` elsewhere.  The power
loop ends once its best start has stopped and its ratio meets that bound to
within ``tol``: the bracket is closed, and no other start can raise the
value by more than ``tol``.  Above ``MAX_POWER_LEVELS`` no loop runs, and
the lower end is the larger of ``sup |a_n|`` (the Walsh functions) and the
ratio at the cell indicator ``e_0``, whose image is ``fwht(a) / N``: the
transform the kernel bound reads too.

General matrix p-norms are NP-hard to certify; the ``kind`` tag is honest
about which path produced a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    Resolution,
    coeff_vector,
    step_function,
    walsh_matrix,
    walsh_step,
)
from .metrics import (
    _check_exponent,
    dual_exponent,
    hy_exponent,
    hy_ratio,
    pnorm,
    synthesis_exponent,
    synthesis_ratio,
)
from .multiplier import MultiplierMatrix, apply_diag
from .symbols import ExplicitSymbol, Symbol, tail

INF = math.inf

EXACT = "exact"
LOWER = "lower"

# Iteration defaults; the acceptance tolerances assume these.
DEFAULT_RANDOM_STARTS = 16
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500
_WALSH_STARTS = 3
_MONOTONE_SLACK = 1e-9
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps
# The power loop holds about 150 bytes per start and cell at its peak
# (13 MB traced for 21 starts at m = 12, 3.2 GB at m = 20), and one step of
# 21 starts at m = 12 takes 6.4-6.9 ms on a 2-vCPU x86-64 VM with OpenBLAS
# 0.3.31 (17.5 ms with the transform pair), so 500 steps about 3.4 s; each
# further level doubles both.  Above it ``opnorm`` runs no loop.
MAX_POWER_LEVELS = 12
# The two-point search's golden-section steps: the interval shrinks by 0.618
# per step, to 3e-13 after 60, and the ratio is flat at its maximum.
_GOLDEN_STEPS = 60
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class NormEstimate:
    """A norm value tagged exact / lower, the upper end of its bracket, and
    convergence metadata.

    ``upper`` equals ``value`` when ``kind`` is ``exact``; after a ``lower``
    value it is a certified bound (``certified_upper``), ``inf`` where none
    exists.  ``converged`` is false when the iteration behind a ``lower``
    value used up ``max_iter`` without meeting its tolerance; a ``lower``
    value with ``iterations == 0`` ran no iteration.  ``converged`` means
    that the best start's step-to-step change fell to ``tol``, not that the
    value is within ``tol`` of the norm: on geometric 0.7 and 0.9 at m = 8
    the product norm reads 1e-11 to 1e-9 relative above converged power
    values.
    """

    value: float
    kind: str
    iterations: int = 0
    residual: float = 0.0
    starts: int = 0
    converged: bool = True
    upper: float = INF


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
        if self.inequality == "hy":
            return hy_ratio(step_function(self.witness), self.p)
        if self.inequality == "synthesis":
            return synthesis_ratio(coeff_vector(self.witness), self.p)
        if self.inequality == "multiplier_bound":
            if self.symbol is None:
                raise ValueError("multiplier-bound probes need their symbol to recompute")
            op = MultiplierMatrix(self.symbol, Resolution(self.m))
            w = 2.0**-self.m
            num = pnorm(apply_diag(op.diag, self.witness), self.p, w) / pnorm(self.witness, self.p, w)
            return num / op.sup if op.sup > 0 else 0.0
        raise ValueError(f"unknown inequality {self.inequality!r}")


@dataclass
class _PowerResult:
    value: float
    witness: np.ndarray
    iterations: int
    residual: float
    starts: int
    converged: bool
    upper: float
    histories: list[list[float]] | None = None

    def estimate(self) -> NormEstimate:
        return NormEstimate(
            self.value, LOWER, self.iterations, self.residual, self.starts, self.converged, self.upper
        )


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


def _dual_map(v: np.ndarray, mags: np.ndarray, r: np.ndarray, q: float) -> np.ndarray:
    """Hoelder duality map ``phase(v) r**(q-1)`` of rows ``v`` with moduli
    ``mags`` and ``r = mags / max(mags)`` per row.

    For q < 2 the power q - 1 < 1 magnifies rounding noise: a coordinate
    that should be zero but reads 1e-17 of the row maximum maps to 3e-9 at
    q = 1.5, and to a full phase at q = 1.  Coordinates below ``eps`` of the
    row maximum, beneath the resolution of any sum that holds it, map to
    zero.  Of the pairing ``sum r**q >= 1`` of a row with its exact map they
    held less than ``N eps**q <= N eps``, and dropping them only shrinks the
    map's dual norm, so each map keeps Hoelder's equality to a factor
    ``1 - N eps``, and a power step, with its two maps, can fall by at most
    about ``2 N eps`` relative: 1.8e-12 at m = 12, far inside
    ``_MONOTONE_SLACK``.
    """
    u = _phase(v, mags)
    if q != 1.0:
        u *= r ** (q - 1.0)
    if q < 2.0:
        np.copyto(u, 0.0, where=r < _EPS)
    return u


def _dual_map_rows(v: np.ndarray, q: float) -> np.ndarray:
    """Row-wise ``_dual_map``, scale-free.

    q = 1 keeps only the phases; q = inf keeps those of the max-modulus
    coordinates.  Rows of zeros map to zeros.
    """
    mags = np.abs(v)
    top = mags.max(axis=-1, keepdims=True)
    return _dual_map(v, mags, mags / np.where(top > 0, top, 1.0), q)


def _start_matrix(op: MultiplierMatrix, random_starts: int, seed: int, extra_starts) -> np.ndarray:
    """Default multi-start block: all-ones, the cell vector ``e_0``, the Walsh
    functions with the largest |a_n|, then seeded random vectors.

    The other cell vectors would add nothing: the kernel matrix
    ``M[i, j] = k(i ^ j)`` commutes with every translation ``i -> i ^ h``, and
    so do the duality maps and ``pnorm``, which act per coordinate or through
    row maxima and sums.  The run from ``e_h`` is the run from ``e_0``
    translated, with the same ratios up to summation-order rounding.
    """
    dim = op.resolution.dim
    rows = [np.ones((1, dim)), np.eye(1, dim)]
    order = np.argsort(-np.abs(op.diag), kind="stable")[: min(_WALSH_STARTS, dim)]
    rows.append(np.vstack([walsh_step(int(n), op.resolution).values.real for n in order]))
    if random_starts > 0:
        rng = np.random.default_rng(seed)
        rows.append(
            rng.standard_normal((random_starts, dim)) + 1j * rng.standard_normal((random_starts, dim))
        )
    if extra_starts is not None:
        for x in extra_starts:
            rows.append(np.asarray(x, dtype=np.complex128).reshape(1, dim))
    return np.vstack([r.astype(np.complex128) for r in rows])


def _row_operators(op: MultiplierMatrix):
    """The multiplier and its adjoint as maps on row batches of cell values.

    Both multiply by the symmetric kernel matrix ``M`` (``x @ M`` and
    ``x @ conj(M)``) through the Kronecker-factored Walsh transform, at
    every m.  Split N = A B with ``A = 2**floor(m/2)``, ``B = 2**ceil(m/2)``,
    cells as ``i = i_hi B + i_lo`` and Walsh indices as ``n = n_hi A + n_lo``.  Paley order reverses the
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
    m, dim = op.resolution.m, op.resolution.dim
    a, b = 1 << (m // 2), 1 << (m - m // 2)
    h_a, h_b = (walsh_matrix(k).astype(np.float64) for k in (m // 2, m - m // 2))
    scale = (op.diag / dim).reshape(b, a).T[:, :, None]

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
    op: MultiplierMatrix,
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
    and the duality map (``_dual_map``), so the values are those of ``pnorm``
    and ``_dual_map_rows`` bit for bit.
    """
    m = op.resolution.m
    if m > MAX_POWER_LEVELS:
        raise ValueError(
            f"power iteration limited to m <= {MAX_POWER_LEVELS}, got {m}: its "
            f"(starts x 2**m) complex arrays would need about 3.2 GB at m = 20"
        )
    w = 2.0**-m
    q_dual = dual_exponent(p_in)
    forward, adjoint = _row_operators(op)
    upper = certified_upper(op, p_in, p_out)
    closes_at = upper * (1.0 - tol)

    x = _start_matrix(op, random_starts, seed, extra_starts)
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

        xn = _dual_map_rows(adjoint(_dual_map(y, mags, r, p_out)), q_dual)
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
        upper=upper,
        histories=histories,
    )


def _checked(p_in: float, p_out: float, tol: float) -> tuple[float, float]:
    p_in, p_out = _check_exponent(p_in), _check_exponent(p_out)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return p_in, p_out


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
    measured from the L^{p_in} domain norm to the L^{p_out} range norm, as
    the bracket ``[value, upper]``, by the paths of the module docstring.
    ``tol`` must be finite and nonnegative.
    """
    p_in, p_out = _checked(p_in, p_out, tol)
    return _bracket(MultiplierMatrix(sym, res), p_in, p_out, seed=seed, tol=tol)


def _bracket(
    op: MultiplierMatrix, p_in: float, p_out: float, *, seed: int = 0, tol: float = DEFAULT_TOL
) -> NormEstimate:
    """``opnorm`` of a record, for checked exponents and ``tol``, by the paths
    of the module docstring."""
    m = op.resolution.m
    if p_in >= 2.0 >= p_out:
        return NormEstimate(op.sup, EXACT, upper=op.sup)
    if p_in == 1.0 or p_out == INF:
        r = p_out if p_in == 1.0 else dual_exponent(p_in)
        exact = max(pnorm(op.transform, r, 2.0**-m), op.sup)
        return NormEstimate(exact, EXACT, upper=exact)
    if p_in <= p_out:
        product = _product_bracket(op, p_in, p_out)
        if product is not None:
            return product
    upper = certified_upper(op, p_in, p_out)
    if m > MAX_POWER_LEVELS:
        w = 2.0**-m
        at_cell = pnorm(op.transform, p_out, w) / op.resolution.dim / w ** (1.0 / p_in)
        return NormEstimate(max(op.sup, at_cell), LOWER, upper=upper)
    if op.sup >= upper * (1.0 - tol):
        return NormEstimate(op.sup, LOWER, upper=upper)
    return _power_lower(op, p_in, p_out, seed=seed, tol=tol).estimate()


def _product_bracket(op: MultiplierMatrix, p_in: float, p_out: float) -> NormEstimate | None:
    """The product of the two-point norms of the record's digit factors, for
    ``p_in <= p_out``, or None when the symbol has no factors or one of them
    has no two-point norm here.  Exact when every factor is a closed form;
    otherwise a lower end, with ``certified_upper`` above it."""
    factors = op.symbol.factors(op.resolution.m) if op.symbol is not None else None
    if factors is None:
        return None
    value, closed = 1.0, True
    for c0, c1 in factors:
        norm = two_point_norm(c0, c1, p_in, p_out)
        if norm is None:
            return None
        value *= norm[0]
        closed = closed and norm[1]
    if closed:
        return NormEstimate(value, EXACT, upper=value)
    return NormEstimate(value, LOWER, upper=certified_upper(op, p_in, p_out))


def _two_point_lp(a: float, b: float, p: float) -> float:
    """L^p norm of the values a, b >= 0 on the uniform two-point space."""
    if p == INF:
        return max(a, b)
    return ((a**p + b**p) / 2.0) ** (1.0 / p)


def two_point_norm(c0: complex, c1: complex, p: float, q: float) -> tuple[float, bool] | None:
    """``||T||_{p -> q}`` of ``T(alpha + beta r) = c0 alpha + c1 beta r`` on the
    uniform two-point space (r = +-1), for ``p <= q``, with whether the value
    is a closed form, by the rules of the module docstring.  None when the
    ratio ``rho = c1 / c0`` is complex or ``|rho| > 1``.  A searched value is
    the largest ratio met over ``f = (1 + t, 1 - t)``, t in [0, 1]: each is
    the ratio at a real function, so it is a lower bound up to rounding."""
    c0, c1 = complex(c0), complex(c1)
    if c0 == 0:
        return abs(c1), True
    if (c1 * c0.conjugate()).imag != 0:
        return None
    scale, rho = abs(c0), abs(c1) / abs(c0)
    if rho > 1.0:
        return None
    if rho == 1.0:
        return scale * 2.0 ** (1.0 / p - 1.0 / q), True
    if p == q or rho <= math.sqrt((p - 1.0) / (q - 1.0)):
        return scale, True

    def ratio(t: float) -> float:
        return _two_point_lp(1.0 + rho * t, 1.0 - rho * t, q) / _two_point_lp(1.0 + t, 1.0 - t, p)

    lo, hi = 0.0, 1.0
    a, b = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fa, fb = ratio(a), ratio(b)
    best = max(ratio(0.0), ratio(1.0), fa, fb)
    for _ in range(_GOLDEN_STEPS):
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = ratio(a)
            best = max(best, fa)
        else:
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = ratio(b)
            best = max(best, fb)
    return scale * best, False


def certified_upper(op: MultiplierMatrix, p_in: float, p_out: float) -> float:
    """Upper bound for the L^{p_in} -> L^{p_out} norm, rounded up: the smaller
    of the hypercontractive bound of the module docstring, O(m) over the
    popcount maxima (infinite for ``p_in = 1`` or ``p_out = inf``), and, when
    ``p_out <= p_in``, the record's ``kernel_l1_upper``.  The former is
    raised by its rounding bound: ``max(q, 2) - 1``, the quotient, the square
    root, the power (at most the m-th, one ulp) and ``|a_n|`` leave a
    relative error of at most ``(m + 2.5) eps``."""
    m = op.resolution.m
    upper = INF
    if p_in > 1.0 and p_out < INF:
        growth = math.sqrt((max(p_out, 2.0) - 1.0) / (min(p_in, 2.0) - 1.0))
        weights = growth ** np.arange(m + 1, dtype=np.float64)
        tops = op.popcount_max
        upper = float(np.max(tops * weights, where=tops > 0, initial=0.0)) * (1.0 + (m + 4) * _EPS)
    if p_out <= p_in:
        upper = min(upper, op.kernel_l1_upper)
    return float(upper)


def tail_norm(
    sym: Symbol, cutoff: int, res: Resolution, p_in: float, p_out: float, **opts
) -> tuple[NormEstimate, float]:
    """Norm of the truncation remainder (indices > cutoff) plus the analytic
    reference ``sup_{cutoff < n < 2**m} |a_n|``, the remainder's ``sup``.

    In the (2, 2) and (p, 2) regimes the two coincide: the remainder norm is
    sandwiched between the Walsh-function witness at the largest remaining
    coefficient and the Parseval/embedding estimate from above.
    """
    if not 0 <= cutoff < res.dim:
        raise ValueError(f"cutoff {cutoff} out of range for m = {res.m}")
    p_in, p_out = _checked(p_in, p_out, opts.get("tol", DEFAULT_TOL))
    op = MultiplierMatrix(tail(sym, cutoff), res)
    return _bracket(op, p_in, p_out, **opts), op.sup


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


def _dual_witness(op: MultiplierMatrix, p: float, x: np.ndarray) -> np.ndarray:
    """Convert a domain witness for T into a start for the adjoint at p'.

    With y = T x, the duality-map image of y pairs with x at the achieved
    ratio, so the adjoint run starts at least as high (Hoelder equality)."""
    u = _dual_map_rows(apply_diag(op.diag, x)[None, :], p)[0]
    nu = pnorm(u, dual_exponent(p), 2.0**-op.resolution.m)
    return u / nu if nu > 0 else u


def multiplier_bound_check(sym: Symbol, res: Resolution, p: float, *, seed: int = 0) -> MultiplierBoundReport:
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
    op = MultiplierMatrix(sym, res)
    # The first run refuses m above MAX_POWER_LEVELS before reading a value.
    run_a = _power_lower(op, p, p, seed=seed)
    run_b = _power_lower(op.adjoint, q, q, seed=seed + 1)

    for _ in range(8):
        gap = abs(run_a.value - run_b.value)
        if gap <= DEFAULT_TOL * max(1.0, run_a.value, run_b.value):
            break
        start_b = _dual_witness(op, p, run_a.witness)
        start_a = _dual_witness(op.adjoint, q, run_b.witness)
        run_b = _power_lower(op.adjoint, q, q, seed=seed + 1, extra_starts=[start_b])
        run_a = _power_lower(op, p, p, seed=seed, extra_starts=[start_a])

    ratio = run_a.value / op.sup if op.sup > 0 else 0.0
    probe = ConstantProbe(
        inequality="multiplier_bound",
        p=p,
        m=res.m,
        best_ratio=ratio,
        witness=run_a.witness,
        trials=run_a.starts,
        seed=seed,
        symbol=sym,
    )
    return MultiplierBoundReport(
        p=p,
        m=res.m,
        estimate=run_a.estimate(),
        dual_estimate=run_b.estimate(),
        sup=op.sup,
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
    ``seed`` are echoed into the result and select nothing.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m = res.m
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
