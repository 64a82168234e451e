import importlib
import math
import sys
import tracemalloc
import warnings
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walsh_lab import (
    AlternatingSymbol,
    ConstantSymbol,
    ExplicitSymbol,
    GeometricSymbol,
    MultiplierMatrix,
    ReciprocalSymbol,
    Resolution,
    Symbol,
    UnitDiracSymbol,
    constant_probe,
    dual_exponent,
    multiplier_bound_check,
    opnorm,
    random_explicit_symbol,
    resolvent_symbol,
    tail_norm,
)
from walsh_lab.dyadic import MAX_TRANSFORM_LEVELS, fwht
from walsh_lab.multiplier import apply_diag, kernel_matrix
from walsh_lab.metrics import pnorm
from walsh_lab.opnorm import (
    DEFAULT_MAX_ITER,
    DEFAULT_RANDOM_STARTS,
    DEFAULT_TOL,
    MAX_POWER_LEVELS,
    _power_lower,
    _row_operators,
    certified_upper,
)

opnorm_module = importlib.import_module("walsh_lab.opnorm")

INF = math.inf


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_identity_symbol_has_unit_norm(p):
    est = opnorm(ConstantSymbol(1.0), Resolution(5), p, p)
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_p2_norm_is_sup_and_matches_svd():
    rng = np.random.default_rng(0)
    res = Resolution(6)
    for _ in range(5):
        sym = random_explicit_symbol(rng, 64)
        est = opnorm(sym, res, 2.0, 2.0)
        assert est.kind == "exact"
        sup = np.abs(sym.values(64)).max()
        svd = np.linalg.svd(MultiplierMatrix(sym, res).dense(), compute_uv=False).max()
        assert est.value == pytest.approx(sup, abs=1e-12)
        assert est.value == pytest.approx(svd, abs=1e-10)


def test_mean_projection_has_unit_1norm():
    est = opnorm(UnitDiracSymbol(0), Resolution(5), 1.0, 1.0)
    assert est.kind == "exact"
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_endpoint_norms_exact_beyond_dense_resolutions():
    for p in (1.0, INF):
        est = opnorm(AlternatingSymbol(), Resolution(16), p, p)
        assert (est.kind, est.value) == ("exact", 1.0)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_endpoint_norms_match_dense_column_and_row_sums(m, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    sym = ExplicitSymbol(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), "zero")
    res = Resolution(m)
    dense = np.abs(MultiplierMatrix(sym, res).dense())
    for p, axis in ((1.0, 0), (INF, 1)):
        est = opnorm(sym, res, p, p)
        want = dense.sum(axis=axis).max()
        assert est.kind == "exact"
        assert abs(est.value - want) <= 1e-13 * want


def test_invalid_exponents_rejected():
    with pytest.raises(ValueError):
        opnorm(ReciprocalSymbol(), Resolution(4), 0.5, 2.0)


@pytest.mark.parametrize("tol", [-1.0, math.nan, INF])
@pytest.mark.parametrize("regime", [(1.5, 3.0), (2.0, 2.0)])
def test_opnorm_refuses_negative_or_non_finite_tol(regime, tol):
    # A NaN or negative tolerance never stops a start, so the loop would
    # always run all max_iter steps.
    with pytest.raises(ValueError, match="tol must be finite"):
        opnorm(AlternatingSymbol(), Resolution(8), *regime, tol=tol)
    assert opnorm(AlternatingSymbol(), Resolution(8), *regime, tol=0.0).value >= 1.0


def test_lower_bounds_sandwiched_by_certified_upper():
    rng = np.random.default_rng(1)
    res = Resolution(6)
    for k in range(8):
        sym = random_explicit_symbol(rng, 64)
        sup = np.abs(sym.values(64)).max()
        for p in (1.5, 3.0):
            est = opnorm(sym, res, p, p, seed=k)
            assert est.kind == "lower"
            assert sup - 1e-10 <= est.value <= est.upper + 1e-10


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(0, 12),
    rows=st.integers(1, 25),
    zero_frac=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=8, rows=21, zero_frac=0.0, seed=0)
@example(m=12, rows=25, zero_frac=0.5, seed=1)
@example(m=9, rows=1, zero_frac=1.0, seed=2)
def test_kernel_product_matches_transform_pair(m, rows, zero_frac, seed):
    # The Kronecker-factored product against the fwht transform pair at every
    # m, and against the dense kernel matrix k[i ^ j] at m <= 8; exact zeros
    # in the diagonal must stay exact.
    rng = np.random.default_rng(seed)
    dim = 1 << m
    diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    diag[rng.random(dim) < zero_frac] = 0.0
    x = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    forward, adjoint = _row_operators(MultiplierMatrix.from_diag(diag))
    for d, got in ((diag, forward(x)), (np.conj(diag), adjoint(x))):
        refs = [apply_diag(d, x)] + ([x @ kernel_matrix(d)] if m <= 8 else [])
        for ref in refs:
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_row_operators_hold_no_dense_matrix():
    # At m = 12 one dense dim x dim complex matrix would take 268 MB; the
    # factored product holds a few batches the size of its input.
    dim = 1 << 12
    rng = np.random.default_rng(0)
    diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x = rng.standard_normal((21, dim)) + 1j * rng.standard_normal((21, dim))
    tracemalloc.start()
    try:
        forward, adjoint = _row_operators(MultiplierMatrix.from_diag(diag))
        adjoint(forward(x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.nbytes < 16 * dim * dim / 24


exponent_at_least_2 = st.one_of(st.floats(2.0, 50.0), st.just(INF))


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(0, 6),
    p_in=exponent_at_least_2,
    p_out=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=6, p_in=2.0, p_out=2.0, seed=0)
def test_norm_is_sup_when_p_in_at_least_2_at_least_p_out(m, p_in, p_out, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    sym = ExplicitSymbol(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), "zero")
    sup = float(np.abs(sym.values(dim)).max())
    est = opnorm(sym, Resolution(m), p_in, p_out, seed=seed % 1000)
    assert (est.kind, est.value, est.iterations) == ("exact", sup, 0)
    op = MultiplierMatrix(sym, Resolution(m))
    run = _power_lower(op, p_in, p_out, seed=seed % 1000, random_starts=4, max_iter=100)
    assert run.value <= sup * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_p2_power_loop_reaches_sup_and_never_exceeds_it(m, seed):
    # opnorm returns sup|a_n| at (2, 2) without iterating.  The Walsh start
    # with the largest |a_n| is an eigenvector, so the loop reaches sup at its
    # first step.
    rng = np.random.default_rng(seed)
    dim = 1 << m
    diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    sup = float(np.abs(diag).max())
    run = _power_lower(MultiplierMatrix.from_diag(diag), 2.0, 2.0, seed=seed % 1000)
    assert abs(run.value - sup) <= 1e-12 * sup


_SYMBOL_DRAWS = {
    "complex-normal": lambda rng, dim: rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
    "nonnegative": lambda rng, dim: rng.random(dim),
    "unimodular": lambda rng, dim: np.exp(2j * np.pi * rng.random(dim)),
    "noise": lambda rng, dim: rng.random() ** np.bitwise_count(np.arange(dim)),
    "reciprocal": lambda rng, dim: ReciprocalSymbol().values(dim),
    "alternating": lambda rng, dim: AlternatingSymbol().values(dim),
    "geometric0.7": lambda rng, dim: GeometricSymbol(0.7).values(dim),
}
_EXPONENTS = [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF]


def _certified_upper_reference(diag, m, p_in, p_out):
    """``certified_upper`` computed per n: the hypercontractive bound
    maximized over every n, and the kernel bound from its own transform."""
    eps = np.finfo(np.float64).eps
    upper = INF
    mags = np.abs(diag)
    if p_in > 1.0 and p_out < INF:
        growth = math.sqrt((max(p_out, 2.0) - 1.0) / (min(p_in, 2.0) - 1.0))
        weights = growth ** np.arange(m + 1, dtype=np.float64)
        weighted = mags * weights[np.bitwise_count(np.arange(diag.shape[-1]))]
        upper = float(np.max(weighted, where=mags > 0, initial=0.0)) * (1.0 + (m + 4) * eps)
    if p_out <= p_in:
        kernel_l1 = np.maximum(pnorm(fwht(diag), 1.0, 2.0**-m), mags.max())
        upper = min(upper, float(kernel_l1 * (1.0 + (m + 4) * diag.shape[-1] * eps)))
    return float(upper)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(_SYMBOL_DRAWS)),
    regime=st.sampled_from([(p, q) for p in _EXPONENTS for q in _EXPONENTS]),
    m=st.one_of(st.integers(0, 8), st.integers(MAX_POWER_LEVELS + 1, 16)),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="noise", regime=(1.5, 3.0), m=13, seed=0)
@example(family="reciprocal", regime=(1.25, 1.0), m=8, seed=0)
@example(family="geometric0.7", regime=(4.0, 3.0), m=14, seed=0)
def test_certified_upper_bounds_the_power_loop(family, regime, m, seed):
    # Up to m = 8 a lower value comes from the power loop, above
    # MAX_POWER_LEVELS from sup|a_n| and the cell indicator e_0; both sit
    # below the bracket's upper end up to rounding.  The O(m) bound over the
    # popcount maxima is the per-n maximum bit for bit.
    rng = np.random.default_rng(seed)
    dim = 1 << m
    diag = np.asarray(_SYMBOL_DRAWS[family](rng, dim), dtype=np.complex128)
    sym = ExplicitSymbol(diag, "zero")
    est = opnorm(sym, Resolution(m), *regime, seed=seed % 1000)
    assert est.upper >= np.abs(diag).max()
    assert est.value <= est.upper * (1.0 + 1e-12)
    upper = certified_upper(MultiplierMatrix(sym, Resolution(m)), *regime)
    assert repr(upper) == repr(_certified_upper_reference(diag, m, *regime))
    if est.kind == "exact":
        assert est.upper == est.value
    else:
        assert est.kind == "lower"
        assert est.upper == upper
        assert (est.iterations == 0) == (m > MAX_POWER_LEVELS)


@pytest.mark.parametrize("p, q", [(1.5, 3.0), (1.25, 5.0), (1.1, 2.0), (2.0, 4.0)])
def test_bonami_noise_symbol_closes_at_one(p, q):
    # a_n = rho**|n| at rho = sqrt((p - 1) / (q - 1)) is the noise operator at
    # the Bonami-Beckner critical ratio: its norm is 1, reached by constants,
    # and the hypercontractive bound is 1 too, so the bracket closes.
    res = Resolution(8)
    rho = math.sqrt((min(p, 2.0) - 1.0) / (max(q, 2.0) - 1.0))
    sym = ExplicitSymbol(rho ** np.bitwise_count(np.arange(res.dim)), "zero")
    est = opnorm(sym, res, p, q)
    assert (est.kind, est.iterations, est.converged) == ("lower", 2, True)
    assert 1.0 - 1e-15 <= est.value <= est.upper <= 1.0 + 1e-14


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("regime", [(1.5, 3.0), (1.5, 1.5), (3.0, 3.0)])
def test_reciprocal_bracket_closes_after_two_steps(regime, seed):
    # max 2**|n| / (n + 1) = 1 is the hypercontractive bound and the norm.
    # All-ones reaches it at step 0 and stops on tol at step 1, which ends the
    # loop; the other starts would creep toward 1 for all max_iter steps.
    res = Resolution(8)
    est = opnorm(ReciprocalSymbol(), res, *regime, seed=seed)
    assert (est.value, est.iterations, est.converged) == (1.0, 2, True)
    assert est.upper == pytest.approx(1.0, rel=1e-14)
    run = _power_lower(MultiplierMatrix(ReciprocalSymbol(), res), *regime, seed=seed, want_history=True)
    assert max(len(hist) for hist in run.histories) <= 2


exponent_at_least_1 = st.one_of(st.floats(1.0, 50.0), st.just(INF))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(0, 8),
    other=exponent_at_least_1,
    l1_domain=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_l1_domain_and_sup_range_norms_are_dense_column_and_row_norms(m, other, l1_domain, seed):
    # ||T||_{1->q} is the largest L^q norm of a column of N * M (the image
    # of a normalized cell indicator); ||T||_{p->inf} is the largest
    # L^{p'} norm of a row of N * M (the functional giving one cell of Tf).
    rng = np.random.default_rng(seed)
    dim = 1 << m
    sym = ExplicitSymbol(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), "zero")
    p_in, p_out = (1.0, other) if l1_domain else (other, INF)
    scaled = np.abs(dim * MultiplierMatrix(sym, Resolution(m)).dense())
    lines, r = (scaled.T, p_out) if l1_domain else (scaled, dual_exponent(p_in))
    top = lines.max()
    if r == INF:
        want = top
    else:
        want = top * (((lines / top) ** r).sum(axis=1) / dim).max() ** (1.0 / r)
    est = opnorm(sym, Resolution(m), p_in, p_out, seed=seed % 1000)
    assert (est.kind, est.iterations) == ("exact", 0)
    assert abs(est.value - want) <= 1e-13 * want
    op = MultiplierMatrix(sym, Resolution(m))
    run = _power_lower(op, p_in, p_out, seed=seed % 1000, random_starts=4, max_iter=100)
    assert run.value <= est.value * (1.0 + 1e-12)


def test_exact_values_agree_across_paths():
    # A one-signed kernel has ||k||_1 = sup|a_n|; the rounded kernel norm
    # used to land an ulp below the (2, 2) value of the same operator.
    b, _ = resolvent_symbol(ReciprocalSymbol(), 2.0)
    res = Resolution(8)
    two = opnorm(b, res, 2.0, 2.0)
    assert two.value == 1.0
    for p_in, p_out in ((1.0, 1.0), (INF, INF), (1.0, 3.0), (1.5, INF)):
        est = opnorm(b, res, p_in, p_out)
        assert est.kind == "exact" and est.value >= two.value


def test_power_iteration_refuses_memory_heavy_resolutions():
    # The loop itself stays capped; opnorm answers above the cap with the
    # bracket's one-transform lower end and refuses only past the transforms.
    with pytest.raises(ValueError, match="m <= 12"):
        _power_lower(MultiplierMatrix(ReciprocalSymbol(), Resolution(13)), 1.5, 1.5)
    est = opnorm(ReciprocalSymbol(), Resolution(13), 1.5, 1.5)
    assert (est.kind, est.value, est.iterations, est.starts) == ("lower", 1.0, 0, 0)
    assert 1.0 <= est.upper <= 1.0 + 1e-12
    est = opnorm(ReciprocalSymbol(), Resolution(13), 1.0, 3.0)
    assert (est.kind, est.iterations) == ("exact", 0)
    with pytest.raises(ValueError, match=f"m <= {MAX_TRANSFORM_LEVELS}"):
        opnorm(ReciprocalSymbol(), Resolution(MAX_TRANSFORM_LEVELS + 1), 1.5, 3.0)


class _UnreadableSymbol(Symbol):
    family = "unreadable"

    def _range(self, start, stop):
        raise AssertionError(f"read values {start}..{stop}")


@pytest.mark.parametrize("m", [MAX_TRANSFORM_LEVELS + 1, 23, 26])
@pytest.mark.parametrize("regime", [(1.5, 3.0), (1.5, 1.5), (3.0, 4.0)])
def test_opnorm_refuses_above_the_transforms_before_reading_values(m, regime):
    # At m = 26 the values alone would take 1 GiB.
    with pytest.raises(ValueError, match=f"m <= {MAX_TRANSFORM_LEVELS}, got {m}"):
        opnorm(_UnreadableSymbol(), Resolution(m), *regime)
    with pytest.raises(ValueError, match=f"m <= {MAX_TRANSFORM_LEVELS}, got {m}"):
        tail_norm(_UnreadableSymbol(), 3, Resolution(m), *regime)


@pytest.mark.parametrize("m", [MAX_POWER_LEVELS + 1, 22, 26])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_bound_check_refuses_above_the_power_loop_before_reading_values(m, p):
    with pytest.raises(ValueError, match=f"power iteration limited to m <= {MAX_POWER_LEVELS}, got {m}"):
        multiplier_bound_check(_UnreadableSymbol(), Resolution(m), p)


@pytest.fixture
def transform_count(monkeypatch):
    """Counts ``fwht`` calls made from any walsh_lab module."""
    calls = []

    def counting(values, *args, **kwargs):
        calls.append(np.shape(values))
        return fwht(values, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "walsh_lab" and hasattr(mod, "fwht"):
            monkeypatch.setattr(mod, "fwht", counting)
    return calls


@pytest.mark.parametrize("m", [14, 20])
def test_opnorm_runs_one_transform_per_record(transform_count, m):
    # The lower end at e_0 and the kernel bound read the same transform.
    est = opnorm(ReciprocalSymbol(), Resolution(m), 1.5, 1.5)
    assert (est.kind, est.value) == ("lower", 1.0)
    assert transform_count == [(1 << m,)]


@pytest.mark.parametrize("regime", [(2.0, 2.0), (1.5, 3.0), (1.0, 1.0), (1.5, 1.5)])
def test_tail_norm_reads_the_base_values_once(monkeypatch, regime):
    # The analytic sup is the remainder record's own, not a second read.
    reads = []
    base_range = ReciprocalSymbol._range

    def counting(self, start, stop):
        reads.append((start, stop))
        return base_range(self, start, stop)

    monkeypatch.setattr(ReciprocalSymbol, "_range", counting)
    est, analytic = tail_norm(ReciprocalSymbol(), 3, Resolution(8), *regime)
    assert reads == [(0, 256)]
    assert analytic == 0.2 and est.value >= analytic


def test_alternating_lower_end_is_the_norm_at_m20():
    # The alternating kernel is a point mass, so T e_0 is a translated cell
    # indicator and the ratio at e_0 is N**(1/p - 1/q), the norm itself.
    est = opnorm(AlternatingSymbol(), Resolution(20), 1.5, 3.0)
    assert (est.kind, est.iterations, est.starts) == ("lower", 0, 0)
    assert est.value == pytest.approx(2 ** (20 / 3), rel=1e-12)
    assert est.value <= est.upper


def test_exact_kernel_permutation_stays_finite():
    # The alternating symbol's kernel matrix is a permutation, so the kernel
    # product keeps shrinking coordinates exactly until they turn subnormal.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = opnorm(AlternatingSymbol(), Resolution(8), 1.5, 3.0, seed=1)
    assert est.value == pytest.approx(256 ** (1 / 3), rel=1e-12)


def test_power_iteration_ratios_never_decrease():
    rng = np.random.default_rng(2)
    for k in range(5):
        diag = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        run = _power_lower(MultiplierMatrix.from_diag(diag), 1.5, 1.5, seed=k, want_history=True)
        for hist in run.histories:
            assert all(b >= a - 1e-12 * (1 + abs(b)) for a, b in zip(hist, hist[1:]))


def _reference_power_lower(diag, m, p_in, p_out, *, seed, extra_starts, max_iter=DEFAULT_MAX_ITER):
    """The power loop written step by step: ``pnorm`` of the product, a
    separate duality map with its own row maxima and masked phases, and
    every start's row gathered from the full batch each step."""

    def phase(v, mags):
        out = np.zeros_like(v)
        np.divide(v, mags, out=out, where=mags >= np.finfo(np.float64).tiny)
        return out

    def dual_map(v, q, mags):
        top = mags.max(axis=-1, keepdims=True)
        r = mags / np.where(top > 0, top, 1.0)
        out = phase(v, mags) if q == 1.0 else phase(v, mags) * r ** (q - 1.0)
        if q < 2.0:
            # A power below 1 would magnify rounding noise: zero what lies
            # below eps of the row maximum.
            out[r < np.finfo(np.float64).eps] = 0.0
        return out

    w = 2.0**-m
    tol = DEFAULT_TOL
    op = MultiplierMatrix.from_diag(diag)
    forward, adjoint = opnorm_module._row_operators(op)
    closes_at = certified_upper(op, p_in, p_out) * (1.0 - tol)
    x = opnorm_module._start_matrix(op, DEFAULT_RANDOM_STARTS, seed, extra_starts)
    norms = pnorm(x, p_in, w)
    keep = norms >= np.finfo(np.float64).tiny
    x = x[keep] / norms[keep][:, None]
    n = x.shape[0]
    gamma, residual = np.zeros(n), np.full(n, np.inf)
    iterations, active = np.zeros(n, dtype=int), np.ones(n, dtype=bool)
    witness = x.copy()
    histories = [[] for _ in range(n)]
    for step in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        xa = x[idx]
        y = forward(xa)
        mags_y = np.abs(y)
        g = pnorm(mags_y, p_out, w)
        prev = gamma[idx]
        if step > 0 and (g < prev - 1e-9 * (1.0 + np.abs(g))).any():
            raise RuntimeError("ratio decreased")
        for local, row in enumerate(idx):
            if g[local] > 0:
                histories[row].append(float(g[local]))
        witness[idx] = xa
        gamma[idx] = np.maximum(g, prev)
        iterations[idx] += 1
        rel = np.abs(g - prev) / np.where(g > 0, g, 1.0)
        residual[idx] = rel
        done = (g == 0) | ((step > 0) & (rel <= tol))
        active[idx[done]] = False
        best = int(np.argmax(gamma))
        if not active[best] and gamma[best] >= closes_at:
            break
        still = idx[~done]
        if still.size == 0:
            continue
        z = adjoint(dual_map(y[~done], p_out, mags_y[~done]))
        xn = dual_map(z, dual_exponent(p_in), np.abs(z))
        nn = pnorm(xn, p_in, w)
        alive = nn > 0
        active[still[~alive]] = False
        x[still[alive]] = xn[alive] / nn[alive][:, None]
    best = int(np.argmax(gamma))
    return float(gamma[best]), witness[best], int(iterations[best]), float(residual[best]), not active[best], histories, n


_STEP_DIAGONALS = {
    "complex-normal": lambda rng, dim: rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
    "sparse": lambda rng, dim: np.where(rng.random(dim) < 0.5, rng.standard_normal(dim), 0.0),
    "reciprocal": lambda rng, dim: ReciprocalSymbol().values(dim),
    "alternating": lambda rng, dim: AlternatingSymbol().values(dim),
    "geometric0.9": lambda rng, dim: GeometricSymbol(0.9).values(dim),
}


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(_STEP_DIAGONALS)),
    regime=st.sampled_from(
        [(1.5, 1.5), (3.0, 3.0), (1.5, 3.0), (3.0, 1.5), (1.5, 1.0), (1.5, INF), (1.0, 3.0), (INF, 3.0)]
    ),
    m=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="alternating", regime=(1.5, 3.0), m=8, seed=1)
@example(family="reciprocal", regime=(1.5, 1.0), m=6, seed=0)
@example(family="alternating", regime=(1.5, INF), m=7, seed=2)
@example(family="alternating", regime=(1.5, 1.5), m=5, seed=0)
def test_fused_step_matches_reference_loop_bit_for_bit(family, regime, m, seed):
    # Each step's norm and duality map share one r = |y| / max|y|; with the
    # same products, every value the loop reports keeps its bytes.
    rng = np.random.default_rng(seed)
    dim = 1 << m
    diag = np.asarray(_STEP_DIAGONALS[family](rng, dim), dtype=np.complex128)
    # A zero row and a subnormal one are dropped; subnormal coordinates in a
    # normal row survive the alternating symbol's permutation kernel and
    # reach the phase's guard.
    some_subnormal = np.ones(dim, dtype=np.complex128)
    some_subnormal[dim // 2] = 1e-310
    extra = [np.zeros(dim), np.full(dim, 1e-310), some_subnormal]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _power_lower(
            MultiplierMatrix.from_diag(diag), *regime, seed=seed % 1000, extra_starts=extra, want_history=True
        )
        ref = _reference_power_lower(diag, m, *regime, seed=seed % 1000, extra_starts=extra)
    value, witness, iterations, residual, converged, histories, starts = ref
    assert math.isfinite(run.value) and run.starts == starts
    assert repr(run.value) == repr(value)
    assert run.witness.tobytes() == witness.tobytes()
    assert (run.iterations, run.converged) == (iterations, converged)
    assert repr(run.residual) == repr(residual)
    assert run.histories == histories


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(0, 12),
    q=st.sampled_from([1.0, 1.001, 1.25, 1.5, 1.99, 2.0, 3.0]),
    tiny_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dual_map_floor_drops_under_n_eps_of_the_pairing(m, q, tiny_frac, seed):
    # For q < 2 the duality map zeroes the coordinates below eps of the row
    # maximum.  Of the pairing sum(r**q) >= 1 of v with the exact map
    # phase(v) r**(q - 1) they held less than N eps, which bounds the ascent
    # a power step can lose to the floor; every other coordinate is exact.
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(seed)
    dim = 1 << m
    v = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    tiny = rng.random((3, dim)) < tiny_frac
    v[tiny] *= 10.0 ** rng.uniform(-40, -12, tiny.sum())
    u = opnorm_module._dual_map_rows(v, q)
    mags = np.abs(v)
    r = mags / mags.max(axis=-1, keepdims=True)
    exact = v / mags * r ** (q - 1.0)
    dropped = r < eps if q < 2.0 else np.zeros_like(r, dtype=bool)
    assert not u[dropped].any()
    np.testing.assert_allclose(u[~dropped], exact[~dropped], rtol=1e-15, atol=0)
    pairing = (r**q).sum(axis=-1)
    lost = np.where(dropped, r**q, 0.0).sum(axis=-1)
    assert np.all(pairing >= 1.0) and np.all(lost <= dim * eps * pairing)


_TRANSLATION_FAMILIES = {
    "reciprocal": lambda m, seed: ReciprocalSymbol(),
    "alternating": lambda m, seed: AlternatingSymbol(),
    "geometric": lambda m, seed: GeometricSymbol(0.6 + 0.3j),
    "explicit": lambda m, seed: random_explicit_symbol(np.random.default_rng(seed), 1 << m),
}


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sorted(_TRANSLATION_FAMILIES)),
    regime=st.sampled_from([(1.5, 1.5), (1.5, 3.0), (3.0, 1.5), (1.25, 1.75)]),
    m=st.integers(1, 8),
    h=st.integers(0, 255),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="alternating", regime=(3.0, 1.5), m=8, h=48, seed=0)
def test_cell_translates_run_the_same_trajectory(family, regime, m, h, seed):
    # M[i, j] = k(i ^ j) commutes with i -> i ^ h, so the run from e_h is the
    # run from e_0 translated, up to the rounding of the factored product;
    # this is why the default block holds e_0 alone.  The example's kernel is
    # a point mass: the product leaves 1e-17 where the run holds zeros, which
    # the duality maps' square roots would grow into start-dependent entries
    # but for their eps floor.
    dim = 1 << m
    diag = _TRANSLATION_FAMILIES[family](m, seed).values(dim)
    cells = np.eye(dim)
    run = _power_lower(
        MultiplierMatrix.from_diag(diag), *regime,
        random_starts=0, max_iter=100, extra_starts=[cells[0], cells[h % dim]], want_history=True,
    )
    ref, moved = run.histories[-2:]
    assert len(moved) == len(ref)
    np.testing.assert_allclose(moved, ref, rtol=1e-12, atol=0)


def test_default_block_holds_one_cell_start():
    # All-ones, e_0, three Walsh functions and 16 random starts; the other
    # cell vectors are translates of e_0 and would repeat its run.
    assert opnorm(ReciprocalSymbol(), Resolution(8), 1.5, 1.5).starts == 21


def test_stop_at_max_iter_is_reported(monkeypatch):
    res = Resolution(8)
    sym = ReciprocalSymbol()
    assert _power_lower(MultiplierMatrix(sym, res), 1.5, 3.0, max_iter=1).converged is False
    est = opnorm(sym, res, 1.5, 3.0)
    assert (est.kind, est.converged) == ("lower", True)
    for p_in, p_out in ((2.0, 2.0), (3.0, 1.5), (1.0, 3.0), (1.5, INF), (1.0, 1.0)):
        est = opnorm(sym, res, p_in, p_out)
        assert (est.kind, est.converged) == ("exact", True)

    # The package re-exports the function ``opnorm`` under the module's name.
    module = importlib.import_module("walsh_lab.opnorm")
    monkeypatch.setattr(module, "_power_lower", partial(_power_lower, max_iter=1))
    assert opnorm(sym, res, 1.5, 3.0).converged is False
    report = multiplier_bound_check(sym, Resolution(6), 1.5)
    assert report.estimate.converged is False and report.dual_estimate.converged is False


def test_opnorm_homogeneity():
    rng = np.random.default_rng(3)
    res = Resolution(5)
    vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lam = 2.5 - 1.25j
    base = opnorm(ExplicitSymbol(vals, "zero"), res, 1.5, 1.5, seed=0)
    scaled = opnorm(ExplicitSymbol(lam * vals, "zero"), res, 1.5, 1.5, seed=0)
    assert scaled.value == pytest.approx(abs(lam) * base.value, rel=1e-9)


def test_opnorm_is_deterministic():
    sym = random_explicit_symbol(np.random.default_rng(4), 64)
    a = opnorm(sym, Resolution(6), 1.5, 1.5, seed=11)
    b = opnorm(sym, Resolution(6), 1.5, 1.5, seed=11)
    assert a == b  # bit-identical NormEstimate


def test_tail_norm_l2_reciprocal():
    est, analytic = tail_norm(ReciprocalSymbol(), 3, Resolution(5), 2.0, 2.0)
    assert analytic == pytest.approx(0.2, abs=1e-15)
    assert est.value == pytest.approx(0.2, abs=1e-12)


def test_tail_norm_alternating_never_decays():
    res = Resolution(6)
    for cutoff in (0, 3, 17, 40):
        est, analytic = tail_norm(AlternatingSymbol(), cutoff, res, 2.0, 2.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert analytic == 1.0


def test_tail_norm_l4_to_l2_collapses_to_sup():
    est, analytic = tail_norm(ReciprocalSymbol(), 3, Resolution(5), 4.0, 2.0)
    assert est.value == pytest.approx(analytic, abs=1e-8)
    assert analytic == pytest.approx(0.2, abs=1e-15)


def test_tail_norm_pp_stays_in_probe_sandwich():
    res = Resolution(6)
    p = 1.5
    for cutoff in (1, 7):
        est, analytic = tail_norm(ReciprocalSymbol(), cutoff, res, p, p)
        # lower end: the Walsh eigenfunction witness
        assert est.value >= analytic - 1e-10
        assert est.value <= est.upper * (1.0 + 1e-12)
        # upper end: the measured multiplier constant for this very symbol
        from walsh_lab import tail

        report = multiplier_bound_check(tail(ReciprocalSymbol(), cutoff), res, p)
        assert est.value <= max(report.ratio, 1.0) * analytic + 1e-9


def test_tail_norm_validates_cutoff():
    with pytest.raises(ValueError):
        tail_norm(ReciprocalSymbol(), 64, Resolution(6), 2.0, 2.0)


def test_multiplier_bound_constant_symbol():
    report = multiplier_bound_check(ConstantSymbol(1.5 - 0.5j), Resolution(5), 1.7)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)
    assert report.duality_ok


def test_multiplier_bound_alternating_p2():
    report = multiplier_bound_check(AlternatingSymbol(), Resolution(6), 2.0)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)
    assert report.duality_ok


def test_duality_symmetry_random_symbols():
    rng = np.random.default_rng(5)
    res = Resolution(6)
    for k in range(4):
        sym = ExplicitSymbol(
            rng.standard_normal(16) + 1j * rng.standard_normal(16), "zero"
        )
        report = multiplier_bound_check(sym, res, 1.5, seed=k)
        assert report.duality_gap <= 1e-6 * max(1.0, report.estimate.value)
        # Each side carries the bound its own power loop stopped on.
        diag = sym.values(64)
        for est, d, p in ((report.estimate, diag, 1.5), (report.dual_estimate, np.conj(diag), 3.0)):
            assert est.upper == certified_upper(MultiplierMatrix.from_diag(d), p, p)
            assert est.value <= est.upper * (1.0 + 1e-12)


def test_probe_hy_is_one_at_p2():
    probe = constant_probe("hy", 2.0, Resolution(5), trials=200, seed=0)
    assert probe.best_ratio == probe.recompute() == 1.0


def test_probe_hy_below_one():
    probe = constant_probe("hy", 1.5, Resolution(6), trials=2000, seed=1)
    assert probe.best_ratio == 1.0 and probe.kind == "exact"
    assert probe.recompute() == 1.0


def test_probe_synthesis_growth_across_resolutions():
    # N**(1/p - 1/2) = 2**(3m/10) at p = 1.25: exact powers of two at m = 0 mod 10.
    best = []
    for m in (4, 6, 8, 10):
        probe = constant_probe("synthesis", 1.25, Resolution(m), trials=1500, seed=2)
        assert probe.recompute() == pytest.approx(probe.best_ratio, rel=1e-14)
        best.append(probe.best_ratio)
    assert best == pytest.approx([2.0**1.2, 2.0**1.8, 2.0**2.4, 8.0], rel=1e-15)
    assert best[-1] == 8.0


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    m=st.integers(0, 16),
    trials=st.integers(1, 10**6),
    seed=st.integers(0, 2**63 - 1),
)
@example(p=1.25, m=16, trials=1, seed=0)
@example(p=1.5, m=0, trials=1, seed=0)
@example(p=1.0 + 2**-52, m=12, trials=3, seed=1)
@example(p=2.0 - 2**-52, m=12, trials=3, seed=1)
def test_probe_constants_are_exact(p, m, trials, seed):
    # Analysis: 1, attained by W_0.  Synthesis: 2**(m/p - m/2), attained by
    # c_n = i**|n|; the Kronecker power (1, i)**(x m) has the same values.
    res = Resolution(m)
    syn = constant_probe("synthesis", p, res, trials=trials, seed=seed)
    assert syn.best_ratio == 2.0 ** (m / p - m / 2)
    assert syn.recompute() == pytest.approx(syn.best_ratio, rel=1e-14, abs=0.0)
    table = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(res.dim)) & 3]
    assert syn.witness.tobytes() == table.tobytes()
    if m <= 10:
        kron = reduce(np.kron, [np.array([1, 1j])] * m, np.ones(1, dtype=np.complex128))
        assert np.array_equal(syn.witness, kron)

    for q in (p, 2.0):
        hy = constant_probe("hy", q, res, trials=trials, seed=seed)
        assert hy.best_ratio == hy.recompute() == 1.0
        assert hy.witness.tobytes() == np.ones(res.dim, dtype=np.complex128).tobytes()
    for probe in (syn, hy):
        assert (probe.m, probe.trials, probe.seed, probe.kind) == (m, trials, seed, "exact")


def test_probe_determinism():
    a = constant_probe("hy", 1.25, Resolution(5), trials=500, seed=9)
    b = constant_probe("hy", 1.25, Resolution(5), trials=500, seed=9)
    assert a.best_ratio == b.best_ratio
    assert np.array_equal(a.witness, b.witness)


def test_probe_validation():
    with pytest.raises(ValueError):
        constant_probe("hy", 2.5, Resolution(4))
    with pytest.raises(ValueError):
        constant_probe("synthesis", 2.0, Resolution(4))
    with pytest.raises(ValueError):
        constant_probe("other", 1.5, Resolution(4))
    with pytest.raises(ValueError, match="at least one trial"):
        constant_probe("hy", 1.5, Resolution(4), trials=0)


def test_probe_refuses_levels_above_the_cap():
    # The transform cap, like every other transform-sized query.
    assert MAX_TRANSFORM_LEVELS == 20
    assert constant_probe("hy", 1.5, Resolution(20), trials=1).m == 20
    for inequality, p in (("hy", 1.5), ("synthesis", 1.25)):
        with pytest.raises(ValueError, match="m <= 20, got 21"):
            constant_probe(inequality, p, Resolution(21), trials=1)


def _no_draws(seed):
    raise AssertionError("the closed-form probe drew random numbers")


def _no_transform(values):
    raise AssertionError("the closed-form probe ran a transform")


@pytest.mark.parametrize("m, trials, seed", [(0, 3, 0), (3, 40, 5), (6, 200, 1)])
def test_probe_at_p2_runs_no_screen(monkeypatch, m, trials, seed):
    # Under Parseval the constant is 1 and W_0 attains it: the probe runs no
    # screen, no draw and no transform; only recompute() rates the witness.
    with monkeypatch.context() as patched:
        patched.setattr(np.random, "default_rng", _no_draws)
        for name in ("walsh_lab.metrics", "walsh_lab.multiplier"):
            patched.setattr(importlib.import_module(name), "fwht", _no_transform)
        probe = constant_probe("hy", 2.0, Resolution(m), trials=trials, seed=seed)
    assert probe.best_ratio == probe.recompute() == 1.0
    assert probe.witness.tobytes() == np.ones(1 << m, dtype=np.complex128).tobytes()


@pytest.mark.parametrize(
    "case",
    [
        ("hy", 1.5, 6, 40, 3),
        ("hy", 1.9, 7, 10, 2),
        ("hy", 1.1, 4, 5, 8),
        ("synthesis", 1.25, 5, 20, 1),
        ("synthesis", 1.75, 3, 7, 0),
    ],
)
def test_probe_fallback_alone_gives_the_same_bytes(monkeypatch, case):
    # The closed form alone decides the bytes: with no random generator, one
    # trial and seed 0, the ratio and the witness are those of the echoed
    # trial count and seed, and the ratio is the constant itself.
    inequality, p, m, trials, seed = case
    default = constant_probe(inequality, p, Resolution(m), trials=trials, seed=seed)
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    alone = constant_probe(inequality, p, Resolution(m), trials=1, seed=0)
    assert repr(alone.best_ratio) == repr(default.best_ratio)
    assert alone.witness.tobytes() == default.witness.tobytes()
    exact = 1.0 if inequality == "hy" else 2.0 ** (m / p - m / 2)
    assert repr(default.best_ratio) == repr(exact)
    assert (default.trials, default.seed) == (trials, seed)


@given(
    st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        min_size=1,
        max_size=32,
    )
)
def test_quarter_turns_keep_moduli_bit_for_bit(values):
    # The synthesis witness turns each coefficient of W_0 by i**|n|: its
    # moduli are 1 bit for bit, so its l^{p'} norm is N**(1/p') exactly, and
    # turning any coefficients by it keeps their moduli bit for bit.
    witness = constant_probe("synthesis", 1.5, Resolution(5)).witness
    assert np.abs(witness).tobytes() == np.ones(32).tobytes()
    x = np.array(values, dtype=np.complex128)
    assert np.abs(x * witness[: x.size]).tobytes() == np.abs(x).tobytes()
