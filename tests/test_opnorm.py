import importlib
import itertools
import math
import warnings
from functools import partial
from unittest import mock

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
    UnitDiracSymbol,
    constant_probe,
    dual_exponent,
    multiplier_bound_check,
    opnorm,
    opnorm_upper,
    random_explicit_symbol,
    resolvent_symbol,
    tail_norm,
)
from walsh_lab.dyadic import _bit_reversal, fwht
from walsh_lab.metrics import (
    hy_exponent,
    hy_form,
    hy_ratios,
    synthesis_exponent,
    synthesis_form,
    synthesis_ratios,
)
from walsh_lab.multiplier import apply_diag
from walsh_lab.opnorm import (
    _MOVE_MULTIPLIERS,
    _MOVES,
    _ROW_OF_TURN,
    MAX_PROBE_ELEMS,
    MAX_PROBE_LEVELS,
    _candidate_rows,
    _power_lower,
    _row_operators,
    _screen,
    _Start,
)

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


def test_lower_bounds_sandwiched_by_certified_upper():
    rng = np.random.default_rng(1)
    res = Resolution(6)
    for k in range(8):
        sym = random_explicit_symbol(rng, 64)
        sup = np.abs(sym.values(64)).max()
        for p in (1.5, 3.0):
            lo = opnorm(sym, res, p, p, seed=k)
            hi = opnorm_upper(sym, res, p, p)
            assert lo.kind == "lower" and hi.kind == "upper"
            assert sup - 1e-10 <= lo.value <= hi.value + 1e-10


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 8), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_kernel_product_matches_transform_pair(m, rows, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    forward, adjoint = _row_operators(diag)
    for got, ref in ((forward(x), apply_diag(diag, x)), (adjoint(x), apply_diag(np.conj(diag), x))):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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
    run = _power_lower(sym.values(dim), m, p_in, p_out, seed=seed % 1000, random_starts=4, max_iter=100)
    assert run.value <= sup * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_p2_power_loop_reaches_sup_and_never_exceeds_it(m, seed):
    # opnorm returns sup|a_n| at (2, 2) without iterating.  The Walsh start
    # with the largest |a_n| is an eigenvector, so the loop reaches sup at its
    # first step, on the kernel-product path (m <= 8) and the transform path.
    rng = np.random.default_rng(seed)
    dim = 1 << m
    diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    sup = float(np.abs(diag).max())
    run = _power_lower(diag, m, 2.0, 2.0, seed=seed % 1000)
    assert abs(run.value - sup) <= 1e-12 * sup


_SYMBOL_DRAWS = {
    "complex-normal": lambda rng, dim: rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
    "nonnegative": lambda rng, dim: rng.random(dim),
    "unimodular": lambda rng, dim: np.exp(2j * np.pi * rng.random(dim)),
    "noise": lambda rng, dim: rng.random() ** np.bitwise_count(np.arange(dim)),
}


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(_SYMBOL_DRAWS)),
    regime=st.sampled_from(
        [(1.25, 1.75), (1.5, 1.5), (1.5, 3.0), (3.0, 3.0), (4.0, 6.0), (1.75, 1.25), (3.0, 1.5), (1.0, 3.0), (1.5, INF)]
    ),
    m=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_upper_bounds_the_power_loop(family, regime, m, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    sym = ExplicitSymbol(_SYMBOL_DRAWS[family](rng, dim), "zero")
    diag = sym.values(dim)
    upper = opnorm_upper(sym, Resolution(m), *regime)
    assert upper.kind in ("upper", "exact")
    assert upper.value >= np.abs(diag).max()
    run = _power_lower(diag, m, *regime, seed=seed % 1000)
    assert run.value <= upper.value * (1.0 + 1e-12)


@pytest.mark.parametrize("p, q", [(1.5, 3.0), (1.25, 5.0), (1.1, 2.0), (2.0, 4.0)])
def test_bonami_noise_symbol_closes_at_one(p, q):
    # a_n = rho**|n| at rho = sqrt((p - 1) / (q - 1)) is the noise operator at
    # the Bonami-Beckner critical ratio: its norm is 1, reached by constants,
    # and the hypercontractive bound is 1 too, so the bracket closes.
    res = Resolution(8)
    rho = math.sqrt((min(p, 2.0) - 1.0) / (max(q, 2.0) - 1.0))
    sym = ExplicitSymbol(rho ** np.bitwise_count(np.arange(res.dim)), "zero")
    est = opnorm(sym, res, p, q)
    upper = opnorm_upper(sym, res, p, q)
    assert (est.kind, est.iterations, est.converged) == ("lower", 2, True)
    assert 1.0 - 1e-15 <= est.value <= upper.value <= 1.0 + 1e-14


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("regime", [(1.5, 3.0), (1.5, 1.5), (3.0, 3.0)])
def test_reciprocal_bracket_closes_after_two_steps(regime, seed):
    # max 2**|n| / (n + 1) = 1 is the hypercontractive bound and the norm.
    # All-ones reaches it at step 0 and stops on tol at step 1, which ends the
    # loop; the other starts would creep toward 1 for all max_iter steps.
    res = Resolution(8)
    est = opnorm(ReciprocalSymbol(), res, *regime, seed=seed)
    assert (est.value, est.iterations, est.converged) == (1.0, 2, True)
    assert opnorm_upper(ReciprocalSymbol(), res, *regime).value == pytest.approx(1.0, rel=1e-14)
    run = _power_lower(ReciprocalSymbol().values(res.dim), 8, *regime, seed=seed, want_history=True)
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
    run = _power_lower(sym.values(dim), m, p_in, p_out, seed=seed % 1000, random_starts=4, max_iter=100)
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
    with pytest.raises(ValueError, match="m <= 12"):
        opnorm(ReciprocalSymbol(), Resolution(13), 1.5, 1.5)
    est = opnorm(ReciprocalSymbol(), Resolution(13), 1.0, 3.0)
    assert (est.kind, est.iterations) == ("exact", 0)


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
        run = _power_lower(diag, 6, 1.5, 1.5, seed=k, want_history=True)
        for hist in run.histories:
            assert all(b >= a - 1e-12 * (1 + abs(b)) for a, b in zip(hist, hist[1:]))


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
    gemm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_translates_run_the_same_trajectory(family, regime, m, h, gemm, seed):
    # M[i, j] = k(i ^ j) commutes with i -> i ^ h, so the run from e_h is the
    # run from e_0 translated, on both operator paths; this is why the default
    # block holds e_0 alone.
    dim = 1 << m
    diag = _TRANSLATION_FAMILIES[family](m, seed).values(dim)
    cells = np.eye(dim)
    module = importlib.import_module("walsh_lab.opnorm")
    with mock.patch.object(module, "GEMM_MAX_DIM", dim if gemm else 0):
        run = _power_lower(
            diag, m, *regime,
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
    assert _power_lower(sym.values(res.dim), 8, 1.5, 3.0, max_iter=1).converged is False
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


def test_probe_hy_is_one_at_p2():
    probe = constant_probe("hy", 2.0, Resolution(5), trials=200, seed=0)
    assert probe.best_ratio == pytest.approx(1.0, abs=1e-12)


def test_probe_hy_below_one():
    probe = constant_probe("hy", 1.5, Resolution(6), trials=2000, seed=1)
    assert probe.best_ratio <= 1.0 + 1e-9
    assert probe.recompute() == pytest.approx(probe.best_ratio, abs=1e-12)


def test_probe_synthesis_growth_across_resolutions():
    best = []
    for m in (4, 6, 8):
        probe = constant_probe("synthesis", 1.25, Resolution(m), trials=1500, seed=2)
        assert probe.recompute() == pytest.approx(probe.best_ratio, abs=1e-12)
        best.append(probe.best_ratio)
    # reported growth curve; nondecreasing here, but no ceiling is asserted
    assert best[0] <= best[1] <= best[2]


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


def test_probe_refuses_batches_that_cannot_fit_in_memory(monkeypatch):
    module = importlib.import_module("walsh_lab.opnorm")
    assert MAX_PROBE_ELEMS == 2**26

    def no_draws(seed):
        raise AssertionError("the refusal must come before drawing")

    with monkeypatch.context() as patched:
        patched.setattr(module.np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="36.7 GB"):
            constant_probe("hy", 1.5, Resolution(16), trials=10000)
        with pytest.raises(ValueError, match="3.8 GB"):
            constant_probe("synthesis", 1.25, Resolution(10), trials=MAX_PROBE_ELEMS // 1024 + 1)

    # The bound itself is admitted.
    monkeypatch.setattr(module, "MAX_PROBE_ELEMS", 10 * 64)
    assert constant_probe("hy", 1.5, Resolution(6), trials=10, seed=0).trials == 10
    with pytest.raises(ValueError, match="exceeds 640"):
        constant_probe("hy", 1.5, Resolution(6), trials=11, seed=0)


def _constant_probe_reference(inequality, p, res, trials=10000, seed=0):
    """The one-candidate-at-a-time ascent ``constant_probe`` replaced, verbatim
    (one ``ratios_of`` call per candidate move); returns (best_ratio, witness)."""
    if inequality == "hy":
        p = hy_exponent(p)
        ratios_of = hy_ratios
    else:
        p = synthesis_exponent(p)
        ratios_of = synthesis_ratios

    dim = res.dim
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((trials, dim)) + 1j * rng.standard_normal((trials, dim))
    ratios = ratios_of(batch, p)

    order = np.argsort(-ratios, kind="stable")[:4]
    best_ratio = float(ratios[order[0]])
    best_witness = batch[order[0]].copy()

    for row in order:
        x = batch[row].copy()
        current = float(ratios_of(x, p))
        for _ in range(16):
            improved = False
            for i in range(dim):
                keep = x[i]
                for mul in (-1.0, 1j, -1j):
                    x[i] = keep * mul
                    trial = float(ratios_of(x, p))
                    if trial > current * (1.0 + 1e-14):
                        current = trial
                        keep = x[i]
                        improved = True
                x[i] = keep
            if not improved:
                break
        if current > best_ratio:
            best_ratio = current
            best_witness = x.copy()
    return best_ratio, best_witness


@settings(max_examples=25, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("hy"), st.sampled_from([1.1, 1.25, 1.5, 1.9, 2.0])),
        st.tuples(st.just("synthesis"), st.sampled_from([1.1, 1.25, 1.5, 1.75])),
    ),
    m=st.integers(0, 7),
    trials=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
# Cases where taking the best of the three candidates, instead of the
# ``-1, +i, -i`` sweep, keeps a different phase: the ratio, or only the
# witness (hy), comes out different.
@example(case=("synthesis", 1.25), m=4, trials=1, seed=2)
@example(case=("hy", 1.5), m=2, trials=1, seed=2)
def test_probe_ascent_matches_one_candidate_at_a_time(case, m, trials, seed):
    # The speculative blocks replay the same first-improvement sweep, so the
    # ratio and the witness bytes are those of the reference loop.
    inequality, p = case
    res = Resolution(m)
    probe = constant_probe(inequality, p, res, trials=trials, seed=seed)
    ratio, witness = _constant_probe_reference(inequality, p, res, trials=trials, seed=seed)
    assert probe.best_ratio == ratio
    assert probe.witness.tobytes() == witness.tobytes()


def _counting_transforms(monkeypatch):
    """Record the shape of every ``fwht`` call the probe makes."""
    calls = []

    def counting_fwht(values):
        calls.append(np.shape(values))
        return fwht(values)

    for name in ("walsh_lab.metrics", "walsh_lab.opnorm"):
        monkeypatch.setattr(importlib.import_module(name), "fwht", counting_fwht)
    return calls


def test_probe_ascent_batches_its_transforms(monkeypatch):
    # The screen decides every move here, so the exact transforms are the
    # random starts, the four starts' own, one refresh per further pass
    # (17 here) and the final ratios.  One transform per candidate move
    # would make 4036.
    calls = _counting_transforms(monkeypatch)
    constant_probe("hy", 1.5, Resolution(6), trials=2000, seed=1)
    assert calls == [(2000, 64), (4, 64)] + [(64,)] * 17 + [(4, 64)]


def test_probe_fallbacks_stay_batched_at_p2(monkeypatch):
    # At p = 2 every move ties within the screen's bracket (Parseval), so
    # each block falls back whole: one exact batch per round for all starts,
    # the blocks doubling from one coordinate to the rest of the pass.
    calls = _counting_transforms(monkeypatch)
    probe = constant_probe("hy", 2.0, Resolution(6), trials=2000, seed=1)
    rows = [12, 24, 48, 96, 192, 384, 12]  # 4 starts x 3 moves x 1, 2, ..., 32, 1
    assert calls == [(2000, 64), (4, 64)] + [(r, 64) for r in rows] + [(4, 64)]
    assert probe.best_ratio == pytest.approx(1.0, abs=1e-12)


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
    # With an infinite margin every bracket straddles its threshold and every
    # decision comes from exact rows.
    inequality, p, m, trials, seed = case
    default = constant_probe(inequality, p, Resolution(m), trials=trials, seed=seed)
    monkeypatch.setattr(importlib.import_module("walsh_lab.opnorm"), "_SCREEN_SAFETY", math.inf)
    calls = _counting_transforms(monkeypatch)
    forced = constant_probe(inequality, p, Resolution(m), trials=trials, seed=seed)
    assert any(shape[0] > 4 for shape in calls[2:])  # exact candidate rows ran
    assert forced.best_ratio == default.best_ratio
    assert forced.witness.tobytes() == default.witness.tobytes()


def _probe_vector(kind: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if kind == "zeros":
        x[rng.random(dim) < rng.random()] = 0.0
    elif kind == "subnormal":
        x *= 1e-310
        x[rng.random(dim) < 0.2] *= 1e300
    elif kind == "range":
        x *= 10.0 ** rng.uniform(-150.0, 150.0, dim)
    return x


@settings(max_examples=150, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("hy"), st.sampled_from([1.1, 1.25, 1.5, 1.9])),
        st.tuples(st.just("synthesis"), st.sampled_from([1.1, 1.25, 1.5, 1.75])),
    ),
    m=st.integers(0, 10),
    kind=st.sampled_from(["normal", "zeros", "subnormal", "range"]),
    moves=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=("hy", 1.5), m=0, kind="normal", moves=3, seed=0)
@example(case=("synthesis", 1.1), m=10, kind="range", moves=40, seed=1)
@example(case=("hy", 1.1), m=6, kind="subnormal", moves=5, seed=2)
def test_probe_screen_brackets_hold_the_exact_ratios(case, m, kind, moves, seed):
    # After some moves made through the screen's own transform updates, the
    # exact ratio of every candidate lies in its bracket, with no tolerance.
    inequality, p = case
    dim = 1 << m
    form = (hy_form if inequality == "hy" else synthesis_form)(p, dim)
    rng = np.random.default_rng(seed)
    x = _probe_vector(kind, dim, rng)
    start = _Start(x, fwht(x), float(form.ratios(x)), form)
    rev = _bit_reversal(m)
    for _ in range(moves):
        i, k = int(rng.integers(dim)), int(rng.integers(3))
        rows, signs, _, _ = _screen(form, rev, [(start, np.array([i]))])
        start.move(i, start.x[i] * _MOVES[k][0], rows[0, k] * signs[0])

    idx = np.sort(rng.choice(dim, size=min(dim, 48), replace=False))
    _, _, lo, hi = _screen(form, rev, [(start, idx)])
    exact = form.ratios(_candidate_rows(start.x, idx)).reshape(-1, 3)[:, list(_ROW_OF_TURN)]
    lo, hi = np.array(lo), np.array(hi)
    assert np.all(lo <= exact) and np.all(exact <= hi)
    if kind == "normal":  # the bracket is narrow enough to decide real moves
        assert np.all(hi - lo <= 1e-9 * exact)


@given(
    st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        min_size=1,
        max_size=32,
    )
)
def test_quarter_turns_keep_moduli_bit_for_bit(values):
    # The screen's denominator is the start's own: each move's vector, and
    # each chain of kept moves, has the same moduli as the start.
    x = np.array(values, dtype=np.complex128)
    mags = np.abs(x).tobytes()
    for chosen in itertools.product((False, True), repeat=len(_MOVES)):
        turned = x.copy()
        for keep, (mul, _) in zip(chosen, _MOVES):
            if keep:
                turned = turned * mul
        assert np.abs(turned).tobytes() == mags
    for k in range(3):
        assert np.abs(x[:, None] * _MOVE_MULTIPLIERS)[:, k].tobytes() == mags


def test_probe_refuses_levels_above_the_cap(monkeypatch):
    module = importlib.import_module("walsh_lab.opnorm")
    assert MAX_PROBE_LEVELS == 12

    def no_draws(seed):
        raise AssertionError("the refusal must come before drawing")

    with monkeypatch.context() as patched:
        patched.setattr(module.np.random, "default_rng", no_draws)
        for m in (13, 20):
            with pytest.raises(ValueError, match=f"m <= 12, got {m}"):
                constant_probe("hy", 1.5, Resolution(m), trials=1)

    # The cap itself is admitted.
    monkeypatch.setattr(module, "MAX_PROBE_LEVELS", 4)
    assert constant_probe("synthesis", 1.25, Resolution(4), trials=3, seed=0).m == 4
    with pytest.raises(ValueError, match="m <= 4, got 5"):
        constant_probe("synthesis", 1.25, Resolution(5), trials=3, seed=0)
