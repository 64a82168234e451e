import importlib
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
    opnorm_upper_interpolated,
    random_explicit_symbol,
    resolvent_symbol,
    tail_norm,
)
from walsh_lab.dyadic import fwht
from walsh_lab.metrics import hy_exponent, hy_ratios, synthesis_exponent, synthesis_ratios
from walsh_lab.multiplier import apply_diag
from walsh_lab.opnorm import MAX_PROBE_ELEMS, MAX_PROBE_LEVELS, _power_lower, _row_operators

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


def test_lower_bounds_sandwiched_by_interpolated_upper():
    rng = np.random.default_rng(1)
    res = Resolution(6)
    for k in range(8):
        sym = random_explicit_symbol(rng, 64)
        sup = np.abs(sym.values(64)).max()
        for p in (1.5, 3.0):
            lo = opnorm(sym, res, p, p, seed=k)
            hi = opnorm_upper_interpolated(sym, res, p)
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
def test_norm_is_sup_when_p_in_at_least_2_at_least_p_out(m, p_in, p_out, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    sym = ExplicitSymbol(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), "zero")
    sup = float(np.abs(sym.values(dim)).max())
    est = opnorm(sym, Resolution(m), p_in, p_out, seed=seed % 1000)
    assert (est.kind, est.value) == ("exact", sup)
    if (p_in, p_out) != (2.0, 2.0):  # (2, 2) reports its cross-check's iterations
        assert est.iterations == 0
    run = _power_lower(sym.values(dim), m, p_in, p_out, seed=seed % 1000, random_starts=4, max_iter=100)
    assert run.value <= sup * (1.0 + 1e-12)


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


@settings(max_examples=5, deadline=None)
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


def test_probe_ascent_batches_its_transforms(monkeypatch):
    # One transform per candidate move would make 4036 here.
    module = importlib.import_module("walsh_lab.metrics")
    calls = []

    def counting_fwht(values):
        calls.append(np.shape(values))
        return fwht(values)

    monkeypatch.setattr(module, "fwht", counting_fwht)
    constant_probe("hy", 1.5, Resolution(6), trials=2000, seed=1)
    assert calls[0] == (2000, 64)  # the random starts
    ascent = calls[1:]
    assert 0 < len(ascent) <= 200
    # 4 starts x 3 rows x (4 * PROBE_SPECULATION_MAX_DIM / dim) coordinates, times dim
    cap = 4 * 3 * 4 * importlib.import_module("walsh_lab.opnorm").PROBE_SPECULATION_MAX_DIM
    assert max(math.prod(shape) for shape in ascent) <= cap


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
