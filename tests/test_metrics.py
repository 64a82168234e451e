import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walsh_lab import (
    CoeffVector,
    Resolution,
    StepFunction,
    analysis,
    dual_exponent,
    hy_ratio,
    lp_norm,
    lq_norm,
    pnorm,
    synthesis_ratio,
    walsh_distance,
    walsh_step,
)

INF = math.inf


def test_dual_exponent_pairs():
    assert dual_exponent(1.0) == INF
    assert dual_exponent(INF) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert abs(dual_exponent(1.5) - 3.0) < 1e-15
    with pytest.raises(ValueError):
        dual_exponent(0.5)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0, INF])
def test_walsh_functions_are_norm_one(p):
    res = Resolution(5)
    assert abs(lp_norm(walsh_step(13, res), p) - 1.0) < 1e-14


def test_difference_norms_from_the_two_level_structure():
    res = Resolution(2)
    f = StepFunction(res, walsh_step(1, res).values - walsh_step(2, res).values)
    assert abs(lp_norm(f, 2.0) - math.sqrt(2)) < 1e-14
    assert abs(lp_norm(f, 1.0) - 1.0) < 1e-14
    assert lp_norm(f, INF) == 2.0


def test_lp_norm_rejects_bad_exponent():
    with pytest.raises(ValueError):
        lp_norm(StepFunction(Resolution(1), [1, 1]), 0.9)


def test_lq_norm_basics():
    res = Resolution(2)
    e2 = np.zeros(4)
    e2[2] = 1
    for q in (1.0, 2.0, 7.0, INF):
        assert lq_norm(CoeffVector(res, e2), q) == 1.0
    assert lq_norm(CoeffVector(res, np.ones(4)), 2.0) == 2.0


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 10),
    rows=st.integers(1, 6),
    p=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 5.0, INF]),
    weighted=st.booleans(),
    layout=st.sampled_from(["C", "F", "transposed", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_pnorm_matches_each_row_bit_for_bit(m, rows, p, weighted, layout, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    batch = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    batch[rng.random(rows) < 0.3] = 0.0
    weight = 2.0**-m if weighted else 1.0
    # "transposed" is the layout fwht returns for a batch.
    laid_out = {
        "C": batch,
        "F": np.asfortranarray(batch),
        "transposed": np.ascontiguousarray(batch.T).T,
        "strided": np.repeat(batch, 2, axis=-1)[:, ::2],
    }[layout]
    got = pnorm(laid_out, p, weight)
    assert got.shape == (rows,)
    for row, value in zip(batch, got):
        single = pnorm(row, p, weight)
        assert isinstance(single, float)
        assert single == value


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from([(1,), (2,), (64,), (3, 16), (2, 1)]),
    kind=st.sampled_from("ifc"),
    p=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 3.5, 4.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pnorm_in_place_keeps_the_allocating_bytes(shape, kind, p, seed):
    # ``pnorm`` divides and powers the magnitudes in place; numpy takes the
    # same scalar-power paths (square, sqrt, ...) as for ``q ** p``.
    rng = np.random.default_rng(seed)
    if kind == "i":
        a = rng.integers(-1000, 1000, shape)
    else:
        a = rng.standard_normal(shape) * np.exp2(rng.integers(-300, 300, shape))
        if kind == "c":
            a = a + 1j * rng.standard_normal(shape)
    mags = np.abs(a, order="C")
    top = mags.max(axis=-1, keepdims=True, initial=0.0)
    s = ((mags / np.where(top > 0, top, 1.0)) ** p).sum(axis=-1, keepdims=True) * 0.25
    want = (top * s ** (1.0 / p))[..., 0]
    assert np.asarray(pnorm(a, p, 0.25)).tobytes() == want.tobytes()


def test_lp_norm_holds_one_float_temporary(traced_peak):
    rng = np.random.default_rng(5)
    f = StepFunction(Resolution(20), rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20))
    assert traced_peak(lambda: lp_norm(f, 3)) <= 8 * f.resolution.dim + (1 << 20)


def test_lq_of_analysis_is_parseval():
    rng = np.random.default_rng(0)
    res = Resolution(8)
    f = StepFunction(res, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    assert abs(lq_norm(analysis(f), 2.0) - lp_norm(f, 2.0)) < 1e-12


def test_walsh_distance_specific_values():
    res = Resolution(4)
    assert abs(walsh_distance(3, 7, 2.0, res) - math.sqrt(2)) < 1e-14
    assert walsh_distance(1, 1, 3.7, res) == 0.0
    assert abs(walsh_distance(5, 9, 3.0, res) - 2.0 ** (2.0 / 3.0)) < 1e-14
    with pytest.raises(ValueError):
        walsh_distance(0, 16, 2.0, res)


def test_lp_monotone_in_p_on_probability_space():
    rng = np.random.default_rng(2)
    res = Resolution(7)
    f = StepFunction(res, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    ps = [1.0, 1.3, 2.0, 4.0, 9.0, INF]
    vals = [lp_norm(f, p) for p in ps]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_hy_ratio_trivial_inputs():
    res = Resolution(4)
    assert abs(hy_ratio(StepFunction(res, np.ones(16)), 1.5) - 1.0) < 1e-14
    assert abs(hy_ratio(walsh_step(9, res), 1.2) - 1.0) < 1e-14


def test_hy_ratio_is_one_at_p2():
    rng = np.random.default_rng(3)
    res = Resolution(6)
    for _ in range(10):
        f = StepFunction(res, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        assert abs(hy_ratio(f, 2.0) - 1.0) < 1e-12


def test_hy_ratio_validation():
    res = Resolution(3)
    with pytest.raises(ValueError):
        hy_ratio(StepFunction(res, np.ones(8)), 2.5)
    with pytest.raises(ValueError, match="zero"):
        hy_ratio(StepFunction(res, np.zeros(8)), 1.5)


def test_synthesis_ratio_unit_vector():
    res = Resolution(4)
    e7 = np.zeros(16)
    e7[7] = 1
    assert abs(synthesis_ratio(CoeffVector(res, e7), 1.5) - 1.0) < 1e-14


def test_synthesis_ratio_two_coefficients():
    # c = (1, 1, 0, ...): the synthesized function has cell values (2, 0, ...)
    # and the ratio collapses to 1 for every 1 < p < 2.
    res = Resolution(3)
    c = np.zeros(8)
    c[0] = c[1] = 1
    for p in (1.25, 1.5, 1.75):
        assert abs(synthesis_ratio(CoeffVector(res, c), p) - 1.0) < 1e-14


def test_synthesis_ratio_validation():
    res = Resolution(3)
    with pytest.raises(ValueError):
        synthesis_ratio(CoeffVector(res, np.ones(8)), 2.0)
    with pytest.raises(ValueError, match="zero"):
        synthesis_ratio(CoeffVector(res, np.zeros(8)), 1.5)


def test_ratio_homogeneity():
    rng = np.random.default_rng(4)
    res = Resolution(6)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lam = complex(rng.standard_normal(), rng.standard_normal()) * 2.3
    a = hy_ratio(StepFunction(res, f), 1.5)
    b = hy_ratio(StepFunction(res, lam * f), 1.5)
    assert abs(a - b) < 1e-12
    c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    a = synthesis_ratio(CoeffVector(res, c), 1.25)
    b = synthesis_ratio(CoeffVector(res, lam * c), 1.25)
    assert abs(a - b) < 1e-12
