import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walsh_lab import (
    CoeffVector,
    Resolution,
    StepFunction,
    analysis,
    coeff_vector,
    fwht,
    rademacher_value,
    step_function,
    synthesis,
    walsh_matrix,
    walsh_step,
    walsh_value,
)
from walsh_lab.dyadic import _bit_reversal


def naive_transform(values, res):
    """Definitional O(N^2) double loop, independent of the butterfly."""
    n = res.dim
    return np.array(
        [sum(walsh_value(k, i, res) * values[i] for i in range(n)) for k in range(n)]
    )


def test_rademacher_split_at_half():
    res = Resolution(1)
    assert rademacher_value(0, 0, res) == 1
    assert rademacher_value(0, 1, res) == -1


def test_rademacher_level_one():
    res = Resolution(2)
    assert [rademacher_value(1, c, res) for c in range(4)] == [1, -1, 1, -1]
    # sign(sin(4 pi x)) at the cell midpoints
    mids = (np.arange(4) + 0.5) / 4
    assert [int(np.sign(np.sin(4 * np.pi * x))) for x in mids] == [1, -1, 1, -1]


def test_rademacher_cell_in_right_half():
    assert rademacher_value(0, 2, Resolution(2)) == -1


def test_rademacher_needs_fine_resolution():
    with pytest.raises(ValueError, match="too coarse"):
        rademacher_value(2, 0, Resolution(2))


def test_walsh_zero_is_constant_one():
    res = Resolution(3)
    assert all(walsh_value(0, c, res) == 1 for c in range(8))


def test_walsh_three_is_product_of_rademachers():
    res = Resolution(2)
    assert [walsh_value(3, c, res) for c in range(4)] == [1, -1, -1, 1]
    for c in range(4):
        assert walsh_value(3, c, res) == rademacher_value(0, c, res) * rademacher_value(1, c, res)


def test_walsh_index_out_of_range():
    with pytest.raises(ValueError):
        walsh_value(4, 0, Resolution(2))


def test_xor_product_rule_exhaustive_small():
    res = Resolution(5)
    rows = np.vstack([walsh_step(n, res).values.real for n in range(32)]).astype(int)
    for n in range(32):
        assert np.array_equal(rows[n] * rows, rows[np.arange(32) ^ n])


def _fwht_radix2_reference(values):
    """The in-place radix-2 butterfly followed by the Paley bit-reversal
    gather, as ``fwht`` computed it before its constant-geometry stages."""
    a = np.array(values, subok=False)
    kind = a.dtype.kind
    a = a.astype(np.int64 if kind in "bui" else np.float64 if kind == "f" else np.complex128)
    n = a.shape[-1]
    shape = a.shape
    a = a.reshape(-1, n)
    h = 1
    while h < n:
        a = a.reshape(a.shape[0], n // (2 * h), 2, h)
        low = a[:, :, 0, :] - a[:, :, 1, :]
        a[:, :, 0, :] += a[:, :, 1, :]
        a[:, :, 1, :] = low
        a = a.reshape(-1, n)
        h <<= 1
    a = a[:, _bit_reversal(n.bit_length() - 1)]
    return a.reshape(shape)


def _draw(rng, dtype, shape):
    if dtype == np.bool_:
        return rng.integers(0, 2, shape).astype(bool)
    if dtype == np.uint8:
        return rng.integers(0, 256, shape).astype(np.uint8)
    if dtype == np.int64:
        return rng.integers(-(2**40), 2**40, shape)
    scale = np.exp2(rng.integers(-30, 30, shape))
    x = rng.standard_normal(shape) * scale
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal(shape) * scale
    return x.astype(dtype)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(0, 12),
    dtype=st.sampled_from([np.bool_, np.uint8, np.int64, np.float32, np.float64, np.complex128]),
    lead=st.sampled_from([(), (3,), (2, 3), (0,)]),
    layout=st.sampled_from(["C", "F", "strided", "readonly"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=0, dtype=np.float64, lead=(), layout="C", seed=0)
@example(m=0, dtype=np.int64, lead=(3,), layout="readonly", seed=0)
def test_fwht_bytes_match_radix2_reference(m, dtype, lead, layout, seed):
    rng = np.random.default_rng(seed)
    n = 1 << m
    if layout == "strided":
        x = _draw(rng, dtype, (*lead, 2 * n))[..., ::2]
    else:
        x = _draw(rng, dtype, (*lead, n))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "readonly":
        x.flags.writeable = False
    before = x.copy()
    out = fwht(x)
    ref = _fwht_radix2_reference(x)
    assert out.shape == x.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    if m:
        # The layout is pinned too: a transposed (N, rows) buffer.
        assert out.strides == ref.strides
    assert x.tobytes() == before.tobytes()
    assert not np.shares_memory(out, x)


def test_fwht_twice_is_exactly_n_times_identity_at_m20():
    rng = np.random.default_rng(20)
    x = 2 * rng.integers(0, 2, 1 << 20) - 1
    assert np.array_equal(fwht(fwht(x)), (1 << 20) * x)


def test_fwht_of_ones_hits_dc_bin():
    out = fwht(np.ones(64))
    assert out[0] == 64
    assert np.abs(out[1:]).max() == 0


def test_fwht_matches_naive_double_loop():
    rng = np.random.default_rng(1)
    for m in range(7):
        res = Resolution(m)
        ints = rng.integers(-9, 9, res.dim)
        assert np.array_equal(fwht(ints), naive_transform(ints, res))  # exact on integers
        floats = rng.standard_normal(res.dim)
        assert np.abs(fwht(floats) - naive_transform(floats, res)).max() < 1e-12


def test_fwht_rejects_bad_lengths():
    with pytest.raises(ValueError):
        fwht(np.ones(12))


def test_fwht_integer_overflow_boundary():
    # Every partial sum is bounded by max|x| * N; 16 * top is the largest
    # such bound that fits in int64.
    top = (2**63 - 1) // 16
    for sign in (1, -1):
        x = np.full(16, sign * top, dtype=np.int64)
        out = fwht(x)
        assert out[0] == sign * 16 * top and not out[1:].any()
        with pytest.raises(OverflowError, match=r"2\*\*63 - 1"):
            fwht(x + sign)
    with pytest.raises(OverflowError):
        fwht(np.full(16, 2**60, dtype=np.int64))
    with pytest.raises(OverflowError):
        fwht(np.array([2**63, 0], dtype=np.uint64))


def test_fwht_batches_along_last_axis():
    rng = np.random.default_rng(2)
    block = rng.standard_normal((5, 64))
    rows = np.vstack([fwht(row) for row in block])
    assert np.array_equal(fwht(block), rows)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_fwht_empty_batch_keeps_shape_and_dtype(dtype):
    out = fwht(np.zeros((0, 4), dtype=dtype))
    assert out.shape == (0, 4) and out.dtype == dtype


def test_walsh_matrix_agrees_with_walsh_value():
    res = Resolution(4)
    h = walsh_matrix(4)
    for n in range(16):
        for i in range(16):
            assert h[n, i] == walsh_value(n, i, res)


@pytest.mark.parametrize("m", range(13))
def test_walsh_matrix_matches_bit_reversed_sylvester_hadamard(m):
    import scipy.linalg

    want = scipy.linalg.hadamard(1 << m, dtype=np.int64)[_bit_reversal(m)]
    got = walsh_matrix(m)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_analysis_of_constant():
    f = StepFunction(Resolution(4), np.ones(16))
    c = analysis(f)
    assert c.coeffs[0] == 1
    assert np.abs(c.coeffs[1:]).max() == 0


def test_analysis_of_walsh_function_is_unit_vector():
    res = Resolution(3)
    c = analysis(walsh_step(5, res))
    want = np.zeros(8)
    want[5] = 1
    assert np.array_equal(c.coeffs, want)


def test_round_trips():
    rng = np.random.default_rng(3)
    res = Resolution(8)
    f = StepFunction(res, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    back = synthesis(analysis(f))
    assert np.abs(back.values - f.values).max() < 1e-12
    c = CoeffVector(res, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    round2 = analysis(synthesis(c))
    assert np.abs(round2.coeffs - c.coeffs).max() < 1e-12


def test_synthesis_of_unit_vectors():
    res = Resolution(3)
    e0 = np.zeros(8)
    e0[0] = 1
    assert np.array_equal(synthesis(CoeffVector(res, e0)).values, np.ones(8))
    e5 = np.zeros(8)
    e5[5] = 1
    assert np.array_equal(synthesis(CoeffVector(res, e5)).values, walsh_step(5, res).values)


def test_parseval():
    rng = np.random.default_rng(4)
    res = Resolution(8)
    f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    coeffs = analysis(StepFunction(res, f)).coeffs
    assert abs((np.abs(coeffs) ** 2).sum() - (np.abs(f) ** 2).mean()) < 1e-12


def test_wrappers_validate_lengths():
    with pytest.raises(ValueError):
        step_function(np.ones(10))
    with pytest.raises(ValueError):
        StepFunction(Resolution(3), np.ones(4))
    assert coeff_vector(np.ones(8)).resolution.m == 3


def test_resolution_validation():
    with pytest.raises(ValueError):
        Resolution(-1)
    assert Resolution(0).dim == 1
