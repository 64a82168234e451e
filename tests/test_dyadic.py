import os
import signal
import sys
import threading
import time
from unittest import mock

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
from walsh_lab import dyadic
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


def _assert_fwht_matches_reference(x):
    before = x.copy()
    out = fwht(x)
    ref = _fwht_radix2_reference(x)
    assert out.shape == x.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    if x.shape[-1] > 1:
        # The layout is pinned too: a transposed (N, rows) buffer.
        assert out.strides == ref.strides
    assert x.tobytes() == before.tobytes()
    assert not np.shares_memory(out, x)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(0, 12),
    dtype=st.sampled_from([np.bool_, np.uint8, np.int64, np.float32, np.float64, np.complex128]),
    lead=st.sampled_from([(), (3,), (2, 3), (0,)]),
    layout=st.sampled_from(["C", "F", "strided", "readonly"]),
    tile_log2=st.integers(0, dyadic.FWHT_TILE_BYTES.bit_length() - 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=0, dtype=np.float64, lead=(), layout="C", tile_log2=19, seed=0)
@example(m=0, dtype=np.int64, lead=(3,), layout="readonly", tile_log2=19, seed=0)
# Split s = m: every stage runs in the head pass, tiles are one cell.
@example(m=12, dtype=np.complex128, lead=(2, 3), layout="C", tile_log2=0, seed=0)
# A head chunk (one group of 2**9 cells, one row) far larger than a tile.
@example(m=9, dtype=np.uint8, lead=(3,), layout="F", tile_log2=4, seed=0)
# Splits inside the range, one of them with a cast on the first read: s = 7
# leaves an odd 5 stages in the tiles (copied back), s = 7 at m = 11 an even 4.
@example(m=12, dtype=np.complex128, lead=(2, 3), layout="C", tile_log2=12, seed=0)
@example(m=11, dtype=np.float32, lead=(), layout="strided", tile_log2=7, seed=0)
# Odd in-tile counts with several rows per chunk: s = 3 leaves 7 stages.
@example(m=10, dtype=np.float64, lead=(3,), layout="F", tile_log2=12, seed=0)
@example(m=10, dtype=np.bool_, lead=(2, 3), layout="C", tile_log2=13, seed=0)
def test_fwht_bytes_match_radix2_reference(m, dtype, lead, layout, tile_log2, seed):
    # The tile size sets the split s: the head pass runs stages 0..s-1 chunk
    # by chunk, and tiles of ``N >> s`` cells run the rest alone; from one
    # byte up to the default it reaches every s in 0..m.  One usable CPU
    # keeps every split on the calling thread;
    # ``test_shared_fwht_bytes_match_radix2_reference`` covers the shared
    # path.
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyadic, "_usable_cpus", lambda: 1)
        mp.setattr(dyadic, "_worker_pool", None)
        mp.setattr(dyadic, "FWHT_TILE_BYTES", 1 << tile_log2)
        _assert_fwht_matches_reference(x)


@pytest.mark.parametrize("shape", [(1 << 20,), (64, 1 << 14)])
def test_fwht_bytes_match_radix2_reference_past_one_tile(shape):
    # 16 MB of complex128: the default tile splits these transforms.
    rng = np.random.default_rng(21)
    _assert_fwht_matches_reference(_draw(rng, np.complex128, shape))


@pytest.fixture
def two_cpus(monkeypatch):
    """The shared worker, whatever this machine's CPU count."""
    monkeypatch.setattr(dyadic, "_usable_cpus", lambda: 2)


def _tile_for_split(x, split):
    """``FWHT_TILE_BYTES`` at which ``fwht(x)`` splits its buffer at ``split``."""
    itemsize = 16 if x.dtype.kind == "c" else 8
    return (x.size * itemsize) >> split


@settings(max_examples=100, deadline=None)
@given(
    # (m, split): every split from 1 to m.
    levels=st.integers(1, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
    dtype=st.sampled_from([np.bool_, np.uint8, np.int64, np.float64, np.complex128]),
    lead=st.sampled_from([(), (1,), (3,), (2, 5)]),
    layout=st.sampled_from(["C", "T"]),
    seed=st.integers(0, 2**32 - 1),
)
# Split s = m: every tile is one cell, and a head chunk (one group of one
# row) is far larger than a tile.
@example(levels=(9, 9), dtype=np.complex128, lead=(3,), layout="T", seed=0)
# Odd in-tile stage counts (copied back): 7 stages, 1 stage.
@example(levels=(10, 3), dtype=np.complex128, lead=(), layout="C", seed=0)
@example(levels=(12, 11), dtype=np.uint8, lead=(2, 5), layout="T", seed=0)
def test_shared_fwht_bytes_match_radix2_reference(levels, dtype, lead, layout, seed):
    # Every split from 1 to m takes the shared path; "T" is a transposed batch.
    m, split = levels
    rng = np.random.default_rng(seed)
    x = _draw(rng, dtype, (*lead, 1 << m))
    if layout == "T":
        x = np.asfortranarray(x)
    shared = []
    real_shared = dyadic._shared_passes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyadic, "_usable_cpus", lambda: 2)
        mp.setattr(dyadic, "FWHT_TILE_BYTES", _tile_for_split(x, split))
        mp.setattr(dyadic, "_shared_passes", lambda *args: shared.append(args[3]) or real_shared(*args))
        _assert_fwht_matches_reference(x)
    assert shared == [split]


# (40000, 8): one group of 8 cells of every row is 5 MB, so head chunks
# take a few thousand rows each.
@pytest.mark.parametrize("shape", [(1 << 20,), (64, 1 << 14), (40000, 8)])
def test_fwht_holds_one_output_and_tile_sized_scratch(shape, traced_peak):
    # Two scratch buffers of at most one tile for each of two threads; the
    # two-buffer butterfly held a second output-sized array.
    x = _draw(np.random.default_rng(22), np.complex128, shape)
    fwht(x)  # starts the worker, if any, outside the trace
    assert traced_peak(lambda: fwht(x)) <= x.nbytes + 8 * dyadic.FWHT_TILE_BYTES


def test_fwht_from_two_threads_at_once_matches_serial(two_cpus):
    # The worker serves one transform at a time; a caller that finds it
    # taken runs serially, with the same bytes.
    rng = np.random.default_rng(4)
    inputs = [_draw(rng, np.complex128, (8, 1 << 13)), _draw(rng, np.float64, 1 << 17)]
    want = [_fwht_radix2_reference(x).tobytes() for x in inputs]
    got = [[], []]
    start = threading.Barrier(2, timeout=60)

    def caller(k):
        start.wait()
        for _ in range(20):
            got[k].append(fwht(inputs[k]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want[0]] * 20, [want[1]] * 20]


def test_fwht_runs_serially_while_another_transform_holds_the_worker(two_cpus):
    x = _draw(np.random.default_rng(6), np.complex128, 1 << 16)
    got = []
    caller = threading.Thread(target=lambda: got.append(fwht(x)), daemon=True)
    with mock.patch.object(dyadic, "_shared_passes", side_effect=AssertionError("shared")):
        with dyadic._worker_lock:
            caller.start()
            caller.join(timeout=60)
            waited = caller.is_alive()
    assert not waited
    assert got[0].tobytes() == _fwht_radix2_reference(x).tobytes()


def test_one_usable_cpu_never_starts_the_worker(monkeypatch):
    monkeypatch.setattr(dyadic, "_worker_pool", None)
    monkeypatch.setattr(dyadic.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    threads = threading.active_count()
    x = _draw(np.random.default_rng(8), np.complex128, (4, 1 << 15))
    assert fwht(x).tobytes() == _fwht_radix2_reference(x).tobytes()
    assert dyadic._worker_pool is None
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_worker(two_cpus):
    # The parent's worker thread does not exist in a forked child.
    x = _draw(np.random.default_rng(9), np.complex128, 1 << 16)
    want = fwht(x).tobytes()
    assert dyadic._worker_pool is not None
    pid = os.fork()
    if pid == 0:
        os._exit(0 if fwht(x).tobytes() == want else 1)
    deadline = time.monotonic() + 60
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done and time.monotonic() < deadline:
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


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
    for m in range(9):
        res = Resolution(m)
        got = [[walsh_value(n, i, res) for i in range(res.dim)] for n in range(res.dim)]
        assert np.array_equal(walsh_matrix(m), got)


def _no_table(m):
    raise AssertionError(f"built a {1 << m}-entry bit-reversal table")


def test_walsh_value_builds_no_bit_reversal_table():
    res = Resolution(20)
    cell = 0b11 << 18 | 1
    with mock.patch.object(dyadic, "_bit_reversal", _no_table):
        assert walsh_value(1, cell, res) == -1  # r_0 reads the top bit of the cell
        assert walsh_value(2, cell, res) == -1
        assert walsh_value(4, cell, res) == 1
        assert walsh_value(1 << 19, cell, res) == -1  # r_19 reads the bottom bit


def test_walsh_step_builds_no_bit_reversal_table():
    res = Resolution(20)
    cell = 0b11 << 18 | 1
    with mock.patch.object(dyadic, "_bit_reversal", _no_table):
        for n in (0, 1, 5, (1 << 19) | 6, res.dim - 1):
            values = walsh_step(n, res).values
            assert values[cell] == walsh_value(n, cell, res)
            assert values[0] == 1.0 and set(np.unique(values)) <= {-1.0, 1.0}


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
    assert Resolution(20).dim == 1 << 20
    for m in range(21, 27):
        with pytest.raises(ValueError, match=f"resolution levels limited to m <= 20, got {m}"):
            Resolution(m)
