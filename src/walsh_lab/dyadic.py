"""Walsh-Paley analysis at finite dyadic resolution.

A function constant on the ``2**m`` equal cells of ``[0, 1)`` lies exactly in
the span of the first ``2**m`` Walsh functions, and every Walsh function with
index below ``2**m`` is itself constant on those cells.  All integrals in this
module are therefore finite sums evaluated without quadrature error.

Conventions:

* Paley ordering throughout: ``W_n = prod_k r_k ** b_k`` where
  ``n = sum_k b_k 2**k`` is the binary expansion of the index.
* Cell values are read off the binary digits of the cell's left endpoint.
  ``sign(sin(2**(k+1) pi x))`` vanishes exactly at the dyadic breakpoints, so
  the sign is taken from the cell interior, where it is constant.
* ``fwht`` is unnormalized (it computes ``H @ x`` with
  ``H[n, i] = walsh_value(n, i, res)``), which keeps the butterfly
  integer-exact on ``+-1`` inputs.  ``analysis`` divides by ``2**m``;
  ``synthesis`` is a plain ``fwht``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Resolution",
    "StepFunction",
    "CoeffVector",
    "rademacher_value",
    "walsh_value",
    "walsh_step",
    "walsh_matrix",
    "fwht",
    "analysis",
    "synthesis",
    "step_function",
    "coeff_vector",
]

# ``walsh_matrix`` holds 8 * 4**m bytes of int64: 128 MB at m = 12 (about
# 160 MB peak and 0.23 s to build), and each further level quadruples both.
MAX_WALSH_MATRIX_LEVELS = 12
# Past this the value arrays alone stop being sensible on one machine.
MAX_LEVELS = 26
# Sweeps and spectral queries transform several complex arrays per shift: a
# spectral report with its accumulation check peaked at about 196 MB at
# m = 20, and each two further levels about quadruple that (roughly 12 GB at
# MAX_LEVELS).
MAX_TRANSFORM_LEVELS = 20
_INT64_MAX = 2**63 - 1
# Bytes of one ``fwht`` block taken through its remaining stages while it
# stays in cache.  A block and its ping-pong partner (1 MB together) fit the
# 2 MB per-core L2 of the 2-core Xeon (Sapphire Rapids) this was sized on.
# Median of 7 m = 20 complex transforms by tile size, one thread: 32 KB
# 150 ms, 128 KB 96, 256 KB 84, 512 KB 78, 1 MB 93, 2 MB 98, untiled 161.
# Shared with the worker (three runs; untiled runs on one thread): 32 KB
# 115-119 ms, 128 KB 55-62, 256 KB 36-42, 512 KB 29-35, 1 MB 30-40, 2 MB
# 35-44, untiled 100-118, against 51-52 at 512 KB on one thread that hour.
FWHT_TILE_BYTES = 1 << 19


@dataclass(frozen=True)
class Resolution:
    """Number of dyadic levels; the cell count is ``dim = 2**m``."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"resolution level must be a nonnegative integer, got {self.m!r}")
        if self.m > MAX_LEVELS:
            raise ValueError(f"resolution level {self.m} too large (max {MAX_LEVELS})")

    @property
    def dim(self) -> int:
        return 1 << self.m


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Complex values on the ``2**m`` cells ``[i * 2**-m, (i+1) * 2**-m)``.

    Represents an element of every ``L^p[0, 1]`` exactly.  Values are stored
    as ``complex128`` and treated as read-only.
    """

    resolution: Resolution
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if vals.size != self.resolution.dim:
            raise ValueError(
                f"expected {self.resolution.dim} cell values, got {vals.size}"
            )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """Paley-ordered Walsh-Fourier coefficients ``(f_hat(n))_{n < 2**m}``."""

    resolution: Resolution
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if c.size != self.resolution.dim:
            raise ValueError(f"expected {self.resolution.dim} coefficients, got {c.size}")
        object.__setattr__(self, "coeffs", c)


def step_function(values) -> StepFunction:
    """Wrap cell values, inferring the resolution from the length."""
    vals = np.asarray(values).reshape(-1)
    m = _levels_for_length(vals.size)
    return StepFunction(Resolution(m), vals)


def coeff_vector(coeffs) -> CoeffVector:
    """Wrap a coefficient array, inferring the resolution from the length."""
    c = np.asarray(coeffs).reshape(-1)
    m = _levels_for_length(c.size)
    return CoeffVector(Resolution(m), c)


def _levels_for_length(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


def _bit_reversal(m: int) -> np.ndarray:
    """Permutation sending cell index i to its m-bit reversal."""
    idx = np.arange(1 << m, dtype=np.int64)
    rev = np.zeros_like(idx)
    for k in range(m):
        rev |= ((idx >> k) & 1) << (m - 1 - k)
    return rev


def rademacher_value(k: int, cell: int, res: Resolution) -> int:
    """Value of r_k = sign(sin(2**(k+1) pi x)) on the given cell.

    Equals +1 when the (k+1)-th binary digit of the cell's left endpoint is
    0, else -1.  Requires ``k < m`` so that r_k is constant on the cell.
    """
    m = res.m
    if not 0 <= k < m:
        raise ValueError(f"resolution too coarse for level {k} (need m > {k}, have m = {m})")
    if not 0 <= cell < res.dim:
        raise ValueError(f"cell index {cell} out of range for m = {m}")
    return -1 if (cell >> (m - 1 - k)) & 1 else 1


def walsh_value(n: int, cell: int, res: Resolution) -> int:
    """Value of the Paley-ordered Walsh function W_n on the given cell.

    ``W_n = prod_k r_k**b_k`` over the binary digits of n; on cells this is
    ``(-1)**popcount(n & bitreverse(cell))``.
    """
    m = res.m
    if not 0 <= n < res.dim:
        raise ValueError(f"Walsh index {n} out of range for m = {m} (need n < {res.dim})")
    if not 0 <= cell < res.dim:
        raise ValueError(f"cell index {cell} out of range for m = {m}")
    return -1 if (n & _reverse_bits(cell, m)).bit_count() & 1 else 1


def _reverse_bits(x: int, m: int) -> int:
    """x with its m binary digits reversed."""
    rev = 0
    for _ in range(m):
        rev = (rev << 1) | (x & 1)
        x >>= 1
    return rev


def walsh_step(n: int, res: Resolution) -> StepFunction:
    """Step form of W_n at the given resolution (all cells at once).

    ``popcount(n & rev(i)) = popcount(rev(n) & i)``, so reversing the one
    index n takes the place of a table of every cell's reversal.
    """
    if not 0 <= n < res.dim:
        raise ValueError(f"Walsh index {n} out of range for m = {res.m}")
    cells = np.arange(res.dim, dtype=np.int64)
    parity = np.bitwise_count(np.bitwise_and(np.int64(_reverse_bits(n, res.m)), cells)) & 1
    return StepFunction(res, 1.0 - 2.0 * parity)


def walsh_matrix(m: int) -> np.ndarray:
    """Dense Paley-ordered Walsh matrix ``H[n, i] = walsh_value(n, i)``.

    The Sylvester Hadamard matrix ``(-1)**popcount(r & i)`` with the row
    index bit-reversed, as an int64 array.  Refuses m > MAX_WALSH_MATRIX_LEVELS.
    """
    if not 0 <= m <= MAX_WALSH_MATRIX_LEVELS:
        raise ValueError(f"dense Walsh matrix limited to m <= {MAX_WALSH_MATRIX_LEVELS}, got {m}")
    idx = np.arange(1 << m, dtype=np.uint16)
    parity = np.bitwise_count(idx[_bit_reversal(m), None] & idx) & 1
    return np.subtract(1, 2 * parity, dtype=np.int64)


def fwht(values, /) -> np.ndarray:
    """Fast Walsh-Hadamard transform in Paley order, unnormalized.

    Operates on the last axis, which must have power-of-two length N, and
    returns ``H @ x`` in O(N log N) butterfly operations.  Applying it twice
    multiplies by N.  Integer inputs stay in int64 and are exact: partial sums
    are bounded by ``max|x| * N``, and ``max|x| * N > 2**63 - 1`` raises
    ``OverflowError``.  Float and complex inputs are computed in float64.

    The butterfly is the constant-geometry (Pease) form inside shrinking
    blocks, ping-ponging between two buffers: stage k splits the index range
    into ``2**k`` blocks and writes the sums of neighbouring pairs to each
    block's first half, their differences to its second half, so a level is
    two ufunc passes with no temporary.  Index bits are paired bottom-up, so
    every add and subtract takes the same operands as the in-place radix-2
    loop (and the result is bit for bit the same); as stage k writes its bit
    to the top of its block, the output lands in Paley order with no
    bit-reversal gather.  The input is only read.

    The buffers are ``(N, rows)`` arrays, the batch axis fastest in memory,
    and the result is their transpose; a C-ordered batch is transposed by
    the first stage's reads.

    The stages run depth-first in cache-sized tiles.  After stage k every
    later stage reads and writes only inside contiguous blocks of
    ``N >> (k + 1)`` cells, so once the first ``s`` stages have streamed the
    whole buffer, each of the ``2**s`` blocks is taken through all the
    remaining stages while it sits in cache; ``s`` is the smallest split at
    which a block fits ``FWHT_TILE_BYTES``, and a transform that fits one
    tile (``s = 0``) runs every stage on the whole buffer.  Tiling only
    reorders whole stages across disjoint blocks: every add and subtract
    keeps its operands and the buffer it writes, so the output bytes, dtype
    and strides do not depend on the tile size.

    Past one tile the calling thread shares the work with one worker
    thread.  Stage 0 writes its sums to the first half of the buffer and
    its differences to the second, and every later stage acts inside one
    half, so the caller computes the sums and takes the first half through
    the remaining stages (and its ``2**(s - 1)`` blocks), the worker the
    differences and the second half, and the two join once.  The sharing
    moves no add or subtract to other operands or another buffer, so the
    bytes are those of one thread.  The worker starts on the first
    multi-tile transform, never where fewer than 2 CPUs are usable; a
    transform that finds it serving another thread's transform runs on its
    own thread alone.
    """
    a = np.asarray(values)
    if a.ndim == 0:
        raise ValueError("expected at least one axis")
    kind = a.dtype.kind
    if kind in "bui":
        if a.size:
            # Python ints: neither abs(int64 min) nor a uint64 above 2**63 - 1
            # can be formed in int64.
            top = max(int(a.max()), -int(a.min())) * a.shape[-1]
            if top > _INT64_MAX:
                raise OverflowError(
                    f"integer fwht needs max|x| * N <= 2**63 - 1, got max|x| * N = {top}"
                )
        dtype = np.int64
    elif kind == "f":
        dtype = np.float64
    elif kind == "c":
        dtype = np.complex128
    else:
        raise TypeError(f"cannot transform values of dtype {a.dtype}")
    n = a.shape[-1]
    m = _levels_for_length(n)
    if not m:
        return a.astype(dtype)

    src = a.reshape(-1, n).T
    rows = src.shape[1]
    out = np.empty((n, rows), dtype)
    spare = np.empty_like(out)
    split = 0
    while split < m and out.nbytes >> split > FWHT_TILE_BYTES:
        split += 1
    if split and _worker_lock.acquire(blocking=False):
        try:
            worker = _worker()
            if worker is not None:
                _shared_transform(worker, src, out, spare, split, m, dtype)
                return out.T.reshape(a.shape)
        finally:
            _worker_lock.release()
    _tiled_stages(src, out, spare, 0, split, m, dtype)
    return out.T.reshape(a.shape)


def _butterfly_stages(src, out, spare, first, stop, m, dtype):
    """Run Pease stages ``first .. stop - 1`` of an m-stage transform on one
    block: ``src``, ``out`` and ``spare`` are ``(size, rows)`` views of the
    same cells, which stage ``first`` treats as a single group.  Stage k
    reads ``src`` as ``2**(k - first)`` groups of neighbouring pairs and
    writes each group's sums and differences to its two halves.  Stage k
    writes ``out`` when ``m - k`` is odd, so the last stage (k = m - 1)
    lands in ``out`` wherever the split falls.  Returns the buffer the last
    stage wrote (``src`` if none ran)."""
    size, rows = out.shape
    groups, half = 1, size >> 1
    for k in range(first, stop):
        dst = out if (m - k) % 2 else spare
        pairs = src.reshape(groups, half, 2, rows)
        halves = dst.reshape(groups, 2, half, rows)
        # ``dtype`` casts bool, uint8, float32, ... inputs on the first read.
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, 0], dtype=dtype)
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, 1], dtype=dtype)
        src = dst
        groups <<= 1
        half >>= 1
    return src


def _tiled_stages(src, out, spare, first, split, m, dtype):
    """Stages ``first .. m - 1`` on a block that stage ``first`` treats as a
    single group.  Stages before ``split`` stream the whole block; after
    them every block of ``N >> split`` cells runs the remaining stages
    while it sits in cache.  ``split <= first`` (one tile) runs every stage
    on the whole block, with no slicing."""
    if split <= first:
        _butterfly_stages(src, out, spare, first, m, m, dtype)
        return
    src = _butterfly_stages(src, out, spare, first, split, m, dtype)
    size = out.shape[0] >> (split - first)
    for lo in range(0, out.shape[0], size):
        block = slice(lo, lo + size)
        _butterfly_stages(src[block], out[block], spare[block], split, m, m, dtype)


def _half_transform(ufunc, pairs, dst, out, spare, split, m, dtype):
    """Stage 0's sums (``np.add``) or differences (``np.subtract``) of the
    neighbouring ``pairs`` into ``dst``, its half of the buffer, then
    stages ``1 .. m - 1`` on that half alone."""
    ufunc(pairs[:, 0], pairs[:, 1], out=dst, dtype=dtype)
    _tiled_stages(dst, out, spare, 1, split, m, dtype)


def _shared_transform(worker, src, out, spare, split, m, dtype):
    """``fwht``'s stages on a buffer of ``2**split`` tiles, shared between
    the calling thread and ``worker``.  Stage 0 writes the sums of
    neighbouring pairs to the first half of the buffer and their
    differences to the second, and every later stage acts inside one half:
    the caller computes the sums and then transforms the first half, the
    worker the differences and then the second half, with one join at the
    end.  Every add and subtract keeps its operands and the buffer it
    writes, so the bytes are those of one thread."""
    n, rows = out.shape
    half = n >> 1
    pairs = src.reshape(half, 2, rows)
    dst = out if m % 2 else spare
    job = worker.submit(_half_transform, np.subtract, pairs, dst[half:], out[half:], spare[half:], split, m, dtype)
    _half_transform(np.add, pairs, dst[:half], out[:half], spare[:half], split, m, dtype)
    job.result()


# One worker thread shares multi-tile transforms with the calling thread.
# It starts on the first such transform, never where fewer than 2 CPUs are
# usable.  A caller takes it with a non-blocking lock, so a transform that
# finds it busy (another thread's) runs serially instead of queueing: the
# worker adds one thread to the callers', whatever their number.
_worker_lock = threading.Lock()
_worker_pool = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker():
    """The shared worker (an executor of one thread), or None where fewer
    than 2 CPUs are usable.  Call with ``_worker_lock`` held."""
    global _worker_pool
    if _worker_pool is None and _usable_cpus() >= 2:
        from concurrent.futures import ThreadPoolExecutor

        _worker_pool = ThreadPoolExecutor(1, thread_name_prefix="walsh_lab-fwht")
    return _worker_pool


def _forget_worker() -> None:
    # A forked child has no copy of the worker thread, and the lock may have
    # been held by a thread that is gone too.
    global _worker_lock, _worker_pool
    _worker_lock = threading.Lock()
    _worker_pool = None


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_worker)


def _scale(ufunc, x: np.ndarray, factor) -> np.ndarray:
    """``ufunc(x, factor)`` for a fresh transform x that nobody else holds,
    written over x when that gives the same bytes: x is float or complex
    with more than one element, and the result keeps its dtype and shape.
    numpy multiplies a lone complex element in place by a different loop,
    which can move its last bit, and an integer x divides to float."""
    if (
        x.dtype.kind in "fc"
        and x.size > 1
        and np.result_type(x, factor) == x.dtype
        and np.broadcast_shapes(x.shape, np.shape(factor)) == x.shape
    ):
        return ufunc(x, factor, out=x)
    return ufunc(x, factor)


def analysis(f: StepFunction) -> CoeffVector:
    """Walsh-Fourier coefficients ``f_hat(n) = int_0^1 f W_n dx``.

    Exact for step functions: both factors are constant on each cell, so the
    integral is ``2**-m`` times a signed sum of the cell values.
    """
    return CoeffVector(f.resolution, _scale(np.divide, fwht(f.values), f.resolution.dim))


def synthesis(c: CoeffVector) -> StepFunction:
    """Step form of ``sum_{n < 2**m} c_n W_n`` (exact at this resolution)."""
    return StepFunction(c.resolution, fwht(c.coeffs))
