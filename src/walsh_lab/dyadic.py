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
# spectral report at m = 20 (p = 3, with its accumulation check and kernel
# bound) peaks at about 91 MB resident, 34 MB of it the interpreter and
# numpy, and each further level about doubles the rest (roughly 3.7 GB at
# MAX_LEVELS).
MAX_TRANSFORM_LEVELS = 20
_INT64_MAX = 2**63 - 1
# Bytes of one ``fwht`` tile, taken through its last stages while it stays
# in cache, and of one head-pass chunk.  A tile and its scratch partner
# (1 MB together) fit the 2 MB per-core L2 of the 2-core Xeon (Sapphire
# Rapids) this was sized on.  Two-pass butterfly, m = 20 complex, medians
# of 21 interleaved transforms by tile size in three runs, one thread /
# shared with the worker: 128 KB 75-78 / 96-101 ms, 256 KB 57-62 / 47-50,
# 512 KB 52-58 / 34-36, 1 MB 71 / 39-40, 2 MB 82-83 / 43-45.  A head-pass
# chunk of half or a quarter of the tile was slower (shared: 39 and 54 ms).
# The one-pass head that came before measured fastest at 512 KB too.
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
    blocks: stage k splits the index range into ``2**k`` blocks and writes
    the sums of neighbouring pairs to each block's first half, their
    differences to its second half, so a level is two ufunc passes into
    another buffer.  Index bits are paired bottom-up, so every add and
    subtract takes the same operands as the in-place radix-2 loop (and the
    result is bit for bit the same); as stage k writes its bit to the top
    of its block, the output lands in Paley order with no bit-reversal
    gather.  The input is only read.

    The buffers are ``(N, rows)`` arrays, the batch axis fastest in memory,
    and the result is their transpose; a C-ordered batch is transposed by
    the first stage's reads.  A transform that fits one cache tile
    (``FWHT_TILE_BYTES``) ping-pongs every stage between the output and one
    spare array of its size.

    A larger one holds one output-sized buffer and streams it twice, after
    Bailey's two-pass FFT scheme.  ``s`` is the smallest split at which a
    tile of ``N >> s`` cells fits ``FWHT_TILE_BYTES`` (or ``m``).  Stages
    ``0 .. s - 1`` only mix groups of ``2**s`` neighbouring input cells,
    and leave the result of group g at offset g of every tile.  Pass 1 takes
    cache-sized chunks of whole groups (of fewer rows, where one group of
    every row is larger) through those stages in tile-sized scratch, the
    last stage writing straight into the strided view of the tiles.  After
    stage ``s - 1`` every later stage acts inside one tile, so pass 2 takes
    each tile through stages ``s .. m - 1`` while it sits in cache,
    ping-ponging between the tile and scratch; when ``m - s`` is odd the
    last stage lands in scratch and is copied back once.  Working memory is
    the output and two scratch arrays per thread, each the size of a tile
    (or of one group of one row, where that is larger).  The passes only
    change the buffers that hold intermediate stages: every add and
    subtract keeps its operands, so the output bytes, dtype and strides do
    not depend on the tile size.

    The calling thread shares both passes with one worker thread: each
    takes half the chunks and they join, then half the tiles and they join
    again, in scratch the calling thread allocates.  The sharing moves no
    add or subtract to other operands, so the bytes are those of one
    thread.  The worker starts on the first multi-tile transform, never
    where fewer than 2 CPUs are usable; a transform that finds it serving
    another thread's transform runs on its own thread alone.
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
    split = 0
    while split < m and out.nbytes >> split > FWHT_TILE_BYTES:
        split += 1
    if not split:
        spare = np.empty_like(out)
        # Stage k writes ``out`` when m - k is odd, so the last one lands there.
        _stages(src, [out if (m - k) % 2 else spare for k in range(m)], dtype)
        return out.T.reshape(a.shape)
    if _worker_lock.acquire(blocking=False):
        try:
            worker = _worker()
            if worker is not None:
                _shared_passes(worker, src, out, split, m, dtype)
                return out.T.reshape(a.shape)
        finally:
            _worker_lock.release()
    chunks = _head_chunks(src, out, split)
    (scratch,) = _scratch(chunks, out, split, 1)
    _head_pass(chunks, scratch, split, dtype)
    _tile_pass(_tiles(out, split), scratch[0], split, m, dtype)
    return out.T.reshape(a.shape)


def _stages(src, dsts, dtype):
    """Pease stages of a ``(cells, rows)`` block that the first of them
    treats as a single group, stage i writing ``dsts[i]`` (any view of as
    many cells and rows): it reads its source as ``2**i`` groups of
    neighbouring pairs and writes each group's sums to the first half of
    its group of the destination, their differences to the second half.
    Returns the buffer the last stage wrote (``src`` if none ran)."""
    cells, rows = src.shape
    for i, dst in enumerate(dsts):
        groups, half = 1 << i, cells >> (i + 1)
        pairs = src.reshape(groups, half, 2, rows)
        halves = dst.reshape(groups, 2, half, rows)
        # ``dtype`` casts bool, uint8, float32, ... inputs on the first read.
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, 0], dtype=dtype)
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=halves[:, 1], dtype=dtype)
        src = dst
    return src


def _tiles(out, split):
    """The ``2**split`` tiles of ``out``: contiguous ``(N >> split, rows)``
    blocks that stages ``split .. m - 1`` never leave."""
    return out.reshape(1 << split, out.shape[0] >> split, out.shape[1])


def _head_chunks(src, out, split):
    """Pass 1's work: ``(input, target)`` pairs that cover the transform.

    Stages ``0 .. split - 1`` only mix groups of ``2**split`` neighbouring
    input cells, and after them the result of group g sits at offset g of
    every tile.  A chunk is a run of whole groups (of a few rows where one
    group of every row exceeds a tile), at most ``FWHT_TILE_BYTES`` of
    output or else one group of one row; its target is the strided view of
    the tiles that its last head stage writes."""
    cells, rows = out.shape
    width = cells >> split
    budget = FWHT_TILE_BYTES // out.itemsize
    group = rows << split
    if group <= budget:
        step, rstep = min(width, budget // group), rows
    else:
        step, rstep = 1, max(budget >> split, 1)
    tiles = _tiles(out, split)
    return [
        (src[g << split : (g + step) << split, r : r + rstep], tiles[:, g : g + step, r : r + rstep])
        for g in range(0, width, step)
        for r in range(0, rows, rstep)
    ]


def _scratch(chunks, out, split, threads):
    """Two scratch buffers for each thread, each as large as a chunk and,
    if stages run inside the tiles, as a tile."""
    size = chunks[0][0].size
    if out.shape[0] >> split > 1:
        size = max(size, out.size >> split)
    return np.empty((threads, 2, size), out.dtype)


def _head_pass(chunks, scratch, split, dtype):
    """Pass 1: stages ``0 .. split - 1`` of each chunk, ping-ponging in the
    two ``scratch`` buffers, the last one writing the chunk's target."""
    for part, target in chunks:
        bufs = [s[: part.size].reshape(part.shape) for s in scratch]
        _stages(part, [bufs[k % 2] for k in range(split - 1)] + [target], dtype)


def _tile_pass(tiles, spare, split, m, dtype):
    """Pass 2: stages ``split .. m - 1`` of each tile, ping-ponging between
    the tile and ``spare``; an odd count is copied back once.  At
    ``split = m`` a tile is one cell and no stage is left."""
    if split == m:
        return
    for tile in tiles:
        scratch = spare[: tile.size].reshape(tile.shape)
        if _stages(tile, [tile if k % 2 else scratch for k in range(m - split)], dtype) is scratch:
            np.copyto(tile, scratch)


def _shared_passes(worker, src, out, split, m, dtype):
    """Both passes of ``fwht`` shared between the calling thread and
    ``worker``: each takes half the chunks and they join, then half the
    tiles and they join again.  Chunks, and then tiles, are disjoint, and
    every add and subtract keeps its operands, so the bytes are those of
    one thread.  The calling thread allocates both threads' scratch (a
    worker's own allocations land in a separate heap arena)."""
    chunks = _head_chunks(src, out, split)
    mine, theirs = _scratch(chunks, out, split, 2)
    half = (len(chunks) + 1) // 2
    job = worker.submit(_head_pass, chunks[half:], theirs, split, dtype)
    _head_pass(chunks[:half], mine, split, dtype)
    job.result()
    tiles = _tiles(out, split)
    half = len(tiles) // 2
    job = worker.submit(_tile_pass, tiles[half:], theirs[0], split, m, dtype)
    _tile_pass(tiles[:half], mine[0], split, m, dtype)
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
