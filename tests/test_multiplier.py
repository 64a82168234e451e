import math

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
    StepFunction,
    UnitDiracSymbol,
    analysis,
    apply,
    compose_check,
    pnorm,
    random_explicit_symbol,
    resolvent_symbol,
    truncate,
    walsh_step,
)
from walsh_lab.dyadic import fwht, walsh_matrix
from walsh_lab.multiplier import apply_diag, kernel, kernel_matrix
from walsh_lab.verify import _family_zoo


def rand_step(rng, m):
    res = Resolution(m)
    return StepFunction(res, rng.standard_normal(res.dim) + 1j * rng.standard_normal(res.dim))


def _scaled_draw(rng, kind, shape, low):
    """Values with binary exponents from ``low`` to 500: subnormals for low
    below -1022, and no overflow in a product of two at m <= 10."""
    if kind == "i":
        return rng.integers(-(2**20), 2**20, shape)
    scale = np.exp2(rng.integers(low, 500, shape))
    x = rng.standard_normal(shape) * scale
    return x + 1j * rng.standard_normal(shape) * scale if kind == "c" else x


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 10),
    kinds=st.tuples(st.sampled_from("ifc"), st.sampled_from("ifc")),
    lead=st.sampled_from([(), (1,), (3,)]),
    layout=st.sampled_from(["C", "T"]),
    seed=st.integers(0, 2**32 - 1),
)
# One complex cell: numpy's in-place product of a lone element would round
# differently.
@example(m=0, kinds=("c", "c"), lead=(), layout="C", seed=1)
def test_scaling_in_place_keeps_the_allocating_bytes(m, kinds, lead, layout, seed):
    # ``apply_diag``, ``kernel`` and ``analysis`` scale the transform they
    # own in place; the bytes, dtype and layout are the allocating form's.
    rng = np.random.default_rng(seed)
    n = 1 << m
    values = _scaled_draw(rng, kinds[0], (*lead, n), -1060)
    if layout == "T":
        values = np.asfortranarray(values)
    diag = _scaled_draw(rng, kinds[1], n, -500)
    for got, want in [
        (apply_diag(diag, values), fwht(fwht(values) * diag) / n),
        (kernel(diag), fwht(diag) / n),
    ]:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        # The layout too, up to the strides of length-1 axes.
        assert [s for s, k in zip(got.strides, got.shape) if k > 1] == [
            s for s, k in zip(want.strides, want.shape) if k > 1]
    if not lead:
        f = StepFunction(Resolution(m), values)
        assert analysis(f).coeffs.tobytes() == (fwht(f.values) / n).tobytes()


def test_apply_matches_apply_diag_bit_for_bit():
    # ``apply`` runs ``apply_diag``'s two halves itself, to free the
    # diagonal before the second transform.
    rng = np.random.default_rng(11)
    for m in (0, 1, 5, 10):
        f = rand_step(rng, m)
        for sym in _family_zoo():
            want = apply_diag(sym.values(f.resolution.dim), f.values)
            assert apply(sym, f).values.tobytes() == want.tobytes()


def test_apply_frees_the_diagonal_before_its_second_transform(traced_peak):
    # The diagonal and the first transform, then that transform and the
    # second, each with tile-sized scratch: about 2.1 outputs.  Holding the
    # diagonal (or a second butterfly buffer) through the second transform
    # adds a whole output.
    f = rand_step(np.random.default_rng(12), 20)
    sym = ReciprocalSymbol()
    apply(sym, f)  # starts the transform worker, if any, outside the trace
    assert traced_peak(lambda: apply(sym, f)) <= 2.6 * f.values.nbytes


def test_constant_symbol_is_identity():
    rng = np.random.default_rng(0)
    f = rand_step(rng, 6)
    out = apply(ConstantSymbol(1.0), f)
    assert np.abs(out.values - f.values).max() < 1e-13


def test_unit_dirac_projects():
    res = Resolution(5)
    n0 = 7
    sym = UnitDiracSymbol(n0)
    w = walsh_step(n0, res)
    assert np.array_equal(apply(sym, w).values, w.values)
    other = walsh_step(12, res)
    assert np.abs(apply(sym, other).values).max() == 0.0


def test_reciprocal_scales_walsh_functions():
    res = Resolution(5)
    w4 = walsh_step(4, res)
    out = apply(ReciprocalSymbol(), w4)
    assert np.array_equal(out.values, w4.values / 5)


_ZOO = _family_zoo()


# The eigen-theorem ``T W_n = a_n W_n`` holds bit for bit in floating point,
# which ``spectral.point_spectrum`` and the witness gaps of
# ``spectral.membership`` return without re-checking.
@settings(max_examples=60, deadline=None)
@given(
    family=st.integers(0, len(_ZOO)),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 16),
    n=st.integers(0, 2**16 - 1),
    lam=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    on_value=st.booleans(),
)
@example(family=len(_ZOO), seed=16, m=16, n=40503, lam=0.5j, on_value=False)
def test_walsh_functions_are_exact_eigenvectors(family, seed, m, n, lam, on_value):
    res = Resolution(m)
    if family < len(_ZOO):
        sym = _ZOO[family]
    else:  # a random complex explicit symbol
        sym = random_explicit_symbol(np.random.default_rng(seed), res.dim)
    n %= res.dim
    a = sym.values(res.dim)
    w = walsh_step(n, res).values
    image = apply_diag(a, w)
    assert np.array_equal(image, a[n] * w)
    lam = a[n] if on_value else lam
    # The gap as ``membership`` scans it: the ``np.abs`` ufunc, which
    # can differ in the last bit from the scalar ``abs`` of a complex128.
    gap = np.abs(a - lam)[n]
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        assert pnorm(image - lam * w, p, 2.0**-m) == gap


def test_diagonality_exact():
    res = Resolution(10)
    sym = GeometricSymbol(0.7)
    for n in (0, 1, 17, 513, 1023):
        coeffs = analysis(apply(sym, walsh_step(n, res))).coeffs
        want = np.zeros(res.dim, dtype=complex)
        want[n] = sym.value(n)
        assert np.array_equal(coeffs, want)


def test_linearity():
    rng = np.random.default_rng(1)
    f, g = rand_step(rng, 7), rand_step(rng, 7)
    sym = ExplicitSymbol(rng.standard_normal(128) + 1j * rng.standard_normal(128), "zero")
    a, b = 1.5 - 0.3j, -2.0 + 0.1j
    combo = StepFunction(f.resolution, a * f.values + b * g.values)
    lhs = apply(sym, combo).values
    rhs = a * apply(sym, f).values + b * apply(sym, g).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_composition_is_pointwise_product():
    rng = np.random.default_rng(2)
    f = rand_step(rng, 6)
    sa = GeometricSymbol(0.8)
    sb = ExplicitSymbol(rng.standard_normal(64), "zero")
    prod = ExplicitSymbol(sa.values(64) * sb.values(64), "zero")
    lhs = apply(sa, apply(sb, f)).values
    rhs = apply(prod, f).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_dense_matrix_matches_matvec():
    rng = np.random.default_rng(3)
    res = Resolution(5)
    sym = ExplicitSymbol(rng.standard_normal(32) + 1j * rng.standard_normal(32), "zero")
    mat = MultiplierMatrix(sym, res)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.abs(mat.dense() @ v - apply_diag(mat.diag, v)).max() < 1e-11
    # adjoint realization carries the conjugate symbol
    lhs = np.vdot(v, apply_diag(mat.diag, v))
    rhs = np.vdot(apply_diag(np.conj(mat.diag), v), v)
    assert abs(lhs - rhs) < 1e-11


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_kernel_matrix_matches_walsh_matrix_reference(m, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << m
    diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    h = walsh_matrix(m).astype(np.float64)
    reference = h @ (diag[:, None] * h) / dim
    mat = kernel_matrix(diag)
    assert np.abs(mat - reference).max() <= 1e-13 * np.abs(diag).max()
    assert np.array_equal(mat, mat.T)


def test_dense_matrix_refuses_large_resolutions():
    mat = MultiplierMatrix(ReciprocalSymbol(), Resolution(13))
    with pytest.raises(ValueError, match="m <= 12"):
        mat.dense()


def test_truncated_matrix_rank():
    rng = np.random.default_rng(4)
    res = Resolution(6)
    prefix = rng.standard_normal(8)
    prefix[2] = 0.0
    sym = ExplicitSymbol(prefix, "zero")
    cut = 5
    dense = MultiplierMatrix(truncate(sym, cut), res).dense()
    svals = np.linalg.svd(dense, compute_uv=False)
    rank = int((svals > 1e-10).sum())
    assert rank == int((np.abs(prefix[: cut + 1]) > 0).sum())


def test_compose_check_constant():
    rng = np.random.default_rng(5)
    f = rand_step(rng, 6)
    assert compose_check(ConstantSymbol(0.0), 1.0, f) < 1e-12


def test_compose_check_reciprocal_and_alternating():
    rng = np.random.default_rng(6)
    f = rand_step(rng, 8)
    assert compose_check(ReciprocalSymbol(), 2.0, f) < 1e-10
    assert compose_check(AlternatingSymbol(), 3.0, f) < 1e-10


# One shift at a time, on 1-D operands, as the composition check was first
# written: the byte reference for ``compose_check``.
def _compose_check_reference(sym, lam, f, tolerance=1e-12):
    res = f.resolution
    b, _ = resolvent_symbol(sym, lam, tolerance)
    a_diag = sym.values(res.dim)
    b_diag = b.values(res.dim)
    w = 2.0**-res.m

    shifted = apply_diag(a_diag, f.values) - lam * f.values
    left = apply_diag(b_diag, shifted) - f.values

    inv = apply_diag(b_diag, f.values)
    right = apply_diag(a_diag, inv) - lam * inv - f.values

    return max(pnorm(left, 2.0, w), pnorm(right, 2.0, w))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["reciprocal", "alternating", "geometric", "explicit"]),
    m=st.integers(0, 10),
    lam=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="alternating", m=0, lam=0.5625 + 1j, seed=7)
def test_compose_check_matches_one_shift_reference(family, m, lam, seed):
    sym = {
        "reciprocal": ReciprocalSymbol(),
        "alternating": AlternatingSymbol(),
        "geometric": GeometricSymbol(0.6 + 0.3j),
        "explicit": ExplicitSymbol([2.0, -0.5j, 1 + 1j], "zero"),
    }[family]
    if sym.closure_distance(lam) <= 1e-12:
        return
    f = rand_step(np.random.default_rng(seed), m)
    assert compose_check(sym, lam, f) == _compose_check_reference(sym, lam, f)


def test_compose_check_propagates_gap_errors():
    rng = np.random.default_rng(7)
    f = rand_step(rng, 5)
    from walsh_lab import SpectralGapError

    with pytest.raises(SpectralGapError):
        compose_check(ReciprocalSymbol(), 0.25, f)
