import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walsh_lab import (
    AlternatingSymbol,
    ConstantSymbol,
    ExplicitSymbol,
    GeometricSymbol,
    ReciprocalSymbol,
    SpectralGapError,
    UnitDiracSymbol,
    conjugate,
    resolvent_symbol,
    symbol_from_json,
    symbol_to_json,
    tail,
    truncate,
)

ZOO = [
    ReciprocalSymbol(),
    AlternatingSymbol(),
    ConstantSymbol(0.75 - 0.5j),
    ConstantSymbol(0.0),
    UnitDiracSymbol(5),
    GeometricSymbol(0.7),
    GeometricSymbol(0.4 + 0.3j),
    ExplicitSymbol([1.0, -2.0, 0.5j, 0.25], "constant", 0.125),
    ExplicitSymbol([3.0, 1j], "zero"),
]
# Every family with its tail and resolvent derivatives; 3 + 2j clears every
# value closure of the zoo.
DERIVED = [
    *ZOO,
    GeometricSymbol(cmath.exp(2j * math.pi / 3)),
    GeometricSymbol(cmath.exp(1j)),
    *(tail(sym, 3) for sym in ZOO),
    *(resolvent_symbol(sym, 3.0 + 2.0j)[0] for sym in ZOO),
    resolvent_symbol(tail(GeometricSymbol(0.7), 3), -0.5j)[0],
]


def test_family_values():
    rec = ReciprocalSymbol()
    assert rec.value(4) == 0.2
    assert np.allclose(rec.values(4), [1.0, 0.5, 1 / 3, 0.25])
    alt = AlternatingSymbol()
    assert [alt.value(n) for n in range(4)] == [1, -1, 1, -1]
    geo = GeometricSymbol(0.5)
    assert np.array_equal(geo.values(4), [1.0, 0.5, 0.25, 0.125])
    dirac = UnitDiracSymbol(2)
    assert np.array_equal(dirac.values(4), [0, 0, 1, 0])
    exp = ExplicitSymbol([2.0], "constant", 0.5)
    assert exp.value(0) == 2.0 and exp.value(7) == 0.5


def test_values_match_scalar_value():
    for sym in DERIVED:
        vals = sym.values(64)
        for n in (0, 1, 7, 63):
            assert vals[n] == complex(sym.value(n))


@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(0, len(DERIVED) - 1),
    bounds=st.tuples(st.integers(0, 1 << 12), st.integers(0, 1 << 12)).map(sorted),
)
def test_range_is_the_one_definition(index, bounds):
    sym = DERIVED[index]
    start, stop = bounds
    vals = sym.values(stop)
    part = sym._range(start, stop)
    assert part.dtype == np.complex128 and part.tobytes() == vals[start:].tobytes()
    if stop:
        assert sym.value(stop - 1) == vals[stop - 1]


def test_tail_sup_examples():
    assert tail(ReciprocalSymbol(), 3).tail_sup(3) == pytest.approx(0.2)
    alt = AlternatingSymbol()
    for cutoff in (0, 5, 1000):
        assert tail(alt, cutoff).tail_sup(cutoff) == 1.0
    assert GeometricSymbol(0.5).tail_sup(2) == pytest.approx(0.125)
    assert UnitDiracSymbol(5).tail_sup(4) == 1.0
    assert UnitDiracSymbol(5).tail_sup(5) == 0.0


def test_tail_sup_nonincreasing_and_consistent_with_c0():
    for sym in ZOO:
        sups = [sym.tail_sup(n) for n in (0, 1, 2, 10, 100, 10**6)]
        assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))
        limit = sym.tail_sup(1 << 40)
        assert sym.is_c0 == (limit <= 1e-9)


def test_tail_sup_against_enumeration():
    big = 1 << 20
    for sym in ZOO:
        mags = np.abs(sym.values(big))
        for cutoff in (0, 3, 1000):
            brute = mags[cutoff + 1 :].max()
            analytic = sym.tail_sup(cutoff)
            assert brute <= analytic + 1e-12
            # sup realized inside the scan unless the far tail sustains it
            assert analytic <= max(brute, sym.tail_sup(big - 1)) + 1e-12


def test_closure_distance_closed_forms():
    rec = ReciprocalSymbol()
    assert rec.closure_distance(2.0) == pytest.approx(1.0, abs=1e-15)
    assert rec.closure_distance(0.0) == 0.0
    assert rec.closure_distance(0.5) == 0.0
    assert rec.closure_distance(-0.25) == pytest.approx(0.25, abs=1e-15)
    alt = AlternatingSymbol()
    assert alt.closure_distance(3.0) == pytest.approx(2.0)
    assert alt.closure_distance(1j) == pytest.approx(math.sqrt(2))
    assert ConstantSymbol(0.0).closure_distance(2.0) == 2.0
    assert UnitDiracSymbol(3).closure_distance(0.6 + 0.0j) == pytest.approx(0.4)


def test_closure_distance_against_enumeration():
    rng = np.random.default_rng(0)
    scan = 1 << 16
    for sym in ZOO:
        vals = sym.values(scan)
        spread = sym.tail_sup(scan - 1) if sym.is_c0 else 0.0
        for _ in range(10):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            enum = np.abs(vals - lam).min()
            closed = sym.closure_distance(lam)
            assert closed <= enum + 1e-12
            assert enum - closed <= spread + 1e-12


def test_closure_distance_roots_of_unity():
    g = GeometricSymbol(cmath.exp(2j * math.pi / 3))
    assert g.closure_distance(1.0) == pytest.approx(0.0, abs=1e-12)
    assert g.closure_distance(0.0) == pytest.approx(1.0)
    assert not g.is_c0
    assert g.tail_sup(100) == 1.0


def test_closure_distance_irrational_rotation_uses_circle():
    g = GeometricSymbol(cmath.exp(1j))  # 1/(2 pi) is irrational
    assert g.closure_distance(0.0) == pytest.approx(1.0)
    assert g.closure_distance(2.0) == pytest.approx(1.0)


def test_geometric_ratio_validation():
    with pytest.raises(ValueError):
        GeometricSymbol(1.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GeometricSymbol(math.nan),
        lambda: GeometricSymbol(complex(0.5, math.nan)),
        lambda: ConstantSymbol(math.inf),
        lambda: ConstantSymbol(complex(math.nan, 0.0)),
        lambda: ExplicitSymbol([1.0, math.nan]),
        lambda: ExplicitSymbol([1.0], "constant", math.inf),
    ],
    ids=["geometric-nan", "geometric-nan-imag", "constant-inf", "constant-nan", "explicit-prefix", "explicit-tail"],
)
def test_non_finite_parameters_are_refused(build):
    with pytest.raises(ValueError, match="finite|<= 1"):
        build()


def test_is_c0_flags():
    assert ReciprocalSymbol().is_c0
    assert GeometricSymbol(0.7).is_c0
    assert UnitDiracSymbol(9).is_c0
    assert ConstantSymbol(0.0).is_c0
    assert ExplicitSymbol([5.0], "zero").is_c0
    assert not AlternatingSymbol().is_c0
    assert not ConstantSymbol(1.0).is_c0
    assert not GeometricSymbol(-1.0).is_c0
    assert not ExplicitSymbol([0.0], "constant", 0.3).is_c0


def test_truncate_zeroes_beyond_cutoff():
    t = truncate(ReciprocalSymbol(), 3)
    assert t.value(3) == 0.25
    assert t.value(5) == 0.0
    assert t.tail_sup(3) == 0.0


def test_tail_plus_truncate_reassembles():
    sym = GeometricSymbol(0.6)
    cut = 5
    total = truncate(sym, cut).values(64) + tail(sym, cut).values(64)
    assert np.abs(total - sym.values(64)).max() < 1e-15


def test_conjugate_involution_and_real_fixed_points():
    for sym in ZOO:
        twice = conjugate(conjugate(sym))
        assert np.array_equal(twice.values(4096), sym.values(4096))
    rec = ReciprocalSymbol()
    assert conjugate(rec) is rec
    c = conjugate(ConstantSymbol(1 + 2j))
    assert c.value(0) == 1 - 2j


def test_resolvent_symbol_constant():
    b, delta = resolvent_symbol(ConstantSymbol(0.0), 2.0)
    assert delta == 2.0
    assert np.allclose(b.values(8), -0.5)
    assert b.sup_norm() <= 1.0 / delta + 1e-15


def test_resolvent_symbol_reciprocal():
    b, delta = resolvent_symbol(ReciprocalSymbol(), 2.0)
    assert delta == pytest.approx(1.0, abs=1e-15)
    assert b.value(0) == pytest.approx(-1.0)
    assert np.abs(b.values(4096)).max() <= 1.0 / delta + 1e-12


def test_resolvent_symbol_rejects_spectrum_points():
    with pytest.raises(SpectralGapError):
        resolvent_symbol(ReciprocalSymbol(), 0.0)
    with pytest.raises(SpectralGapError):
        resolvent_symbol(ReciprocalSymbol(), 0.5)
    with pytest.raises(SpectralGapError):
        resolvent_symbol(AlternatingSymbol(), 1.0 + 1e-14)


def test_resolvent_tail_sup_tracks_tail_gap():
    rec = ReciprocalSymbol()
    b, _ = resolvent_symbol(rec, 2.0)
    # beyond index 0 the nearest value to 2 is a_1 = 1/2, so the sup is 1/1.5
    assert b.tail_sup(0) == pytest.approx(1.0 / 1.5)


def test_sup_norm():
    assert ReciprocalSymbol().sup_norm() == 1.0
    assert AlternatingSymbol().sup_norm() == 1.0
    assert ExplicitSymbol([3.0, 1j], "zero").sup_norm() == 3.0
    assert ConstantSymbol(2j).sup_norm() == 2.0
    for sym in [*ZOO, *(tail(s, 3) for s in ZOO)]:
        assert sym.sup_norm() == max(abs(sym.value(0)), sym.tail_sup(0))
    for sym in ZOO:
        # A resolvent's sup is 1 / delta, which |b_0| can round away from by an ulp.
        b, delta = resolvent_symbol(sym, 3.0 + 2.0j)
        assert b.sup_norm() == 1.0 / delta
        assert b.sup_norm() == pytest.approx(max(abs(b.value(0)), b.tail_sup(0)), rel=1e-15)


def test_json_round_trip_all_families():
    for sym in ZOO:
        spec = symbol_to_json(sym)
        back = symbol_from_json(spec)
        assert np.array_equal(back.values(512), sym.values(512))
        assert back.family == sym.family


def test_json_complex_encoding():
    spec = symbol_to_json(ConstantSymbol(1 - 2j))
    assert spec == {"family": "constant", "c": [1.0, -2.0]}
    sym = symbol_from_json('{"family": "geometric", "r": [0.0, 1.0]}')
    assert sym.value(1) == 1j


def test_json_rejects_unknown_and_derived():
    with pytest.raises(ValueError):
        symbol_from_json({"family": "mystery"})
    with pytest.raises(TypeError):
        symbol_to_json(tail(ReciprocalSymbol(), 2))


def test_explicit_tail_validation():
    with pytest.raises(ValueError):
        ExplicitSymbol([1.0], "sometimes")
    sym = ExplicitSymbol([], "constant", 2.0)
    assert sym.value(0) == 2.0
    assert sym.sup_norm() == 2.0


_PRODUCT_FAMILIES = [
    ConstantSymbol(0.75 - 0.5j),
    ConstantSymbol(1.0),
    ConstantSymbol(0.0),
    AlternatingSymbol(),
    UnitDiracSymbol(0),
    UnitDiracSymbol(5),
    UnitDiracSymbol(300),
    GeometricSymbol(0.7),
    GeometricSymbol(-0.5),
    GeometricSymbol(0.4 + 0.3j),
    GeometricSymbol(0.999),
]


@pytest.mark.parametrize("sym", _PRODUCT_FAMILIES, ids=repr)
@pytest.mark.parametrize("m", [0, 1, 3, 9])
def test_factors_multiply_out_to_the_values(sym, m):
    # a_n = prod_k c_k(n_k) over the binary digits of n < 2**m; at m = 0 the
    # empty product is 1, so a family with a_0 != 1 has no factors there.
    pairs = sym.factors(m)
    if pairs is None:
        assert m == 0 and sym.value(0) != 1.0
        return
    assert len(pairs) == m
    diag = np.ones(1, dtype=np.complex128)
    for c0, c1 in pairs:
        diag = np.concatenate([diag * c0, diag * c1])
    values = sym.values(1 << m)
    # Relative to the sup: r**n of a negative real r carries rounded
    # imaginary parts of a complex power, and its tiny values far more.
    assert np.abs(diag - values).max() <= 1e-13 * np.abs(values).max()


def test_unit_dirac_above_the_resolution_is_the_zero_product():
    assert UnitDiracSymbol(8).factors(3) == [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]
    assert UnitDiracSymbol(5).factors(3) == [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]


@pytest.mark.parametrize("sym", [ReciprocalSymbol(), ExplicitSymbol([1.0, 0.5], "zero"),
                                 tail(AlternatingSymbol(), 2)], ids=repr)
def test_other_families_have_no_factors(sym):
    assert sym.factors(4) is None
