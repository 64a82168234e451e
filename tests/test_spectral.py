import cmath
import contextlib
import hashlib
import importlib
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from walsh_lab import (
    AlternatingSymbol,
    ConstantSymbol,
    ExplicitSymbol,
    GeometricSymbol,
    ReciprocalSymbol,
    Resolution,
    SpectralQuery,
    StepFunction,
    UnitDiracSymbol,
    apply_diag,
    compactness_report,
    compose_check,
    membership,
    opnorm,
    pnorm,
    point_spectrum,
    random_explicit_symbol,
    resolvent_norm_l2,
    resolvent_symbol,
    riesz_schauder_check,
    separation_distance,
    spectral_report,
    tail,
    walsh_step,
)
from walsh_lab.cli import main
from walsh_lab.dyadic import fwht
from walsh_lab.spectral import (
    _COUNT_BLOCK,
    _MAX_WITNESSES,
    _WITNESS_SCAN,
    IN_RESOLVENT,
    IN_SPECTRUM,
    MembershipCertificate,
)

_EPS = np.finfo(np.float64).eps
_MULTIPLIER = importlib.import_module("walsh_lab.multiplier")


def test_point_spectrum_constant():
    values = point_spectrum(ConstantSymbol(2.5j), Resolution(4))
    assert all(v == 2.5j for v in values)


def test_point_spectrum_reciprocal():
    values = point_spectrum(ReciprocalSymbol(), Resolution(3))
    assert values.tolist() == [1 / (n + 1) for n in range(8)]


def test_point_spectrum_is_the_symbol_values_at_m20():
    sym = ReciprocalSymbol()
    assert np.array_equal(point_spectrum(sym, Resolution(20)), sym.values(1 << 20))
    doc = spectral_report(sym, SpectralQuery(2.0, p=3.0, m=20)).to_json_dict()
    spectrum = doc["point_spectrum"]
    assert spectrum["count"] == 1 << 20
    assert spectrum["head"] == [[n, [1 / (n + 1), 0.0]] for n in range(8)]
    assert spectrum["sha256"] == hashlib.sha256(sym.values(1 << 20).tobytes()).hexdigest()
    assert len(json.dumps(doc)) < 2000


def test_spectral_report_json_bytes_are_pinned():
    doc = spectral_report(ReciprocalSymbol(), SpectralQuery(2.0, p=3.0, m=6)).to_json_dict()
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "19df1b94d23c09ee810f139812838583b047efc67fa5a548fe266530dd3655ae"


def test_spectral_layer_refuses_resolutions_above_the_transform_cap():
    with pytest.raises(ValueError, match="m <= 20"):
        SpectralQuery(2.0, m=21)
    with pytest.raises(ValueError, match="m <= 20"):
        riesz_schauder_check(ReciprocalSymbol(), Resolution(21), [0.1])
    SpectralQuery(2.0, m=20)


def test_resolvent_norm_values():
    assert resolvent_norm_l2(ConstantSymbol(0.0), 2.0) == 0.5
    assert resolvent_norm_l2(ReciprocalSymbol(), 2.0) == pytest.approx(1.0)
    assert resolvent_norm_l2(ReciprocalSymbol(), 0.0) == math.inf


def test_membership_alternating_spectrum_point():
    cert = membership(AlternatingSymbol(), SpectralQuery(1.0, p=2.0, m=6))
    assert cert.verdict == IN_SPECTRUM
    assert cert.witness_indices
    assert all(n % 2 == 0 for n in cert.witness_indices)
    assert cert.witness_gaps[-1] == 0.0


def test_membership_alternating_resolvent_point():
    cert = membership(AlternatingSymbol(), SpectralQuery(0.0, p=1.5, m=6))
    assert cert.verdict == IN_RESOLVENT
    assert cert.delta == pytest.approx(1.0)
    assert compose_check(AlternatingSymbol(), 0.0, _seeded_function(Resolution(6))) < 1e-10
    assert cert.lp_upper is not None and cert.lp_upper >= 1.0


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["explicit", "reciprocal", "geometric", "alternating"]),
    shift=st.sampled_from([2.0, -1.5, 0.25 + 0.5j, 0.0]),
    m=st.integers(0, 7),
    p=st.sampled_from([1.0, 1.5, 3.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_membership_lp_upper_is_an_upper_bound(family, shift, m, p, seed):
    # Real monotone symbols at real shifts have one-signed inverse kernels,
    # where ||k_b||_1 equals sup|b_n| and rounding decides the comparison.
    rng = np.random.default_rng(seed)
    sym = {
        "explicit": lambda: random_explicit_symbol(rng, 1 << m),
        "reciprocal": ReciprocalSymbol,
        "geometric": lambda: GeometricSymbol(0.9),
        "alternating": AlternatingSymbol,
    }[family]()
    cert = membership(sym, SpectralQuery(shift, p=p, m=m))
    if cert.verdict != IN_RESOLVENT:
        return
    b, _ = resolvent_symbol(sym, shift)
    res = Resolution(m)
    assert cert.lp_upper >= np.abs(b.values(res.dim)).max()
    assert cert.lp_upper >= opnorm(b, res, p, p, seed=seed % 1000).value


def test_membership_lp_upper_bounds_resolvent_norm():
    # Here the p = 3 norm of the inverse (at least 9.307) is far above
    # 1/delta = sup|b_n|, so a bound c / delta with a constant c measured on
    # other symbols (9.169) falls below it.
    rng = np.random.default_rng(11)
    for _ in range(3):
        sym = random_explicit_symbol(rng, 256)
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    cert = membership(sym, SpectralQuery(lam, p=3.0, m=8))
    b, _ = resolvent_symbol(sym, lam)
    assert cert.verdict == IN_RESOLVENT
    assert cert.lp_upper >= opnorm(b, Resolution(8), 3.0, 3.0).value


def test_membership_exact_eigenvalue():
    cert = membership(ReciprocalSymbol(), SpectralQuery(0.5, p=2.0, m=6))
    assert cert.verdict == IN_SPECTRUM
    assert 1 in cert.witness_indices
    assert min(cert.witness_gaps) == 0.0


def _largest_orbit_gap_midpoint(g: GeometricSymbol, count: int) -> complex:
    ang = np.sort(np.angle(g.values(count)))
    gaps = np.diff(np.append(ang, ang[0] + 2.0 * math.pi))
    i = int(gaps.argmax())
    return cmath.exp(1j * (ang[i] + gaps[i] / 2.0))


@pytest.mark.parametrize("case", ["reciprocal", "slow_geometric", "irrational_rotation"])
def test_resolvent_values_past_the_scan_are_in_the_spectrum(case):
    # Each shift is a value of b (or a point of its image circle) that the
    # first 2**16 values of b miss by 1e-6 .. 5e-5.
    if case == "reciprocal":
        b, _ = resolvent_symbol(ReciprocalSymbol(), 2.0)
        lam = b.value(100_000)
    elif case == "slow_geometric":
        b, _ = resolvent_symbol(GeometricSymbol(0.9999), 2.0)
        lam = b.value(100_000)
    else:
        g = GeometricSymbol(cmath.exp(2j * math.pi * (math.sqrt(2) - 1)))
        b, _ = resolvent_symbol(g, 0.3)
        lam = 1.0 / (_largest_orbit_gap_midpoint(g, 1 << 16) - 0.3)
    cert = membership(b, SpectralQuery(lam, p=2.0, m=8))
    assert cert.delta <= 1e-12
    assert cert.verdict == IN_SPECTRUM


_DENSE_BASES = [
    ReciprocalSymbol(),
    GeometricSymbol(0.7),
    GeometricSymbol(0.9999),
    GeometricSymbol(0.999 * cmath.exp(0.3j)),
    UnitDiracSymbol(5),
    ExplicitSymbol([3.0, 1j, -0.5], "zero"),
    ConstantSymbol(0.0),
    AlternatingSymbol(),
    tail(GeometricSymbol(0.9999), 10),
]


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(0, len(_DENSE_BASES) - 1),
    shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    n=st.integers(0, (1 << 18) - 1),
    offset=st.tuples(st.floats(-14.0, 0.5), st.floats(0.0, 2.0 * math.pi)),
)
def test_resolvent_closure_distance_never_exceeds_a_dense_enumeration(index, shift, n, offset):
    base = _DENSE_BASES[index]
    s = complex(*shift)
    assume(base.closure_distance(s) > 0.05)
    b, _ = resolvent_symbol(base, s)
    vals = b.values(1 << 18)
    lam = complex(vals[n]) + 10.0 ** offset[0] * cmath.exp(1j * offset[1])
    enum = float(np.abs(vals - lam).min())
    assert b.closure_distance(lam) <= enum + 1e-15 * max(1.0, enum)


def test_resolvent_of_an_irrational_rotation_is_its_image_circle():
    # The orbit fills the unit circle; 1/(z - s) maps it onto a circle, here
    # sampled densely (the computed orbit drifts off |z| = 1 by up to 1e-11).
    rng = np.random.default_rng(5)
    circle = np.exp(2j * math.pi * np.arange(1 << 20) / (1 << 20))
    g = GeometricSymbol(cmath.exp(1j))
    for s in (0.0, 0.3, -0.4 + 0.5j, 1.5 - 1.0j):
        b, _ = resolvent_symbol(g, s)
        image = 1.0 / (circle - s)
        for _ in range(5):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert b.closure_distance(lam) == pytest.approx(float(np.abs(image - lam).min()), abs=1e-9)


def test_compactness_reciprocal_decay_table():
    rep = compactness_report(ReciprocalSymbol(), 2.0, 2.0, Resolution(6), [1, 3, 7, 15, 31])
    want = [1 / 3, 1 / 5, 1 / 9, 1 / 17, 1 / 33]
    got = [row.estimate.value for row in rep.rows]
    assert np.allclose(got, want, atol=1e-12)
    assert rep.verdict == "compact" and rep.corroborated


def test_compactness_alternating_flat_table():
    rep = compactness_report(AlternatingSymbol(), 2.0, 2.0, Resolution(6), [1, 3, 7, 15, 31])
    assert all(row.estimate.value == pytest.approx(1.0, abs=1e-12) for row in rep.rows)
    assert rep.verdict == "not_compact" and rep.corroborated


def test_compactness_l4_l2_regime():
    rep = compactness_report(ReciprocalSymbol(), 4.0, 2.0, Resolution(6), [3, 7])
    assert rep.rows[0].estimate.value == pytest.approx(0.2, abs=1e-8)
    assert rep.rows[1].estimate.value == pytest.approx(1 / 9, abs=1e-8)


def test_compactness_verdicts_across_families():
    res = Resolution(6)
    for sym in (ReciprocalSymbol(), GeometricSymbol(0.5), UnitDiracSymbol(2), ConstantSymbol(0.0)):
        rep = compactness_report(sym, 2.0, 2.0, res, [1, 7])
        assert rep.verdict == "compact" and rep.corroborated
    for sym in (
        AlternatingSymbol(),
        ConstantSymbol(0.3 + 0.1j),
        GeometricSymbol(complex(math.cos(2.0), math.sin(2.0))),
    ):
        rep = compactness_report(sym, 2.0, 2.0, res, [1, 7])
        assert rep.verdict == "not_compact" and rep.corroborated


def test_compactness_rejects_bad_cutoffs():
    with pytest.raises(ValueError):
        compactness_report(ReciprocalSymbol(), 2.0, 2.0, Resolution(4), [3, 3])
    with pytest.raises(ValueError):
        compactness_report(ReciprocalSymbol(), 2.0, 2.0, Resolution(4), [1, 16])


def test_separation_matches_two_level_formula():
    res = Resolution(6)
    m, f = separation_distance(AlternatingSymbol(), 0, 1, 2.0, res)
    assert f == pytest.approx(math.sqrt(2))
    assert m == pytest.approx(f, abs=1e-12)
    m, f = separation_distance(ReciprocalSymbol(), 0, 1, 3.0, res)
    assert f == pytest.approx((0.5 * 0.5**3 + 0.5 * 1.5**3) ** (1 / 3))
    assert m == pytest.approx(f, abs=1e-12)


def test_separation_equal_moduli_reduce_to_distance_lemma():
    res = Resolution(5)
    for p in (1.0, 1.5, 2.0, 4.0):
        m, f = separation_distance(AlternatingSymbol(), 2, 9, p, res)
        assert f == pytest.approx(2.0 ** (1.0 - 1.0 / p))
        assert m == pytest.approx(f, abs=1e-12)


def test_separation_with_zero_coefficient():
    res = Resolution(4)
    m, f = separation_distance(UnitDiracSymbol(3), 3, 5, 2.0, res)
    # image is W_3 against 0: both sides must equal 1
    assert m == pytest.approx(1.0, abs=1e-12)
    assert f == pytest.approx(1.0, abs=1e-12)


def test_separation_complex_phases():
    res = Resolution(5)
    sym = GeometricSymbol(0.6 * np.exp(0.7j))
    for k, j, p in [(0, 1, 1.5), (2, 5, 3.0), (1, 4, 2.0)]:
        m, f = separation_distance(sym, k, j, p, res)
        assert m == pytest.approx(f, abs=1e-12)


def test_separation_validation():
    with pytest.raises(ValueError):
        separation_distance(ReciprocalSymbol(), 3, 3, 2.0, Resolution(4))
    with pytest.raises(ValueError):
        separation_distance(ReciprocalSymbol(), 0, 99, 2.0, Resolution(4))


def test_riesz_schauder_counts():
    rows = riesz_schauder_check(ReciprocalSymbol(), Resolution(6), [0.1])
    assert rows[0]["count"] == 10 and rows[0]["stabilized"]
    rows = riesz_schauder_check(GeometricSymbol(0.5), Resolution(6), [0.3])
    assert rows[0]["count"] == 2 and rows[0]["stabilized"]
    rows = riesz_schauder_check(ConstantSymbol(0.0), Resolution(6), [0.5, 0.01])
    assert all(r["count"] == 0 for r in rows)
    assert all(r["zero_in_closure"] for r in rows)


_C0_SYMBOLS = [
    ReciprocalSymbol(),
    GeometricSymbol(0.7),
    GeometricSymbol(0.999 * cmath.exp(0.3j)),
    UnitDiracSymbol(5),
    ExplicitSymbol([3.0, 1j, -0.5, 0.25], "zero"),
    ConstantSymbol(0.0),
    tail(GeometricSymbol(0.9999), 10),
]


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, len(_C0_SYMBOLS) - 1),
    m=st.integers(0, 12),
    block_log2=st.integers(0, 16),
    picks=st.lists(st.integers(0, (1 << 13) - 1), min_size=1, max_size=3),
    extra=st.lists(st.floats(1e-6, 4.0), max_size=2),
)
@example(index=0, m=12, block_log2=16, picks=[9], extra=[0.05])
def test_riesz_schauder_counts_match_the_whole_array(index, m, block_log2, picks, extra):
    # Counting block by block gives the counts of the whole value array at
    # m and m + 1, thresholds equal to values included.
    sym = _C0_SYMBOLS[index]
    res = Resolution(m)
    mags = np.abs(sym.values(2 * res.dim))
    eps = [float(mags[i % mags.size]) for i in picks] + extra
    eps = [e for e in eps if e > 0] or [0.5]
    module = importlib.import_module("walsh_lab.spectral")
    with mock.patch.object(module, "_COUNT_BLOCK", 1 << block_log2):
        rows = riesz_schauder_check(sym, res, eps)
    for row, e in zip(rows, eps):
        assert row["count"] == int((mags[: res.dim] >= e).sum())
        assert row["count_next"] == int((mags >= e).sum())


@pytest.mark.parametrize("sym", [ReciprocalSymbol(), GeometricSymbol(0.999)], ids=["reciprocal", "geometric"])
def test_riesz_schauder_holds_one_block_at_a_time(sym, traced_peak):
    # The whole 2**21 complex values and their moduli peaked at 50.3 MB;
    # one block of 2**16 is 1 MB, its moduli 0.5 MB (2.1-2.2 MB measured).
    peak = traced_peak(lambda: riesz_schauder_check(sym, Resolution(20), [0.5, 0.1, 0.05]))
    assert peak <= 4 * 16 * _COUNT_BLOCK


def test_riesz_schauder_rejects_non_decaying():
    with pytest.raises(ValueError):
        riesz_schauder_check(AlternatingSymbol(), Resolution(5), [0.1])


def test_spectral_report_serializes():
    rep = spectral_report(ReciprocalSymbol(), SpectralQuery(2.0, p=2.0, m=6))
    doc = rep.to_json_dict()
    assert doc["membership"]["verdict"] == IN_RESOLVENT
    assert doc["compactness"] == "compact"
    assert doc["accumulation_check"] == "pass"
    assert doc["resolvent_norm_l2"] == pytest.approx(1.0)
    json.dumps(doc)  # must be JSON-clean

    rep2 = spectral_report(AlternatingSymbol(), SpectralQuery(1.0, p=2.0, m=5))
    doc2 = rep2.to_json_dict()
    assert doc2["membership"]["verdict"] == IN_SPECTRUM
    assert doc2["compactness"] == "not_compact"
    assert doc2["accumulation_check"] == "n/a"
    assert doc2["resolvent_norm_l2"] is None  # infinite resolvent norm

    # Fewer than 8 indices: the head holds them all.
    small = spectral_report(AlternatingSymbol(), SpectralQuery(0.5, m=2)).to_json_dict()["point_spectrum"]
    assert small["count"] == 4
    assert small["head"] == [[0, [1.0, 0.0]], [1, [-1.0, 0.0]], [2, [1.0, 0.0]], [3, [-1.0, 0.0]]]


# Membership as it was first written, with the kernel bound it called
# inlined as it was and every witness gap re-measured: the byte reference
# for ``membership``.
def _kernel_l1_upper_reference(sym, res, p):
    value = opnorm(sym, res, 1.0, 1.0).value
    return value * (1.0 + (res.m + 4) * res.dim * _EPS)


def _membership_reference(sym, query):
    lam = complex(query.lam)
    res = Resolution(query.m)
    delta = sym.closure_distance(lam)

    if delta > query.tolerance:
        b, delta = resolvent_symbol(sym, lam, query.tolerance)
        lp_upper = None
        if query.p != 2.0:
            lp_upper = _kernel_l1_upper_reference(b, res, query.p)
        return MembershipCertificate(
            verdict=IN_RESOLVENT,
            lam=lam,
            p=query.p,
            delta=delta,
            resolvent=b,
            _bound=lambda: lp_upper,
        )

    gaps = np.abs(sym.values(_WITNESS_SCAN) - lam)
    running = np.minimum.accumulate(gaps)
    improving = np.flatnonzero(gaps <= running)
    strict = [int(improving[0])]
    for n in improving[1:]:
        if gaps[n] < gaps[strict[-1]]:
            strict.append(int(n))
    picks = strict[-_MAX_WITNESSES:]
    verified: list[float] = []
    for n in picks:
        if n < res.dim:
            residual_fn = apply_diag(sym.values(res.dim), walsh_step(n, res).values)
            residual_fn -= lam * walsh_step(n, res).values
            verified.append(pnorm(residual_fn, query.p, 2.0**-res.m))
        else:
            verified.append(float(gaps[n]))
    return MembershipCertificate(
        verdict=IN_SPECTRUM,
        lam=lam,
        p=query.p,
        delta=delta,
        witness_indices=picks,
        witness_gaps=verified,
    )


# Each family with shifts on its spectrum: values, accumulation points.
_GRID_FAMILIES = {
    "reciprocal": (ReciprocalSymbol, [0.0, 1.0, 0.5, 0.25]),
    "alternating": (AlternatingSymbol, [1.0, -1.0]),
    "geometric": (lambda: GeometricSymbol(0.6 + 0.3j), [0.0, 1.0, 0.6 + 0.3j]),
    "explicit": (lambda: ExplicitSymbol([2.0, -0.5j, 1 + 1j], "zero"), [0.0, 2.0, -0.5j]),
}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(_GRID_FAMILIES)),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    m=st.integers(0, 8),
    re=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    im=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
    hits=st.lists(st.integers(0, 3), max_size=3),
)
@example(family="alternating", p=1.5, m=0, re=[0.5625], im=[1.0], hits=[])
def test_membership_matches_one_shift_reference(family, p, m, re, im, hits):
    make, spectrum = _GRID_FAMILIES[family]
    sym = make()
    lams = [complex(x, y) for y in im for x in re] + [spectrum[k % len(spectrum)] for k in hits]
    queries = [SpectralQuery(lam, p=p, m=m) for lam in lams]
    got = [membership(sym, query) for query in queries]
    assert len(got) == len(queries)
    for cert, query in zip(got, queries):
        want = _membership_reference(sym, query)
        for name in ("verdict", "lam", "p", "delta", "lp_upper", "witness_indices", "witness_gaps"):
            assert getattr(cert, name) == getattr(want, name), name
        if want.resolvent is None:
            assert cert.resolvent is None
        else:
            assert (cert.resolvent.base, cert.resolvent.shift, cert.resolvent.delta) == (
                want.resolvent.base, want.resolvent.shift, want.resolvent.delta)


def test_membership_covers_both_branches_at_m8():
    sym = AlternatingSymbol()
    queries = [SpectralQuery(lam, p=3.0, m=8) for lam in (1.0, 0.5j, -1.0, 2.0)]
    got = [membership(sym, query) for query in queries]
    assert [c.verdict for c in got] == [IN_SPECTRUM, IN_RESOLVENT, IN_SPECTRUM, IN_RESOLVENT]
    for cert, query in zip(got, queries):
        want = _membership_reference(sym, query)
        assert (cert.delta, cert.lp_upper, cert.witness_gaps) == (
            want.delta, want.lp_upper, want.witness_gaps)


def _seeded_function(res, seed=7):
    rng = np.random.default_rng(seed)
    return StepFunction(res, rng.standard_normal(res.dim) + 1j * rng.standard_normal(res.dim))


# Multipliers compose by the pointwise product of their symbols, so
# ``b (a - lam) = 1`` is a theorem and ``membership`` does not re-check
# it.  This is the rounding check it used to run on every resolvent shift,
# at its threshold: the residual scales like 1/delta.
@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(_GRID_FAMILIES)),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    m=st.integers(0, 10),
    free=st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False), max_size=3),
    near=st.lists(
        st.tuples(st.integers(0, 1 << 10), st.floats(-11.0, -3.0), st.floats(0.0, 2 * math.pi)),
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="reciprocal", p=2.0, m=10, free=[2.0], near=[(1, -11.0, 0.0), (0, -11.0, math.pi)], seed=7)
def test_resolvent_certificates_pass_the_composition_check(family, p, m, free, near, seed):
    make, spectrum = _GRID_FAMILIES[family]
    sym = make()
    # Shifts 1e-11 to 1e-3 from a spectrum point or a coefficient value.
    centers = [*spectrum, *sym.values(1 << 10)]
    lams = [*free, *(centers[k % len(centers)] + 10.0**e * complex(math.cos(t), math.sin(t)) for k, e, t in near)]
    res = Resolution(m)
    f = _seeded_function(res, seed)
    certs = [membership(sym, SpectralQuery(lam, p=p, m=m)) for lam in lams]
    for cert in certs:
        if cert.verdict == IN_RESOLVENT:
            residual = compose_check(sym, cert.lam, f)
            assert residual <= 1e-6 * max(1.0, 1.0 / cert.delta), (cert.lam, cert.delta, residual)


def _no_transform(values, *args, **kwargs):
    raise AssertionError(f"ran a transform of shape {np.shape(values)}")


@contextlib.contextmanager
def _transforms(record_fwht):
    """``fwht`` raises in every walsh_lab module but ``multiplier``, the
    home of ``MultiplierMatrix.kernel_l1_upper``, where it is ``record_fwht``."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "walsh_lab"]
    with contextlib.ExitStack() as stack:
        for mod in modules:
            if hasattr(mod, "fwht"):
                stack.enter_context(mock.patch.object(mod, "fwht", _no_transform))
        stack.enter_context(mock.patch.object(_MULTIPLIER, "fwht", record_fwht))
        yield


def _grid(sym, p, m, steps=21):
    return [SpectralQuery(complex(re, im), p=p, m=m)
            for im in np.linspace(-1.0, 1.0, steps) for re in np.linspace(-2.0, 2.0, steps)]


def test_membership_batch_at_p2_runs_no_transform():
    sym = ReciprocalSymbol()
    queries = _grid(sym, 2.0, 10)
    want = [membership(sym, query) for query in queries]
    with _transforms(_no_transform):
        got = [membership(sym, query) for query in queries]
    assert [c.verdict for c in got] == [c.verdict for c in want]
    assert IN_RESOLVENT in {c.verdict for c in got} and IN_SPECTRUM in {c.verdict for c in got}
    assert all(c.lp_upper is None for c in got)


def test_spectrum_grid_runs_no_transform_at_p3(capsys):
    # The grid CSV prints verdicts and gaps, never ``lp_upper``.
    args = ["sweep", "spectrum-grid", "--symbol", "alternating", "--m", "8", "--p-in", "3",
            "--grid=-2,2,-1,1,9"]
    assert main(args) == 0
    want = capsys.readouterr().out
    with _transforms(_no_transform):
        assert main(args) == 0
    assert capsys.readouterr().out == want
    assert "in_resolvent" in want


def test_membership_bounds_one_certificate_with_one_transform():
    sym = AlternatingSymbol()
    queries = _grid(sym, 3.0, 8)
    want = [(c.verdict, c.lp_upper) for c in (membership(sym, query) for query in queries)]
    shapes = []

    def counting(values, *args, **kwargs):
        shapes.append(np.shape(values))
        return fwht(values, *args, **kwargs)

    with _transforms(counting):
        got = [membership(sym, query) for query in queries]
        assert [c.verdict for c in got] == [verdict for verdict, _ in want]
        assert shapes == []  # the bounds wait for their first read
        cert = next(c for c in got if c.verdict == IN_RESOLVENT)
        assert cert.lp_upper == cert.lp_upper  # the second read reuses the first
        assert shapes == [(256,)]
    assert [(c.verdict, c.lp_upper) for c in got] == want


def test_spectral_query_refuses_bad_exponents():
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="exponent"):
            SpectralQuery(2.0, p=p)
