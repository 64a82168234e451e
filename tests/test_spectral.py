import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walsh_lab import (
    AlternatingSymbol,
    ConstantSymbol,
    GeometricSymbol,
    ReciprocalSymbol,
    Resolution,
    SpectralQuery,
    UnitDiracSymbol,
    compactness_report,
    membership,
    opnorm,
    point_spectrum,
    random_explicit_symbol,
    resolvent_norm_l2,
    resolvent_symbol,
    riesz_schauder_check,
    separation_distance,
    spectral_report,
)
from walsh_lab.spectral import IN_RESOLVENT, IN_SPECTRUM


def test_point_spectrum_constant():
    pairs = point_spectrum(ConstantSymbol(2.5j), Resolution(4))
    assert all(v == 2.5j for _, v in pairs)


def test_point_spectrum_reciprocal():
    pairs = point_spectrum(ReciprocalSymbol(), Resolution(3))
    assert [v for _, v in pairs] == [1 / (n + 1) for n in range(8)]


def test_point_spectrum_refuses_large_resolutions():
    with pytest.raises(ValueError, match="m <= 12"):
        point_spectrum(ReciprocalSymbol(), Resolution(13))


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
    assert cert.compose_residual < 1e-10
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
    import json

    json.dumps(doc)  # must be JSON-clean

    rep2 = spectral_report(AlternatingSymbol(), SpectralQuery(1.0, p=2.0, m=5))
    doc2 = rep2.to_json_dict()
    assert doc2["membership"]["verdict"] == IN_SPECTRUM
    assert doc2["compactness"] == "not_compact"
    assert doc2["accumulation_check"] == "n/a"
    assert doc2["resolvent_norm_l2"] is None  # infinite resolvent norm
