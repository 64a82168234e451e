"""Self-verification suites: each module's invariants as runnable checks.

Every check returns a name, a verdict and a one-line detail; the CLI prints
them as a table and fails on any false verdict.  ``tests/test_verify.py``
runs every suite, so unit tests do not restate these checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dyadic, multiplier, spectral
from .dyadic import Resolution, StepFunction, analysis, coeff_vector, fwht, walsh_step
from .metrics import hy_ratio, lp_norm, lq_norm, synthesis_ratio, walsh_distance
from .opnorm import DEFAULT_TOL, opnorm, opnorm_upper
from .symbols import (
    AlternatingSymbol,
    ConstantSymbol,
    ExplicitSymbol,
    GeometricSymbol,
    ReciprocalSymbol,
    UnitDiracSymbol,
    tail,
    truncate,
)

INF = math.inf


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _family_zoo():
    return [
        ReciprocalSymbol(),
        AlternatingSymbol(),
        ConstantSymbol(0.75 - 0.5j),
        UnitDiracSymbol(5),
        GeometricSymbol(0.7),
        GeometricSymbol(0.4 + 0.3j),
        ExplicitSymbol([1.0, -2.0, 0.5j, 0.25], "constant", 0.125),
    ]


def core_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    m = 10
    res = Resolution(m)
    dim = res.dim
    rows = np.vstack([walsh_step(n, res).values.real for n in range(dim)])
    coeffs = fwht(rows) / dim
    exact = np.abs(coeffs - np.eye(dim)).max() == 0.0
    out.append(CheckResult("orthonormality of Walsh rows (m=10, exact)", bool(exact)))

    h = rows.astype(np.int8)
    ok = True
    for n in range(dim):
        if not np.array_equal(h[n] * h, h[np.arange(dim) ^ n]):
            ok = False
            break
    out.append(CheckResult("XOR product rule", ok, "W_n * W_m = W_(n xor m), all pairs m=10"))

    f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    sf = StepFunction(res, f)
    gap = abs(lq_norm(analysis(sf), 2.0) - lp_norm(sf, 2.0))
    out.append(CheckResult("Parseval at p=2", gap < 1e-12, f"|gap| = {gap:.2e}"))

    v = rng.standard_normal(dim)
    gap = np.abs(fwht(fwht(v)) - dim * v).max()
    out.append(CheckResult("double transform = 2**m * id", gap < 1e-12, f"max err = {gap:.2e}"))

    res6 = Resolution(6)
    v6 = rng.standard_normal(res6.dim)
    naive = np.array(
        [sum(dyadic.walsh_value(n, i, res6) * v6[i] for i in range(res6.dim)) for n in range(res6.dim)]
    )
    gap = np.abs(fwht(v6) - naive).max()
    out.append(CheckResult("fwht equals naive double loop (m=6)", gap < 1e-12, f"max err = {gap:.2e}"))

    # Past one cache tile: the head pass, an odd in-tile stage count and,
    # with two usable CPUs, the shared path.  Every partial sum of +-1 +-1j
    # entries is an integer below 2**41, so float64 computes it exactly.
    n = 1 << 20
    x = (1.0 - 2.0 * rng.integers(0, 2, n)) + 1j * (1.0 - 2.0 * rng.integers(0, 2, n))
    exact = fwht(fwht(x)).tobytes() == (n * x).tobytes()
    out.append(CheckResult("double transform = 2**m * id past one tile (m=20, exact)", exact))
    return out


def metrics_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    res = Resolution(10)

    ps = [1.0, 1.5, 2.0, 3.0, 10.0, INF]
    worst = 0.0
    for _ in range(40):
        n, mi = rng.integers(0, res.dim, 2)
        if n == mi:
            continue
        for p in ps:
            expect = 2.0 if p == INF else 2.0 ** (1.0 - 1.0 / p)
            worst = max(worst, abs(walsh_distance(int(n), int(mi), p, res) - expect))
    out.append(
        CheckResult(
            "walsh distance lemma, p in {1,1.5,2,3,10,inf}", worst < 1e-12, f"max err = {worst:.2e}"
        )
    )

    f = StepFunction(res, rng.standard_normal(res.dim) + 1j * rng.standard_normal(res.dim))
    mono = all(
        lp_norm(f, p) <= lp_norm(f, q) + 1e-12
        for p, q in [(1.0, 1.5), (1.5, 2.0), (2.0, 3.0), (3.0, 10.0), (10.0, INF)]
    )
    out.append(CheckResult("L^p monotonicity on the probability space", mono))

    gap = abs(hy_ratio(f, 2.0) - 1.0)
    out.append(CheckResult("analysis ratio = 1 at p=2", gap < 1e-12, f"|gap| = {gap:.2e}"))

    lam = complex(rng.standard_normal() + 1j * rng.standard_normal()) * 3.7
    scaled = StepFunction(res, lam * f.values)
    gap = abs(hy_ratio(f, 1.5) - hy_ratio(scaled, 1.5))
    c = coeff_vector(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    c2 = coeff_vector(lam * c.coeffs)
    gap = max(gap, abs(synthesis_ratio(c, 1.25) - synthesis_ratio(c2, 1.25)))
    out.append(CheckResult("ratio homogeneity under scaling", gap < 1e-12, f"|gap| = {gap:.2e}"))
    return out


def multiplier_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    res = Resolution(10)
    dim = res.dim

    ok = True
    for sym in (ReciprocalSymbol(), AlternatingSymbol(), GeometricSymbol(0.7)):
        diag = sym.values(dim)
        for lo in range(0, dim, 256):
            rows = np.vstack([walsh_step(n, res).values for n in range(lo, lo + 256)])
            got = multiplier.apply_diag(diag, rows)
            if np.abs(got - diag[lo : lo + 256, None] * rows).max() != 0.0:
                ok = False
    out.append(CheckResult("diagonality: apply(W_n) = a_n W_n exactly (m=10)", ok))

    sym = ExplicitSymbol(rng.standard_normal(dim) + 1j * rng.standard_normal(dim), "zero")
    f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    a, b = 1.3 - 0.2j, -0.4 + 2.1j
    diag = sym.values(dim)
    lin = multiplier.apply_diag(diag, a * f + b * g) - (
        a * multiplier.apply_diag(diag, f) + b * multiplier.apply_diag(diag, g)
    )
    gap = np.abs(lin).max()
    out.append(CheckResult("linearity of apply", gap < 1e-12, f"max err = {gap:.2e}"))

    symb = GeometricSymbol(0.6)
    prod = ExplicitSymbol(sym.values(dim) * symb.values(dim), "zero")
    gap = np.abs(
        multiplier.apply_diag(sym.values(dim), multiplier.apply_diag(symb.values(dim), f))
        - multiplier.apply_diag(prod.values(dim), f)
    ).max()
    out.append(CheckResult("composition = pointwise product symbol", gap < 1e-12, f"max err = {gap:.2e}"))

    worst = 0.0
    big = 1 << 20
    for sym2 in _family_zoo():
        vals = np.abs(sym2.values(big))
        for cutoff in (0, 3, 17, 1000):
            brute = float(vals[cutoff + 1 :].max())
            analytic = sym2.tail_sup(cutoff)
            # brute never exceeds the analytic sup, and the analytic sup is
            # attained inside the scan unless the tail keeps contributing
            worst = max(worst, brute - analytic)
            if analytic - brute > 1e-12:
                resid = sym2.tail_sup(big - 1)
                worst = max(worst, analytic - max(brute, resid))
    out.append(CheckResult("tail_sup matches enumeration to 2**20", worst < 1e-12, f"max gap = {worst:.2e}"))

    worst = 0.0
    scan = 1 << 16
    for sym2 in _family_zoo():
        vals = sym2.values(scan)
        for _ in range(6):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            enum = float(np.abs(vals - lam).min())
            closed = sym2.closure_distance(lam)
            worst = max(worst, closed - enum)  # closed form can never exceed the enum min
            spread = sym2.tail_sup(scan - 1) if sym2.is_c0 else 0.0
            worst = max(worst, (enum - closed) - spread)
    out.append(
        CheckResult(
            "closure_distance consistent with 2**16 enumeration", worst < 1e-12, f"max gap = {worst:.2e}"
        )
    )

    res6 = Resolution(6)
    fq = StepFunction(res6, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    gq = StepFunction(res6, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    sym3 = ExplicitSymbol(rng.standard_normal(64) + 1j * rng.standard_normal(64), "zero")
    lhs = np.vdot(gq.values, multiplier.apply(sym3, fq).values) / 64
    rhs = np.vdot(multiplier.apply(sym3.conjugate(), gq).values, fq.values) / 64
    gap = abs(lhs - rhs)
    out.append(CheckResult("adjoint pairing identity", gap < 1e-12, f"|gap| = {gap:.2e}"))

    ok = True
    for sym2 in _family_zoo():
        twice = sym2.conjugate().conjugate()
        if np.abs(twice.values(4096) - sym2.values(4096)).max() != 0.0:
            ok = False
    out.append(CheckResult("conjugation is an involution", ok))

    f8 = StepFunction(Resolution(8), rng.standard_normal(256))
    rec = ReciprocalSymbol()
    both = multiplier.apply(truncate(rec, 10), f8).values + multiplier.apply(tail(rec, 10), f8).values
    gap = np.abs(both - multiplier.apply(rec, f8).values).max()
    out.append(CheckResult("truncation + tail = identity decomposition", gap < 1e-12, f"max err = {gap:.2e}"))

    worst = 0.0
    closed = cases = 0
    for sym2 in _family_zoo():
        for p_in, p_out in ((1.5, 3.0), (1.5, 1.5), (3.0, 3.0), (1.25, 1.75)):
            lower = opnorm(sym2, res6, p_in, p_out, seed=seed).value
            upper = opnorm_upper(sym2, res6, p_in, p_out).value
            worst = max(worst, lower / upper)
            closed += lower >= upper * (1.0 - DEFAULT_TOL)
            cases += 1
    out.append(
        CheckResult(
            "hypercontractive upper >= power-loop lower (m=6)",
            worst <= 1.0,
            f"max lower/upper = {worst:.16f}, {closed} of {cases} brackets closed",
        )
    )
    return out


def spectral_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    res5 = Resolution(5)
    ok = True
    for sym in (ReciprocalSymbol(), AlternatingSymbol(), GeometricSymbol(0.7)):
        diag = sym.values(res5.dim)
        eig = spectral.point_spectrum(sym, res5)
        for n in range(res5.dim):
            w = walsh_step(n, res5).values
            ok = ok and np.array_equal(multiplier.apply_diag(diag, w), eig[n] * w)
    out.append(CheckResult("point spectrum: apply(W_n) = a_n W_n for every n, exactly (m=5)", ok))

    rec = ReciprocalSymbol()
    worst = 0.0
    count = 0
    while count < 100:
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        delta = rec.closure_distance(lam)
        if delta <= 0.05:
            continue
        count += 1
        worst = max(worst, abs(spectral.resolvent_norm_l2(rec, lam) * delta - 1.0))
    out.append(CheckResult("resolvent norm * gap = 1 (100 shifts)", worst < 1e-12, f"max err = {worst:.2e}"))

    res8 = Resolution(8)
    worst = 0.0
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if rec.closure_distance(lam) <= 0.05:
            continue
        f = StepFunction(res8, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        worst = max(worst, multiplier.compose_check(rec, lam, f))
    out.append(CheckResult("two-sided inverse residual < 1e-10", worst < 1e-10, f"max resid = {worst:.2e}"))

    res6 = Resolution(6)
    # Its own generator, so the draws of the rows below stay as they are.
    seeded = np.random.default_rng(7)
    f = StepFunction(res6, seeded.standard_normal(res6.dim) + 1j * seeded.standard_normal(res6.dim))
    ok = True
    for _ in range(40):
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        q = spectral.SpectralQuery(lam, p=2.0, m=6)
        cert = spectral.membership(rec, q)
        in_closure = rec.closure_distance(lam) <= q.tolerance
        want = spectral.IN_SPECTRUM if in_closure else spectral.IN_RESOLVENT
        ok = ok and cert.verdict == want
        if cert.verdict == spectral.IN_RESOLVENT:
            ok = ok and multiplier.compose_check(rec, lam, f, q.tolerance) < 1e-10
    out.append(CheckResult("membership dichotomy with passing certificates", ok))

    compact = [ReciprocalSymbol(), GeometricSymbol(0.5), UnitDiracSymbol(3), ConstantSymbol(0.0)]
    loud = [AlternatingSymbol(), ConstantSymbol(2.0), GeometricSymbol(complex(math.cos(1.0), math.sin(1.0)))]
    ok = all(s.is_c0 for s in compact) and not any(s.is_c0 for s in loud)
    for s in compact + loud:
        rep = spectral.compactness_report(s, 2.0, 2.0, res6, [1, 3, 7, 15])
        want = "compact" if s.is_c0 else "not_compact"
        ok = ok and rep.verdict == want and rep.corroborated
    out.append(CheckResult("compactness dichotomy across the families", ok))

    worst = 0.0
    for _ in range(30):
        k, j = rng.integers(0, res6.dim, 2)
        if k == j:
            continue
        p = float(rng.uniform(1.0, 8.0))
        for s in (AlternatingSymbol(), ReciprocalSymbol()):
            measured, formula = spectral.separation_distance(s, int(k), int(j), p, res6)
            worst = max(worst, abs(measured - formula))
    out.append(CheckResult("separation identity measured = formula", worst < 1e-12, f"max err = {worst:.2e}"))
    return out


SUITES = {
    "core": core_checks,
    "metrics": metrics_checks,
    "multiplier": multiplier_checks,
    "spectral": spectral_checks,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        return [result for suite in SUITES.values() for result in suite(seed)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](seed)
