"""Operator norms and measured constants.

Exact norms where the structure allows (p_in >= 2 >= p_out, where the norm
is sup|a_n|, and an L^1 domain or L^inf range, where it is an L^r norm of the
dyadic convolution kernel K = fwht(a)), ascent lower bounds elsewhere, a
certified upper bound (hypercontractive, or ||k||_1 with k = K / 2**m when
p_out <= p_in), products of two-point norms for the product symbols,
adjoint symmetry, and the exact analysis/synthesis constants with their
witnesses.  The analysis constant is 1: |f_hat(n)| <=
||f||_1 and Parseval give 1 at p = 1 and p = 2, Riesz-Thorin at most 1 in
between, and W_0 attains it.  The synthesis constant is N**(1/p - 1/2),
N = 2**m: ||g||_p <= ||g||_2 = ||c||_2 <= N**(1/p - 1/2) ||c||_p' (monotonicity,
Parseval, Hoelder), and c_n = i**|n| (|n| the popcount) makes every step an
equality.
"""

import numpy as np

from walsh_lab import (
    AlternatingSymbol,
    GeometricSymbol,
    ReciprocalSymbol,
    Resolution,
    constant_probe,
    multiplier_bound_check,
    opnorm,
    random_explicit_symbol,
)

res = Resolution(6)
rng = np.random.default_rng(0)

print("Exact paths for the 1/(n+1) multiplier at m=6:")
for p, q in ((1.0, 1.0), (2.0, 2.0), (np.inf, np.inf), (1.0, 3.0), (1.5, np.inf)):
    est = opnorm(ReciprocalSymbol(), res, p, q)
    print(f"  {p} -> {q}: {est.value:.9f}  [{est.kind}]")

print("\nAscent lower bounds vs the certified upper bound (random symbol):")
sym = random_explicit_symbol(rng, 64)
sup = np.abs(sym.values(64)).max()
for p in (1.5, 3.0):
    est = opnorm(sym, res, p, p)
    print(f"  p={p}: sup|a|={sup:.6f}  lower={est.value:.9f} ({est.iterations} iters)"
          f"  upper={est.upper:.9f}")

print("\nAdjoint symmetry: conjugate symbol at the dual exponent, same norm:")
report = multiplier_bound_check(sym, res, 1.5, seed=1)
print(f"  ||T||_1.5 = {report.estimate.value:.12f}")
print(f"  ||T*||_3  = {report.dual_estimate.value:.12f}")
print(f"  gap {report.duality_gap:.2e}, ratio to sup {report.ratio:.6f}")

print("\nAnalysis constant (exactly 1, attained by W_0):")
for p in (1.25, 1.5, 2.0):
    probe = constant_probe("hy", p, res)
    print(f"  p={p}: {probe.best_ratio:.9f} [{probe.kind}], witness re-rates to {probe.recompute():.9f}")

print("\nSynthesis constant N**(1/p - 1/2), attained by c_n = i**|n| (p=1.25):")
for m in (4, 6, 8, 20):
    probe = constant_probe("synthesis", 1.25, Resolution(m))
    print(f"  m={m}: {probe.best_ratio:.9f} [{probe.kind}], witness re-rates to {probe.recompute():.9f}")

print("\nThe alternating multiplier is an isometry on every L^p:")
for p in (1.0, 1.5, 2.0, 4.0, np.inf):
    est = opnorm(AlternatingSymbol(), res, p, p)
    print(f"  p={p}: {est.value:.9f}  [{est.kind}]")

print("\nProduct symbols at p <= q: the product of m two-point norms, no power loop:")
for m in (13, 20):
    est = opnorm(AlternatingSymbol(), Resolution(m), 1.5, 3.0)
    print(f"  (-1)**n, m={m}: [{est.value:.9f}, {est.upper:.9f}]  [{est.kind}, {est.iterations} iters],"
          f" norm N**(1/3) = {2 ** (m / 3):.9f}")
for m in (8, 20):
    est = opnorm(GeometricSymbol(0.9), Resolution(m), 1.5, 3.0)
    print(f"  0.9**n, m={m}: [{est.value:.12f}, {est.upper:.9f}]  [{est.kind}, {est.iterations} iters]")
