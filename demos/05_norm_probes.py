"""Operator norms and measured constants.

Exact norms where the structure allows (p_in >= 2 >= p_out, where the norm
is sup|a_n|, and an L^1 domain or L^inf range, where it is an L^r norm of the
dyadic convolution kernel K = fwht(a)), ascent lower bounds elsewhere, a
certified upper bound (hypercontractive, or ||k||_1 with k = K / 2**m when
p_out <= p_in), adjoint symmetry, and empirical probes of the
analysis/synthesis constants.  The analysis ratio never exceeds 1; the
synthesis ratio grows with resolution, and the probe reports that growth
without asserting any ceiling.
"""

import numpy as np

from walsh_lab import (
    AlternatingSymbol,
    ReciprocalSymbol,
    Resolution,
    constant_probe,
    multiplier_bound_check,
    opnorm,
    opnorm_upper,
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
    lo = opnorm(sym, res, p, p)
    hi = opnorm_upper(sym, res, p, p)
    print(f"  p={p}: sup|a|={sup:.6f}  lower={lo.value:.9f} ({lo.iterations} iters)"
          f"  upper={hi.value:.9f}")

print("\nAdjoint symmetry: conjugate symbol at the dual exponent, same norm:")
report = multiplier_bound_check(sym, res, 1.5, seed=1)
print(f"  ||T||_1.5 = {report.estimate.value:.12f}")
print(f"  ||T*||_3  = {report.dual_estimate.value:.12f}")
print(f"  gap {report.duality_gap:.2e}, ratio to sup {report.ratio:.6f}")

print("\nAnalysis-constant probe (ratio stays at or below 1):")
for p in (1.25, 1.5, 2.0):
    probe = constant_probe("hy", p, res, trials=4000, seed=2)
    print(f"  p={p}: best ratio {probe.best_ratio:.9f} over {probe.trials} trials")

print("\nSynthesis-constant probe: growth across resolutions (p=1.25):")
for m in (4, 6, 8):
    probe = constant_probe("synthesis", 1.25, Resolution(m), trials=4000, seed=2)
    print(f"  m={m}: best ratio {probe.best_ratio:.6f}")
print("  (reported as measured growth; no bound is claimed)")

print("\nThe alternating multiplier is an isometry on every L^p:")
for p in (1.0, 1.5, 2.0, 4.0, np.inf):
    est = opnorm(AlternatingSymbol(), res, p, p)
    print(f"  p={p}: {est.value:.9f}  [{est.kind}]")
