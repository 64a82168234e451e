"""Spectra of Walsh multipliers: eigenvalues, gaps, certificates.

Every coefficient value is an eigenvalue with a Walsh eigenfunction.  At
p = 2 nothing else appears: the spectrum is the closure of the values and
the resolvent norm is the reciprocal distance to it.  For other exponents
the inclusion is certified in both directions: inverse symbols outside the
closure, quasi-eigenvectors on it.  The inverse symbol ``1/(a_n - lambda)``
needs no numerical check: multipliers compose by the pointwise product of
their symbols.
"""

import json

import numpy as np

from walsh_lab import (
    AlternatingSymbol,
    MultiplierMatrix,
    ReciprocalSymbol,
    Resolution,
    SpectralQuery,
    membership,
    point_spectrum,
    resolvent_norm_l2,
    spectral_report,
)

rec = ReciprocalSymbol()
res = Resolution(5)

print("Point spectrum of the 1/(n+1) multiplier at m=5 (first six):")
for n, value in enumerate(point_spectrum(rec, res)[:6]):
    print(f"  n={n}: eigenvalue {value.real:.6f}, eigenfunction W_{n}")

print("\nDense eigensolve agrees with the coefficient multiset:")
eig = np.sort_complex(np.linalg.eigvals(MultiplierMatrix(rec, res).dense()))
want = np.sort_complex(rec.values(32))
print(f"  max eigenvalue gap: {np.abs(eig - want).max():.2e}")

print("\nResolvent norms at p=2 equal the reciprocal gap to the values:")
for lam in (2.0, -0.5, 0.3 + 0.4j):
    d = rec.closure_distance(lam)
    print(f"  lambda={lam}: gap {d:.6f}, resolvent norm {resolvent_norm_l2(rec, lam):.6f}")

print("\nMembership certificates:")
cert = membership(rec, SpectralQuery(0.5, p=2.0, m=6))
print(f"  lambda=1/2: {cert.verdict}, witness indices {cert.witness_indices}")
cert = membership(rec, SpectralQuery(0.0, p=2.0, m=6))
print(f"  lambda=0:   {cert.verdict} (limit point; witness gaps "
      f"{[f'{g:.4f}' for g in cert.witness_gaps[:4]]} ...)")
cert = membership(AlternatingSymbol(), SpectralQuery(0.0, p=1.5, m=6))
print(f"  alternating at 0, p=1.5: {cert.verdict}, gap {cert.delta:g}, "
      f"inverse norm <= {cert.lp_upper:.6f} (kernel bound)")

print("\nFull JSON report for the reciprocal symbol at lambda=2:")
report = spectral_report(rec, SpectralQuery(2.0, p=2.0, m=4))
doc = report.to_json_dict()
doc["point_spectrum"]["head"] = doc["point_spectrum"]["head"][:3] + ["..."]
print(json.dumps(doc, indent=2))
