"""Multiplier symbols as value objects with analytic tail information.

A symbol is the full infinite sequence ``a_0, a_1, ...`` scaling the Walsh
coefficients, not just a finite prefix: certifying a spectral gap or the
decay ``a_n -> 0`` needs the tail in closed form.  Each family therefore
defines:

* ``_range(start, stop)`` -- ``a_start ... a_{stop-1}`` as a fresh complex
  array, the one definition of the sequence: the base class derives
  ``value(n)`` and ``values(count)`` from it, and ``sup_norm()`` from
  ``tail_sup``;
* ``tail_sup(N)``   -- ``sup_{n > N} |a_n|`` exactly;
* ``_closure_distance(lam, start)`` -- distance from ``lam`` to the closure
  of ``{a_n : n >= start}``, exact or a certified lower bound;
* ``is_c0``         -- whether ``a_n -> 0``.

A family whose values are a product over the binary digits ``n_k`` of n,
``a_n = prod_k c_k(n_k)`` for every n < 2**m, also returns the m digit pairs
``(c_k(0), c_k(1))`` from ``factors(m)``; ``opnorm`` reads its norms from them.

Arbitrary user data enters as :class:`ExplicitSymbol` with a declared tail
(zero or a constant).  Symbols are immutable and safe to share.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Symbol",
    "ConstantSymbol",
    "UnitDiracSymbol",
    "ReciprocalSymbol",
    "AlternatingSymbol",
    "GeometricSymbol",
    "ExplicitSymbol",
    "TailSymbol",
    "ResolventSymbol",
    "SpectralGapError",
    "truncate",
    "tail",
    "conjugate",
    "resolvent_symbol",
    "symbol_to_json",
    "symbol_from_json",
]

# Enumeration depth for closure distances without a full closed form.
_ENUM_LIMIT = 1 << 16
# Chunked-scan cap for slowly decaying geometric spirals.
_GEOMETRIC_SCAN_CAP = 1 << 20


class SpectralGapError(ValueError):
    """A shift lies in (or numerically on) the closure of the symbol values."""


class Symbol:
    """Base class; families override the closed-form pieces."""

    family: str = "abstract"

    def _range(self, start: int, stop: int) -> np.ndarray:
        """``a_start ... a_{stop-1}`` as a fresh complex128 array (0 <= start <= stop)."""
        raise NotImplementedError

    def value(self, n: int) -> complex:
        return complex(self._range(n, n + 1)[0])

    def values(self, count: int) -> np.ndarray:
        """First ``count`` values as a complex array."""
        return self._range(0, count)

    def tail_sup(self, cutoff: int) -> float:
        """sup of |value(n)| over n > cutoff (cutoff >= -1)."""
        raise NotImplementedError

    @property
    def is_c0(self) -> bool:
        raise NotImplementedError

    def conjugate(self) -> "Symbol":
        raise NotImplementedError

    def closure_distance(self, lam: complex) -> float:
        """Distance from lam to the closure of {value(n) : n >= 0}."""
        return self._closure_distance(complex(lam), 0)

    def _closure_distance(self, lam: complex, start: int) -> float:
        """Distance from lam to the closure of {value(n) : n >= start}."""
        raise NotImplementedError

    def _accumulation_points(self) -> list[complex] | None:
        """Finite accumulation set of the values, or None if not finite."""
        raise NotImplementedError

    def sup_norm(self) -> float:
        """sup_n |value(n)| (finite for every admissible symbol)."""
        return self.tail_sup(-1)

    def factors(self, m: int) -> list[tuple[complex, complex]] | None:
        """The digit pairs ``(c_k(0), c_k(1))``, k < m, with
        ``a_n = prod_k c_k(n_k)`` for every n < 2**m, or None where the family
        has no such form (``a_0 = 1`` at m = 0, the empty product)."""
        return None


def _check_cutoff(cutoff: int) -> int:
    if cutoff < -1:
        raise ValueError(f"cutoff must be >= -1, got {cutoff}")
    return int(cutoff)


@dataclass(frozen=True)
class ConstantSymbol(Symbol):
    """a_n = c for every n."""

    c: complex = 1.0
    family = "constant"

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.c):
            raise ValueError(f"constant value must be finite, got {self.c}")

    def _range(self, start: int, stop: int) -> np.ndarray:
        return np.full(stop - start, complex(self.c), dtype=np.complex128)

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        return abs(self.c)

    @property
    def is_c0(self) -> bool:
        return self.c == 0

    def conjugate(self) -> "ConstantSymbol":
        return ConstantSymbol(complex(self.c).conjugate())

    def _closure_distance(self, lam: complex, start: int) -> float:
        return abs(lam - self.c)

    def factors(self, m: int) -> list[tuple[complex, complex]] | None:
        c = complex(self.c)
        if m == 0:
            return [] if c == 1 else None
        return [(c, c)] + [(1.0, 1.0)] * (m - 1)

    def _accumulation_points(self):
        return [complex(self.c)]


@dataclass(frozen=True)
class UnitDiracSymbol(Symbol):
    """a_n = 1 at one index, 0 elsewhere (rank-one coordinate projection)."""

    n0: int
    family = "unit_dirac"

    def __post_init__(self) -> None:
        if self.n0 < 0:
            raise ValueError(f"index must be nonnegative, got {self.n0}")

    def _range(self, start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.complex128)
        if start <= self.n0 < stop:
            out[self.n0 - start] = 1.0
        return out

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        return 1.0 if self.n0 > cutoff else 0.0

    @property
    def is_c0(self) -> bool:
        return True

    def conjugate(self) -> "UnitDiracSymbol":
        return self

    def _closure_distance(self, lam: complex, start: int) -> float:
        d = abs(lam)
        if self.n0 >= start:
            d = min(d, abs(lam - 1.0))
        return d

    def factors(self, m: int) -> list[tuple[complex, complex]] | None:
        if self.n0 >> m:
            # The zero symbol below 2**m.
            return [(0.0, 0.0)] + [(1.0, 1.0)] * (m - 1) if m else None
        return [(0.0, 1.0) if self.n0 >> k & 1 else (1.0, 0.0) for k in range(m)]

    def _accumulation_points(self):
        return [0.0 + 0.0j]


@dataclass(frozen=True)
class ReciprocalSymbol(Symbol):
    """a_n = 1 / (n + 1): strictly decreasing to 0."""

    family = "reciprocal"

    def _range(self, start: int, stop: int) -> np.ndarray:
        return (1.0 / (np.arange(start, stop, dtype=np.float64) + 1.0)).astype(np.complex128)

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        return 1.0 / (cutoff + 2)

    @property
    def is_c0(self) -> bool:
        return True

    def conjugate(self) -> "ReciprocalSymbol":
        return self

    def _closure_distance(self, lam: complex, start: int) -> float:
        # Closure is {0} together with the decreasing points 1/(n+1).
        best = abs(lam)
        x = lam.real
        if x > 1e-200:  # below that the 0 limit point decides to full precision
            # |lam - s| is unimodal in real s > 0, so only the values
            # bracketing x (clipped to n >= start) can realize the minimum.
            anchor = max(start, math.floor(1.0 / x) - 2)
            for n in range(anchor, anchor + 5):
                best = min(best, abs(lam - 1.0 / (n + 1)))
        return best

    def _accumulation_points(self):
        return [0.0 + 0.0j]


@dataclass(frozen=True)
class AlternatingSymbol(Symbol):
    """a_n = (-1)**n: bounded, not tending to zero."""

    family = "alternating"

    def _range(self, start: int, stop: int) -> np.ndarray:
        return (1.0 - 2.0 * (np.arange(start, stop) & 1)).astype(np.complex128)

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        return 1.0

    @property
    def is_c0(self) -> bool:
        return False

    def conjugate(self) -> "AlternatingSymbol":
        return self

    def _closure_distance(self, lam: complex, start: int) -> float:
        # Both parities occur beyond every start index.
        return min(abs(lam - 1.0), abs(lam + 1.0))

    def factors(self, m: int) -> list[tuple[complex, complex]]:
        return [(1.0, -1.0)] + [(1.0, 1.0)] * (m - 1) if m else []

    def _accumulation_points(self):
        return [1.0 + 0.0j, -1.0 + 0.0j]


def _unit_phase_fraction(r: complex) -> Fraction | None:
    """arg(r) / 2pi as a small-denominator fraction, or None if not (numerically) rational."""
    t = cmath.phase(r) / (2.0 * math.pi) % 1.0
    frac = Fraction(t).limit_denominator(_ENUM_LIMIT)
    if abs(t - float(frac)) <= 1e-13:
        return frac
    return None


@dataclass(frozen=True)
class GeometricSymbol(Symbol):
    """a_n = r**n with |r| < 1 (decaying) or |r| = 1 (rotating).

    On the unit circle a numerically rational phase (within 1e-13 of p/q,
    q <= 2**16) is treated as exactly periodic; any other phase has the whole
    circle as value closure.
    """

    r: complex
    family = "geometric"

    def __post_init__(self) -> None:
        if not abs(self.r) <= 1.0 + 1e-12:
            raise ValueError(f"geometric ratio must satisfy |r| <= 1, got |r| = {abs(self.r)}")

    @property
    def _on_circle(self) -> bool:
        return abs(abs(self.r) - 1.0) <= 1e-12

    def _range(self, start: int, stop: int) -> np.ndarray:
        return np.asarray(np.complex128(self.r) ** np.arange(start, stop), dtype=np.complex128)

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        if self._on_circle:
            return 1.0
        return abs(self.r) ** (cutoff + 1)

    def factors(self, m: int) -> list[tuple[complex, complex]]:
        # r**n = prod_k (r**(2**k))**n_k.  A real r keeps real powers: a
        # complex power of a negative real picks up a rounded imaginary part.
        r = complex(self.r)
        base = r.real if r.imag == 0 else r
        return [(1.0, base ** (1 << k)) for k in range(m)]

    @property
    def is_c0(self) -> bool:
        return not self._on_circle

    def conjugate(self) -> "GeometricSymbol":
        return GeometricSymbol(complex(self.r).conjugate())

    def _closure_distance(self, lam: complex, start: int) -> float:
        r = complex(self.r)
        if self._on_circle:
            if r == 1.0:
                return abs(lam - 1.0)
            frac = _unit_phase_fraction(r)
            if frac is None:
                # Irrational rotation: the orbit is dense in the circle.
                return abs(abs(lam) - 1.0)
            q = frac.denominator
            roots = np.exp(2j * math.pi * np.arange(q) / q)
            return float(np.abs(lam - roots).min())
        mag = abs(r)
        best = abs(lam)  # 0 is always in the closure
        if mag == 0.0:
            if start == 0:
                best = min(best, abs(lam - 1.0))
            return best
        floor = 1e-18 * max(1.0, abs(lam))
        n = start
        chunk = 4096
        while n < start + _GEOMETRIC_SCAN_CAP:
            hi = min(n + chunk, start + _GEOMETRIC_SCAN_CAP)
            pts = self._range(n, hi)
            best = min(best, float(np.abs(pts - lam).min()))
            rest = mag**hi
            if rest <= max(floor, abs(lam) - best):
                # No point beyond hi can beat the current minimum.
                return best
            n = hi
        # Scan cap reached (only possible for |r| extremely close to 1):
        # return a certified lower bound, never an overestimate.
        return min(best, max(abs(lam) - mag ** (start + _GEOMETRIC_SCAN_CAP), 0.0))

    def _accumulation_points(self):
        if not self._on_circle:
            return [0.0 + 0.0j]
        r = complex(self.r)
        if r == 1.0:
            return [1.0 + 0.0j]
        frac = _unit_phase_fraction(r)
        if frac is None:
            return None
        q = frac.denominator
        return [cmath.exp(2j * math.pi * k / q) for k in range(q)]


class ExplicitSymbol(Symbol):
    """Explicit prefix with a declared tail: zero or a constant value."""

    family = "explicit"

    def __init__(self, prefix, tail_kind: str = "zero", tail_value: complex = 0.0):
        if tail_kind not in ("zero", "constant"):
            raise ValueError(f"tail kind must be 'zero' or 'constant', got {tail_kind!r}")
        if tail_kind == "zero":
            tail_value = 0.0
        self.prefix = np.asarray(prefix, dtype=np.complex128).reshape(-1).copy()
        self.prefix.flags.writeable = False
        self.tail_kind = tail_kind
        self.tail_value = complex(tail_value)
        if not (np.isfinite(self.prefix).all() and cmath.isfinite(self.tail_value)):
            raise ValueError("explicit symbol values must be finite")

    def __repr__(self) -> str:
        return (
            f"ExplicitSymbol(len={self.prefix.size}, tail_kind={self.tail_kind!r},"
            f" tail_value={self.tail_value})"
        )

    def _range(self, start: int, stop: int) -> np.ndarray:
        out = np.full(stop - start, self.tail_value, dtype=np.complex128)
        head = self.prefix[start:stop]
        out[: head.size] = head
        return out

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        sup = abs(self.tail_value)
        rest = self.prefix[cutoff + 1 :]
        if rest.size:
            sup = max(sup, float(np.abs(rest).max()))
        return sup

    @property
    def is_c0(self) -> bool:
        return self.tail_value == 0

    def conjugate(self) -> "ExplicitSymbol":
        return ExplicitSymbol(np.conj(self.prefix), self.tail_kind, self.tail_value.conjugate())

    def _closure_distance(self, lam: complex, start: int) -> float:
        best = abs(lam - self.tail_value)
        rest = self.prefix[start:]
        if rest.size:
            best = min(best, float(np.abs(rest - lam).min()))
        return best

    def _accumulation_points(self):
        return [self.tail_value]


class TailSymbol(Symbol):
    """A symbol with indices through ``cutoff`` zeroed out, the base beyond."""

    family = "tail"

    def __init__(self, base: Symbol, cutoff: int):
        if cutoff < 0:
            raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
        self.base = base
        self.cutoff = int(cutoff)

    def __repr__(self) -> str:
        return f"TailSymbol({self.base!r}, cutoff={self.cutoff})"

    def _range(self, start: int, stop: int) -> np.ndarray:
        out = self.base._range(start, stop)
        out[: max(self.cutoff + 1 - start, 0)] = 0.0
        return out

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        return self.base.tail_sup(max(cutoff, self.cutoff))

    @property
    def is_c0(self) -> bool:
        return self.base.is_c0

    def conjugate(self) -> "TailSymbol":
        return TailSymbol(self.base.conjugate(), self.cutoff)

    def _closure_distance(self, lam: complex, start: int) -> float:
        d = self.base._closure_distance(lam, max(start, self.cutoff + 1))
        if start <= self.cutoff:
            d = min(d, abs(lam))
        return d

    def _accumulation_points(self):
        return self.base._accumulation_points()


class ResolventSymbol(Symbol):
    """b_n = 1 / (a_n - shift), defined when the shift clears the closure.

    The certified gap ``delta`` bounds the values: ``|b_n| <= 1/delta``.
    """

    family = "resolvent"

    def __init__(self, base: Symbol, shift: complex, delta: float):
        self.base = base
        self.shift = complex(shift)
        self.delta = float(delta)

    def __repr__(self) -> str:
        return f"ResolventSymbol({self.base!r}, shift={self.shift}, delta={self.delta})"

    def _range(self, start: int, stop: int) -> np.ndarray:
        return 1.0 / (self.base._range(start, stop) - self.shift)

    def tail_sup(self, cutoff: int) -> float:
        _check_cutoff(cutoff)
        return 1.0 / self.base._closure_distance(self.shift, cutoff + 1)

    @property
    def is_c0(self) -> bool:
        # |b_n| >= 1 / (sup|a_n| + |shift|) > 0, so the values never decay.
        return False

    def conjugate(self) -> "ResolventSymbol":
        return ResolventSymbol(self.base.conjugate(), self.shift.conjugate(), self.delta)

    def _closure_distance(self, lam: complex, start: int) -> float:
        # The value closure is the Moebius image of the base closure under
        # z -> 1/(z - s).  An irrational rotation fills the unit circle from
        # every start, and the image is the circle |w - c| = rho.
        base, s = self.base, self.shift
        acc = base._accumulation_points()
        if acc is None and isinstance(base, GeometricSymbol):
            k = 1.0 - abs(s) ** 2
            return abs(abs(lam - s.conjugate() / k) - 1.0 / abs(k))
        count = max(_ENUM_LIMIT, start + 1)
        best = float(np.abs(self._range(start, count) - lam).min())
        if acc is not None and not base.is_c0:
            # Beyond the scan the values are taken to sit on the mapped
            # accumulation points, as periodic values and constant tails do.
            return min(best, *(abs(1.0 / (alpha - s) - lam) for alpha in acc))
        # Beyond the scan, |1/(z - s) - lam| = |lam| |z - mu| / |z - s| with
        # mu = s + 1/lam, and |z - s| <= tail_sup + |s|: a certified lower bound.
        reach = base.tail_sup(count - 1) + abs(s)
        if lam == 0:
            return min(best, 1.0 / reach)
        return min(best, abs(lam) * base._closure_distance(s + 1.0 / lam, count) / reach)

    def _accumulation_points(self):
        acc = self.base._accumulation_points()
        if acc is None:
            return None
        return [1.0 / (alpha - self.shift) for alpha in acc]


def truncate(sym: Symbol, cutoff: int) -> ExplicitSymbol:
    """Keep indices 0..cutoff, zero beyond (finite-rank multiplier)."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    return ExplicitSymbol(sym.values(cutoff + 1), "zero")


def tail(sym: Symbol, cutoff: int) -> TailSymbol:
    """Zero indices 0..cutoff, keep the base beyond (truncation complement)."""
    return TailSymbol(sym, cutoff)


def conjugate(sym: Symbol) -> Symbol:
    """Pointwise complex conjugate of the symbol (the adjoint's symbol)."""
    return sym.conjugate()


def resolvent_symbol(
    sym: Symbol, lam: complex, tolerance: float = 1e-12
) -> tuple[ResolventSymbol, float]:
    """Symbol b_n = 1/(a_n - lam) together with the certified gap delta.

    Raises :class:`SpectralGapError` when the distance from lam to the value
    closure is at or below ``tolerance`` -- at that point lam belongs to (or
    is indistinguishable from) the spectrum and no bounded inverse exists.
    """
    lam = complex(lam)
    delta = sym.closure_distance(lam)
    if not delta > tolerance:
        raise SpectralGapError(
            f"shift {lam} lies within {tolerance:g} of the closure of the symbol values"
            f" (distance {delta:g}); no bounded inverse"
        )
    return ResolventSymbol(sym, lam, delta), delta


# ---------------------------------------------------------------------------
# JSON wire format (complex numbers as [re, im] pairs)

_JSON_FAMILIES = ("reciprocal", "alternating", "constant", "unit_dirac", "geometric", "explicit")


def _pack_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _unpack_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise ValueError(f"expected a number or [re, im] pair, got {obj!r}")


def symbol_to_json(sym: Symbol) -> dict:
    """Wire-format dict for the six primitive families."""
    if isinstance(sym, ConstantSymbol):
        return {"family": "constant", "c": _pack_complex(sym.c)}
    if isinstance(sym, UnitDiracSymbol):
        return {"family": "unit_dirac", "n0": sym.n0}
    if isinstance(sym, ReciprocalSymbol):
        return {"family": "reciprocal"}
    if isinstance(sym, AlternatingSymbol):
        return {"family": "alternating"}
    if isinstance(sym, GeometricSymbol):
        return {"family": "geometric", "r": _pack_complex(sym.r)}
    if isinstance(sym, ExplicitSymbol):
        out = {
            "family": "explicit",
            "prefix": [_pack_complex(z) for z in sym.prefix],
            "tail": {"kind": sym.tail_kind},
        }
        if sym.tail_kind == "constant":
            out["tail"]["c"] = _pack_complex(sym.tail_value)
        return out
    raise TypeError(f"{type(sym).__name__} is a derived symbol with no wire format")


def symbol_from_json(spec) -> Symbol:
    """Build a symbol from a wire-format dict or JSON string."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"symbol spec must be a JSON object, got {type(spec).__name__}")
    family = spec.get("family")
    if family == "constant":
        return ConstantSymbol(_unpack_complex(spec.get("c", 1.0)))
    if family == "unit_dirac":
        return UnitDiracSymbol(int(spec["n0"]))
    if family == "reciprocal":
        return ReciprocalSymbol()
    if family == "alternating":
        return AlternatingSymbol()
    if family == "geometric":
        return GeometricSymbol(_unpack_complex(spec["r"]))
    if family == "explicit":
        prefix = [_unpack_complex(z) for z in spec.get("prefix", [])]
        tail_spec = spec.get("tail", {"kind": "zero"})
        kind = tail_spec.get("kind", "zero")
        tail_value = _unpack_complex(tail_spec.get("c", 0.0)) if kind == "constant" else 0.0
        return ExplicitSymbol(prefix, kind, tail_value)
    raise ValueError(f"unknown symbol family {family!r} (expected one of {_JSON_FAMILIES})")
