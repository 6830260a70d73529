"""Exact arithmetic for values of the form q0 + sum_i q_i*sqrt(p_i).

The p_i are distinct primes and the q's are rationals.  Over distinct primes
the coordinates {1, sqrt(p1), sqrt(p2), ...} are linearly independent over Q,
so the representation is canonical: a value whose coefficient vector is
nonzero is numerically nonzero.  That makes the sign decidable — first check
for the formal zero, then refine certified rational brackets of each sqrt(p)
until zero is excluded.

Only rational-by-surd products are supported; the library never needs
sqrt(p)*sqrt(q).
"""

from __future__ import annotations

import math

from fractions import Fraction
from functools import total_ordering
from math import isqrt
from types import MappingProxyType


def rat(value) -> Fraction:
    """Coerce an int, string ("p/q" or "p"), or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rat(q: Fraction) -> str:
    """Lowest-terms string, integers without the /1 suffix."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class InputTooLarge(ValueError):
    """An input that would start more work than a cap of the library
    allows; raised before the work starts."""


# trial division decides primality up to here in a few milliseconds
PRIME_CAP = 2 ** 32


def is_prime(n: int) -> bool:
    """Trial division; InputTooLarge above PRIME_CAP."""
    if n > PRIME_CAP:
        raise InputTooLarge(f"{n} is above {PRIME_CAP}, the largest number "
                            "whose primality is decided")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_from(start: int = 2):
    """Endless ascending prime generator (trial division; inputs stay small)."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


_SQRT_CACHE: dict = {}


def sqrt_brackets(n: int, scale: int) -> tuple[Fraction, Fraction]:
    """Certified lo <= sqrt(n) < hi with hi - lo = 2**-scale, via isqrt."""
    key = (n, scale)
    hit = _SQRT_CACHE.get(key)
    if hit is None:
        root = isqrt(n << (2 * scale))
        hit = (Fraction(root, 1 << scale), Fraction(root + 1, 1 << scale))
        _SQRT_CACHE[key] = hit
    return hit


@total_ordering
class SurdValue:
    """Immutable exact value rational_part + sum surd_coeffs[p]*sqrt(p).

    ``surd_coeffs`` is a read-only view: the hash and the float enclosure
    are cached, so the coefficients must never change under them.
    """

    __slots__ = ("rational_part", "surd_coeffs", "_hash", "_approx")

    def __init__(self, rational_part=0, surd_coeffs=None):
        self.rational_part = rat(rational_part)
        coeffs = {}
        if surd_coeffs:
            for p, c in surd_coeffs.items():
                p = int(p)
                c = rat(c)
                if c == 0:
                    continue
                if not is_prime(p):
                    raise ValueError(f"surd index {p} is not prime")
                coeffs[p] = c
        self.surd_coeffs = MappingProxyType(coeffs)
        self._hash = None
        self._approx = None

    # -- construction helpers -------------------------------------------

    @classmethod
    def _raw(cls, rational_part: Fraction, coeffs: dict) -> "SurdValue":
        """Trusted constructor for arithmetic: the caller guarantees Fraction
        parts, prime keys, and no zero coefficients, and hands over a dict
        that nothing else writes to."""
        v = cls.__new__(cls)
        v.rational_part = rational_part
        v.surd_coeffs = MappingProxyType(coeffs)
        v._hash = None
        v._approx = None
        return v

    @classmethod
    def of(cls, value) -> "SurdValue":
        if isinstance(value, SurdValue):
            return value
        return cls(rat(value))

    @classmethod
    def sqrt(cls, p: int) -> "SurdValue":
        return cls(0, {p: 1})

    # -- structure -------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.surd_coeffs

    def is_zero(self) -> bool:
        return self.rational_part == 0 and not self.surd_coeffs

    def primes(self) -> frozenset:
        return frozenset(self.surd_coeffs)

    def coefficient(self, p: int) -> Fraction:
        return self.surd_coeffs.get(p, Fraction(0))

    def as_rational(self) -> Fraction:
        if self.surd_coeffs:
            raise ValueError(f"{self} is irrational")
        return self.rational_part

    # -- arithmetic (rational x surd only) --------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        coeffs = self.surd_coeffs.copy()
        for p, c in other.surd_coeffs.items():
            s = coeffs.get(p)
            if s is None:
                coeffs[p] = c
            else:
                s = s + c
                if s:
                    coeffs[p] = s
                else:
                    del coeffs[p]
        return SurdValue._raw(self.rational_part + other.rational_part, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return SurdValue._raw(-self.rational_part,
                              {p: -c for p, c in self.surd_coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        coeffs = self.surd_coeffs.copy()
        for p, c in other.surd_coeffs.items():
            s = coeffs.get(p)
            if s is None:
                coeffs[p] = -c
            else:
                s = s - c
                if s:
                    coeffs[p] = s
                else:
                    del coeffs[p]
        return SurdValue._raw(self.rational_part - other.rational_part, coeffs)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, SurdValue):
            if other.is_rational():
                other = other.rational_part
            elif self.is_rational():
                self, other = other, self.rational_part
            else:
                raise TypeError("product of two irrational values is not "
                                "representable in this algebra")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = rat(other)
        if q == 0:
            return SurdValue._raw(q, {})
        return SurdValue._raw(self.rational_part * q,
                              {p: c * q for p, c in self.surd_coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SurdValue):
            other = other.as_rational()
        q = rat(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return self * (1 / q)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- decidable sign and order ----------------------------------------

    def brackets(self, scale: int) -> tuple[Fraction, Fraction]:
        """Certified rational lo <= value <= hi at sqrt precision 2**-scale."""
        lo = hi = self.rational_part
        for p, c in self.surd_coeffs.items():
            slo, shi = sqrt_brackets(p, scale)
            if c >= 0:
                lo += c * slo
                hi += c * shi
            else:
                lo += c * shi
                hi += c * slo
        return lo, hi

    def _float_interval(self) -> tuple[float, float]:
        """(midpoint, rigorous error radius) in double precision.

        Every float step (Fraction conversion, correctly rounded sqrt,
        multiply, running sum) loses at most one ulp of the running
        magnitude, so 3 ops per surd term plus the rational part stay below
        (3k+3) ulps of the magnitude sum; the radius uses double that.
        A value the doubles cannot hold gives (0.0, inf), which decides
        nothing.
        """
        cached = self._approx
        if cached is None:
            try:
                mid = float(self.rational_part)
                mag = abs(mid)
                for p, c in self.surd_coeffs.items():
                    term = float(c) * math.sqrt(p)
                    mid += term
                    mag += abs(term)
            except OverflowError:
                # a rational beyond the double range: nothing is decided
                # here, the caller falls back to exact brackets
                mid = mag = math.inf
            err = (3 * len(self.surd_coeffs) + 3) * 4.5e-16 * (mag + 1.0)
            cached = (mid, err) if math.isfinite(mid) and math.isfinite(err) \
                else (0.0, math.inf)
            self._approx = cached
        return cached

    def sign(self) -> int:
        if not self.surd_coeffs:
            q = self.rational_part
            return (q > 0) - (q < 0)
        mid, err = self._float_interval()
        if mid - err > 0.0:
            return 1
        if mid + err < 0.0:
            return -1
        scale = 16
        while scale <= (1 << 20):
            lo, hi = self.brackets(scale)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            scale *= 4
        # unreachable: a formally nonzero combination over distinct primes
        # is numerically nonzero, so a bracket must eventually exclude zero
        raise RuntimeError(f"sign refinement did not converge for {self!r}")

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.rational_part == other.rational_part
                and self.surd_coeffs == other.surd_coeffs)

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if (self.rational_part == other.rational_part
                and self.surd_coeffs == other.surd_coeffs):
            return False
        fa, ea = self._float_interval()
        fb, eb = other._float_interval()
        if fa + ea < fb - eb:
            return True
        if fb + eb < fa - ea:
            return False
        return (self - other).sign() < 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rational_part,
                               tuple(sorted(self.surd_coeffs.items()))))
        return self._hash

    # -- rational proportionality ------------------------------------------

    def ratio_to(self, other) -> Fraction | None:
        """The q in Q with self == q*other, or None if no such q exists.

        Both values zero gives 1 by convention.
        """
        other = _coerce(other)
        if other.is_zero():
            return Fraction(1) if self.is_zero() else None
        if self.is_zero():
            return Fraction(0)
        # q*other has other's surd primes, and a rational part exactly when
        # other has one
        if (self.surd_coeffs.keys() != other.surd_coeffs.keys()
                or (self.rational_part == 0) != (other.rational_part == 0)):
            return None
        if other.rational_part != 0:
            q = self.rational_part / other.rational_part
        else:
            p = min(other.surd_coeffs)
            q = self.surd_coeffs[p] / other.surd_coeffs[p]
        return q if self == other * q else None

    # -- display -----------------------------------------------------------

    def __float__(self):
        lo, hi = self.brackets(64)
        return float((lo + hi) / 2)

    def __repr__(self):
        terms = []
        if self.rational_part != 0 or not self.surd_coeffs:
            terms.append(format_rat(self.rational_part))
        for p in sorted(self.surd_coeffs):
            c = self.surd_coeffs[p]
            lead = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            factor = "" if mag == 1 else f"{format_rat(mag)}*"
            terms.append(f"{lead}{factor}sqrt({p})")
        return "".join(terms) if len(terms) == 1 else " ".join(terms)


def _coerce(value):
    if isinstance(value, SurdValue):
        return value
    if isinstance(value, (int, Fraction)):
        return SurdValue(value)
    return NotImplemented


ZERO = SurdValue(0)


def rational_between(lo: SurdValue, hi: SurdValue) -> Fraction:
    """Some rational strictly inside the nonempty open interval (lo, hi)."""
    if not lo < hi:
        raise ValueError("empty interval")
    scale = 8
    while True:
        _, lo_hi = lo.brackets(scale)
        hi_lo, _ = hi.brackets(scale)
        if lo_hi < hi_lo:
            return (lo_hi + hi_lo) / 2
        scale *= 2
