"""Exact arithmetic for values of the form q0 + sum_i q_i*sqrt(p_i).

The p_i are distinct primes and the q's are rationals.  Over distinct primes
the coordinates {1, sqrt(p1), sqrt(p2), ...} are linearly independent over Q,
so the representation is canonical: a value whose coefficient vector is
nonzero is numerically nonzero.  That makes the sign decidable — first check
for the formal zero, then refine certified rational brackets of each sqrt(p)
until zero is excluded.

Only rational-by-surd products are supported; the library never needs
sqrt(p)*sqrt(q).

Representation: a value stores one positive common denominator ``_den``,
an int numerator ``_num`` for the rational part, and a tuple ``_surds`` of
``(prime, numerator)`` int pairs sorted by prime, with no zero numerator;
the value is (_num + sum c*sqrt(p)) / _den.  It is kept in lowest terms
(the gcd of ``_den``, ``_num`` and every surd numerator is 1; zero is
``_den == 1, _num == 0, _surds == ()``).  The form is unique, so equality
and hashing compare ints.  Arithmetic, order, brackets, the float enclosure
and the gap search ``_between`` run on ints; ``Fraction``s are built only
for the public results of ``brackets`` and ``rational_between`` and for the
read-only views ``rational_part`` and ``surd_coeffs``.  Only the public
constructor validates its input; arithmetic builds results through
``SurdValue._raw``, whose caller guarantees that form.  Besides this module,
``graph_metric._exceeds``, ``graph_metric._default_sample`` and
``serialize.value_to_json`` read the fields.
"""

from __future__ import annotations

import math

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm
from operator import index
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
    return format_ratio(q.numerator, q.denominator)


def format_ratio(n: int, d: int) -> str:
    """format_rat of n/d for ints n and d > 0."""
    g = gcd(n, d)
    if g != d:
        return f"{n // g}/{d // g}"
    return str(n // g)


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


def _scaled_root(n: int, scale: int) -> int:
    """floor(sqrt(n) * 2**scale), via isqrt."""
    key = (n, scale)
    root = _SQRT_CACHE.get(key)
    if root is None:
        root = _SQRT_CACHE[key] = isqrt(n << (2 * scale))
    return root


def sqrt_brackets(n: int, scale: int) -> tuple[Fraction, Fraction]:
    """Certified lo <= sqrt(n) < hi with hi - lo = 2**-scale, via isqrt."""
    root = _scaled_root(n, scale)
    return Fraction(root, 1 << scale), Fraction(root + 1, 1 << scale)


@total_ordering
class SurdValue:
    """Immutable exact value rational_part + sum surd_coeffs[p]*sqrt(p).

    ``rational_part`` and ``surd_coeffs`` are read-only views: the hash and
    the float enclosure are cached, so the value must never change under
    them.
    """

    __slots__ = ("_den", "_num", "_surds", "_hash", "_approx")

    def __init__(self, rational_part=0, surd_coeffs=None):
        q = rat(rational_part)
        coeffs = {}
        if surd_coeffs:
            for p, c in surd_coeffs.items():
                # a float or string index raises, never truncates
                p = index(p)
                c = rat(c)
                if c == 0:
                    continue
                if not is_prime(p):
                    raise ValueError(f"surd index {p} is not prime")
                coeffs[p] = c
        # over the lcm of lowest-terms denominators the form is in lowest
        # terms: a prime power that divides den exactly divides one of
        # them, whose numerator it does not divide
        den = lcm(q.denominator, *(c.denominator for c in coeffs.values()))
        self._den = den
        self._num = q.numerator * (den // q.denominator)
        self._surds = tuple(sorted((p, c.numerator * (den // c.denominator))
                                   for p, c in coeffs.items()))
        self._hash = None
        self._approx = None

    # -- construction helpers -------------------------------------------

    @classmethod
    def _raw(cls, den: int, num: int, surds: tuple) -> "SurdValue":
        """Trusted constructor for arithmetic: the caller guarantees den > 0,
        int numerators, surds sorted by prime with no zero numerator, and
        lowest terms."""
        v = cls.__new__(cls)
        v._den = den
        v._num = num
        v._surds = surds
        v._hash = None
        v._approx = None
        return v

    @classmethod
    def _reduced(cls, den: int, num: int, surds: tuple,
                 bound: int = 0) -> "SurdValue":
        """_raw after dividing out the common factor of den and the
        numerators, which divides ``bound`` (den itself by default)."""
        bound = bound or den
        if bound != 1:
            g = gcd(bound, num, *(c for _, c in surds))
            if g != 1:
                den //= g
                num //= g
                surds = tuple((p, c // g) for p, c in surds)
        return cls._raw(den, num, surds)

    @classmethod
    def of(cls, value) -> "SurdValue":
        if isinstance(value, SurdValue):
            return value
        q = rat(value)
        return cls._raw(q.denominator, q.numerator, ())

    @classmethod
    def sqrt(cls, p: int) -> "SurdValue":
        return cls(0, {p: 1})

    # -- structure -------------------------------------------------------

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._num, self._den)

    @property
    def surd_coeffs(self):
        den = self._den
        return MappingProxyType({p: Fraction(c, den) for p, c in self._surds})

    def is_rational(self) -> bool:
        return not self._surds

    def is_zero(self) -> bool:
        return self._num == 0 and not self._surds

    def primes(self) -> frozenset:
        return frozenset(p for p, _ in self._surds)

    def coefficient(self, p: int) -> Fraction:
        for q, c in self._surds:
            if q == p:
                return Fraction(c, self._den)
        return Fraction(0)

    def as_rational(self) -> Fraction:
        if self._surds:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._num, self._den)

    # -- arithmetic (rational x surd only) --------------------------------

    def _combine(self, other: "SurdValue", sign: int) -> "SurdValue":
        """self + sign*other for sign = +-1, over the lcm of the two
        denominators.  The operands are in lowest terms, so a factor shared
        by that lcm and the sum's numerators divides g = gcd(d1, d2): mod a
        prime of d1 alone, the numerators are d1's own times a unit, and
        one of those is prime to it (likewise for d2).  So the sum is
        reduced by its common factor with g, and not at all when g is 1."""
        d1, d2 = self._den, other._den
        g = d1 if d1 == d2 else gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        num = self._num * m1 + other._num * m2
        s1, s2 = self._surds, other._surds
        if not s2:
            surds = s1 if m1 == 1 else tuple((p, c * m1) for p, c in s1)
        elif not s1:
            surds = tuple((p, c * m2) for p, c in s2)
        else:
            acc = dict(s1) if m1 == 1 else {p: c * m1 for p, c in s1}
            for p, c in s2:
                acc[p] = acc.get(p, 0) + c * m2
            surds = tuple(sorted(item for item in acc.items() if item[1]))
        return SurdValue._reduced(d1 * m1, num, surds, g)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return SurdValue._raw(self._den, -self._num,
                              tuple((p, -c) for p, c in self._surds))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def _scaled(self, a: int, b: int) -> "SurdValue":
        """self * a/b for ints a and b > 0."""
        if a == 0:
            return ZERO
        return SurdValue._reduced(self._den * b, self._num * a,
                                  tuple((p, c * a) for p, c in self._surds))

    def __mul__(self, other):
        if isinstance(other, SurdValue):
            if not other._surds:
                a, b = other._num, other._den
            elif not self._surds:
                self, a, b = other, self._num, self._den
            else:
                raise TypeError("product of two irrational values is not "
                                "representable in this algebra")
        elif isinstance(other, (int, Fraction)):
            other = rat(other)
            a, b = other.numerator, other.denominator
        else:
            return NotImplemented
        return self._scaled(a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SurdValue):
            other = other.as_rational()
        q = rat(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        if q.numerator < 0:
            return self._scaled(-q.denominator, -q.numerator)
        return self._scaled(q.denominator, q.numerator)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- decidable sign and order ----------------------------------------

    def _bracket_ints(self, scale: int) -> tuple[int, int]:
        """The numerators lo, hi of :meth:`brackets` over den << scale."""
        lo = hi = self._num << scale
        for p, c in self._surds:
            # c * [root, root + 1], ends swapped for a negative c
            t = c * _scaled_root(p, scale)
            if c > 0:
                lo += t
                hi += t + c
            else:
                lo += t + c
                hi += t
        return lo, hi

    def brackets(self, scale: int) -> tuple[Fraction, Fraction]:
        """Certified rational lo <= value <= hi at sqrt precision 2**-scale."""
        lo, hi = self._bracket_ints(scale)
        den = self._den << scale
        return Fraction(lo, den), Fraction(hi, den)

    def _float_interval(self) -> tuple[float, float]:
        """(midpoint, rigorous error radius) in double precision.

        The midpoint is _num / den plus, per surd term, (c / den) *
        sqrt(p).  Int true division is correctly rounded, and so are sqrt,
        the product and each addition: with k surd terms, 4k + 1 roundings,
        k + 1 divisions by den, then k roots, k products and k additions.
        Each errs by at most u = 2**-53 of its result and so moves the
        midpoint by at most u times a term (a rounded quotient or root
        scales its term by 1 +- u) or a partial sum.  Both are at most mag,
        the float sum of the terms' sizes, up to a factor 1 + (k + 3)u.  A
        rounding in the subnormals errs by up to 2**-1075 more, which a
        root below 2**16 (primes stay below PRIME_CAP) scales by less than
        2**16.  The radius (4k + 1) * (2u * mag + 2**-1058) is twice that
        bound, which covers the higher-order terms and the roundings of mag
        and of the radius itself.  A value the doubles cannot hold gives
        (0.0, inf), which decides nothing.
        """
        cached = self._approx
        if cached is None:
            den = self._den
            try:
                mid = self._num / den
                mag = abs(mid)
                for p, c in self._surds:
                    term = c / den * math.sqrt(p)
                    mid += term
                    mag += abs(term)
            except OverflowError:
                # a rational beyond the double range: nothing is decided
                # here, the caller falls back to exact brackets
                mid = mag = math.inf
            err = (4 * len(self._surds) + 1) * (mag * 2.0 ** -52
                                                + 2.0 ** -1058)
            cached = (mid, err) if math.isfinite(mid) and math.isfinite(err) \
                else (0.0, math.inf)
            self._approx = cached
        return cached

    def sign(self) -> int:
        if not self._surds:
            n = self._num
            return (n > 0) - (n < 0)
        mid, err = self._float_interval()
        if mid - err > 0.0:
            return 1
        if mid + err < 0.0:
            return -1
        scale = 16
        while scale <= (1 << 20):
            lo, hi = self._bracket_ints(scale)    # over den > 0
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
        return (self._num == other._num and self._den == other._den
                and self._surds == other._surds)

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._surds and not other._surds:
            return self._num * other._den < other._num * self._den
        if (self._num == other._num and self._den == other._den
                and self._surds == other._surds):
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
            self._hash = hash((self._den, self._num, self._surds))
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
        # other has one; then self == q*other exactly when the numerator
        # vectors are proportional, a = (a0/b0)*b, and q = a0*den_b/(b0*den_a)
        sa, sb = self._surds, other._surds
        if len(sa) != len(sb) or (self._num == 0) != (other._num == 0):
            return None
        a0, b0 = ((self._num, other._num) if other._num
                  else (sa[0][1], sb[0][1]))
        if self._num * b0 != other._num * a0:
            return None
        for (p, a), (q, b) in zip(sa, sb):
            if p != q or a * b0 != b * a0:
                return None
        return Fraction(a0 * other._den, b0 * self._den)

    # -- display -----------------------------------------------------------

    def __float__(self):
        lo, hi = self._bracket_ints(64)
        return (lo + hi) / (self._den << 65)

    def __repr__(self):
        terms = []
        if self._num != 0 or not self._surds:
            terms.append(format_ratio(self._num, self._den))
        for p, c in self._surds:
            lead = "-" if c < 0 else ("+" if terms else "")
            mag = Fraction(abs(c), self._den)
            factor = "" if mag == 1 else f"{format_rat(mag)}*"
            terms.append(f"{lead}{factor}sqrt({p})")
        return "".join(terms) if len(terms) == 1 else " ".join(terms)


def _coerce(value):
    if isinstance(value, SurdValue):
        return value
    if isinstance(value, int):
        return SurdValue._raw(1, int(value), ())
    if isinstance(value, Fraction):
        return SurdValue._raw(value.denominator, value.numerator, ())
    return NotImplemented


ZERO = SurdValue._raw(1, 0, ())


def _between(lo: SurdValue, hi: SurdValue) -> tuple[int, int]:
    """The reduced (num, den) of a rational strictly inside the nonempty
    open interval (lo, hi): the midpoint of the first gap, at scales 8, 16,
    32, ..., between the upper bracket of lo and the lower bracket of hi,
    both over (lo's den) * (hi's den) << scale.  A gap proves lo < hi, so
    the order is decided exactly only when the first brackets overlap."""
    d_lo, d_hi = lo._den, hi._den
    scale = 8
    while True:
        above_lo = lo._bracket_ints(scale)[1] * d_hi
        below_hi = hi._bracket_ints(scale)[0] * d_lo
        if above_lo < below_hi:
            num, den = above_lo + below_hi, (d_lo * d_hi) << (scale + 1)
            g = gcd(num, den)
            return num // g, den // g
        if scale == 8 and not lo < hi:
            raise ValueError("empty interval")
        scale *= 2


def rational_between(lo: SurdValue, hi: SurdValue) -> Fraction:
    """Some rational strictly inside the nonempty open interval (lo, hi)."""
    return Fraction(*_between(lo, hi))
