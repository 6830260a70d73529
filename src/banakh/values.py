"""Exact arithmetic for values of the form q0 + sum_i q_i*sqrt(p_i).

The p_i are distinct primes and the q's are rationals.  Over distinct primes
the coordinates {1, sqrt(p1), sqrt(p2), ...} are linearly independent over Q,
so the representation is canonical: a value whose coefficient vector is
nonzero is numerically nonzero.  That makes the sign decidable — first check
for the formal zero, then refine certified rational brackets of each sqrt(p)
until zero is excluded.

Only rational-by-surd products are supported; the library never needs
sqrt(p)*sqrt(q).

Representation, shared by these values and the group elements of
:mod:`banakh.banakh_group`: one positive common denominator ``_den`` and a
tuple of ``(key, numerator)`` int pairs sorted by key with no zero
numerator (a value's ``_surds`` keyed by prime, beside the int numerator
``_num`` of its rational part, so it is (_num + sum c*sqrt(p)) / _den; an
element's ``_items`` keyed by coordinate), in lowest terms: the gcd of
``_den`` and every numerator is 1, and zero has ``_den == 1``.  The form is
unique, so equality and hashing compare ints.  Its normalization, reduction,
sum and proportionality test are the helpers ``_over_lcm``, ``_lowest``,
``_sum`` and ``_pivots`` below.  Arithmetic, brackets and the gap search
``_between`` run on ints, and so do sign and order where the value's one
cached float enclosure, ``_enclosure``, cannot decide; ``Fraction``s are
built only for public results and read-only views.  Only the public
constructors validate; arithmetic builds through the trusted ``_raw``.
Outside the two modules, :mod:`banakh.serialize` reads the fields in
``value_to_json`` and builds through ``_from_ints``, the validating
constructor on the ints of ``_ratio``, in ``value_from_json``;
:mod:`banakh.graph_metric` reads them in ``_exact`` (through ``_sum3``),
``_default_sample`` (``_raw``, ``_lowest``, ``_sum``) and ``_line_ints``
(``_pivots``).  The exact test of a value against a sum of two, for
every layer, is ``_vs_sum``.
"""

from __future__ import annotations

import math

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm
from operator import index
from types import MappingProxyType


def _ratio(value) -> tuple[int, int]:
    """The lowest-terms (num, den), den > 0, of an int or of a string as
    :func:`rat` reads it.  A canonical ASCII ratio ``-?[0-9]+(/[0-9]+)?``
    is read on ints, without a ``Fraction``.  Every other string (decimals,
    whitespace, "+", underscores, non-ASCII digits), and the canonical ones
    that ``Fraction`` refuses (a zero denominator, more digits than ``int``
    converts), go through ``Fraction(str)``, with its reading and its
    errors."""
    if isinstance(value, int):
        return int(value), 1
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {value!r} as a rational")
    if value.isascii():
        head, slash, tail = value.partition("/")
        digits = head[1:] if head.startswith("-") else head
        if digits.isdigit() and (not slash or tail.isdigit()):
            try:
                num, den = int(head), int(tail) if slash else 1
            except ValueError:    # over int's digit limit
                den = 0
            if den:
                g = gcd(num, den)
                return num // g, den // g
    # Fraction("1e10000000") would build the power of ten, for minutes
    if "e" in value or "E" in value:
        raise ValueError(f"exponent notation in {value!r}")
    try:
        q = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    return q.numerator, q.denominator


def rat(value) -> Fraction:
    """Coerce an int, "p/q" or decimal string (no exponent), or Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))


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


# -- the int-vector format (see the module docstring) -----------------------

def _over_lcm(num: int, den: int, coeffs) -> tuple[int, int, tuple]:
    """(den, lead numerator, sorted (key, numerator) pairs) of the lead
    num/den and the ``coeffs``, (key, n, d) triples of nonzero n/d, all in
    lowest terms with positive denominators, over the lcm of those
    denominators.  That form is in lowest terms: a prime power that divides
    the lcm exactly divides one of the denominators, whose numerator it
    does not divide."""
    m = lcm(den, *(d for _, _, d in coeffs))
    return (m, num * (m // den),
            tuple(sorted((k, n * (m // d)) for k, n, d in coeffs)))


def _checked(num: int, den: int, coeffs) -> tuple[int, int, tuple]:
    """:func:`_over_lcm` after the checks of the validating constructor, on
    the (p, n, d) triples of ``coeffs`` taken in order: one with a zero
    coefficient is dropped before p is tested, and a p that is not prime is
    a ValueError (InputTooLarge above PRIME_CAP)."""
    kept = []
    for p, n, d in coeffs:
        if n:
            if not is_prime(p):
                raise ValueError(f"surd index {p} is not prime")
            kept.append((p, n, d))
    return _over_lcm(num, den, kept)


def _lowest(den: int, num: int, items: tuple, bound: int = 0) -> tuple:
    """(den, num, items) after dividing out the common factor of den and the
    numerators, which divides ``bound`` (den itself by default)."""
    bound = bound or den
    if bound != 1:
        g = gcd(bound, num, *(c for _, c in items))
        if g != 1:
            den //= g
            num //= g
            items = tuple((k, c // g) for k, c in items)
    return den, num, items


def _sum(d1: int, n1: int, v1: tuple, d2: int, n2: int, v2: tuple,
         sign: int = 1) -> tuple[int, int, tuple]:
    """The lowest-terms (den, num, items) of (n1 + v1)/d1 + sign*(n2 + v2)/d2
    for sign = +-1 and operands in lowest terms, over lcm(d1, d2).  A factor
    shared by that lcm and the sum's numerators divides g = gcd(d1, d2): mod
    a prime of d1 alone, the numerators are d1's own times a unit, and one
    of those is prime to it (likewise for d2).  So the sum is reduced by its
    common factor with g, and not at all when g is 1."""
    g = d1 if d1 == d2 else gcd(d1, d2)
    m1, m2 = d2 // g, sign * (d1 // g)
    if not v2:
        items = v1 if m1 == 1 else tuple((k, c * m1) for k, c in v1)
    elif not v1:
        items = tuple((k, c * m2) for k, c in v2)
    else:
        acc = dict(v1) if m1 == 1 else {k: c * m1 for k, c in v1}
        for k, c in v2:
            acc[k] = acc.get(k, 0) + c * m2
        items = tuple(sorted(item for item in acc.items() if item[1]))
    return _lowest(d1 * m1, n1 * m1 + n2 * m2, items, g)


def _sum3(d1: int, n1: int, v1: tuple, d2: int, n2: int, v2: tuple,
          d3: int, n3: int, v3: tuple) -> tuple[int, int, tuple]:
    """The lowest-terms (den, num, items) of the sum of three operands in
    lowest terms, over m = lcm(d1, d2, d3), with one reduction.  As in
    :func:`_sum`, a prime p with p**e exactly dividing m divides the sum's
    common factor only when two of the denominators hold p**e (mod p the
    numerators are otherwise one operand's own times a unit), and then
    p**e divides g = gcd(d1, d2) or h = gcd(lcm(d1, d2), d3).  So the sum is
    reduced by its common factor with lcm(g, h), which divides m, and not at
    all when that is 1."""
    g = d1 if d1 == d2 else gcd(d1, d2)
    d12 = d1 // g * d2
    h = d12 if d12 == d3 else gcd(d12, d3)
    k = d3 // h
    m1, m2, m3 = d2 // g * k, d1 // g * k, d12 // h
    acc = {}
    for v, m in ((v1, m1), (v2, m2), (v3, m3)):
        for key, c in v:
            acc[key] = acc.get(key, 0) + c * m
    items = tuple(sorted(item for item in acc.items() if item[1]))
    return _lowest(d12 * k, n1 * m1 + n2 * m2 + n3 * m3, items,
                   h if g == 1 else lcm(g, h))


def _pivots(n1: int, v1: tuple, n2: int, v2: tuple):
    """The pivot numerators (p1, p2) when (n1, v1) = q*(n2, v2) for nonzero
    vectors over denominators d1 and d2, decided on cross-multiplied ints,
    else None; then q = (p1/d1)/(p2/d2)."""
    if len(v1) != len(v2) or (n1 == 0) != (n2 == 0):
        return None
    p1, p2 = (n1, n2) if n2 else (v1[0][1], v2[0][1])
    for (k, a), (j, b) in zip(v1, v2):
        if k != j or a * p2 != b * p1:
            return None
    return p1, p2


@total_ordering
class SurdValue:
    """Immutable exact value rational_part + sum surd_coeffs[p]*sqrt(p).

    ``rational_part`` and ``surd_coeffs`` are read-only views: the hash and
    the float enclosure's ends are cached, so the value must never change
    under them.
    """

    __slots__ = ("_den", "_num", "_surds", "_hash", "_ends")

    def __init__(self, rational_part=0, surd_coeffs=None):
        q = rat(rational_part)
        # a float or string index raises, never truncates
        coeffs = (((index(p), rat(c)) for p, c in surd_coeffs.items())
                  if surd_coeffs else ())
        self._den, self._num, self._surds = _checked(
            q.numerator, q.denominator,
            ((p, c.numerator, c.denominator) for p, c in coeffs))
        self._hash = None
        self._ends = None

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
        v._ends = None
        return v

    @classmethod
    def _from_ints(cls, num: int, den: int, coeffs) -> "SurdValue":
        """The validating constructor on ints: :func:`_checked`."""
        return cls._raw(*_checked(num, den, coeffs))

    @classmethod
    def _reduced(cls, den: int, num: int, surds: tuple) -> "SurdValue":
        """_raw of :func:`_lowest`."""
        return cls._raw(*_lowest(den, num, surds))

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
        """self + sign*other for sign = +-1 (:func:`_sum`)."""
        return SurdValue._raw(*_sum(self._den, self._num, self._surds,
                                    other._den, other._num, other._surds,
                                    sign))

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
        q = 1 / rat(other)      # ZeroDivisionError at 0; q's denominator > 0
        return self._scaled(q.numerator, q.denominator)

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

    def _enclosure(self) -> tuple[float, float]:
        """Doubles lo <= value <= hi, cached: the one float enclosure that
        every filter compares, mid -+ err with each end rounded once.

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
        2**16.  The radius err = (4k + 1) * (2u * mag + 2**-1058) is twice
        that bound, which covers the higher-order terms, the roundings of
        mag and of err, and the one rounding of each end, by at most u *
        (|mid| + err) or 2**-1075.  A value the doubles cannot hold gives
        (-inf, inf), which decides nothing.
        """
        ends = self._ends
        if ends is None:
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
            finite = math.isfinite(mid) and math.isfinite(err)
            ends = (mid - err, mid + err) if finite else (-math.inf, math.inf)
            self._ends = ends
        return ends

    def sign(self) -> int:
        if not self._surds:
            n = self._num
            return (n > 0) - (n < 0)
        lo, hi = self._enclosure()
        if lo > 0.0:
            return 1
        if hi < 0.0:
            return -1
        scale = 16
        while scale <= (1 << 20):
            lo, hi = self._bracket_ints(scale)    # over den > 0
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            scale *= 4
        # untraced: guards a fault; a nonzero surd sum is nonzero numerically
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
        a_lo, a_hi = self._enclosure()
        b_lo, b_hi = other._enclosure()
        if a_hi < b_lo:
            return True
        if b_hi < a_lo:
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
        # other has one
        piv = _pivots(self._num, self._surds, other._num, other._surds)
        if piv is None:
            return None
        return Fraction(piv[0] * other._den, piv[1] * self._den)

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


def _vs_sum(c: SurdValue, a: SurdValue, b: SurdValue) -> int:
    """The sign of c - (a + b), exactly: the one test of a distance against
    a sum of two.  Three rationals are decided on their ints, multiplied
    across by the positive denominators, with no sum built; otherwise the
    one sum s = a + b is built, and c == s gives 0 and ``<`` the sign, on
    the cached enclosures first."""
    if c._surds or a._surds or b._surds:
        s = a + b
        if c == s:
            return 0
        return -1 if c < s else 1
    da, db, dc = a._den, b._den, c._den
    if da == db == dc:
        t = c._num - a._num - b._num
    else:
        t = c._num * da * db - (a._num * db + b._num * da) * dc
    return (t > 0) - (t < 0)


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
