"""Symbolic free-module coordinates with a structurally decidable norm.

Elements are finite rational coefficient vectors over formal basis
directions e_0, e_1, ...  The norm is ‖x‖² = |Σ f(α)·w(α)|² + Σ_{α≠0} f(α)²
for formal weights w(α) with w(0) = 1, chosen so that rational combinations
collide only syntactically:

* ‖x‖ = ‖y‖  ⇔  f_x = ±f_y,
* Σ f(α)w(α) = Σ g(α)w(α)  ⇔  f = g.

Distances therefore never need numbers: a distance is the ± class of the
difference vector (:class:`DistToken`), equality and rational-ratio tests
are exact vector operations, and every geometric construction in
:mod:`banakh.banakh_space` runs unchanged over the oracle adapter here.
Numeric norms exist for display only.

The integer-coefficient lattice H is discrete (‖x‖ ≥ 1 off zero); the
rational lattice L is divisible.  Both satisfy the two-point-sphere law
by construction: S(c; t) = {c + v, c − v}.

Representation: an element is one positive common denominator ``_den``
and a tuple ``_items`` of ``(index, numerator)`` int pairs, in the
int-vector format that :mod:`banakh.values` describes and implements once;
arithmetic never builds a ``Fraction``.  ``coeffs`` is a read-only
{index: Fraction} view.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from operator import index
from types import MappingProxyType
from typing import NamedTuple, Optional

from .banakh_space import SphereOracle
from .values import _lowest, _over_lcm, _pivots, _sum, rat

__all__ = [
    "GroupElement",
    "DistToken",
    "NormSq",
    "zero",
    "basis",
    "add",
    "neg",
    "scale",
    "in_lattice",
    "norm_equal",
    "normsq",
    "sphere",
    "dist_token",
    "ratio_in_Q",
    "between",
    "is_p_divisible_elem",
    "numeric_norm",
    "h_norm_certificate",
    "NormEquationResult",
    "solve_norm_equation",
    "GroupOracle",
]


class GroupElement:
    """Immutable finite map index → nonzero rational coefficient."""

    __slots__ = ("_den", "_items", "_hash")

    def __init__(self, coeffs=None):
        clean = {}
        for a, c in dict(coeffs or {}).items():
            a = index(a)    # a float or string index raises, never truncates
            if a < 0:
                raise ValueError("coordinate indices are nonnegative")
            c = rat(c)
            if c != 0:
                clean[a] = c
        self._den, _, self._items = _over_lcm(
            0, 1, [(a, c.numerator, c.denominator) for a, c in clean.items()])
        self._hash = None

    @classmethod
    def _raw(cls, den: int, items: tuple) -> "GroupElement":
        """Trusted constructor for arithmetic: the caller guarantees den > 0,
        items sorted by index with int numerators, no zero numerator, and
        lowest terms."""
        x = cls.__new__(cls)
        x._den = den
        x._items = items
        x._hash = None
        return x

    @classmethod
    def _reduced(cls, den: int, items: tuple) -> "GroupElement":
        """_raw of :func:`banakh.values._lowest`."""
        den, _, items = _lowest(den, 0, items)
        return cls._raw(den, items)

    @property
    def coeffs(self):
        return MappingProxyType({a: Fraction(n, self._den)
                                 for a, n in self._items})

    def support(self):
        return frozenset(a for a, _ in self._items)

    def is_zero(self) -> bool:
        return not self._items

    def sort_key(self):
        return tuple((a, Fraction(n, self._den)) for a, n in self._items)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self._den == other._den
                and self._items == other._items)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, self._items))
        return self._hash

    def __lt__(self, other):
        if self._den == other._den:
            return self._items < other._items
        return self.sort_key() < other.sort_key()

    def _combine(self, other, sign: int) -> "GroupElement":
        """self + sign·other for sign = ±1 (:func:`banakh.values._sum`)."""
        den, _, items = _sum(self._den, 0, self._items,
                             other._den, 0, other._items, sign)
        return GroupElement._raw(den, items)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return GroupElement._raw(self._den,
                                 tuple((a, -n) for a, n in self._items))

    def __repr__(self):
        if not self._items:
            return "0"
        parts = []
        for a, c in self.coeffs.items():
            parts.append(f"{c}*e{a}" if c != 1 else f"e{a}")
        return " + ".join(parts).replace("+ -", "- ")


_ZERO = GroupElement._raw(1, ())


def zero() -> GroupElement:
    return _ZERO


def basis(alpha: int) -> GroupElement:
    return GroupElement({alpha: 1})


def add(x: GroupElement, y: GroupElement) -> GroupElement:
    return x + y


def neg(x: GroupElement) -> GroupElement:
    return -x


def scale(q, x: GroupElement, lattice: str = "L") -> GroupElement:
    """q·x; the integer lattice H rejects non-integer q."""
    q = rat(q)
    if lattice == "H" and q.denominator != 1:
        raise ValueError(f"scaling by {q} leaves the integer lattice")
    if q == 0:
        return _ZERO
    num = q.numerator
    return GroupElement._reduced(x._den * q.denominator,
                                 tuple((a, n * num) for a, n in x._items))


def in_lattice(x: GroupElement, lattice: str) -> bool:
    if lattice == "L":
        return True
    if lattice == "H":
        return x._den == 1
    raise ValueError(f"unknown lattice {lattice!r}")


def norm_equal(x: GroupElement, y: GroupElement) -> bool:
    """‖x‖ = ‖y‖, which for these coordinates means f_x = ±f_y."""
    return x == y or x == -y


class NormSq(NamedTuple):
    linear: GroupElement   # coefficient vector of Σ f(α)w(α)
    tail: Fraction         # Σ_{α≠0} f(α)²


def normsq(x: GroupElement) -> NormSq:
    tail = sum(n * n for a, n in x._items if a != 0)
    return NormSq(linear=x, tail=Fraction(tail, x._den * x._den))


class DistToken:
    """The ± class of a difference vector: the exact value of a distance."""

    __slots__ = ("rep",)

    def __init__(self, vector: GroupElement):
        self.rep = _canonical_sign(vector)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other):
        return isinstance(other, DistToken) and self.rep == other.rep

    def __hash__(self):
        return hash(("token", self.rep))

    def __repr__(self):
        return f"|{self.rep!r}|"


def _canonical_sign(v: GroupElement) -> GroupElement:
    if not v._items:
        return v
    return v if v._items[0][1] > 0 else -v


def dist_token(x: GroupElement, y: GroupElement) -> DistToken:
    return DistToken(x - y)


def sphere(c: GroupElement, t: DistToken):
    """S(c; t) = {c + v, c − v}: two points exactly when t is nonzero."""
    if t.is_zero():
        return (c,)
    a, b = c + t.rep, c - t.rep
    return (b, a) if b < a else (a, b)


def ratio_in_Q(s: DistToken, t: DistToken) -> Optional[Fraction]:
    """q > 0 with rep(s) = ±q·rep(t); None when the vectors are not
    rationally proportional.  Both zero → 1; one zero → None."""
    if s.is_zero() and t.is_zero():
        return Fraction(1)
    if s.is_zero() or t.is_zero():
        return None
    piv = _pivots(0, s.rep._items, 0, t.rep._items)
    if piv is None:
        return None
    pa, pb = piv
    return Fraction(abs(pa) * t.rep._den, abs(pb) * s.rep._den)


def between(x: GroupElement, y: GroupElement, z: GroupElement) -> bool:
    """Is d(x,z) = d(x,y) + d(y,z) exactly?

    The norm is an ℓ₂ norm of an injective linear image, so triangle
    equality holds iff x−y and y−z are rationally proportional with a
    nonnegative ratio — a structural test, no numerics.
    """
    u, v = x - y, y - z
    if u.is_zero() or v.is_zero():
        return True
    piv = _pivots(0, u._items, 0, v._items)
    return piv is not None and (piv[0] > 0) == (piv[1] > 0)


def is_p_divisible_elem(x: GroupElement, p: int, lattice: str = "H") -> bool:
    """Does x/p stay in the lattice?  Always in L; in H iff p divides
    every (integer) coefficient."""
    if lattice == "L":
        return True
    if lattice != "H":
        raise ValueError(f"unknown lattice {lattice!r}")
    if not in_lattice(x, "H"):
        raise ValueError("element is not in the integer lattice")
    return all(n % p == 0 for _, n in x._items)


def numeric_norm(x: GroupElement, sample_seed: int = 0) -> float:
    """Display-grade ‖x‖ with weights w(α) sampled deterministically in
    (1, 2) for α ≠ 0 and w(0) = 1.  Never used for decisions."""
    linear = 0.0
    tail = 0.0
    for a, n in x._items:
        c = n / x._den
        w = 1.0 if a == 0 else random.Random(f"{sample_seed}:{a}").uniform(1, 2)
        linear += c * w
        if a != 0:
            tail += c * c
    return (linear * linear + tail) ** 0.5


def h_norm_certificate(x: GroupElement) -> dict:
    """Structural proof sketch that an integer-lattice x ≠ 0 has ‖x‖ ≥ 1.

    Either the support is {0} and |f(0)| ≥ 1 appears in the linear part, or
    some coordinate α ≠ 0 contributes f(α)² ≥ 1 to the tail.
    """
    if not in_lattice(x, "H"):
        raise ValueError("certificate is for integer-lattice elements")
    if x.is_zero():
        return {"holds": False, "reason": "zero", "quantity": Fraction(0)}
    ns = normsq(x)
    if x.support() <= {0}:
        lead = Fraction(abs(x._items[0][1]))
        return {"holds": lead >= 1, "reason": "linear", "quantity": lead}
    return {"holds": ns.tail >= 1, "reason": "tail", "quantity": ns.tail}


# ---------------------------------------------------------------------------
# the two-solution norm equation
# ---------------------------------------------------------------------------


class NormEquationResult(NamedTuple):
    infinite: bool
    solutions: tuple

    @property
    def count(self):
        return "infinite" if self.infinite else len(self.solutions)


def _exact_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def solve_norm_equation(a1, a2, a3, b1, b2, b3) -> NormEquationResult:
    """All rational t with |a₁t+a₂|² + a₃² = |b₁t+b₂|² + b₃².

    The difference is the quadratic At² + Bt + C with A = a₁²−b₁²,
    B = 2(a₁a₂−b₁b₂), C = a₂²+a₃²−b₂²−b₃²; at most two solutions unless
    the quadratic vanishes identically.
    """
    a1, a2, a3, b1, b2, b3 = (rat(v) for v in (a1, a2, a3, b1, b2, b3))
    A = a1 * a1 - b1 * b1
    B = 2 * (a1 * a2 - b1 * b2)
    C = a2 * a2 + a3 * a3 - b2 * b2 - b3 * b3
    if A == 0 and B == 0:
        if C == 0:
            return NormEquationResult(infinite=True, solutions=())
        return NormEquationResult(infinite=False, solutions=())
    if A == 0:
        return NormEquationResult(infinite=False, solutions=(-C / B,))
    disc = B * B - 4 * A * C
    root = _exact_sqrt(disc)
    if root is None:
        return NormEquationResult(infinite=False, solutions=())
    if root == 0:
        return NormEquationResult(infinite=False, solutions=(-B / (2 * A),))
    sols = sorted(((-B - root) / (2 * A), (-B + root) / (2 * A)))
    return NormEquationResult(infinite=False, solutions=tuple(sols))


# ---------------------------------------------------------------------------
# oracle adapter
# ---------------------------------------------------------------------------


class GroupOracle(SphereOracle):
    """Sphere oracle over symbolic group points with DistToken values."""

    def __init__(self, lattice: str = "L"):
        if lattice not in ("H", "L"):
            raise ValueError(f"unknown lattice {lattice!r}")
        self.lattice = lattice

    def dist(self, x, y):
        return dist_token(x, y)

    def sphere(self, c, t):
        if self.lattice == "H" and not in_lattice(c, "H"):
            raise ValueError("center is not in the integer lattice")
        if t.is_zero():
            return (c,)
        if self.lattice == "H" and not in_lattice(t.rep, "H"):
            return ()  # no integer point realizes a fractional difference
        return sphere(c, t)

    # token value algebra ---------------------------------------------------

    def value_scale(self, q, t):
        return DistToken(scale(abs(rat(q)), t.rep))

    def value_ratio(self, v, w):
        return ratio_in_Q(v, w)

    def value_le(self, v, w):
        return None         # tokens are unordered
