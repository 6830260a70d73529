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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .banakh_space import SphereOracle
from .values import rat

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

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        clean = {}
        for a, c in dict(coeffs or {}).items():
            a = int(a)
            if a < 0:
                raise ValueError("coordinate indices are nonnegative")
            c = rat(c)
            if c != 0:
                clean[a] = c
        self.coeffs = clean
        self._hash = hash(tuple(sorted(clean.items())))

    def support(self):
        return frozenset(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def sort_key(self):
        return tuple(sorted(self.coeffs.items()))

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __add__(self, other):
        merged = dict(self.coeffs)
        for a, c in other.coeffs.items():
            merged[a] = merged.get(a, Fraction(0)) + c
        return GroupElement(merged)

    def __neg__(self):
        return GroupElement({a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for a in sorted(self.coeffs):
            c = self.coeffs[a]
            parts.append(f"{c}*e{a}" if c != 1 else f"e{a}")
        return " + ".join(parts).replace("+ -", "- ")


def zero() -> GroupElement:
    return GroupElement()


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
    return GroupElement({a: q * c for a, c in x.coeffs.items()})


def in_lattice(x: GroupElement, lattice: str) -> bool:
    if lattice == "L":
        return True
    if lattice == "H":
        return all(c.denominator == 1 for c in x.coeffs.values())
    raise ValueError(f"unknown lattice {lattice!r}")


def norm_equal(x: GroupElement, y: GroupElement) -> bool:
    """‖x‖ = ‖y‖, which for these coordinates means f_x = ±f_y."""
    return x == y or x == -y


@dataclass(frozen=True)
class NormSq:
    linear: GroupElement   # coefficient vector of Σ f(α)w(α)
    tail: Fraction         # Σ_{α≠0} f(α)²


def normsq(x: GroupElement) -> NormSq:
    tail = sum((c * c for a, c in x.coeffs.items() if a != 0), Fraction(0))
    return NormSq(linear=x, tail=tail)


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
    if v.is_zero():
        return v
    lead = v.coeffs[min(v.coeffs)]
    return v if lead > 0 else -v


def dist_token(x: GroupElement, y: GroupElement) -> DistToken:
    return DistToken(x - y)


def sphere(c: GroupElement, t: DistToken):
    """S(c; t) = {c + v, c − v}: two points exactly when t is nonzero."""
    if t.is_zero():
        return (c,)
    return tuple(sorted((c + t.rep, c - t.rep)))


def _pivot_ratio(a: GroupElement, b: GroupElement) -> Optional[Fraction]:
    """The signed q with a = q·b for nonzero a and b, or None."""
    if a.support() != b.support():
        return None
    pivot = min(b.coeffs)
    q = a.coeffs[pivot] / b.coeffs[pivot]
    if all(a.coeffs[i] == q * c for i, c in b.coeffs.items()):
        return q
    return None


def ratio_in_Q(s: DistToken, t: DistToken) -> Optional[Fraction]:
    """q > 0 with rep(s) = ±q·rep(t); None when the vectors are not
    rationally proportional.  Both zero → 1; one zero → None."""
    if s.is_zero() and t.is_zero():
        return Fraction(1)
    if s.is_zero() or t.is_zero():
        return None
    q = _pivot_ratio(s.rep, t.rep)
    return None if q is None else abs(q)


def between(x: GroupElement, y: GroupElement, z: GroupElement) -> bool:
    """Is d(x,z) = d(x,y) + d(y,z) exactly?

    The norm is an ℓ₂ norm of an injective linear image, so triangle
    equality holds iff x−y and y−z are rationally proportional with a
    nonnegative ratio — a structural test, no numerics.
    """
    u, v = x - y, y - z
    if u.is_zero() or v.is_zero():
        return True
    q = _pivot_ratio(u, v)
    return q is not None and q > 0


def is_p_divisible_elem(x: GroupElement, p: int, lattice: str = "H") -> bool:
    """Does x/p stay in the lattice?  Always in L; in H iff p divides
    every (integer) coefficient."""
    if lattice == "L":
        return True
    if lattice != "H":
        raise ValueError(f"unknown lattice {lattice!r}")
    if not in_lattice(x, "H"):
        raise ValueError("element is not in the integer lattice")
    return all(c.numerator % p == 0 for c in x.coeffs.values())


def numeric_norm(x: GroupElement, sample_seed: int = 0) -> float:
    """Display-grade ‖x‖ with weights w(α) sampled deterministically in
    (1, 2) for α ≠ 0 and w(0) = 1.  Never used for decisions."""
    linear = 0.0
    tail = 0.0
    for a, c in x.coeffs.items():
        w = 1.0 if a == 0 else random.Random(f"{sample_seed}:{a}").uniform(1, 2)
        linear += float(c) * w
        if a != 0:
            tail += float(c) * float(c)
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
        return {"holds": abs(x.coeffs[0]) >= 1, "reason": "linear",
                "quantity": abs(x.coeffs[0])}
    return {"holds": ns.tail >= 1, "reason": "tail", "quantity": ns.tail}


# ---------------------------------------------------------------------------
# the two-solution norm equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormEquationResult:
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

    def value_is_zero(self, v):
        return v.is_zero()

    def value_le(self, v, w):
        return None         # tokens are unordered
