"""Exact decision procedures on submonoids of the nonnegative rationals.

A monoid here is a subset M of Q+ with 0 in M and M + M = M.  Three decidable
description classes are supported:

* ``fingen``    -- all finite nonnegative-integer combinations of finitely
                   many positive rational generators,
* ``groupcone`` -- the nonnegative part of the subgroup of Q generated by
                   finitely many rationals (always a half-group),
* ``closure``   -- a named class with hand-verified closed-form membership
                   (see ``CLOSURES``).

Finitely generated monoids are scaled by the lcm of the generator
denominators to a numerical semigroup in the nonnegative integers; a group
cone is the one-generator semigroup of its step, since every finitely
generated subgroup of Q is cyclic.  The Apery set (computed by a
shortest-path search over residues modulo the smallest generator) yields
the conductor, so membership, half-group and divisibility verdicts below
are complete, never sampled.

Every monoid answers through exactly one of two cores, and every method and
verdict branches once, on ``MonoidDesc._closure``.  A closure holds its
closed-form ``_Closure`` record there; so does the zero monoid {0}, fingen
or groupcone with no generators, as the module-level record ``_ZERO``,
which is no entry of ``CLOSURES``.  Every other fingen or groupcone monoid
leaves ``_closure`` None and runs on its semigroup's ints, which it keeps
itself: the step g, the gcd of the scaled generators; the reduced
generators; their Apery list, its modulus m0 and the reduced conductor.
M - M is the multiples k*g/scale of g/scale, the gcd of M; x = n/d in
lowest terms is one exactly when d*g divides n*scale, and then its unit
k = n*scale/(d*g) is a member exactly when k >= apery[k % m0]
(``_has(k)``), for m0 the least reduced generator.  Membership,
enumeration, the half-group witness, the divisibility witness and
``ddot_set`` work on units and build a ``Fraction`` only for a value they
return (and the conductor in an inconclusive half-group message).

``ddot_set`` needs no pairwise scan there: a nonzero member that is no
generator is a sum of two or more generators, and a generator g is a sum
a + b of two nonzero members exactly when g - h is a member for some
generator h < g (a holds some generator h <= a, and g - h = (a - h) + b;
conversely g = h + (g - h)).  So the two-term-indecomposable members are
the minimal generators, found in O(#gens**2) Apery lookups.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional

from .values import InputTooLarge, is_prime, rat

__all__ = [
    "MonoidDesc",
    "DivisibilityWitness",
    "DzikResult",
    "MonoidMembershipError",
    "MonoidTooLarge",
    "APERY_CAP",
    "ENUMERATION_CAP",
    "delta_p",
    "div_p",
    "dzik_reduce",
    "is_half_group",
    "is_p_divisible_in",
    "is_floppy",
    "ddot_set",
    "CLOSURE_IDS",
]


# ---------------------------------------------------------------------------
# p-free parts and the reduction recursion
# ---------------------------------------------------------------------------


class MonoidMembershipError(ValueError):
    """A trace element was denied by the membership oracle."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(
            f"trace element {element} is not in the monoid; the monoid is "
            f"not p-divisible where the reduction needs it to be")


def delta_p(x: int, p: int) -> int:
    """The p-free part of x: its largest divisor not divisible by p."""
    if x < 1:
        raise ValueError(f"p-free part requires a positive integer, got {x}")
    _require_prime(p)
    while x % p == 0:
        x //= p
    return x


def div_p(x: int, y: int, p: int) -> int:
    """The unique k with 1 <= k < p and k*y congruent to x modulo p."""
    _require_prime(p)
    if x % p == 0 or y % p == 0:
        raise ValueError(f"div_p needs both arguments coprime to {p}")
    return (x * pow(y, -1, p)) % p


class DzikResult(NamedTuple):
    value: int
    trace: tuple


def dzik_reduce(a: int, b: int, p: int,
                member: Optional[Callable[[int], bool]] = None) -> DzikResult:
    """Run the reduction recursion on (a, b) down to the p-free gcd.

    Starting from the p-free parts of a and b, each step keeps the smaller
    value x and replaces the larger value y by the p-free part of y + k*x,
    where k < p is chosen so that the sum is divisible by p.  The pair sums
    strictly decrease, the successor being at most (y + (p-1)*x)/p < y, and
    the recursion stops when both entries agree; the common value is the
    p-free part of gcd(a, b).

    ``member`` is an optional membership oracle for a monoid M containing a
    and b; every trace element is checked against it and a denial raises
    MonoidMembershipError (for monoids p-divisible in the right domain the
    trace provably stays inside M).
    """
    if a < 1 or b < 1:
        raise ValueError("dzik_reduce needs positive integers")
    _require_prime(p)
    # the loop below is delta_p and div_p on ints already checked
    while a % p == 0:
        a //= p
    while b % p == 0:
        b //= p
    ak, bk = a, b
    trace = [(ak, bk)]
    if member is not None:
        for v in (ak, bk):
            if not member(v):
                raise MonoidMembershipError(v)
    while ak != bk:
        x, y = (ak, bk) if ak < bk else (bk, ak)
        # the k < p with p | y + k*x; both are p-free, so k exists
        successor = y + (-y * pow(x, -1, p)) % p * x
        while successor % p == 0:
            successor //= p
        ak, bk = x, successor
        trace.append((ak, bk))
        if member is not None and not member(successor):
            raise MonoidMembershipError(successor)
    return DzikResult(value=ak, trace=tuple(trace))


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# numerical-semigroup core for finitely generated monoids
# ---------------------------------------------------------------------------


# the largest least reduced generator whose Apery set is built: one entry
# per residue, so a larger one asks for an allocation of that size
APERY_CAP = 100_000


class MonoidTooLarge(InputTooLarge):
    """A finitely generated monoid whose least reduced generator is above
    APERY_CAP; its Apery set is not built."""

    def __init__(self, least: int):
        self.least = least
        super().__init__(
            f"least reduced generator {least} is above {APERY_CAP}: its "
            f"Apery set would need one entry per residue")


def _apery_set(reduced_gens: tuple[int, ...]) -> list[int]:
    """Minimal semigroup element in each residue class mod the least
    generator; MonoidTooLarge, before any allocation, above APERY_CAP."""
    m0 = reduced_gens[0]
    if m0 > APERY_CAP:
        raise MonoidTooLarge(m0)
    dist = [None] * m0
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        val, res = heapq.heappop(heap)
        if dist[res] != val:
            continue
        for g in reduced_gens:
            nxt = (res + g) % m0
            cand = val + g
            if dist[nxt] is None or cand < dist[nxt]:
                dist[nxt] = cand
                heapq.heappush(heap, (cand, nxt))
    return dist


# ---------------------------------------------------------------------------
# named closed-form closure classes
# ---------------------------------------------------------------------------


def _dyadic_part(q: int) -> tuple[int, int]:
    """Split q > 0 as (2**k, odd)."""
    two = q & -q
    return two, q // two


def _omega_member(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0 and x != 1


def _omega_min_add(d: Fraction) -> Optional[Fraction]:
    if d.denominator != 1:
        return None
    return Fraction(2) if d == 1 else Fraction(0)


def _dyadic_member(x: Fraction) -> bool:
    return x >= 0 and _dyadic_part(x.denominator)[1] == 1


def _dpt_class(x: Fraction) -> Optional[int]:
    """Residue class a0 of a denominator-3*2^k rational, else None."""
    two, odd = _dyadic_part(x.denominator)
    if odd != 3:
        return None
    return (x.numerator * pow(two, -1, 3)) % 3


def _dpt_member(x: Fraction) -> bool:
    # 0 is dyadic, and a negative x is no dyadic member and below a0/3
    if _dyadic_member(x):
        return True
    a0 = _dpt_class(x)
    return a0 is not None and x > Fraction(a0, 3)


def _dpt_diff_member(x: Fraction) -> bool:
    return _dyadic_part(x.denominator)[1] in (1, 3)


def _dpt_min_add(d: Fraction) -> Optional[Fraction]:
    if _dpt_member(d):
        return Fraction(0)
    a0 = _dpt_class(d)
    if a0 is None:
        return None
    # d <= a0/3 here; minimize over the three residue classes a helper
    # element v can live in (dyadic, complementary, same class)
    third = Fraction(a0, 3)
    candidates = [
        third - d,
        Fraction(3 - a0, 3),
        max(third, Fraction((2 * a0) % 3, 3) - d),
    ]
    return min(candidates)


class _Closure(NamedTuple):
    member: Callable[[Fraction], bool]
    diff_member: Callable[[Fraction], bool]
    min_add: Callable[[Fraction], Optional[Fraction]]
    floppy: tuple
    half_group: tuple
    denominators: Callable[[int], list]
    ddot_empty: bool
    divisibility: Callable[[int, str], Optional[Fraction]]


def _powers_of_two(bound: int) -> list[int]:
    out, q = [], 1
    while q <= bound:
        out.append(q)
        q *= 2
    return out


def _dpt_denoms(bound: int) -> list[int]:
    out = _powers_of_two(bound)
    out += [3 * q for q in _powers_of_two(bound // 3)] if bound >= 3 else []
    return sorted(out)


def _dpt_counterexample(p: int, domain: str) -> Optional[Fraction]:
    if domain == "Z_plus":
        return None  # nonnegative integers are dyadic, hence members
    if p == 3:
        return Fraction(1, 3)
    if p % 3 == 2:
        return Fraction(5, 12)
    return Fraction(13, 48)


CLOSURES = {
    # nonnegative integers without 1
    "omega-minus-1": _Closure(
        member=_omega_member,
        diff_member=lambda x: x.denominator == 1,
        min_add=_omega_min_add,
        floppy=(True, None),
        half_group=(False, (Fraction(2), Fraction(3))),
        denominators=lambda bound: [1],
        ddot_empty=False,
        divisibility=lambda p, domain: Fraction(1),
    ),
    # nonnegative dyadic rationals
    "dyadic": _Closure(
        member=_dyadic_member,
        diff_member=lambda x: _dyadic_part(x.denominator)[1] == 1,
        min_add=lambda d: Fraction(0) if _dyadic_member(d) else None,
        floppy=(True, None),
        half_group=(True, None),
        denominators=_powers_of_two,
        ddot_empty=True,
        divisibility=lambda p, domain: None,
    ),
    # monoid generated by {2^-n : n>=1} and {1/3 + 2^-n : n>=1}
    "dyadic-plus-thirds": _Closure(
        member=_dpt_member,
        diff_member=_dpt_diff_member,
        min_add=_dpt_min_add,
        floppy=(False, Fraction(1, 3)),
        half_group=(False, (Fraction(1, 4), Fraction(7, 12))),
        denominators=_dpt_denoms,
        ddot_empty=True,
        divisibility=_dpt_counterexample,
    ),
}

CLOSURE_IDS = tuple(sorted(CLOSURES))

# the zero monoid {0}: fingen and groupcone with no generators.  It is no
# entry of CLOSURES, so no document or flag can name it; with no
# denominators its grid is empty and it enumerates nothing
_ZERO = _Closure(
    member=lambda x: x == 0,
    diff_member=lambda x: x == 0,
    min_add=lambda d: Fraction(0) if d == 0 else None,
    floppy=(True, None),
    half_group=(True, None),
    denominators=lambda bound: [],
    ddot_empty=True,
    divisibility=lambda p, domain: None,
)


# ---------------------------------------------------------------------------
# monoid descriptions
# ---------------------------------------------------------------------------


# the most points one enumeration visits: the step multiples in a window, or
# a closure's grid of num/q over its denominators q
ENUMERATION_CAP = 100_000


def _check_enumeration(points: int) -> None:
    """InputTooLarge, before any loop, when an enumeration would visit more
    than ENUMERATION_CAP points."""
    if points > ENUMERATION_CAP:
        raise InputTooLarge(f"the enumeration would visit {points} points, "
                            f"above the cap of {ENUMERATION_CAP}")


def _check_pairs(n: int, what: str) -> None:
    """InputTooLarge, before any loop, when the n(n-1)/2 pairs of n points
    of ``what`` are more than ENUMERATION_CAP."""
    pairs = n * (n - 1) // 2
    if pairs > ENUMERATION_CAP:
        raise InputTooLarge(f"the {what} would hold {pairs} pairs, "
                            f"above the cap of {ENUMERATION_CAP}")


class MonoidDesc:
    """A decidable description of a submonoid of the nonnegative rationals."""

    def __init__(self, variant: str, generators=(), closure_id: str | None = None):
        if variant not in ("fingen", "groupcone", "closure"):
            raise ValueError(f"unknown monoid variant {variant!r}")
        self.variant = variant
        gens = [rat(g) for g in generators]
        # over the lcm of the denominators, each generator is one int;
        # equal generators share it, and its order is theirs
        self.scale = lcm(*(g.denominator for g in gens))
        by_int = {g.numerator * (self.scale // g.denominator): g for g in gens}
        scaled = tuple(sorted(by_int))
        self.generators = tuple(by_int[n] for n in scaled)
        self.closure_id = closure_id
        self._closure = None

        if variant == "closure":
            if closure_id not in CLOSURES:
                raise ValueError(f"unknown closure id {closure_id!r}; "
                                 f"known: {', '.join(CLOSURE_IDS)}")
            self._closure = CLOSURES[closure_id]
            return
        if scaled and scaled[0] <= 0:
            raise ValueError("generators must be positive")
        if not scaled:
            self._closure = _ZERO
            return
        # the numerical semigroup <scaled>: its members are the multiples
        # k*step whose unit k is in the reduced semigroup <scaled / step>.
        # A group cone is the nonnegative multiples of its step, the
        # one-generator semigroup of that step
        self._step = step = gcd(*scaled)
        self._reduced = (tuple(n // step for n in scaled)
                         if variant == "fingen" else (1,))
        self._apery = _apery_set(self._reduced)
        self._m0 = m0 = self._reduced[0]
        # conductor of the reduced semigroup: least c with c + Z+ inside it
        self._reduced_conductor = 0 if m0 == 1 else max(self._apery) - m0 + 1

    # -- identity --------------------------------------------------------

    def _key(self):
        return (self.variant, self.generators, self.closure_id)

    def __eq__(self, other):
        return isinstance(other, MonoidDesc) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.variant == "closure":
            return f"MonoidDesc(closure {self.closure_id})"
        gens = ",".join(str(g) for g in self.generators)
        return f"MonoidDesc({self.variant} <{gens}>)"

    @classmethod
    def fingen(cls, generators) -> "MonoidDesc":
        return cls("fingen", generators)

    @classmethod
    def groupcone(cls, generators) -> "MonoidDesc":
        return cls("groupcone", generators)

    @classmethod
    def closure(cls, closure_id: str) -> "MonoidDesc":
        return cls("closure", (), closure_id)

    def is_zero_monoid(self) -> bool:
        return self._closure is _ZERO

    # -- membership --------------------------------------------------------

    def member(self, x) -> bool:
        x = rat(x)
        if self._closure:
            return self._closure.member(x)
        k = self._unit(x)
        return k is not None and self._has(k)

    def diff_member(self, x) -> bool:
        """Membership in the difference set M - M."""
        x = rat(x)
        if self._closure:
            return self._closure.diff_member(x)
        return self._unit(x) is not None

    def _has(self, k: int) -> bool:
        """Is the unit k in the reduced semigroup?  Never for k < 0: every
        Apery entry is >= 0."""
        return k >= self._apery[k % self._m0]

    def _unit(self, x: Fraction) -> Optional[int]:
        """The int k with x = k * gcd(M), or None when x is not in M - M,
        the multiples of gcd(M) = step/scale."""
        k, rest = divmod(x.numerator * self.scale,
                         x.denominator * self._step)
        return None if rest else k

    def _value(self, k: int) -> Fraction:
        """The multiple k * gcd(M)."""
        return Fraction(k * self._step, self.scale)

    def _top_unit(self, window: Fraction) -> int:
        """The largest k with k * gcd(M) <= window; InputTooLarge when the
        units 0 to k are more than ENUMERATION_CAP."""
        top = (window.numerator * self.scale
               // (window.denominator * self._step))
        _check_enumeration(top + 1)
        return top

    def conductor(self) -> Optional[Fraction]:
        """Least c with every multiple of the gcd above c a member; None if n/a."""
        if self._closure:
            return None
        return self._value(self._reduced_conductor)

    # -- infima -------------------------------------------------------------

    def min_add(self, d) -> Optional[Fraction]:
        """inf{v in M : v + d in M} as an exact value, None for the empty set.

        The infimum need not be attained for dense closure classes; for
        fingen/groupcone it always is.
        """
        d = rat(d)
        if d < 0:
            # v + d = w is in M exactly when v = w - d is: inf{w} - d
            extra = self.min_add(-d)
            return None if extra is None else extra - d
        if self._closure:
            return self._closure.min_add(d)
        n, has = self._unit(d), self._has
        if n is None:
            return None
        # v = 0 comes first when d is a member; v = the conductor qualifies
        return self._value(next(v for v in range(self._reduced_conductor + 1)
                                if has(v) and has(v + n)))

    # -- enumeration ----------------------------------------------------------

    def _closure_grid(self, window: Fraction, denom_bound: int, start: int,
                      keep: Callable[[Fraction], bool]) -> set:
        """The grid points num/q <= window with num >= start, over the
        closure's denominators q up to denom_bound, that pass ``keep``."""
        qs = self._closure.denominators(denom_bound)
        _check_enumeration(sum(max(0, int(window * q) + 1 - start)
                               for q in qs))
        return {x for q in qs for num in range(start, int(window * q) + 1)
                if (x := Fraction(num, q)) <= window and keep(x)}

    def elements(self, window, denom_bound: int = 64) -> list[Fraction]:
        """Sorted members of M in [0, window] (denominator-bounded for closures)."""
        window = rat(window)
        if self._closure:
            # 0 is added, not enumerated, so the zero monoid's grid is empty
            grid = self._closure_grid(window, denom_bound, 0,
                                      self._closure.member)
            return sorted(grid | {Fraction(0)}) if window >= 0 else []
        has = self._has
        return [self._value(k) for k in range(self._top_unit(window) + 1)
                if has(k)]

    def diff_elements(self, window, denom_bound: int = 64) -> list[Fraction]:
        """Sorted members of M - M in [-window, window]; none when the
        window is negative."""
        window = rat(window)
        if window < 0:
            return []
        if self._closure:
            half = self._closure_grid(window, denom_bound, 1,
                                      self._closure.diff_member)
            return sorted(half | {-x for x in half} | {Fraction(0)})
        step = self._value(1)
        top = int(window / step)
        _check_enumeration(2 * top + 1)
        return [k * step for k in range(-top, top + 1)]


class DivisibilityWitness(NamedTuple):
    """Outcome of a p-divisibility check.

    kind is "divisible", "counterexample" (element holds the witness s with
    p*s in M, s in the domain, s not in M), or "inconclusive".
    """
    kind: str
    element: Optional[Fraction] = None


# ---------------------------------------------------------------------------
# verdict operations
# ---------------------------------------------------------------------------


def is_half_group(monoid: MonoidDesc, bound=None):
    """Decide whether the symmetrization of M is a group under addition.

    Returns (verdict, witness): verdict True/False, or None when the caller
    capped the search below the conductor (inconclusive).  The witness for a
    False verdict is a pair (a, b) of members whose difference b - a is in
    (M - M) but not in M.
    """
    if monoid._closure:
        return monoid._closure.half_group
    # a cone is a half-group whatever the bound; the semigroup path would
    # call a bound below its conductor 0 inconclusive
    if monoid.variant == "groupcone":
        return True, None
    if bound is not None:
        conductor = monoid.conductor()
        if rat(bound) < conductor:
            return None, f"bound below conductor {conductor}"
    if not monoid._reduced_conductor:
        return True, None
    # the least gap is 1, below m0, and a the least positive member with
    # a + 1 one too: per class r mod m0, the least a >= 1 in the class with
    # a >= apery[r] and a + 1 >= apery[r + 1]
    apery, m0 = monoid._apery, monoid._m0
    a = min(low + (r - low) % m0 for r in range(m0)
            for low in [max(1, apery[r], apery[(r + 1) % m0] - 1)])
    return False, (monoid._value(a), monoid._value(a + 1))


def is_p_divisible_in(monoid: MonoidDesc, p: int, domain: str = "M_minus_M",
                      bound=None) -> DivisibilityWitness:
    """Check whether S intersected with (1/p)M lies inside M.

    S is the nonnegative integers ("Z_plus") or the difference set
    ("M_minus_M").  Verdicts for fingen/groupcone are complete: the least
    witness s (p*s in M, s in S and not in M) is read per residue class mod
    m0 from the Apery set.  It lies below the conductor or, for Z_plus,
    one period g past it: past the conductor s and p*s are members exactly
    when g divides s*scale and p*s*scale.  An explicit ``bound`` answers
    "inconclusive" when it stops short of that period below any witness.
    """
    _require_prime(p)
    if domain not in ("Z_plus", "M_minus_M"):
        raise ValueError(f"unknown domain {domain!r}")
    if monoid._closure:
        witness = monoid._closure.divisibility(p, domain)
        if witness is None:
            return DivisibilityWitness("divisible")
        _assert_counterexample(monoid, p, domain, witness)
        return DivisibilityWitness("counterexample", witness)

    apery, m0 = monoid._apery, monoid._m0

    def least(c: int) -> Optional[int]:
        """The least j >= 0 with the unit p*j*c a member and j*c not."""
        best, pc = None, p * c
        for r in range(m0):
            low = -(-apery[pc * r % m0] // pc)
            j = low + (r - low) % m0
            if j * c < apery[r * c % m0] and (best is None or j < best):
                best = j
        return best

    if domain == "M_minus_M":
        # the least unit k >= 0 of the gcd with p*k a member and k not
        k = least(1)
        return (DivisibilityWitness("divisible") if k is None else
                DivisibilityWitness("counterexample", monoid._value(k)))
    # s is a member when s = j*a and the unit j*c is one (a = step/g, c =
    # scale/g, g = gcd(step, scale)); when p | a, s = i*a/p for i prime to p
    # is none while p*s = i*a is one if i*c is: per class, i or i + m0
    step, scale = monoid._step, monoid.scale
    a, c = step // gcd(step, scale), scale // gcd(step, scale)
    found = [j * a for j in [least(c)] if j is not None]
    if a % p == 0:
        found += [(i + m0 * (i % p == 0)) * a // p for r in range(m0)
                  for low in [max(1, -(-apery[r * c % m0] // c))]
                  for i in [low + (r - low) % m0] if i % p or m0 % p]
    s = min(found, default=None)
    # one period g past the conductor, which is rounded up
    last = -(-monoid._reduced_conductor * step // scale) + step - 1
    if s is not None and s <= last and (bound is None or s <= rat(bound)):
        return DivisibilityWitness("counterexample", Fraction(s))
    complete = bound is None or rat(bound) >= last
    return DivisibilityWitness("divisible" if complete else "inconclusive")


def _assert_counterexample(monoid, p, domain, s):
    ok = (monoid.member(p * s) and not monoid.member(s)
          and (s.denominator == 1 and s >= 0 if domain == "Z_plus"
               else monoid.diff_member(s)))
    if not ok:
        raise RuntimeError(f"stored divisibility witness {s} failed its facts")


def is_floppy(monoid: MonoidDesc):
    """Decide floppiness: any r attaining r = inf{a+b : a,b in M, r = b-a}
    must already belong to M.

    Monoids with a positive least nonzero element are floppy outright; the
    dense closure classes ship hand-verified infimum formulas, so the verdict
    is exact there as well.  Returns (verdict, witness_r_or_None).
    """
    if monoid._closure:
        return monoid._closure.floppy
    # fingen/groupcone: inf of the nonzero elements is the smallest scaled
    # generator, which is positive
    return True, None


def ddot_set(monoid: MonoidDesc, window, denom_bound: int = 64) -> list[Fraction]:
    """Members r <= window that are not sums of two nonzero members.

    For a rational monoid the rational-multiples restriction in the defining
    condition is vacuous, so this is plain two-term indecomposability.  For
    fingen and groupcone these are the minimal generators up to the window
    (see the module docstring); closures scan their denominator grid.
    """
    window = rat(window)
    if monoid._closure:
        if monoid._closure.ddot_empty:
            return []
        members = monoid.elements(window, denom_bound)
        member_set = set(members)
        return [r for r in members if r != 0 and not any(
            0 < x < r and (r - x) in member_set for x in members)]
    top = monoid._top_unit(window)
    has, gens = monoid._has, monoid._reduced
    return [monoid._value(g) for g in gens if g <= top
            and not any(has(g - h) for h in gens if h < g)]
