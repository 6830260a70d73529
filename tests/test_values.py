import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from banakh.graph_metric import _default_sample, _nearer_gap
from banakh.values import (PRIME_CAP, InputTooLarge, SurdValue, ZERO, rat,
                           format_rat, is_prime, primes_from, rational_between,
                           _sum3, _vs_sum)


SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=16)
coeff_maps = st.dictionaries(st.sampled_from(SMALL_PRIMES), rationals,
                             max_size=3)


def surds():
    return st.builds(SurdValue, rationals, coeff_maps)


def as_float(v: SurdValue) -> float:
    return float(v.rational_part) + sum(
        float(c) * math.sqrt(p) for p, c in v.surd_coeffs.items())


# -- construction and normal form -------------------------------------------


def test_zero_coefficients_are_dropped():
    v = SurdValue(3, {2: 0, 3: Fraction(1, 2)})
    assert v.primes() == {3}
    assert v.coefficient(2) == 0


def test_nonprime_index_rejected():
    with pytest.raises(ValueError):
        SurdValue(0, {4: 1})
    with pytest.raises(ValueError):
        SurdValue(0, {1: 1})


def test_rational_only_helpers():
    v = SurdValue(Fraction(7, 3))
    assert v.is_rational() and v.as_rational() == Fraction(7, 3)
    w = SurdValue.sqrt(2)
    assert not w.is_rational()
    with pytest.raises(ValueError):
        w.as_rational()
    assert ZERO.is_zero() and not w.is_zero()


def test_rat_rejects_floats():
    # floats would silently smuggle binary rounding into exact arithmetic
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("7/2") == Fraction(7, 2)


def test_format_rat():
    assert format_rat(Fraction(4, 2)) == "2"
    assert format_rat(Fraction(-3, 7)) == "-3/7"


# -- arithmetic --------------------------------------------------------------


@given(surds(), surds())
def test_addition_matches_componentwise(a, b):
    s = a + b
    assert s.rational_part == a.rational_part + b.rational_part
    for p in a.primes() | b.primes():
        assert s.coefficient(p) == a.coefficient(p) + b.coefficient(p)
    # normal form: no stored zero coefficient
    assert all(c != 0 for c in s.surd_coeffs.values())


def three_term_sum(a, b, c):
    return SurdValue._raw(*_sum3(a._den, a._num, a._surds, b._den, b._num,
                                 b._surds, c._den, c._num, c._surds))


@given(surds(), surds(), surds())
def test_three_term_sum_is_the_lowest_terms_sum(a, b, c):
    s = three_term_sum(a, b, c)
    assert s == a + b + c
    assert s._den > 0
    assert math.gcd(s._den, s._num, *(n for _, n in s._surds)) == 1
    assert all(n for _, n in s._surds)


def test_three_term_sum_reduces_by_a_shared_denominator():
    # 1/3 + 4/3 + 4/3 = 9/3: both gcds of the reduction bound are 3, and
    # only 3, not their product 9, may be divided out of the denominator
    third = SurdValue(Fraction(1, 3))
    four_thirds = SurdValue(Fraction(4, 3))
    assert three_term_sum(third, four_thirds, four_thirds) == SurdValue(3)
    half_root = SurdValue(0, {2: Fraction(1, 2)})
    assert three_term_sum(half_root, SurdValue(Fraction(1, 6)),
                          -half_root) == SurdValue(Fraction(1, 6))


@given(surds(), surds())
def test_subtraction_is_inverse_of_addition(a, b):
    assert (a + b) - b == a
    assert a - a == ZERO


@given(surds(), rationals)
def test_scalar_multiplication(a, q):
    prod = a * q
    assert prod.rational_part == a.rational_part * q
    if q != 0:
        assert prod.primes() == a.primes()
    else:
        assert prod.is_zero()
    assert q * a == prod


def test_product_of_irrationals_rejected():
    with pytest.raises(TypeError):
        SurdValue.sqrt(2) * SurdValue.sqrt(3)
    # rational SurdValue factors are fine either side
    assert SurdValue.sqrt(2) * SurdValue(3) == SurdValue(0, {2: 3})
    assert SurdValue(3) * SurdValue.sqrt(2) == SurdValue(0, {2: 3})


@given(surds())
def test_reflected_ops(a):
    assert 1 + a == a + 1
    assert 5 - a == SurdValue(5) - a
    assert -a == ZERO - a


def test_a_float_is_no_operand_and_division_takes_rationals():
    # each operator answers NotImplemented to a float, so Python raises
    # TypeError, and == is False
    v = SurdValue(1, {2: 1})
    for op in (lambda: v + 0.5, lambda: v - 0.5, lambda: 0.5 - v,
               lambda: v * 0.5, lambda: v < 0.5):
        with pytest.raises(TypeError):
            op()
    assert v != 0.5
    assert SurdValue.of(v) is v
    # a rational SurdValue divides, an irrational one or zero does not
    assert SurdValue(0, {2: 3}) / SurdValue(Fraction(3, 2)) == \
        SurdValue(0, {2: 2})
    assert SurdValue(1, {2: 3}) / Fraction(-3, 2) == \
        SurdValue(Fraction(-2, 3), {2: -2})
    with pytest.raises(ValueError, match="irrational"):
        SurdValue(1) / v
    for zero in (0, ZERO):
        with pytest.raises(ZeroDivisionError):
            v / zero


# -- ordering and sign -------------------------------------------------------


def test_sign_on_rationals():
    assert SurdValue(Fraction(1, 1000)).sign() == 1
    assert SurdValue(0).sign() == 0
    assert SurdValue(-3).sign() == -1


def test_sign_on_classic_surd_identities():
    # sqrt(2) + sqrt(3) > sqrt(5):  3.146... vs 2.236...
    assert SurdValue(0, {2: 1, 3: 1, 5: -1}).sign() == 1
    # 7 - 5*sqrt(2) < 0 by a whisker (5*sqrt(2) = 7.071...)
    assert SurdValue(7, {2: -5}).sign() == -1
    # 99/70 is a convergent of sqrt(2) from above
    assert (SurdValue(Fraction(99, 70)) - SurdValue.sqrt(2)).sign() == 1
    assert (SurdValue(Fraction(140, 99)) - SurdValue.sqrt(2)).sign() == -1


@given(surds(), surds())
@settings(max_examples=300)
def test_trichotomy(a, b):
    lt, eq, gt = a < b, a == b, a > b
    assert [lt, eq, gt].count(True) == 1
    assert eq == ((b - a).sign() == 0)
    assert lt == ((b - a).sign() == 1)


@given(surds(), surds())
def test_order_agrees_with_float_when_separated(a, b):
    fa, fb = as_float(a), as_float(b)
    if abs(fa - fb) > 1e-6:
        assert (a < b) == (fa < fb)


@given(surds())
def test_equality_is_structural_and_hash_consistent(a):
    twin = SurdValue(a.rational_part, dict(a.surd_coeffs))
    assert a == twin and hash(a) == hash(twin)


# -- certified bounds --------------------------------------------------------


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=4, max_value=60))
def test_sqrt_brackets_certify(p, scale):
    # the brackets that sign and the gap search refine, at one root
    lo, hi = SurdValue.sqrt(p).brackets(scale)
    assert lo * lo <= p < hi * hi
    assert hi - lo == Fraction(1, 2 ** scale)


@given(surds(), st.integers(min_value=8, max_value=40))
def test_value_brackets_contain_float(a, scale):
    lo, hi = a.brackets(scale)
    assert lo <= hi
    f = as_float(a)
    assert float(lo) - 1e-6 <= f <= float(hi) + 1e-6


def test_brackets_reproducible_after_comparisons():
    # comparisons may refine internal caches; public brackets must not move
    a = SurdValue(1, {2: Fraction(1, 3), 5: Fraction(-1, 7)})
    first = a.brackets(16)
    _ = a < SurdValue(1)
    _ = a.sign()
    assert a.brackets(16) == first


def test_sign_of_tiny_surd_difference():
    # sqrt(2) - 665857/470832 is about -1.6e-12; interval refinement must
    # still land the exact sign
    v = SurdValue(Fraction(-665857, 470832), {2: 1})
    assert v.sign() == -1
    assert (-v).sign() == 1


def _doubles_overlap(a, b):
    (a_lo, a_hi), (b_lo, b_hi) = a._enclosure(), b._enclosure()
    return a_lo <= b_hi and b_lo <= a_hi


# p**2 - 2*q**2 is +1 above sqrt(2) and -1 below: each gap to sqrt(2) is
# under 1e-16, below the double enclosure radius, so only the exact
# fallback can order them
PELL_ABOVE = SurdValue(Fraction(131836323, 93222358))
PELL_BELOW = SurdValue(Fraction(54608393, 38613965))


@pytest.mark.parametrize("q, above", [(PELL_ABOVE, True), (PELL_BELOW, False)],
                         ids=["above", "below"])
def test_near_tie_with_a_rational_takes_the_exact_path(q, above):
    r2 = SurdValue.sqrt(2)
    x = q.as_rational()
    assert (x.numerator ** 2 - 2 * x.denominator ** 2 > 0) == above
    assert _doubles_overlap(r2, q)
    assert (r2 < q) == above and (q < r2) == (not above)
    assert (q - r2).sign() == (1 if above else -1)
    assert sorted([q, r2]) == ([r2, q] if above else [q, r2])
    assert sorted([r2, PELL_ABOVE, PELL_BELOW]) == [PELL_BELOW, r2, PELL_ABOVE]


def test_near_tie_between_two_surds_and_a_rational():
    # x < sqrt(2) + sqrt(3) exactly when (x**2 - 1)**2 < 8*x**2 (for x > 1);
    # the gap is about 7e-17
    v = SurdValue(0, {2: 1, 3: 1})
    q = SurdValue(Fraction(241985545, 76912019))
    x = q.as_rational()
    below = (x * x - 1) ** 2 < 8 * x * x
    assert below and _doubles_overlap(v, q)
    assert q < v and not v < q
    assert (v - q).sign() == 1
    assert sorted([v, q]) == [q, v]


# -- rational proportionality -----------------------------------------------


def test_order_and_sign_beyond_the_double_range():
    # float(10**400) overflows: the float filter must step aside for the
    # exact brackets instead of raising
    huge = 10 ** 400
    a, b = SurdValue(huge, {2: 1}), SurdValue(huge, {3: 1})
    assert a._enclosure() == (-math.inf, math.inf)
    assert a < b and not b < a
    assert a.sign() == 1 and (a - b).sign() == -1
    assert SurdValue(-huge, {3: 1}).sign() == -1


def test_rat_turns_a_zero_denominator_into_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        rat("1/0")


@pytest.mark.parametrize("text", ["1e5", "2E-3", "1e10000000"])
def test_rat_rejects_exponent_notation_at_once(text):
    # Fraction("1e10000000") alone builds the power of ten, for seconds
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent notation"):
        rat(text)
    assert time.perf_counter() - start < 1.0
    assert rat("1.25") == Fraction(5, 4)


def test_ratio_to_cases():
    r2 = SurdValue.sqrt(2)
    assert (3 * r2).ratio_to(r2) == 3
    assert r2.ratio_to(3 * r2) == Fraction(1, 3)
    assert SurdValue(6).ratio_to(SurdValue(4)) == Fraction(3, 2)
    assert r2.ratio_to(SurdValue.sqrt(3)) is None
    assert (r2 + 1).ratio_to(r2) is None
    assert ZERO.ratio_to(ZERO) == 1
    assert ZERO.ratio_to(r2) == 0
    assert r2.ratio_to(ZERO) is None


@given(surds(), st.fractions(min_value=Fraction(1, 9),
                             max_value=9, max_denominator=9))
def test_ratio_roundtrip(a, q):
    if a.is_zero():
        return
    assert (a * q).ratio_to(a) == q


@given(surds(), surds(), rationals, st.sampled_from(
    ["free", "multiple", "shifted", "zero"]))
@settings(max_examples=300)
def test_ratio_to_matches_the_reference(a, b, q, how):
    # b is free, a rational multiple of a (q may be 0), such a multiple
    # plus 1, or zero; both orders, so a zero lands on each side
    if how == "multiple":
        b = a * q
    elif how == "shifted":
        b = a * q + 1
    elif how == "zero":
        b = ZERO
    for x, y in ((a, b), (b, a)):
        want = oracles.surd_ratio(x, y)
        got = x.ratio_to(y)
        assert got == want and (got is None) == (want is None), (x, y)


def test_surd_coeffs_is_a_read_only_view():
    # the hash and the float enclosure are cached before the write
    x = SurdValue(0, {2: 1})
    h = hash(x)
    assert x < 2
    with pytest.raises(TypeError):
        x.surd_coeffs[2] = Fraction(3)
    assert x == SurdValue(0, {2: 1}) and hash(x) == h
    assert hash(SurdValue(0, {2: 1})) == h and x < 2
    for y in (x + x, x - 1, 1 - x, -x, 3 * x):
        with pytest.raises(TypeError):
            y.surd_coeffs[3] = Fraction(1)
    assert x.surd_coeffs == {2: 1}


# -- helpers -----------------------------------------------------------------


def test_rational_between_lands_strictly_inside():
    lo = SurdValue.sqrt(2)
    hi = SurdValue(Fraction(3, 2))
    near = lo + Fraction(1, 10 ** 30)
    # (lo, near) is searched on finer scales until its brackets part
    for a, b in ((lo, hi), (lo, near)):
        mid = SurdValue(rational_between(a, b))
        assert (mid - a).sign() == 1 and (b - mid).sign() == 1
    # an empty interval raises, never searches on: its first brackets meet
    for a, b in ((hi, lo), (lo, lo), (hi, hi), (near, lo)):
        with pytest.raises(ValueError, match="empty interval"):
            rational_between(a, b)


def test_primes_from_skips_composites():
    gen = primes_from(90)
    assert [next(gen) for _ in range(3)] == [97, 101, 103]
    assert is_prime(2) and not is_prime(1) and not is_prime(91)


def test_primality_is_capped_above_two_to_the_32():
    # trial division at the cap takes milliseconds; far above it, hours
    assert PRIME_CAP == 2 ** 32
    assert is_prime(4294967291)          # the largest prime below 2**32
    with pytest.raises(InputTooLarge):
        is_prime(4294967311)             # the least prime above it
    with pytest.raises(InputTooLarge):
        SurdValue(0, {100000000000000000039: 1})
    assert issubclass(InputTooLarge, ValueError)


# -- the int representation against the {prime: Fraction} reference -------


# small, large and power-of-two denominators, so that sums meet mixed ones
mixed_rationals = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40)),
    st.builds(lambda n, k: Fraction(n, 2 ** k),
              st.integers(-2 ** 80, 2 ** 80), st.integers(0, 200)),
)


@st.composite
def value_pairs(draw):
    """Two values with their references: b is free, a's negation, a plus a
    tiny rational or surd, or a rational multiple of a."""
    q = draw(mixed_rationals)
    cs = draw(st.dictionaries(st.sampled_from(SMALL_PRIMES), mixed_rationals,
                              max_size=3))
    a, ra = SurdValue(q, cs), oracles.surd(q, cs)
    how = draw(st.sampled_from(["free", "negated", "nudged", "multiple"]))
    if how == "free":
        q2 = draw(mixed_rationals)
        cs2 = draw(st.dictionaries(st.sampled_from(SMALL_PRIMES),
                                   mixed_rationals, max_size=3))
        return a, ra, SurdValue(q2, cs2), oracles.surd(q2, cs2)
    if how == "negated":
        return a, ra, -a, oracles.surd_scale(ra, -1)
    if how == "nudged":
        tiny = Fraction(draw(st.sampled_from([1, -1])), 10 ** 30)
        p = draw(st.sampled_from([None] + SMALL_PRIMES))
        nudge = {} if p is None else {p: tiny}
        r = 0 if p is not None else tiny
        return (a, ra, a + SurdValue(r, nudge),
                oracles.surd_add(ra, oracles.surd(r, nudge)))
    k = draw(mixed_rationals)
    return a, ra, a * k, oracles.surd_scale(ra, k)


@given(value_pairs(), mixed_rationals)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_the_reference(pair, k):
    a, ra, b, rb = pair
    assert oracles.surd_of(a) == ra and oracles.surd_of(b) == rb
    assert oracles.surd_of(a + b) == oracles.surd_add(ra, rb)
    assert oracles.surd_of(a - b) == oracles.surd_add(ra, rb, -1)
    assert oracles.surd_of(-a) == oracles.surd_scale(ra, -1)
    assert oracles.surd_of(a * k) == oracles.surd_scale(ra, k)
    assert oracles.surd_of(SurdValue(k) * a) == oracles.surd_scale(ra, k)
    if k:
        assert oracles.surd_of(a / k) == oracles.surd_scale(ra, 1 / k)
    assert oracles.surd_of(a + k) == oracles.surd_add(ra, oracles.surd(k))


@given(value_pairs())
@settings(max_examples=200, deadline=None)
def test_equality_and_hash_agree_with_the_reference(pair):
    a, ra, b, rb = pair
    assert (a == b) == (ra == rb)
    # the same value reached by other roads is the same ints
    for twin in ((a + b) - b, (b + a) - b, SurdValue(*ra), -(-a)):
        assert twin == a and hash(twin) == hash(a)


@given(value_pairs())
@settings(max_examples=200, deadline=None)
def test_order_and_sign_match_the_reference(pair):
    a, ra, b, rb = pair
    diff = oracles.surd_sign(oracles.surd_add(ra, rb, -1))
    assert (a < b, a == b, b < a) == (diff < 0, diff == 0, diff > 0)
    assert a.sign() == oracles.surd_sign(ra)
    assert (a - b).sign() == diff


@given(value_pairs(), st.sampled_from([1, 8, 16, 64]))
@settings(max_examples=200, deadline=None)
def test_brackets_and_rational_between_match_the_reference(pair, scale):
    a, ra, b, rb = pair
    assert a.brackets(scale) == oracles.surd_brackets(ra, scale)
    if a == b:
        return
    (lo, rlo), (hi, rhi) = sorted([(a, ra), (b, rb)], key=lambda t: t[0])
    assert rational_between(lo, hi) == oracles.surd_between(rlo, rhi)


class OneDraw:
    """An rng whose one draw, randrange(0, 256), gives k."""

    def __init__(self, k):
        self.k, self.draws = k, 0

    def randrange(self, start, stop):
        assert (start, stop) == (0, 256)
        self.draws += 1
        return self.k


@given(value_pairs(), st.integers(0, 255),
       st.sampled_from([17, 101, 65537, 4294967291]))
@settings(max_examples=200, deadline=None)
def test_sampler_matches_the_fraction_composition(pair, k, prime):
    # the int sampler against c + eps*sqrt(p) composed in Fractions, on the
    # same draw: the same value in the same lowest-terms ints
    a, ra, b, rb = pair
    if a == b:
        return
    (lo, rlo), (hi, rhi) = sorted([(a, ra), (b, rb)], key=lambda t: t[0])
    rng = OneDraw(k)
    value = _default_sample(lo, hi, rng, prime)
    want = oracles.surd_sample(rlo, rhi, k, prime)
    assert rng.draws == 1 and oracles.surd_of(value) == want
    assert value == SurdValue(*want) and lo < value < hi


def test_nearer_gap_builds_one_difference_when_the_enclosures_decide(
        monkeypatch):
    r2 = SurdValue.sqrt(2)
    lo, hi = 3 - r2, 3 + r2
    # (c, lo, hi, decided on the enclosures): undecided ones build both
    # differences and compare them exactly
    cases = [
        (3, lo, hi, False),                          # 2c = lo + hi exactly
        (3, lo, hi + Fraction(1, 10 ** 30), False),  # inside the margin
        (Fraction(5, 2), lo, hi, True),              # c - lo is the smaller
        (Fraction(7, 2), lo, hi, True),              # hi - c is the smaller
    ]
    real = SurdValue.__sub__
    subs = []

    def counting(self, other):
        subs.append(other)
        return real(self, other)

    monkeypatch.setattr(SurdValue, "__sub__", counting)
    for c, lo, hi, decided in cases:
        c = SurdValue.of(c)
        want = min(real(c, lo), real(hi, c))
        subs.clear()
        assert _nearer_gap(c, lo, hi) == want
        assert (len(subs) == 1) == decided and len(subs) >= 1, c


@given(value_pairs())
@settings(max_examples=200, deadline=None)
def test_ratio_to_and_exceeds_match_the_reference(pair):
    a, ra, b, rb = pair
    for x, rx, y, ry in ((a, ra, b, rb), (b, rb, a, ra)):
        assert x.ratio_to(y) == oracles.surd_ratio_ref(rx, ry)
    # the sign of c - (a + b), on all-rational triples as well as surd ones
    for c, rc in ((a + b, oracles.surd_add(ra, rb)), (b, rb), (a * 3, None)):
        rc = rc or oracles.surd_scale(ra, 3)
        for x, rx, y, ry in ((a, ra, b, rb), (a, ra, a, ra)):
            want = oracles.surd_sign(oracles.surd_add(
                rc, oracles.surd_add(rx, ry), -1))
            assert _vs_sum(c, x, y) == want


@st.composite
def sum_triples(draw):
    """(c, a, b) with the reference of c - a - b.  The operands are values
    with surds, zero (a path search's source), beyond the double range, or
    all rational over one denominator or several; c is a + b built as a
    separate object, that tie moved by a last-bits offset of either sign,
    rationally or along a surd, or a free value."""
    kind = draw(st.sampled_from(["surd", "zero", "huge", "one-den",
                                 "rational"]))
    den = draw(st.sampled_from([1, 3, 2 ** 61, 10 ** 20 + 1]))

    def operand():
        if kind == "one-den":
            n = draw(st.integers(-10 ** 30, 10 ** 30).filter(
                lambda n: math.gcd(n, den) == 1))
            return Fraction(n, den), {}
        q = draw(mixed_rationals)
        if kind == "rational":
            return q, {}
        if kind == "huge":
            q += draw(st.sampled_from([1, -1])) * 10 ** 400
        return q, draw(coeff_maps)

    (qa, ca), (qb, cb) = operand(), operand()
    if kind == "zero":
        qa, ca = 0, {}
    ra, rb = oracles.surd(qa, ca), oracles.surd(qb, cb)
    rc = oracles.surd_add(ra, rb)
    how = draw(st.sampled_from(["tie", "offset", "free"]))
    if how == "offset":
        size = 1 + abs(rc[0]) + sum(abs(c) for c in rc[1].values())
        e = Fraction(draw(st.sampled_from([1, -1])),
                     2 ** draw(st.integers(45, 70))) * size
        p = draw(st.sampled_from([None] + SMALL_PRIMES))
        rc = oracles.surd_add(rc, oracles.surd(e) if p is None
                              else oracles.surd(0, {p: e}))
    elif how == "free":
        rc = oracles.surd(*operand())
    values = [SurdValue(*r) for r in (rc, ra, rb)]
    want = oracles.surd_sign(oracles.surd_add(rc, oracles.surd_add(ra, rb),
                                              -1))
    return (*values, want)


@given(sum_triples())
# an irrational tie, and one over a shared denominator that b decides
@example((SurdValue(3, {2: 1}), SurdValue(1), SurdValue(2, {2: 1}), 0))
@example((SurdValue(Fraction(5, 3)), SurdValue(Fraction(1, 3)),
          SurdValue(Fraction(4, 3)), 0))
@settings(max_examples=300, deadline=None)
def test_vs_sum_is_the_sign_of_the_reference(triple):
    c, a, b, want = triple
    assert _vs_sum(c, a, b) == want
    assert _vs_sum(c, b, a) == want


@given(value_pairs())
@settings(max_examples=200, deadline=None)
def test_float_interval_encloses_the_exact_value(pair):
    for v, rv in pair[:2], pair[2:]:
        lo, hi = v._enclosure()
        if (lo, hi) == (-math.inf, math.inf):
            continue
        lo, hi = Fraction(lo), Fraction(hi)
        if not rv[1]:
            assert lo <= rv[0] <= hi
        else:
            blo, bhi = oracles.surd_brackets(rv, 200)
            assert lo <= blo and bhi <= hi


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-2, 7),
                               Fraction(10 ** 30 + 1, 3 ** 70),
                               Fraction(1, 10 ** 400)])
def test_float_interval_of_a_rational_covers_its_rounding(q):
    # one division by den, rounded, then each end rounded: the radius must
    # count both
    lo, hi = SurdValue(q)._enclosure()
    assert Fraction(lo) <= q <= Fraction(hi)


def test_arithmetic_and_the_sampler_make_no_validating_calls(monkeypatch):
    a = SurdValue(Fraction(7, 3), {2: Fraction(1, 5), 3: -1})
    b = SurdValue(Fraction(-2, 9), {3: Fraction(1, 7), 5: 2})
    lo, hi = SurdValue(1, {2: Fraction(1, 1000)}), SurdValue(Fraction(3, 2))
    calls = []

    def count(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    real = SurdValue.__init__
    monkeypatch.setattr(SurdValue, "__init__", count)
    values = [a + b, a - b, -a, a * 3, a * Fraction(2, 3), 3 * a, a / 5,
              a + 1, 1 - a, Fraction(1, 2) + a, abs(b), a * SurdValue.of(2)]
    assert a != 2 and a < b + 10 and a < 1 and not a < 0 and b.sign() == 1
    assert (a * 4).ratio_to(a) == 4 and rational_between(a, a + 1) > 0
    assert a.brackets(8)[0] < a.brackets(8)[1]
    value = _default_sample(lo, hi, random.Random(1), 7)
    assert lo < value < hi and len(values) == 12
    assert calls == []


def test_surd_indices_are_ints():
    # int() once truncated 2.7 to 2, and read "2" and "02" as one index
    for key in (2.7, 2.0, "2", "02", None):
        with pytest.raises(TypeError):
            SurdValue(0, {key: 1})
    assert SurdValue(0, {True + 1: 1}) == SurdValue.sqrt(2)


def test_rational_part_is_read_only():
    # the hash and the float enclosure are cached before the write
    x = SurdValue(Fraction(1, 2), {2: 1})
    h, ends = hash(x), x._enclosure()
    with pytest.raises(AttributeError):
        x.rational_part = Fraction(5)
    with pytest.raises(AttributeError):
        x.surd_coeffs = {}
    assert x.rational_part == Fraction(1, 2) and hash(x) == h
    assert x._enclosure() == ends
