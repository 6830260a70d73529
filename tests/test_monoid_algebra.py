import random
import time
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from banakh.values import InputTooLarge
from banakh.graph_metric import MuGraph
from banakh.monoid_algebra import (APERY_CAP, ENUMERATION_CAP, MonoidDesc,
                                   DivisibilityWitness, MonoidTooLarge,
                                   MonoidMembershipError,
                                   dzik_reduce, delta_p, div_p,
                                   is_half_group, is_p_divisible_in,
                                   is_floppy, ddot_set, CLOSURES,
                                   _assert_counterexample)
from banakh.serialize import monoid_from_json, monoid_to_json


OMEGA1 = MonoidDesc.closure("omega-minus-1")
DYADIC = MonoidDesc.closure("dyadic")
DPT = MonoidDesc.closure("dyadic-plus-thirds")

gen_lists = st.lists(st.integers(min_value=1, max_value=30),
                     min_size=1, max_size=4, unique=True)


# -- p-free parts and the reduction ------------------------------------------


@given(st.integers(min_value=1, max_value=10 ** 9),
       st.sampled_from([2, 3, 5, 7]))
@example(12, 2)
def test_delta_p_matches_factorization(x, p):
    assert delta_p(x, p) == oracles.p_free_part(x, p)


def test_delta_p_input_checks():
    with pytest.raises(ValueError):
        delta_p(0, 2)
    with pytest.raises(ValueError):
        delta_p(6, 4)


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6),
       st.sampled_from([3, 5, 7, 11]))
@example(4, 3, 5)
@example(5, 3, 5)
def test_div_p_defining_congruence(x, y, p):
    if x % p == 0 or y % p == 0:
        with pytest.raises(ValueError):
            div_p(x, y, p)
        return
    k = div_p(x, y, p)
    assert 1 <= k < p
    assert (k * y - x) % p == 0


@given(st.integers(min_value=1, max_value=50000),
       st.integers(min_value=1, max_value=50000),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=300)
def test_dzik_reduce_value_and_decrease(a, b, p):
    result = dzik_reduce(a, b, p)
    assert result.value == oracles.p_free_gcd(a, b, p)
    sums = [x + y for x, y in result.trace]
    assert all(s > t for s, t in zip(sums, sums[1:]))
    assert result.trace[-1] == (result.value, result.value)


def test_dzik_reduce_membership_oracle_denial():
    # a membership oracle that rejects everything above the inputs forces a
    # denial as soon as the trace needs a new element
    with pytest.raises(MonoidMembershipError) as info:
        dzik_reduce(4, 6, 2, member=lambda n: n in (1, 4, 6))
    assert info.value.element not in (1, 4, 6)
    # a permissive oracle changes nothing: p-free gcd of (4, 6) at p=2 is 1
    assert dzik_reduce(4, 6, 2, member=lambda n: True).value == 1
    # the start (3, 5) passes, its successor 1 = (5 + 3)/8 does not
    with pytest.raises(MonoidMembershipError) as info:
        dzik_reduce(3, 5, 2, member=lambda n: n in (3, 5))
    assert info.value.element == 1


@pytest.mark.parametrize("a,b", [(0, 5), (5, 0), (-2, 4)])
def test_dzik_reduce_rejects_an_input_that_is_not_positive(a, b):
    with pytest.raises(ValueError, match="needs positive integers"):
        dzik_reduce(a, b, 2)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 15])
@pytest.mark.parametrize("a,b", [(6, 10), (5, 5), (1, 1)])
def test_dzik_reduce_rejects_a_non_prime_p(a, b, p):
    # p is checked before the p-free parts are taken: dividing out p = 1
    # would never end, and equal inputs would skip the loop
    with pytest.raises(ValueError, match="not prime"):
        dzik_reduce(a, b, p)


# -- finitely generated membership vs brute closure ---------------------------


@given(gen_lists)
@settings(max_examples=60, deadline=None)
def test_fingen_membership_matches_brute_closure(gens):
    m = MonoidDesc.fingen(gens)
    bound = 3 * max(gens) * min(gens) + 10
    brute = oracles.closure_ints(gens, bound)
    for x in range(bound + 1):
        assert m.member(x) == (x in brute), (gens, x)


@given(gen_lists)
@settings(max_examples=40, deadline=None)
def test_conductor_is_tight(gens):
    m = MonoidDesc.fingen(gens)
    c = m.conductor()
    step = Fraction(gcd(*gens) if len(gens) > 1 else gens[0])
    # everything at or beyond the conductor (stepping by the gcd) is in
    for k in range(12):
        assert m.member(c + k * step)
    if c > 0:
        assert not m.member(c - step)


def test_rational_generators_scale_correctly():
    m = MonoidDesc.fingen([Fraction(1, 2), Fraction(3, 4)])
    assert m.member(Fraction(5, 4))       # 1/2 + 3/4
    assert not m.member(Fraction(1, 4))
    assert m.member(0)
    brute = oracles.closure_fractions([Fraction(1, 2), Fraction(3, 4)],
                                      Fraction(4))
    assert set(m.elements(4)) == brute


def test_generators_are_sorted_and_deduplicated_fractions():
    m = MonoidDesc.fingen([Fraction(3, 4), "1/2", 2, Fraction(6, 8),
                           Fraction(2, 4)])
    assert m.generators == (Fraction(1, 2), Fraction(3, 4), Fraction(2))
    assert all(type(g) is Fraction for g in m.generators)
    assert m == MonoidDesc.fingen([Fraction(1, 2), Fraction(3, 4), 2])
    assert m.scale == 4
    assert m.member(Fraction(5, 4)) and not m.member(Fraction(1, 4))
    for gens in ([Fraction(1, 2), 0], [3, Fraction(-1, 3)]):
        with pytest.raises(ValueError, match="positive"):
            MonoidDesc.fingen(gens)


def test_elements_enumeration_matches_brute():
    m = MonoidDesc.fingen([3, 5])
    assert m.elements(13) == sorted(oracles.closure_ints([3, 5], 13))
    assert m.diff_elements(4) == [-4, -3, -2, -1, 0, 1, 2, 3, 4]


def test_apery_cap_applies_to_the_least_reduced_generator():
    at_cap = MonoidDesc.fingen([APERY_CAP, APERY_CAP + 1])
    assert at_cap.member(2 * APERY_CAP + 1)
    assert not at_cap.member(APERY_CAP - 1)
    with pytest.raises(MonoidTooLarge) as info:
        MonoidDesc.fingen([3 * (APERY_CAP + 1), 3 * (APERY_CAP + 2)])
    assert info.value.least == APERY_CAP + 1
    assert isinstance(info.value, ValueError)
    # scaled to the integers first: 10**-9 and 1 reduce to 1 and 10**9
    tiny = MonoidDesc.fingen([Fraction(1, 10 ** 9), 1])
    assert tiny.member(Fraction(7, 10 ** 9))


def test_step_enumerations_are_capped():
    # one step multiple past the cap: a missing check would allocate
    # ENUMERATION_CAP + 1 entries and answer
    line = MonoidDesc.fingen([1])
    with pytest.raises(InputTooLarge):
        line.elements(ENUMERATION_CAP)
    top = (ENUMERATION_CAP - 1) // 2
    assert len(line.diff_elements(top)) == 2 * top + 1 <= ENUMERATION_CAP
    with pytest.raises(InputTooLarge):
        line.diff_elements(top + 1)
    with pytest.raises(InputTooLarge):
        MonoidDesc.groupcone([Fraction(1, 3)]).elements(
            Fraction(ENUMERATION_CAP, 3))


def test_closure_grids_are_capped():
    # omega-minus-1 has the one denominator 1; dyadic 1, 2, 4, ... up to the
    # bound, so a 2**17 bound puts 2**18 + 17 points on [0, 1]
    with pytest.raises(InputTooLarge):
        OMEGA1.elements(ENUMERATION_CAP)
    with pytest.raises(InputTooLarge):
        OMEGA1.diff_elements(ENUMERATION_CAP + 1)
    with pytest.raises(InputTooLarge):
        DYADIC.elements(1, denom_bound=2 ** 17)
    with pytest.raises(InputTooLarge):
        DYADIC.diff_elements(1, denom_bound=2 ** 17)
    assert isinstance(MonoidTooLarge(APERY_CAP + 1), InputTooLarge)


def test_half_group_witness_needs_no_window_enumeration():
    # the conductor of <1000, 1001> is 999000, so the window up to it holds
    # more step multiples than ENUMERATION_CAP; the witness is found first
    verdict, witness = is_half_group(MonoidDesc.fingen([1000, 1001]))
    assert verdict is False and witness == (1000, 1001)


def test_half_group_witness_is_read_from_the_apery_set():
    # the least consecutive members of <2, 10**40 + 1> are 10**40 and
    # 10**40 + 1, far beyond any scan; the Apery set gives them at once
    big = 10 ** 40
    start = time.perf_counter()
    assert is_half_group(MonoidDesc.fingen([2, big + 1])) == \
        (False, (big, big + 1))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("monoid", [
    MonoidDesc.fingen([1]), MonoidDesc.fingen([2, 3]),
    MonoidDesc.groupcone([Fraction(1, 2)]), MonoidDesc.fingen([]),
    MonoidDesc.groupcone([]), OMEGA1, DYADIC, DPT],
    ids=["line", "2-3", "cone-half", "zero-fingen", "zero-cone",
         "omega-minus-1", "dyadic", "dyadic-plus-thirds"])
def test_a_negative_window_enumerates_nothing(monoid):
    # M - M in [-w, w] is empty for w < 0; int(window / step) once
    # truncated -1/2 and -1/3 to 0 and gave [0]
    for window in (-1, Fraction(-1, 2), Fraction(-1, 3)):
        assert monoid.diff_elements(window) == []
        assert monoid.elements(window) == []
    assert monoid.diff_elements(0) == [0]
    assert monoid.elements(0) == [0]


def test_descriptions_compare_by_their_generator_set():
    a, b = MonoidDesc.fingen([3, 2]), MonoidDesc.fingen([2, 3])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != MonoidDesc.groupcone([2, 3]) != MonoidDesc.closure("dyadic")


def test_zero_monoid_degenerate_cases():
    for variant in ("fingen", "groupcone"):
        z = MonoidDesc(variant, [])
        assert z.is_zero_monoid()
        assert z.member(0) and not z.member(1)
        assert z.diff_member(0) and not z.diff_member(1)
        assert z.min_add(0) == 0 and z.min_add(1) is None
        assert z.conductor() is None
        # the only member is 0, so no window is too wide to enumerate
        assert z.elements(10 ** 6) == [Fraction(0)]
        assert z.diff_elements(10 ** 6) == [Fraction(0)]
        assert is_half_group(z) == (True, None)
        assert is_half_group(z, bound=-1) == (True, None)
        for domain in ("M_minus_M", "Z_plus"):
            assert is_p_divisible_in(z, 2, domain) == DivisibilityWitness(
                "divisible")
        with pytest.raises(ValueError):
            is_p_divisible_in(z, 4)
        with pytest.raises(ValueError):
            is_p_divisible_in(z, 2, "bogus")
        assert is_floppy(z) == (True, None)
        assert ddot_set(z, 10 ** 9) == []
        doc = monoid_to_json(z)
        assert doc == {"variant": variant, "generators": []}
        assert monoid_from_json(doc) == z
        assert repr(z) == f"MonoidDesc({variant} <>)"
        with pytest.raises(ValueError, match="no nonzero elements"):
            MuGraph(z, 1, 3)


def test_an_unknown_variant_or_closure_id_is_refused():
    with pytest.raises(ValueError, match="unknown monoid variant 'cone'"):
        MonoidDesc("cone", [1])
    with pytest.raises(ValueError, match="unknown closure id 'primes'; known"):
        MonoidDesc.closure("primes")


@pytest.mark.parametrize("m", [MonoidDesc.fingen([]), MonoidDesc.fingen([2]),
                               OMEGA1, DYADIC, DPT], ids=repr)
def test_a_negative_window_holds_no_member(m):
    assert m.elements(Fraction(-1, 2)) == []
    assert m.elements(0) == [0]


# -- half-group verdicts -------------------------------------------------------


@given(gen_lists)
@settings(max_examples=60, deadline=None)
def test_half_group_matches_brute(gens):
    m = MonoidDesc.fingen(gens)
    verdict, witness = is_half_group(m)
    brute_verdict, _ = oracles.half_group_verdict_ints(gens)
    assert verdict == brute_verdict
    if not verdict:
        a, b = witness
        assert m.member(a) and m.member(b)
        assert not m.member(b - a)


def test_half_group_bound_below_conductor_is_inconclusive():
    m = MonoidDesc.fingen([6, 10, 15])
    verdict, reason = is_half_group(m, bound=3)
    assert verdict is None and "conductor" in reason


@given(gen_lists)
def test_groupcone_is_always_half_group(gens):
    assert is_half_group(MonoidDesc.groupcone(gens)) == (True, None)


def test_groupcone_membership():
    cone = MonoidDesc.groupcone([4, 6])   # gcd 2: all even nonnegatives
    assert cone.member(2) and not cone.member(3) and cone.member(0)


rational_gens = st.lists(st.fractions(min_value=Fraction(1, 12),
                                      max_value=12, max_denominator=12),
                         min_size=1, max_size=4)


def _rational_gcd(gens):
    """The least positive element of the subgroup of Q the gens generate:
    gcd(a/b, c/d) = gcd(ad, cb) / bd."""
    step = gens[0]
    for g in gens[1:]:
        step = Fraction(gcd(step.numerator * g.denominator,
                            g.numerator * step.denominator),
                        step.denominator * g.denominator)
    return step


@given(rational_gens, st.fractions(min_value=-30, max_value=30,
                                   max_denominator=24))
@settings(max_examples=80, deadline=None)
@example([Fraction(2), Fraction(3)], Fraction(1))
def test_groupcone_is_the_semigroup_of_its_step(gens, x):
    cone = MonoidDesc.groupcone(gens)
    step = _rational_gcd(gens)
    line = MonoidDesc.fingen([step])
    assert cone.member(x) == line.member(x) == (x >= 0
                                                and (x / step).denominator == 1)
    assert cone.diff_member(x) == line.diff_member(x)
    assert cone.min_add(x) == line.min_add(x)
    assert cone.conductor() == line.conductor() == 0
    window = 8 * step
    assert cone.elements(window) == line.elements(window)
    assert cone.diff_elements(window) == line.diff_elements(window)
    for bound in (None, 0, 7):
        assert is_half_group(cone, bound) == is_half_group(line, bound) \
            == (True, None)
    assert is_half_group(cone, -1) == (True, None)
    assert is_floppy(cone) == is_floppy(line)
    assert ddot_set(cone, window) == ddot_set(line, window) == [step]
    for p in (2, 3, 5):
        for domain in ("Z_plus", "M_minus_M"):
            for bound in (None, 4):
                assert is_p_divisible_in(cone, p, domain, bound) == \
                    is_p_divisible_in(line, p, domain, bound), (p, domain)


# -- divisibility --------------------------------------------------------------


@given(gen_lists, st.sampled_from([2, 3, 5]),
       st.sampled_from(["Z_plus", "M_minus_M"]))
@settings(max_examples=60, deadline=None)
def test_divisibility_verdicts_hold_by_brute_scan(gens, p, domain):
    m = MonoidDesc.fingen(gens)
    witness = is_p_divisible_in(m, p, domain)
    assert witness.kind in ("divisible", "counterexample")
    bound = 3 * max(gens) * min(gens) + 3 * p + 10
    counterexamples = []
    step = Fraction(gcd(*gens) if len(gens) > 1 else gens[0])
    if domain == "Z_plus":
        candidates = [Fraction(s) for s in range(bound + 1)]
    else:
        candidates = [k * step for k in range(int(bound / step) + 1)]
    for s in candidates:
        if m.member(p * s) and not m.member(s):
            counterexamples.append(s)
    if witness.kind == "divisible":
        assert not counterexamples, (gens, p, domain, counterexamples[:3])
    else:
        s = witness.element
        assert m.member(p * s) and not m.member(s)


@given(rational_gens, st.sampled_from([2, 3, 5, 7, 11]),
       st.integers(min_value=-2, max_value=60))
@settings(max_examples=200, deadline=None)
def test_z_plus_divisibility_matches_a_scan_far_past_one_period(gens, p,
                                                                bound):
    # the scan stops one period past the conductor; a brute scan out to
    # conductor + 3*p*step + 50 finds the same smallest witness, or none
    m = MonoidDesc.fingen(gens)
    far = int(m.conductor() + 3 * p * _rational_gcd(gens)) + 50
    brute = next((Fraction(s) for s in range(far + 1)
                  if m.member(p * s) and not m.member(s)), None)
    witness = is_p_divisible_in(m, p, "Z_plus")
    assert witness.element == brute
    assert witness.kind == ("divisible" if brute is None else "counterexample")
    bounded = is_p_divisible_in(m, p, "Z_plus", bound)
    if brute is not None and brute <= bound:
        assert bounded == witness
    else:
        assert bounded.kind in ("divisible", "inconclusive")
        assert bounded.kind == "inconclusive" or brute is None


@pytest.mark.parametrize("p", [1_000_003, 2 ** 31 - 1])
def test_z_plus_divisibility_for_a_large_prime_is_fast(p):
    # the scan is one period long whatever p is
    start = time.perf_counter()
    assert is_p_divisible_in(MonoidDesc.fingen([2]), p, "Z_plus").kind == \
        "divisible"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("domain", ["M_minus_M", "Z_plus"])
def test_divisibility_witness_is_read_from_the_apery_set(domain):
    # the odd members of <2, 10^40 + 1> start at 10^40 + 1, so the least s
    # with 3s a member and s not is the least odd s >= (10^40 + 1)/3.  A
    # scan of the units below the conductor, near 10^40, never ends; the
    # two residue classes mod 2 answer at once
    m = MonoidDesc.fingen([2, 10 ** 40 + 1])
    start = time.perf_counter()
    w = is_p_divisible_in(m, 3, domain)
    assert time.perf_counter() - start < 1.0
    s = w.element
    assert w.kind == "counterexample"
    assert s == (10 ** 40 + 5) // 3
    assert m.member(3 * s) and not m.member(s)


def test_divisibility_known_cases():
    # 2Z+: the difference set only holds even numbers, so divisibility in
    # M-M is automatic; in Z_plus the odd s with 2s in M break it
    even = MonoidDesc.fingen([2])
    assert is_p_divisible_in(even, 3).kind == "divisible"
    assert is_p_divisible_in(even, 2).kind == "divisible"
    w = is_p_divisible_in(even, 2, "Z_plus")
    assert w.kind == "counterexample" and w.element % 2 == 1
    # that witness, 1, ends the period past the conductor 0: a bound must
    # reach it before the answer is complete
    assert is_p_divisible_in(even, 2, "Z_plus", 0).kind == "inconclusive"
    assert is_p_divisible_in(even, 2, "Z_plus", 1) == w
    # Z+ is divisible everywhere
    zplus = MonoidDesc.fingen([1])
    for p in (2, 3, 5):
        assert is_p_divisible_in(zplus, p).kind == "divisible"
        assert is_p_divisible_in(zplus, p, "Z_plus").kind == "divisible"


# -- the three closure classes -------------------------------------------------


def test_omega_minus_one_membership_and_ddot():
    assert OMEGA1.member(0) and not OMEGA1.member(1)
    assert all(OMEGA1.member(n) for n in range(2, 12))
    assert not OMEGA1.member(Fraction(3, 2))
    members = OMEGA1.elements(12)
    brute = sorted(r for r in members
                   if r != 0 and r not in oracles.two_term_sums(members))
    assert ddot_set(OMEGA1, 12) == brute == [2, 3]


def test_omega_minus_one_is_not_half_group():
    verdict, witness = is_half_group(OMEGA1)
    assert verdict is False
    a, b = witness
    assert OMEGA1.member(a) and OMEGA1.member(b) and not OMEGA1.member(b - a)


def test_omega_minus_one_min_add():
    assert OMEGA1.min_add(1) == 2          # 2 and 3 are members, nothing smaller
    assert OMEGA1.min_add(2) == 0          # 2 is already a member
    assert OMEGA1.min_add(Fraction(1, 2)) is None


@pytest.mark.parametrize("monoid, d, inf", [
    (OMEGA1, -1, 3),                       # 3 - 1 = 2; 2 - 1 = 1 is no member
    (OMEGA1, -2, 2),                       # 2 - 2 = 0
    (OMEGA1, Fraction(-1, 2), None),
    (DYADIC, Fraction(-1, 2), Fraction(1, 2)),
    (DYADIC, Fraction(-1, 3), None),
    (DPT, Fraction(-1, 3), Fraction(1, 3)),   # 1/3 + 2^-n - 1/3 = 2^-n
    (DPT, Fraction(-1, 6), Fraction(1, 2)),   # 1/2 + 2^-n - 1/6 = 1/3 + 2^-n
    (DPT, Fraction(-1, 5), None),
    (MonoidDesc.fingen([]), -1, None),
])
def test_min_add_of_a_negative_difference(monoid, d, inf):
    # v + d = w in M for d < 0 means v = w - d: the infimum is min_add(-d) - d
    assert monoid.min_add(d) == inf


def test_dyadic_closure_facts():
    assert DYADIC.member(Fraction(3, 8)) and not DYADIC.member(Fraction(1, 3))
    assert is_half_group(DYADIC) == (True, None)
    assert is_floppy(DYADIC)[0] is True
    assert ddot_set(DYADIC, 4) == []       # every member splits in half


def test_dyadic_plus_thirds_membership_agrees_with_brute_closure():
    # finitely many generators give a subset of the real monoid; membership
    # must say yes on all of them
    gens = [Fraction(1, 2 ** n) for n in range(1, 7)]
    gens += [Fraction(1, 3) + Fraction(1, 2 ** n) for n in range(1, 7)]
    brute = oracles.closure_fractions(gens, Fraction(2))
    for x in sorted(brute):
        assert DPT.member(x), x
    # and no on the classic gaps, on a denominator that is neither 2^k nor
    # 3*2^k, and below 0
    for x in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 12), Fraction(1, 5),
              Fraction(-1, 2)):
        assert not DPT.member(x), x


def test_dyadic_plus_thirds_is_not_floppy_with_checkable_witness():
    verdict, r = is_floppy(DPT)
    assert verdict is False and r == Fraction(1, 3)
    assert not DPT.member(r)
    # members a, b with b - a = r and a + b arbitrarily close to r
    for n in (4, 6, 8, 10):
        a = Fraction(1, 2 ** n)
        b = r + a
        assert DPT.member(a) and DPT.member(b)
        assert b - a == r
        assert (a + b) - r == Fraction(2, 2 ** n)  # -> 0, so inf = r


def test_dyadic_plus_thirds_min_add_formula_vs_brute():
    # D = 1/6 sits in residue class 2; stored formula gives exactly 1/3
    d = Fraction(1, 6)
    assert DPT.min_add(d) == Fraction(1, 3)
    # no v and v + 1/5 are both members: no v has a denominator 5
    assert DPT.min_add(Fraction(1, 5)) is None
    gens = [Fraction(1, 2 ** n) for n in range(1, 9)]
    gens += [Fraction(1, 3) + Fraction(1, 2 ** n) for n in range(1, 9)]
    brute_members = oracles.closure_fractions(gens, Fraction(2))
    brute = oracles.min_add_brute(lambda v: v in brute_members, d,
                                  sorted(brute_members))
    # truncated closure can only overshoot the true infimum, and not by much
    assert brute is not None
    assert Fraction(1, 3) < brute <= Fraction(1, 3) + Fraction(1, 2 ** 7)


def _dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


def _dpt_by_definition(x):
    """x = 0, or x = a/3 + d for an integer a >= 0 and a dyadic d > 0."""
    return x == 0 or any(x - Fraction(a, 3) > 0 and _dyadic(x - Fraction(a, 3))
                         for a in range(3 * ceil(x) + 1))


# each closure written out from its definition: (member, M - M)
CLOSURE_DEFINITIONS = {
    "omega-minus-1": (lambda x: x.denominator == 1 and x >= 0 and x != 1,
                      lambda x: x.denominator == 1),
    "dyadic": (lambda x: x >= 0 and _dyadic(x), _dyadic),
    "dyadic-plus-thirds": (_dpt_by_definition,
                           lambda x: _dyadic(3 * x)),
}


@pytest.mark.parametrize("cid", sorted(CLOSURE_DEFINITIONS))
def test_closure_divisibility_verdicts_hold_by_definition(cid):
    member, differences = CLOSURE_DEFINITIONS[cid]
    in_domain = {"Z_plus": lambda s: s.denominator == 1 and s >= 0,
                 "M_minus_M": differences}
    grid = {Fraction(n, q) for q in range(1, 49) for n in range(4 * q + 1)}
    for p in (2, 3, 5, 7, 11, 13):
        for domain, inside in in_domain.items():
            w = is_p_divisible_in(MonoidDesc.closure(cid), p, domain)
            if w.kind == "counterexample":
                s = w.element
                assert member(p * s) and not member(s) and inside(s), (p, s)
            else:
                assert w == DivisibilityWitness("divisible"), (p, domain)
                assert not [s for s in grid if inside(s)
                            and member(p * s) and not member(s)], (p, domain)
    # the stored witnesses are checked before they are returned
    with pytest.raises(RuntimeError, match="failed its facts"):
        _assert_counterexample(DPT, 3, "M_minus_M", Fraction(1, 2))


def test_half_group_verdicts_of_closures_match_registry():
    for cid in CLOSURES:
        m = MonoidDesc.closure(cid)
        verdict, witness = is_half_group(m)
        if verdict is False:
            a, b = witness
            assert m.member(a) and m.member(b) and not m.member(b - a)


# -- floppiness and two-term decomposability -----------------------------------


@given(gen_lists)
def test_fingen_monoids_are_floppy(gens):
    assert is_floppy(MonoidDesc.fingen(gens)) == (True, None)


@pytest.mark.parametrize("gens,window,expected", [
    ([1], 6, [1]),
    ([2, 3], 12, [2, 3]),
    ([3, 5], 12, [3, 5]),
    ([4, 6, 7], 12, [4, 6, 7]),
])
def test_ddot_known_fingen(gens, window, expected):
    m = MonoidDesc.fingen(gens)
    assert ddot_set(m, window) == expected
    members = m.elements(window)
    sums = oracles.two_term_sums(members)
    assert ddot_set(m, window) == [r for r in members
                                   if r != 0 and r not in sums]


def test_min_add_fingen_vs_brute():
    m = MonoidDesc.fingen([2, 3])
    members = m.elements(30)
    for d in (Fraction(1), Fraction(4), Fraction(7), Fraction(-1),
              Fraction(-4), Fraction(-7)):
        brute = oracles.min_add_brute(m.member, d, members)
        assert m.min_add(d) == brute
    assert m.min_add(Fraction(1, 2)) is None


@given(gen_lists, st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_min_add_fingen_property(gens, n):
    m = MonoidDesc.fingen(gens)
    d = Fraction(n * (gcd(*gens) if len(gens) > 1 else gens[0]))
    v = m.min_add(d)
    assert v is not None
    assert m.member(v) and m.member(v + d)
    # minimality against the brute candidate list
    members = [x for x in m.elements(v + 1) if x < v]
    assert all(not (m.member(x) and m.member(x + d)) for x in members)


# -- the int verdicts against the Fraction references ---------------------------


monoid_gens = st.one_of(
    gen_lists,
    st.lists(st.fractions(min_value=Fraction(1, 6), max_value=6,
                          max_denominator=6), min_size=1, max_size=4))
variants = st.sampled_from(["fingen", "groupcone"])


@given(variants, monoid_gens, st.lists(st.fractions(
    min_value=-10, max_value=40, max_denominator=12), max_size=20))
@settings(max_examples=100, deadline=None)
def test_membership_and_elements_match_the_fraction_reference(variant, gens,
                                                              xs):
    m, ref = MonoidDesc(variant, gens), oracles.FractionMonoid(variant, gens)
    assert m.conductor() == ref.conductor
    for x in xs + [k * ref.step for k in range(ref.conductor_units + 3)]:
        assert m.member(x) == ref.member(x), x
    window = (ref.conductor_units + 2) * ref.step
    assert m.elements(window) == [k * ref.step
                                  for k in range(ref.conductor_units + 3)
                                  if ref.member(k * ref.step)]


@given(variants, monoid_gens, st.integers(min_value=-3, max_value=3),
       st.fractions(min_value=0, max_value=1, max_denominator=4))
@settings(max_examples=100, deadline=None)
def test_half_group_matches_the_fraction_reference(variant, gens, shift,
                                                   part):
    # verdict and least witness pair, with bounds below, at and above the
    # conductor
    m, ref = MonoidDesc(variant, gens), oracles.FractionMonoid(variant, gens)
    for bound in (None, ref.conductor, ref.conductor + (shift + part) * ref.step):
        assert is_half_group(m, bound) == \
            oracles.half_group_fraction(ref, bound), bound


@given(variants, monoid_gens, st.sampled_from([2, 3, 5, 7]),
       st.sampled_from(["Z_plus", "M_minus_M"]),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_divisibility_matches_the_fraction_reference(variant, gens, p, domain,
                                                     shift):
    # kind and least witness, with Z_plus bounds around the conductor and
    # around the end of the period past it
    m, ref = MonoidDesc(variant, gens), oracles.FractionMonoid(variant, gens)
    last = ceil(ref.conductor) + ref.scaled_step - 1
    for bound in (None, ceil(ref.conductor) + shift, last + shift):
        w = is_p_divisible_in(m, p, domain, bound)
        assert (w.kind, w.element) == \
            oracles.p_divisible_fraction(ref, p, domain, bound), bound


@given(variants, monoid_gens, st.sampled_from([2, 3, 5, 7]),
       st.sampled_from(["Z_plus", "M_minus_M"]),
       st.one_of(st.none(), st.integers(min_value=-2, max_value=200),
                 st.fractions(min_value=0, max_value=200, max_denominator=5)))
@settings(max_examples=150, deadline=None)
def test_divisibility_matches_the_unit_scan(variant, gens, p, domain, bound):
    # the verdict read per residue class from the Apery set against the
    # scan over every unit below the conductor that it replaced
    m = MonoidDesc(variant, gens)
    w = is_p_divisible_in(m, p, domain, bound)
    assert (w.kind, w.element) == oracles.p_divisible_scan(m, p, domain, bound)


@given(variants, monoid_gens, st.integers(min_value=0, max_value=80),
       st.fractions(min_value=0, max_value=1, max_denominator=7))
@settings(max_examples=100, deadline=None)
def test_ddot_set_matches_the_fraction_reference(variant, gens, k, part):
    # windows of k step multiples and a part, below and above the conductor
    m, ref = MonoidDesc(variant, gens), oracles.FractionMonoid(variant, gens)
    window = (k + part) * ref.step
    got = ddot_set(m, window)
    assert got == oracles.ddot_fraction(ref, window)
    members = [j * ref.step for j in range(floor(window / ref.step) + 1)
               if ref.member(j * ref.step)]
    sums = oracles.two_term_sums(members)
    assert got == [r for r in members if r != 0 and r not in sums]
