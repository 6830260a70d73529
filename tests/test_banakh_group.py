import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banakh.banakh_group import (GroupElement, zero, basis, add, neg, scale,
                                 in_lattice, norm_equal, normsq, DistToken,
                                 dist_token, sphere, ratio_in_Q, between,
                                 is_p_divisible_elem, numeric_norm,
                                 h_norm_certificate, solve_norm_equation,
                                 GroupOracle)
from banakh.banakh_space import discrete_line, gps_locate, orientation
from banakh.banakh_space import Orientation

import oracles


coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
elements = st.builds(GroupElement,
                     st.dictionaries(st.integers(min_value=0, max_value=3),
                                     coeff, max_size=3))


def h_elements(span, lo=-2, hi=2):
    """Every integer-lattice element supported on the given coordinates."""
    out = []
    for combo in itertools.product(range(lo, hi + 1), repeat=len(span)):
        out.append(GroupElement(dict(zip(span, combo))))
    return out


# -- group algebra ---------------------------------------------------------------


@given(elements, elements, elements)
def test_addition_is_abelian_group(x, y, z):
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, zero()) == x
    assert add(x, neg(x)) == zero()


@given(elements)
def test_normal_form_drops_zero_coefficients(x):
    assert all(c != 0 for c in x.coeffs.values())
    assert GroupElement({0: 0, 2: 0}) == zero()


def test_basis_and_scale():
    e1 = basis(1)
    assert scale(Fraction(3, 2), e1).coeffs == {1: Fraction(3, 2)}
    with pytest.raises(ValueError):
        scale(Fraction(1, 2), e1, lattice="H")
    assert scale(2, e1, lattice="H") == GroupElement({1: 2})
    with pytest.raises(ValueError):
        GroupElement({-1: 1})
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            GroupElement({bad: 1})


def test_coeffs_is_a_read_only_view():
    x = GroupElement({0: 1})
    before = hash(x)
    with pytest.raises(TypeError):
        x.coeffs[0] = Fraction(2)
    copy = dict(x.coeffs)
    copy[0] = Fraction(2)
    assert x == GroupElement({0: 1}) and hash(x) == before
    assert x != GroupElement({0: 2})
    assert x in {GroupElement({0: 1})}


def test_results_are_in_lowest_terms():
    half = GroupElement({0: Fraction(1, 2)})
    assert half + half == basis(0) and hash(half + half) == hash(basis(0))
    assert in_lattice(half + half, "H")
    x = GroupElement({0: Fraction(1, 6), 1: Fraction(1, 3)})
    y = GroupElement({0: Fraction(1, 6), 1: Fraction(2, 3)})
    assert x + y == GroupElement({0: Fraction(1, 3), 1: 1})
    assert hash(x + y) == hash(GroupElement({0: Fraction(1, 3), 1: 1}))
    assert x - x == zero() and hash(x - x) == hash(zero())
    assert scale(0, x) == zero() and scale(0, x).is_zero()
    assert scale(6, x) == GroupElement({0: 1, 1: 2})
    assert scale(Fraction(1, 3), GroupElement({0: 3, 1: 6})) == \
        GroupElement({0: 1, 1: 2})
    assert GroupElement({0: "2/4", 3: "0"}) == half
    assert hash(GroupElement({0: "2/4"})) == hash(half)
    # order on differing denominators compares the coefficients
    assert half < basis(0) and not basis(0) < half


# mixed denominators up to 12 over indices 0-5
coeff12 = st.fractions(min_value=-4, max_value=4, max_denominator=12)
vectors = st.dictionaries(st.integers(min_value=0, max_value=5), coeff12,
                          max_size=4)


@given(vectors, vectors, vectors, coeff12)
@settings(max_examples=300, deadline=None)
def test_integer_path_matches_the_fraction_oracle(fx, fy, fz, q):
    x, y, z = GroupElement(fx), GroupElement(fy), GroupElement(fz)
    ox, oy, oz = oracles.vec(fx), oracles.vec(fy), oracles.vec(fz)
    assert dict(x.coeffs) == ox
    # arithmetic
    assert dict((x + y).coeffs) == oracles.vec_add(ox, oy)
    assert dict((x - y).coeffs) == oracles.vec_sub(ox, oy)
    assert dict(neg(x).coeffs) == oracles.vec_neg(ox)
    assert dict(scale(q, x).coeffs) == oracles.vec_scale(q, ox)
    # equality, hashing and order
    assert (x == y) == (ox == oy)
    for w in (x + y, x - y, neg(x), scale(q, x)):
        twin = GroupElement(dict(w.coeffs))
        assert twin == w and hash(twin) == hash(w)
    if x == y:
        assert hash(x) == hash(y)
    assert (x < y) == (oracles.vec_sort_key(ox) < oracles.vec_sort_key(oy))
    # tokens and spheres
    t = dist_token(x, y)
    assert dict(t.rep.coeffs) == oracles.vec_token(ox, oy)
    members = sphere(z, t)
    assert [dict(m.coeffs) for m in members] == \
        oracles.vec_sphere(oz, oracles.vec_token(ox, oy))
    assert GroupOracle("L").sphere(z, t) == members
    # ratios and collinearity, with a proportional pair and a free pair
    s = DistToken(scale(q, t.rep))
    assert ratio_in_Q(s, t) == oracles.vec_ratio(dict(s.rep.coeffs),
                                                 dict(t.rep.coeffs))
    r = dist_token(z, zero())
    assert ratio_in_Q(r, t) == oracles.vec_ratio(dict(r.rep.coeffs),
                                                 dict(t.rep.coeffs))
    w = y + scale(q, y - x)
    assert between(x, y, w) == oracles.vec_between(ox, oy, dict(w.coeffs))
    assert between(x, y, z) == oracles.vec_between(ox, oy, oz)
    # the integer lattice
    assert in_lattice(x, "H") == oracles.vec_in_h(ox)
    hx = GroupElement({a: c.numerator for a, c in ox.items()})
    ohx = dict(hx.coeffs)
    for p in (2, 3, 5):
        assert is_p_divisible_elem(hx, p) == oracles.vec_p_divisible(ohx, p)
    assert normsq(x).tail == oracles.vec_tail(ox)
    assert h_norm_certificate(hx) == oracles.vec_h_norm_certificate(ohx)


def test_hot_path_makes_no_validating_constructor_calls(monkeypatch):
    x = GroupElement({0: Fraction(1, 2), 2: -3})
    y = GroupElement({1: Fraction(2, 3), 2: 1})
    h = GroupElement({0: 2, 1: -1})
    lo, ho = GroupOracle("L"), GroupOracle("H")
    calls = []
    validating = GroupElement.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        validating(self, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counted)
    t = dist_token(x, y)
    ht = lo.dist(h, zero())
    arithmetic = [x + y, x - y, -x, neg(x), scale(Fraction(3, 4), x),
                  scale(0, x), scale(2, h, lattice="H"), lo.value_scale(2, t)]
    spheres = [sphere(x, t), sphere(x, dist_token(x, x)), lo.sphere(x, t),
               ho.sphere(h, ht), ho.sphere(h, t)]
    assert calls == []
    assert len(arithmetic) == 8 and [len(m) for m in spheres] == [2, 1, 2, 2, 0]
    GroupElement({0: 1})               # the wrapper is in place
    assert len(calls) == 1


@given(elements)
@example(GroupElement({0: Fraction(1, 2)}))
def test_lattice_membership(x):
    assert in_lattice(x, "L")
    assert in_lattice(x, "H") == all(c.denominator == 1
                                     for c in x.coeffs.values())


# -- norms and distance tokens ------------------------------------------------------


def test_norm_equal_iff_plus_minus_exhaustive():
    pts = h_elements([0, 1, 2], -2, 2)
    for x in pts:
        for y in pts:
            assert norm_equal(x, y) == (x == y or x == neg(y)), (x, y)


@given(elements, elements)
@example(basis(0), zero())
def test_dist_token_is_symmetric_and_sign_blind(x, y):
    assert dist_token(x, y) == dist_token(y, x)
    assert hash(dist_token(x, y)) == hash(dist_token(y, x))
    t = dist_token(x, y)
    assert t.is_zero() == (x == y)
    # leading coefficient of the canonical representative is positive
    if not t.is_zero():
        assert t.rep.coeffs[min(t.rep.coeffs)] > 0


@given(elements, elements)
def test_sphere_two_points_at_mutual_double_distance(c, x):
    t = dist_token(c, x)
    members = sphere(c, t)
    if t.is_zero():
        assert members == (c,)
        return
    assert len(members) == 2
    u, v = members
    assert dist_token(u, c) == t and dist_token(v, c) == t
    doubled = DistToken(scale(2, t.rep))
    assert dist_token(u, v) == doubled


def test_normsq_splits_linear_and_tail():
    x = GroupElement({0: 2, 1: Fraction(1, 2), 3: -1})
    ns = normsq(x)
    assert ns.linear == x
    assert ns.tail == Fraction(1, 4) + 1


@given(elements, elements)
def test_norm_equal_iff_equal_normsq(x, y):
    ns_eq = (normsq(x) == normsq(y) or normsq(x) == normsq(neg(y)))
    assert norm_equal(x, y) == ns_eq


def test_ratio_in_q_cases():
    t = DistToken(GroupElement({1: 2, 2: -4}))
    s = DistToken(GroupElement({1: -3, 2: 6}))       # -3/2 multiple
    assert ratio_in_Q(s, t) == Fraction(3, 2)
    assert ratio_in_Q(t, t) == 1
    other = DistToken(GroupElement({1: 1}))
    assert ratio_in_Q(t, other) is None
    z = DistToken(zero())
    assert ratio_in_Q(z, z) == 1
    assert ratio_in_Q(z, t) is None


def test_between_is_exact_collinearity():
    a, b = basis(1), basis(2)
    x = zero()
    y = scale(2, a)
    z = scale(5, a)
    assert between(x, y, z)
    assert not between(y, x, z)      # x is not between y and z
    assert not between(x, add(y, b), z)
    assert between(x, x, z) and between(x, z, z)


# -- certificates ---------------------------------------------------------------------


def test_h_norm_certificate_exhaustive():
    for x in h_elements([0, 1, 2], -2, 2):
        if x.is_zero():
            continue
        cert = h_norm_certificate(x)
        assert cert["holds"], x
        assert cert["quantity"] >= 1
    with pytest.raises(ValueError):
        h_norm_certificate(GroupElement({1: Fraction(1, 2)}))
    assert h_norm_certificate(zero())["holds"] is False


def test_is_p_divisible_elem():
    x = GroupElement({0: 2, 1: 4})
    assert is_p_divisible_elem(x, 2)
    assert not is_p_divisible_elem(x, 3)
    assert is_p_divisible_elem(x, 3, lattice="L")
    with pytest.raises(ValueError):
        is_p_divisible_elem(GroupElement({0: Fraction(1, 2)}), 2)
    for bad in (lambda: is_p_divisible_elem(x, 2, lattice="Z"),
                lambda: in_lattice(x, "Z")):
        with pytest.raises(ValueError, match="unknown lattice 'Z'"):
            bad()


def test_reprs_name_the_coordinates():
    assert repr(zero()) == "0"
    x = GroupElement({0: 1, 1: Fraction(-3, 2), 4: 2})
    assert repr(x) == "e0 - 3/2*e1 + 2*e4"
    assert repr(DistToken(neg(x))) == "|e0 - 3/2*e1 + 2*e4|"


def test_numeric_norm_is_display_only_but_sane():
    x = GroupElement({1: 3})
    assert numeric_norm(zero()) == 0.0
    assert numeric_norm(x) == numeric_norm(neg(x))
    assert numeric_norm(x) > 0


# -- the norm equation -----------------------------------------------------------------


def brute_solutions(a1, a2, a3, b1, b2, b3, grid=8):
    """The grid points t = num/den that solve the equation, on ints: both
    sides times den**2."""
    hits = set()
    for num in range(-grid * grid, grid * grid + 1):
        for den in range(1, grid + 1):
            lhs = (a1 * num + a2 * den) ** 2 + (a3 * den) ** 2
            rhs = (b1 * num + b2 * den) ** 2 + (b3 * den) ** 2
            if lhs == rhs:
                hits.add(Fraction(num, den))
    return sorted(hits)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_solve_norm_equation_matches_brute_grid(a1, a2, a3, b1, b2, b3):
    result = solve_norm_equation(a1, a2, a3, b1, b2, b3)
    brute = brute_solutions(a1, a2, a3, b1, b2, b3)
    if result.infinite:
        assert len(brute) > 20       # the whole grid satisfies it
        return
    # every claimed solution checks out exactly...
    for t in result.solutions:
        assert (a1 * t + a2) ** 2 + a3 ** 2 == (b1 * t + b2) ** 2 + b3 ** 2
    # ...and the grid finds nothing the solver missed
    assert set(brute) <= set(result.solutions)
    assert len(result.solutions) <= 2


def test_solve_norm_equation_shapes():
    both = solve_norm_equation(1, 0, 0, 0, 2, 0)   # t^2 = 4
    assert both.solutions == (Fraction(-2), Fraction(2))
    one = solve_norm_equation(1, 0, 0, 1, 2, 0)     # (t)^2 = (t+2)^2
    assert one.solutions == (Fraction(-1),)
    nothing = solve_norm_equation(1, 0, 1, 1, 0, 0)  # t^2+1 = t^2
    assert nothing.solutions == () and not nothing.infinite
    double = solve_norm_equation(1, 0, 0, 0, 0, 0)   # t^2 = 0
    assert double.solutions == (Fraction(0),)
    negative = solve_norm_equation(1, 0, 1, 0, 0, 0)  # t^2 + 1 = 0
    assert negative.solutions == () and not negative.infinite
    infinite = solve_norm_equation(1, 2, 3, 1, 2, 3)
    assert infinite.infinite and infinite.count == "infinite"
    irrational = solve_norm_equation(1, 0, 0, 0, 1, 1)  # t^2 = 2: no rational
    assert irrational.solutions == ()


# -- the symbolic oracle ---------------------------------------------------------------


def test_group_oracle_runs_line_geometry():
    o = GroupOracle()
    a, b = zero(), basis(1)
    pts = discrete_line(o, a, b, 3)
    assert len(pts) == 7
    assert pts[3] == a and pts[4] == b
    for i, j in itertools.combinations(range(7), 2):
        expected = o.value_scale(abs(i - j), o.dist(a, b))
        assert o.dist(pts[i], pts[j]) == expected


def test_group_oracle_gps_and_orientation():
    o = GroupOracle()
    a, b = zero(), basis(2)
    t = o.dist(a, b)
    found = gps_locate(o, a, b, t, o.value_scale(2, t))
    assert found == neg(basis(2))
    assert orientation(o, a, b, scale(3, b)) is Orientation.PARALLEL
    assert orientation(o, a, b, neg(b)) is Orientation.ANTIPARALLEL
    incomparable = orientation(o, a, b, basis(3))
    assert incomparable is Orientation.INCOMPARABLE


def test_group_oracle_h_lattice_rejects_fractional_spheres():
    o = GroupOracle("H")
    c = zero()
    t = DistToken(GroupElement({1: Fraction(1, 2)}))
    assert o.sphere(c, t) == ()
    whole = DistToken(basis(1))
    assert len(o.sphere(c, whole)) == 2
    assert o.sphere(c, DistToken(zero())) == (c,)
    with pytest.raises(ValueError):
        GroupOracle("X")


@pytest.mark.parametrize("t", [basis(0), zero(),
                               GroupElement({1: Fraction(1, 2)})],
                         ids=["integral", "zero", "fractional"])
def test_group_oracle_h_lattice_refuses_a_center_outside_it(t):
    # S(1/2, 1) in H would hold -1/2 and 3/2, which H lacks; the oracle
    # refuses the center, as h_norm_certificate refuses such an element
    c = GroupElement({0: Fraction(1, 2)})
    with pytest.raises(ValueError, match="not in the integer lattice"):
        GroupOracle("H").sphere(c, DistToken(t))
    assert len(GroupOracle("L").sphere(c, DistToken(basis(0)))) == 2
