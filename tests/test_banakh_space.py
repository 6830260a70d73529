import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import line_fragment
from banakh.values import SurdValue, ZERO
from banakh.monoid_algebra import MonoidDesc
from banakh.serialize import dumps, fragment_from_json, fragment_to_json
from banakh.space_builder import BuildSpec, RadiusClass, build
from banakh.banakh_group import GroupOracle, basis, zero
from banakh.banakh_space import (MetricFragment, verify_fragment,
                                 real_line_banakh_check, ZLineOracle,
                                 FragmentOracle, Orientation, gps_locate,
                                 discrete_line, orientation,
                                 segment_construct, split_segment, SphereOracle,
                                 directed_point, zr_sphere_map,
                                 hypersphere_map, embed_in_real_line,
                                 SphereDeficiency, NoSuchRadius,
                                 AmbiguityViolation, BanakhLawViolation)


Z = ZLineOracle()


def fragment_of(table):
    pts = sorted({p for pair in table for p in pair})
    return MetricFragment(pts, {k: SurdValue(v) for k, v in table.items()})


# the sphere of radius 1 at c has three members
CROWDED = {("c", "x"): 1, ("c", "y"): 1, ("c", "z"): 1,
           ("x", "y"): 2, ("x", "z"): 2, ("y", "z"): 2}


# -- fragments -------------------------------------------------------------------


def test_fragment_constructor_validation():
    with pytest.raises(ValueError, match="duplicate"):
        MetricFragment(["a", "a"], {})
    with pytest.raises(ValueError, match="incomplete"):
        MetricFragment(["a", "b", "c"], {("a", "b"): SurdValue(1)})
    with pytest.raises(ValueError, match="diagonal"):
        MetricFragment(["a"], {("a", "a"): SurdValue(1)})
    with pytest.raises(ValueError, match="unknown point"):
        MetricFragment(["a", "b"], {("a", "z"): SurdValue(1)})
    with pytest.raises(ValueError, match="conflicting"):
        MetricFragment(["a", "b"], {("a", "b"): SurdValue(1),
                                    ("b", "a"): SurdValue(2)})
    with pytest.raises(ValueError, match="not positive"):
        MetricFragment(["a", "b"], {("a", "b"): ZERO})


def test_fragment_distance_is_symmetric_with_zero_diagonal():
    f = fragment_of({("a", "b"): 3})
    assert f.distance("a", "b") == f.distance("b", "a") == SurdValue(3)
    assert f.distance("a", "a") == ZERO
    with pytest.raises(KeyError):
        f.distance("q", "q")


def test_verify_fragment_accepts_a_line_window(z_line_window):
    report = verify_fragment(z_line_window)
    assert report.metric_ok and report.banakh_consistent
    assert not report.violations
    # edge-of-window spheres are incomplete, and honestly reported
    assert report.incomplete_spheres


def test_verify_fragment_flags_triangle_violation():
    f = fragment_of({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5})
    report = verify_fragment(f)
    assert not report.metric_ok
    assert any(v["kind"] == "triangle" for v in report.violations)


def test_verify_fragment_flags_crowded_sphere():
    report = verify_fragment(fragment_of(CROWDED))
    assert report.metric_ok
    assert not report.banakh_consistent
    assert any(v["kind"] == "sphere-size" for v in report.violations)


def test_verify_fragment_flags_wrong_diameter():
    report = verify_fragment(fragment_of({("c", "u"): 1, ("c", "v"): 1,
                                          ("u", "v"): 1}))
    assert report.metric_ok
    assert any(v["kind"] == "sphere-diameter" for v in report.violations)


def test_verify_fragment_agrees_with_brute_law_scan(z_line_window):
    f = z_line_window
    assert oracles.banakh_law_scan(f.points, f.distance) == []
    bad = fragment_of({("c", "u"): 1, ("c", "v"): 1, ("u", "v"): 1})
    assert oracles.banakh_law_scan(bad.points, bad.distance) != []


def _two_class_build():
    """The 29-point build with radii 1 and √2 at seed 5: surd distances."""
    zp = MonoidDesc.fingen([1])
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), zp),
                            RadiusClass(SurdValue(0, {2: 1}), zp)),
                     stages=2, window=Fraction(2), seed=5)
    return build(spec)[0]


@pytest.mark.parametrize("make, largest", [
    (lambda request: request.getfixturevalue("z_line_window"), 2),
    (lambda request: fragment_of(CROWDED), 3),
    (lambda request: _two_class_build(), 2),
], ids=["z-line-window", "crowded-sphere", "two-class-seed-5"])
def test_sphere_index_matches_the_reference_scan(request, make, largest):
    f = make(request)
    oracle = FragmentOracle(f)
    absent = SurdValue(Fraction(1, 7))
    sizes = set()
    for c in f.points:
        values = {f.distance(c, p) for p in f.points if p != c}
        assert absent not in values
        for v in values | {absent}:
            members = oracle.sphere(c, v)
            assert members == tuple(oracles.sphere_scan(f.points, f.distance,
                                                        c, v))
            sizes.add(len(members))
    assert max(sizes) == largest and 0 in sizes


def _scrambled_line():
    """The points 0..12 of Z named out of coordinate order, each distance
    its own value object (equal values, distinct objects), the pairs given
    last to first and in both orientations."""
    names = {k: f"n{(5 * k) % 13:02d}" for k in range(13)}
    pairs = [((names[j], names[i]), SurdValue(j - i))
             for i in range(13) for j in range(i + 1, 13)]
    return MetricFragment(list(names.values())[::-1], dict(pairs[::-1]))


@pytest.mark.parametrize("make", [
    lambda request: _two_class_build(),
    lambda request: fragment_from_json(json.loads(dumps(
        fragment_to_json(_two_class_build())))),
    lambda request: request.getfixturevalue("z_line_window"),
    lambda request: _scrambled_line(),
    lambda request: fragment_of(CROWDED),
], ids=["two-class-seed-5", "read-back", "z-line-window", "scrambled-line",
        "crowded-sphere"])
def test_the_sphere_index_keeps_member_tuple_order(request, make):
    # each center's spheres come in the order of their member tuples, each
    # tuple in point order, and together they hold every other point once;
    # verify_fragment reads them in that order, with no sort of its own
    f = make(request)
    for c in f.points:
        tuples = list(f.spheres[c].values())
        assert tuples == sorted(tuples)
        assert all(list(t) == sorted(t) for t in tuples)
        assert sorted(p for t in tuples for p in t) == [p for p in f.points
                                                         if p != c]
    assert_reference_report(verify_fragment(f), f)


@pytest.mark.parametrize("make, failures", [
    (lambda request: request.getfixturevalue("z_line_window"), []),
    (lambda request: fragment_of(CROWDED), []),
    (lambda request: fragment_of({("a", "b"): 1, ("b", "c"): 1,
                                  ("a", "c"): 5}), [("a", "c", "b")]),
    (lambda request: _two_class_build(), []),
], ids=["z-line-window", "crowded-sphere", "broken-triangle",
        "two-class-seed-5"])
def test_triangle_failures_on_the_fixtures(request, make, failures):
    f = make(request)
    assert f.triangle_failures() == failures
    assert failures == oracles.triangle_scan(f.points, f.distance)
    report = verify_fragment(f)
    assert [v["points"] for v in report.violations
            if v["kind"] == "triangle"] == [list(t) for t in failures]
    assert report.metric_ok == (not failures)


def test_real_line_closure_condition():
    assert real_line_banakh_check([0, 1, 2, 3]) == (True, None)
    assert real_line_banakh_check(()) == (True, None)
    verdict, witness = real_line_banakh_check([0, 1, 3])
    assert verdict is False
    assert witness[3] == 2        # the missing combination
    # absolute mode counts combinations that fall outside the window too
    assert real_line_banakh_check([0, 1, 2], window_relative=False)[0] is False


# -- line-oracle geometry ----------------------------------------------------------


def test_line_and_fragment_spheres_at_edge_radii(z_line_window):
    # Z holds no point at an irrational or fractional distance, only the
    # center at 0, and refuses a negative radius
    assert Z.sphere(3, SurdValue.sqrt(2)) == ()
    assert Z.sphere(3, SurdValue(Fraction(1, 2))) == ()
    assert Z.sphere(3, ZERO) == (3,)
    with pytest.raises(ValueError, match="negative radius"):
        Z.sphere(3, SurdValue(-1))
    assert FragmentOracle(z_line_window).sphere("p+0", ZERO) == ("p+0",)
    # the interface itself answers nothing
    for ask in (lambda o: o.dist(0, 1), lambda o: o.sphere(0, SurdValue(1))):
        with pytest.raises(NotImplementedError):
            ask(SphereOracle())


def test_gps_locates_uniquely_on_the_line():
    assert gps_locate(Z, 0, 5, SurdValue(2), SurdValue(3)) == 2
    assert gps_locate(Z, 0, 5, SurdValue(2), SurdValue(7)) == -2
    assert gps_locate(Z, 0, 5, SurdValue(1), SurdValue(1)) is None
    with pytest.raises(ValueError):
        gps_locate(Z, 3, 3, SurdValue(1), SurdValue(1))


def test_gps_raises_on_law_violation():
    # an equilateral triangle pretends both sphere members are intersections
    table = {("a", "b"): 2, ("a", "u"): 2, ("a", "v"): 2,
             ("b", "u"): 2, ("b", "v"): 2, ("u", "v"): 4}
    oracle = FragmentOracle(fragment_of(table))
    with pytest.raises(BanakhLawViolation):
        gps_locate(oracle, "a", "b", SurdValue(2), SurdValue(2))


def test_discrete_line_is_isometric_to_integers():
    pts = discrete_line(Z, 10, 13, 4)
    assert pts == [10 + 3 * k for k in range(-4, 5)]
    for i, j in itertools.combinations(range(len(pts)), 2):
        assert Z.dist(pts[i], pts[j]) == SurdValue(3 * abs(i - j))
    assert discrete_line(Z, 0, 1, 0) == [0]


def test_discrete_line_input_checks():
    with pytest.raises(ValueError):
        discrete_line(Z, 1, 1, 3)
    with pytest.raises(ValueError):
        discrete_line(Z, 0, 1, -1)


def test_discrete_line_stops_at_fragment_boundary(z_line_window):
    oracle = FragmentOracle(z_line_window)
    with pytest.raises(SphereDeficiency):
        discrete_line(oracle, "p+0", "p+1", 9)


def test_orientation_on_the_line():
    assert orientation(Z, 0, 2, 5) is Orientation.PARALLEL
    assert orientation(Z, 0, 2, -5) is Orientation.ANTIPARALLEL
    assert orientation(Z, 0, 3, 3) is Orientation.PARALLEL
    with pytest.raises(ValueError):
        orientation(Z, 0, 0, 5)


def test_orientation_incomparable_for_irrational_ratio():
    f = MetricFragment(
        ["o", "a", "b"],
        {("a", "o"): SurdValue(1), ("b", "o"): SurdValue.sqrt(2),
         ("a", "b"): SurdValue(1, {2: 1})})
    oracle = FragmentOracle(f)
    assert orientation(oracle, "o", "a", "b") is Orientation.INCOMPARABLE


def test_segment_construct_extends_past_y():
    assert segment_construct(Z, 0, 4, SurdValue(3)) == 7
    assert segment_construct(Z, 4, 0, SurdValue(3)) == -3
    assert segment_construct(Z, 0, 4, ZERO) == 4
    with pytest.raises(ValueError, match="rational multiple"):
        segment_construct(Z, 0, 4, SurdValue.sqrt(2))


def test_split_segment_picks_the_between_point():
    assert split_segment(Z, 0, 10, SurdValue(4), SurdValue(6)) == 4
    assert split_segment(Z, 10, 0, SurdValue(4), SurdValue(6)) == 6
    assert split_segment(Z, 0, 10, ZERO, SurdValue(10)) == 0
    assert split_segment(Z, 0, 10, SurdValue(10), ZERO) == 10
    for a, b in ((3, 4), (0, 9), (9, 0)):
        with pytest.raises(ValueError, match=r"a \+ b"):
            split_segment(Z, 0, 10, SurdValue(a), SurdValue(b))


def test_directed_point_walks_the_ray():
    assert directed_point(Z, 0, 1, SurdValue(6)) == 6
    assert directed_point(Z, 0, -2, SurdValue(6)) == -6
    assert directed_point(Z, 3, 1, SurdValue(4)) == -1
    with pytest.raises(ValueError, match="rational multiple"):
        directed_point(Z, 0, 1, SurdValue.sqrt(2))
    for r in (ZERO, SurdValue(-2)):
        with pytest.raises(ValueError, match="radius must be positive"):
            directed_point(Z, 0, 1, r)


def test_segment_deficiency_on_fragment_boundary(z_line_window):
    oracle = FragmentOracle(z_line_window)
    # walking 3 beyond p+2 leaves the window: the one sphere member present
    # is on the wrong side, so the query reports a deficiency
    with pytest.raises((SphereDeficiency, NoSuchRadius)):
        segment_construct(oracle, "p-4", "p+2", SurdValue(3))


def test_zr_sphere_map_is_isometric():
    mapping = zr_sphere_map(Z, 0, SurdValue(2), 3)
    assert sorted(mapping) == list(range(-3, 4))
    assert mapping[0] == 0
    for i, j in itertools.combinations(sorted(mapping), 2):
        assert Z.dist(mapping[i], mapping[j]) == SurdValue(2 * abs(i - j))
    assert zr_sphere_map(Z, 5, SurdValue(2), 0) == {0: 5}
    with pytest.raises(ValueError, match="nonnegative"):
        zr_sphere_map(Z, 0, SurdValue(2), -1)
    with pytest.raises(NoSuchRadius):
        zr_sphere_map(Z, 0, SurdValue.sqrt(2), 1)


# -- the one sphere-member rule -----------------------------------------------------


class PointsOracle(SphereOracle):
    """Named points on a line.  Two names may share a coordinate, which
    breaks the two-point law on purpose, and hidden points have distances
    but lie in no sphere."""

    def __init__(self, coords, hidden=()):
        self.coords = {name: Fraction(c) for name, c in coords.items()}
        self.hidden = set(hidden)

    def dist(self, x, y):
        return SurdValue(abs(self.coords[x] - self.coords[y]))

    def sphere(self, c, r):
        return tuple(p for p in sorted(self.coords) if p != c
                     and p not in self.hidden and self.dist(c, p) == r)


_LINE_STEP = (discrete_line, "a", "b", 1)
_EXTEND = (segment_construct, "a", "b", SurdValue(1))
_SPLIT = (split_segment, "a", "c", SurdValue(1), SurdValue(1))
_DIRECT = (directed_point, "a", "b", SurdValue(1))


@pytest.mark.parametrize("construct, coords, hidden, outcome, center", [
    # discrete_line picks from sphere(a, 1) the member 2 away from b
    (_LINE_STEP, {"a": 0, "b": 1}, {"b"}, NoSuchRadius, "a"),
    (_LINE_STEP, {"a": 0, "b": 1}, (), SphereDeficiency, "a"),
    (_LINE_STEP, {"a": 0, "b": 1, "u": -1, "v": -1}, {"b"},
     AmbiguityViolation, "a"),
    # segment_construct picks from sphere(b, 1) the member 2 away from a
    (_EXTEND, {"a": 0, "b": 1}, {"a"}, NoSuchRadius, "b"),
    (_EXTEND, {"a": 0, "b": 1}, (), SphereDeficiency, "b"),
    (_EXTEND, {"a": 0, "b": 1, "u": 2, "v": 2}, {"a"},
     AmbiguityViolation, "b"),
    # split_segment picks from sphere(a, 1) the member 1 away from c
    (_SPLIT, {"a": 0, "c": 2}, (), NoSuchRadius, "a"),
    (_SPLIT, {"a": 0, "c": 2, "w": -1}, (), SphereDeficiency, "a"),
    (_SPLIT, {"a": 0, "c": 2, "u": 1, "v": 1}, (), AmbiguityViolation, "a"),
    # directed_point picks from sphere(a, 1) the member on the ray to b;
    # the ray from a through w reaches w2, not b
    (_DIRECT, {"a": 0, "b": 2}, (), NoSuchRadius, "a"),
    (_DIRECT, {"a": 0, "b": 2, "w": -1, "w2": -2}, (), SphereDeficiency, "a"),
    (_DIRECT, {"a": 0, "b": 2, "u": 1, "v": 1}, (), AmbiguityViolation, "a"),
], ids=[f"{name}-{kind}" for name in ("line", "segment", "split", "directed")
        for kind in ("empty", "none-kept", "both-kept")])
def test_constructions_share_the_sphere_member_rule(construct, coords, hidden,
                                                    outcome, center):
    fn, *args = construct
    with pytest.raises(RuntimeError) as exc:
        fn(PointsOracle(coords, hidden), *args)
    assert type(exc.value) is outcome
    if outcome is AmbiguityViolation:
        assert f"sphere({center!r}" in str(exc.value)
        assert "'u'" in str(exc.value) and "'v'" in str(exc.value)
    else:
        assert exc.value.center == center


def _seed5_build():
    sqrt2 = SurdValue.sqrt(2)
    zp = MonoidDesc.fingen([1])
    fragment, _ = build(BuildSpec(radii=(RadiusClass(SurdValue(1), zp),
                                         RadiusClass(sqrt2, zp)),
                                  stages=2, window=Fraction(2), seed=5))
    return fragment


@pytest.mark.parametrize("make", [
    _seed5_build, lambda: line_fragment({f"p{k}": k for k in range(41)})],
    ids=["seed-5 build", "41-point line"])
def test_segment_on_a_verified_fragment_is_never_ambiguous(make):
    # the AmbiguityViolation above needs a fragment that breaks the law: on
    # a verified one, two members of S(y, r) at d(x,y) + r from x would be
    # all of that sphere, 2r and 2(d(x,y) + r) apart at once
    fragment = make()
    report = verify_fragment(fragment)
    assert report.metric_ok and report.banakh_consistent
    oracle = FragmentOracle(fragment)
    points = 0
    for y in fragment.points:
        for r in fragment.spheres[y]:
            for x in fragment.points:
                try:
                    segment_construct(oracle, x, y, r)
                    points += 1
                except (NoSuchRadius, SphereDeficiency, ValueError):
                    pass
    assert points > len(fragment.points)


# -- hypersphere parametrization ----------------------------------------------------


def test_hypersphere_map_on_the_integer_line():
    mapping, report = hypersphere_map(Z, 0, 1, 3)
    assert report.r_is_member
    assert sorted(mapping) == list(range(-3, 4))
    for entry in report.pairs:
        assert entry["lower_ok"] and entry["upper_ok"] is not False
        assert entry["equivalence_ok"]
        assert entry["tight"]     # on the line every distance collapses


def test_hypersphere_map_skips_what_a_one_sided_window_lacks():
    # sphere(p0, 1) holds only p1, the parallel member: t = -1 has no
    # antiparallel point, and no other u reaches one either
    oracle = FragmentOracle(line_fragment({f"p{k}": k for k in range(4)}))
    mapping, report = hypersphere_map(oracle, "p0", "p1", 1)
    assert mapping == {0: "p0", 1: "p1"}
    assert report.skipped == [(-1, "window edge")]
    with pytest.raises(ValueError, match="two distinct points"):
        hypersphere_map(Z, 0, 0, 1)


def test_hypersphere_bounds_are_unknown_over_unordered_tokens():
    mapping, report = hypersphere_map(GroupOracle("L"), zero(), basis(0), 2)
    assert len(mapping) == 5 and report.pairs
    for entry in report.pairs:
        assert entry["lower_ok"] is None and entry["upper_ok"] is None


def test_hypersphere_map_lets_a_comparison_error_through():
    # an oracle that keeps the default order hook over unordered tokens is a
    # bug, and the TypeError it raises must reach the caller
    class UndeclaredOrder(GroupOracle):
        value_le = SphereOracle.value_le

    with pytest.raises(TypeError):
        hypersphere_map(UndeclaredOrder("L"), zero(), basis(0), 2)


def test_hypersphere_map_detects_monoid_mismatch():
    # the integer line realizes distance 1 = (1/2)·r even though 1/2 is not
    # in N: the report must flag the broken tightness equivalence, which is
    # exactly how one detects that N is not the realized unit monoid
    from banakh.monoid_algebra import MonoidDesc
    n = MonoidDesc.fingen([1, Fraction(3, 2)])
    mapping, report = hypersphere_map(Z, 0, 2, 3, monoid=n)
    assert Fraction(1, 2) in mapping          # t ranges over (N - N)
    entry = next(e for e in report.pairs
                 if {e["s"], e["t"]} == {Fraction(0), Fraction(1, 2)})
    assert entry["member"] is False
    assert entry["tight"] is True             # the line collapses everything
    assert entry["equivalence_ok"] is False
    with pytest.raises(ValueError, match="must contain 1"):
        hypersphere_map(Z, 0, 1, 2, monoid=MonoidDesc.fingen([2]))


# -- real-line embedding --------------------------------------------------------------


def test_embed_line_fragment_recovers_coordinates(z_line_window):
    result = embed_in_real_line(z_line_window)
    assert result.embeddable
    coords = result.coords
    for x, y in itertools.combinations(z_line_window.points, 2):
        gap = coords[x] - coords[y]
        assert gap.sign() != 0
        assert (gap if gap.sign() > 0 else -gap) == z_line_window.distance(x, y)


def test_embed_surd_distances():
    f = MetricFragment(["a", "b", "c"],
                       {("a", "b"): SurdValue(1),
                        ("a", "c"): SurdValue.sqrt(2),
                        ("b", "c"): SurdValue.sqrt(2) + 1})
    result = embed_in_real_line(f)
    assert result.embeddable


def test_embed_reports_obstruction_triple():
    f = fragment_of({("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2})
    result = embed_in_real_line(f)
    assert not result.embeddable
    assert set(result.obstruction) == {"a", "b", "c"}


def test_embed_four_point_diamond_fails_with_witness():
    # two midpoints of the same pair cannot both sit on a line
    table = {("a", "b"): 2, ("a", "m"): 1, ("b", "m"): 1,
             ("a", "n"): 1, ("b", "n"): 1, ("m", "n"): 1}
    result = embed_in_real_line(fragment_of(table))
    assert not result.embeddable
    assert len(result.obstruction) == 3


def test_embed_pseudo_linear_quadruple_names_all_four_points():
    # the 4-cycle with sides 1 and diagonals 2: every triple splits
    # collinearly, yet the four points do not embed (Menger)
    table = {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 1,
             ("a", "c"): 2, ("b", "d"): 2}
    f = fragment_of(table)
    assert oracles.embed_scan(f.points, f.distance) is None
    result = embed_in_real_line(f)
    assert not result.embeddable
    assert result.obstruction == ("a", "b", "c", "d")


def _splits_collinearly(f, triple):
    x, y, z = triple
    a, b, c = f.distance(y, z), f.distance(x, z), f.distance(x, y)
    return a == b + c or b == a + c or c == a + b


@st.composite
def near_line_fragments(draw):
    """2-6 points on the integer line, with up to two pair distances nudged
    (each kept positive)."""
    n = draw(st.integers(min_value=2, max_value=6))
    xs = draw(st.lists(st.integers(min_value=0, max_value=8), min_size=n,
                       max_size=n, unique=True))
    pts = [f"p{i}" for i in range(n)]
    table = {(pts[i], pts[j]): SurdValue(abs(xs[i] - xs[j]))
             for i, j in itertools.combinations(range(n), 2)}
    for pair in draw(st.sets(st.sampled_from(sorted(table)), max_size=2)):
        nudged = table[pair] + draw(st.sampled_from(
            [SurdValue(1), SurdValue(-1), SurdValue(2), SurdValue(-2),
             SurdValue(Fraction(1, 2)), SurdValue.sqrt(2)]))
        if nudged.sign() > 0:
            table[pair] = nudged
    return MetricFragment(pts, table)


@given(near_line_fragments())
@settings(max_examples=300, deadline=None)
def test_embed_agrees_with_the_sign_vector_scan(f):
    result = embed_in_real_line(f)
    assert result.embeddable == (oracles.embed_scan(f.points, f.distance)
                                 is not None)
    if result.embeddable:
        coords = result.coords
        for x, y in itertools.combinations(f.points, 2):
            assert f.distance(x, y) in (coords[x] - coords[y],
                                        coords[y] - coords[x])
        return
    split = [t for t in itertools.combinations(f.points, 3)
             if not _splits_collinearly(f, t)]
    if split:
        assert len(result.obstruction) == 3
        assert not _splits_collinearly(f, result.obstruction)
    else:
        assert result.obstruction == tuple(f.points) and len(f.points) == 4


def test_embed_trivial_sizes():
    one = MetricFragment(["a"], {})
    assert embed_in_real_line(one).embeddable
    two = fragment_of({("a", "b"): 5})
    r = embed_in_real_line(two)
    assert r.embeddable
    gap = r.coords["a"] - r.coords["b"]
    assert (gap if gap.sign() > 0 else -gap) == SurdValue(5)


# -- verify_fragment on an embedding -------------------------------------------------


def surd_line(coords: dict) -> MetricFragment:
    """The named exact values as a fragment of the real line, with its
    points in the given order."""
    names = list(coords)
    table = {}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            gap = coords[y] - coords[x]
            table[(x, y)] = gap if gap.sign() > 0 else -gap
    return MetricFragment(names, table)


BASIS = {1: SurdValue(1), 2: SurdValue.sqrt(2), 3: SurdValue.sqrt(3)}


@st.composite
def embeddable_fragments(draw, min_points=1):
    """1-12 distinct points of (Z + Z*sqrt(2) + Z*sqrt(3)) / den on the real
    line, of rank 1 to 3, in drawn order, so any two can be p0 and p1."""
    keys = sorted(draw(st.sets(st.sampled_from(sorted(BASIS)), min_size=1)))
    den = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=min_points, max_value=12))
    vectors = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * len(keys)),
                            min_size=n, max_size=n, unique=True))
    return surd_line({f"p{i}": sum((BASIS[k] * Fraction(c, den)
                                    for k, c in zip(keys, v)), ZERO)
                      for i, v in enumerate(vectors)})


@st.composite
def nudged_fragments(draw):
    """An embeddable fragment of 3-12 points with one entry moved, kept
    positive: one at p0 or p1 stops the placement, another the pair check."""
    f = draw(embeddable_fragments(min_points=3))
    table = dict(f.edges)
    pair = draw(st.sampled_from(sorted(table)))
    delta = draw(st.sampled_from([SurdValue(1), SurdValue(-1),
                                  SurdValue(Fraction(1, 2)),
                                  SurdValue.sqrt(2), -SurdValue.sqrt(3)]))
    moved = table[pair] + delta
    table[pair] = moved if moved.sign() > 0 else table[pair] - delta
    return MetricFragment(f.points, table)


def assert_reference_report(report, f):
    metric_ok, banakh, incomplete, violations = \
        oracles.reference_verify_fragment(f.points, f.distance)
    assert report.metric_ok == metric_ok
    assert report.banakh_consistent == banakh
    assert report.incomplete_spheres == incomplete
    assert report.violations == violations


@pytest.mark.parametrize("fragments", [
    embeddable_fragments(), nudged_fragments(), near_line_fragments()],
    ids=["embeddable", "nudged", "near-line"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_verify_fragment_equals_the_full_path(fragments, data):
    f = data.draw(fragments)
    report = verify_fragment(f)
    assert_reference_report(report, f)
    if embed_in_real_line(f).embeddable:
        assert report.metric_ok and report.banakh_consistent
        assert not report.violations


def _scan_ran(self):
    raise AssertionError("the triangle scan ran")


@pytest.mark.parametrize("make", [
    lambda: line_fragment({f"p{k}": k for k in range(41)}),
    lambda: surd_line({f"x{a}{b}": SurdValue(a, {2: b})
                       for a in range(5) for b in range(5)}),
    lambda: MetricFragment(["a"], {}),
    lambda: fragment_of({("a", "b"): 3}),
    lambda: fragment_of({("a", "b"): 1, ("a", "c"): 3, ("b", "c"): 2}),
], ids=["41-point line", "rank-2 window", "one point", "two points",
        "three collinear points"])
def test_an_embedding_skips_the_triangle_scan(monkeypatch, make):
    f = make()
    monkeypatch.setattr(MetricFragment, "triangle_failures", _scan_ran)
    assert_reference_report(verify_fragment(f), f)


@pytest.mark.parametrize("make", [
    _two_class_build,
    # placement fails: c sits at neither +1 nor -1 from a
    lambda: fragment_of({("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 2}),
    # every point places, and the pair c-d fails: Menger's quadruple
    lambda: fragment_of({("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1,
                         ("a", "d"): 1, ("a", "c"): 2, ("b", "d"): 2}),
], ids=["two-class-seed-5", "three points off the line",
        "pseudo-linear quadruple"])
def test_a_fragment_that_does_not_embed_reaches_the_scan(monkeypatch, make):
    f = make()
    assert not embed_in_real_line(f).embeddable
    monkeypatch.setattr(MetricFragment, "triangle_failures", _scan_ran)
    with pytest.raises(AssertionError, match="the triangle scan ran"):
        verify_fragment(f)
