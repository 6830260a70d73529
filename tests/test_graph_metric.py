import gc
import itertools
import math
import random
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from banakh.values import InputTooLarge, SurdValue, ZERO, primes_from
from banakh.monoid_algebra import MonoidDesc, is_floppy
import banakh.banakh_space
import banakh.graph_metric
from banakh.graph_metric import (GraphMetric, MuGraph, ScaledMu, build_mu,
                                 validate_pseudometric, is_floppy_graph,
                                 extend_to_full, ExtensionPolicy,
                                 ExtensionExhausted, ExtensionResult,
                                 floppy_union, ConditionViolation,
                                 MetricFragment, _DistanceTable, _Sum,
                                 _default_sample, _enclosure, _exact)


OMEGA1 = MonoidDesc.closure("omega-minus-1")
DPT = MonoidDesc.closure("dyadic-plus-thirds")


def path_graph(weights):
    """v0 - v1 - ... - vn with the given consecutive edge weights."""
    verts = [f"v{i}" for i in range(len(weights) + 1)]
    edges = {(verts[i], verts[i + 1]): w for i, w in enumerate(weights)}
    return GraphMetric(verts, edges)


# -- construction checks -------------------------------------------------------


def test_rejects_disconnected_and_bad_edges():
    with pytest.raises(ValueError, match="not connected"):
        GraphMetric(["a", "b", "c"], {("a", "b"): 1})
    with pytest.raises(ValueError, match="self-loop"):
        GraphMetric(["a"], {("a", "a"): 1})
    with pytest.raises(ValueError, match="nonpositive"):
        GraphMetric(["a", "b"], {("a", "b"): 0})
    with pytest.raises(ValueError, match="unknown vertex"):
        GraphMetric(["a", "b"], {("a", "x"): 1})
    with pytest.raises(ValueError, match="radius must be positive"):
        build_mu(MonoidDesc.fingen([1]), 0, 2)


def test_the_empty_graph_and_an_unknown_vertex():
    # no vertex: connected, full and a pseudometric; a fragment's length is
    # its number of points
    empty = GraphMetric([], {})
    assert empty.is_full() and validate_pseudometric(empty) == (True, None)
    assert len(MetricFragment([], {})) == 0
    g = path_graph([1, 2])
    assert len(extend_to_full(g, ExtensionPolicy(seed=0)).full) == 3
    with pytest.raises(KeyError, match="unknown vertex"):
        g.distances_from("nowhere")


def test_edge_storage_is_orientation_free():
    g = GraphMetric(["a", "b"], {("b", "a"): 3})
    assert g.edge_value("a", "b") == SurdValue(3)
    assert g.edge_value("b", "a") == SurdValue(3)
    assert g.is_full()


# -- shortest paths vs the reference implementation ----------------------------


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    verts = [f"v{i}" for i in range(n)]
    edges = {}
    # a random spanning path keeps it connected, then extra chords
    for i in range(n - 1):
        w = draw(st.fractions(min_value=Fraction(1, 4), max_value=8,
                              max_denominator=8))
        edges[(verts[i], verts[i + 1])] = w
    for u, v in itertools.combinations(verts, 2):
        if (u, v) in edges:
            continue
        if draw(st.booleans()):
            edges[(u, v)] = draw(st.fractions(min_value=Fraction(1, 4),
                                              max_value=8, max_denominator=8))
    return verts, edges


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_hat_path_matches_reference_dijkstra(data):
    verts, edges = data
    g = GraphMetric(verts, {k: SurdValue(w) for k, w in edges.items()})
    expected = oracles.dijkstra(verts, edges, verts[0])
    got = g.distances_from(verts[0])
    assert {v: d.as_rational() for v, d in got.items()} == expected


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_check_never_exceeds_hat_on_pseudometrics(data):
    verts, edges = data
    # snap every edge to its own shortest-path value; the result is a valid
    # pseudometric (raw random weights need not be, and check <= hat is a
    # pseudometric property)
    paths = {v: oracles.dijkstra(verts, edges, v) for v in verts}
    repaired = {k: paths[k[0]][k[1]] for k in edges}
    g = GraphMetric(verts, {k: SurdValue(w) for k, w in repaired.items()})
    assert validate_pseudometric(g) == (True, None)
    for u, v in itertools.combinations(verts, 2):
        assert not g.hat(u, v) < g.check(u, v), (u, v)


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_hat_and_check_match_the_plain_scan(data):
    verts, edges = data
    g = GraphMetric(verts, {k: SurdValue(w) for k, w in edges.items()})
    paths = {v: oracles.dijkstra(verts, edges, v) for v in verts}

    def hat(a, b):
        return paths[a][b]

    for x, y in itertools.product(verts, repeat=2):
        assert g.hat(x, y).as_rational() == paths[x][y], (x, y)
        assert (g.check(x, y).as_rational()
                == oracles.check_scan(verts, edges, hat, x, y)), (x, y)


@pytest.mark.parametrize("monoid, scale", [
    (OMEGA1, SurdValue(1)),
    (MonoidDesc.fingen([2, 3]), SurdValue(1)),
    (MonoidDesc.fingen([2, 3]), SurdValue.sqrt(2)),
], ids=["omega-minus-1", "fingen-2-3", "fingen-2-3-sqrt2"])
def test_difference_graph_hat_and_check_match_the_plain_scan(monoid, scale):
    # both monoids are {0, 2, 3, 4, ...}; hat is the closed formula on the
    # infinite graph, so pairs at the window edge are included on purpose
    template = build_mu(monoid, 1, 6)
    units = {v: Fraction(v) for v in template.vertices}

    def gap(a, b):
        return abs(units[a] - units[b])

    members = oracles.closure_ints([2, 3], 40)
    edges = {(a, b): gap(a, b)
             for a, b in itertools.combinations(template.vertices, 2)
             if gap(a, b) in members}
    hats = {(a, b): gap(a, b) + 2 * oracles.min_add_brute(
                members.__contains__, gap(a, b), sorted(members))
            for a, b in itertools.product(template.vertices, repeat=2)}

    def hat(a, b):
        return hats[a, b]

    g = template
    name = {v: v for v in template.vertices}
    if scale != SurdValue(1):
        name = {v: f"s{v}" for v in template.vertices}
        g = ScaledMu(template, scale, name)
    for x, y in itertools.product(template.vertices, repeat=2):
        assert g.hat(name[x], name[y]) == scale * hats[x, y], (x, y)
        want = oracles.check_scan(template.vertices, edges, hat, x, y)
        assert g.check(name[x], name[y]) == scale * want, (x, y)


@pytest.mark.parametrize("g", [
    path_graph([SurdValue(1), SurdValue(Fraction(1, 2)), SurdValue.sqrt(2)]),
    build_mu(MonoidDesc.fingen([2, 3]), 1, 4)], ids=["path", "fingen-2-3"])
def test_the_module_hat_and_check_are_the_methods(g):
    paths = {v: oracles.dijkstra(g.vertices, g.edges, v) for v in g.vertices}
    for x, y in itertools.product(g.vertices, repeat=2):
        assert (banakh.graph_metric.hat(g, x, y) == g.hat(x, y)
                == paths[x][y]), (x, y)
        want = oracles.check_scan(g.vertices, g.edges, g.hat, x, y)
        assert banakh.graph_metric.check(g, x, y) == g.check(x, y) == want
    x = g.vertices[0]
    for f, method in ((banakh.graph_metric.hat, g.hat),
                      (banakh.graph_metric.check, g.check)):
        for pair in ((x, "nowhere"), ("nowhere", x)):
            with pytest.raises(KeyError) as want:
                method(*pair)
            with pytest.raises(KeyError) as got:
                f(g, *pair)
            assert got.value.args == want.value.args


# -- the worked difference-graph values ----------------------------------------


def test_omega_minus_one_hat_and_check_values():
    g = build_mu(OMEGA1, 1, 12)
    # adjacent integers are not joined (difference 1 is not in the monoid);
    # the shortest detour out-and-back costs 1 + 2*2
    assert g.edge_value("0", "1") is None
    assert g.hat("0", "1") == SurdValue(5)
    assert g.check("0", "1") == SurdValue(1)
    # distances of 2 and 3 are realized directly
    assert g.edge_value("0", "2") == SurdValue(2)
    assert g.edge_value("0", "3") == SurdValue(3)
    verdict, witness = is_floppy_graph(g)
    assert verdict is True and witness is None


def test_single_edge_graph_check_equals_value():
    g = GraphMetric(["a", "b"], {("a", "b"): 5})
    assert g.check("a", "b") == SurdValue(5)
    assert g.hat("a", "b") == SurdValue(5)


def test_formula_hat_agrees_with_windowed_path_search():
    # the closed formula is the infinite-graph value; the windowed Dijkstra
    # agrees once the window leaves room for the out-and-back witness path
    for monoid in (MonoidDesc.fingen([1]), MonoidDesc.fingen([2, 3]),
                   MonoidDesc.fingen([3, 5]), OMEGA1):
        g = build_mu(monoid, 1, 16)
        for x, y in itertools.combinations(g.vertices, 2):
            if abs(g.unit_of[x]) <= 6 and abs(g.unit_of[y]) <= 6:
                assert g.hat(x, y) == g.hat_path(x, y), (monoid, x, y)


def test_scaled_radius_scales_everything():
    base = build_mu(MonoidDesc.fingen([2, 3]), 1, 10)
    scaled = build_mu(MonoidDesc.fingen([2, 3]), Fraction(1, 2), 5)
    assert scaled.hat("0", "1/2") == base.hat("0", "1") * Fraction(1, 2)
    assert scaled.check("0", "1/2") == base.check("0", "1") * Fraction(1, 2)


def test_mu_vertices_and_edges_follow_the_monoid():
    g = build_mu(MonoidDesc.fingen([2, 3]), 1, 6)
    assert set(g.vertices) == {format(k) for k in range(-6, 7)}
    for u, v in itertools.combinations(g.vertices, 2):
        d = abs(g.unit_of[u] - g.unit_of[v])
        if g.monoid.member(d):
            assert g.edge_value(u, v) == SurdValue(d)
        else:
            assert g.edge_value(u, v) is None


def test_dyadic_plus_thirds_pair_is_rigid():
    # at the non-floppy witness radius the hat and check bounds pinch shut
    g = build_mu(DPT, 1, 2, denom_bound=16)
    assert g.check("0", "1/3") == SurdValue(Fraction(1, 3))
    assert g.hat("0", "1/3") == SurdValue(Fraction(1, 3))
    verdict, witness = is_floppy_graph(g)
    assert verdict is False
    u, v = witness
    assert g.check(u, v) == g.hat(u, v)
    assert is_floppy(DPT)[0] is False


def test_floppy_graph_verdict_matches_monoid_verdict():
    for monoid in (MonoidDesc.fingen([1]), MonoidDesc.fingen([2]),
                   MonoidDesc.fingen([2, 3]), MonoidDesc.fingen([3, 5]),
                   OMEGA1):
        g = build_mu(monoid, 1, 8)
        assert is_floppy_graph(g)[0] == is_floppy(monoid)[0], monoid


def test_validate_pseudometric_finds_shortcuts():
    good = path_graph([1, 1, 1])
    assert validate_pseudometric(good) == (True, None)
    bad = GraphMetric(["a", "b", "c"],
                      {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5})
    verdict, witness = validate_pseudometric(bad)
    assert verdict is False and set(witness) == {"a", "c"}


# -- the triangle scan of a full table --------------------------------------------


TINY = Fraction(1, 2 ** 60)
HUGE = 10 ** 400
# added to a line distance: nothing, a last-bits change of either sign
# (rational, one surd, four surds whose enclosure is wider than the filter's
# margin), or a plain surd or rational
NUDGES = [ZERO, SurdValue(TINY), SurdValue(-TINY),
          SurdValue(0, {2: TINY}), SurdValue(0, {3: -TINY}),
          SurdValue(0, {2: TINY, 3: TINY, 5: -TINY, 7: TINY}),
          SurdValue(0, {5: 1}), SurdValue(Fraction(1, 2))]


@st.composite
def full_tables(draw):
    """Full tables on 3-7 points: distances of points on a line (so that
    collinear ties are everywhere), each entry nudged or not, the whole
    table optionally scaled beyond the double range or below it."""
    n = draw(st.integers(min_value=3, max_value=7))
    points = [f"p{i}" for i in range(n)]
    coords = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1, 1, HUGE, Fraction(1, HUGE)]))
    table = {}
    for i, j in itertools.combinations(range(n), 2):
        base = abs(coords[i] - coords[j]) or draw(st.integers(1, 12))
        table[(points[i], points[j])] = \
            (SurdValue(base) + draw(st.sampled_from(NUDGES))) * scale
    return MetricFragment(points, table)


@given(full_tables())
@settings(max_examples=150, deadline=None)
def test_triangle_failures_match_the_plain_scan(f):
    failures = f.triangle_failures()
    assert failures == oracles.triangle_scan(f.points, f.distance)
    # the two checks of a full table agree
    assert (not failures) == validate_pseudometric(f)[0]


@pytest.mark.parametrize("over", [
    SurdValue(2 + TINY),
    SurdValue(2, {2: TINY, 3: TINY, 5: TINY, 7: TINY}),
    SurdValue(2 * HUGE + 1),
], ids=["rational", "four-surds", "beyond-doubles"])
def test_triangle_failures_find_a_last_bits_failure(over):
    scale = HUGE if over > HUGE else 1
    one = SurdValue(scale)
    f = MetricFragment(["x", "y", "z"], {("x", "y"): one, ("y", "z"): one,
                                         ("x", "z"): over})
    assert f.triangle_failures() == [("x", "z", "y")]
    tie = MetricFragment(["x", "y", "z"], {("x", "y"): one, ("y", "z"): one,
                                           ("x", "z"): one * 2})
    assert tie.triangle_failures() == []


@pytest.mark.parametrize("long_side,named", [
    (("x", "z"), ("x", "z", "y")), (("y", "z"), ("y", "z", "x")),
    (("x", "y"), ("x", "y", "z"))])
def test_the_float_scan_names_the_failing_side(long_side, named):
    # 3*sqrt(2) against two unit sides: a table that is not one-dimensional
    f = MetricFragment(["x", "y", "z"], {
        pair: SurdValue.sqrt(2) * 3 if pair == long_side else SurdValue(1)
        for pair in (("x", "y"), ("x", "z"), ("y", "z"))})
    assert f.triangle_failures() == [named]


def off_by_an_ulp(value):
    """Ends that miss the value by up to one ulp the wrong way, more than a
    stored end ever does."""
    mid = float(value)
    return math.nextafter(mid, math.inf), math.nextafter(mid, -math.inf)


def test_triangle_filter_margin_covers_rounded_ends(monkeypatch):
    # the filter's margin still sends the failing side to the exact
    # comparison
    monkeypatch.setattr(banakh.graph_metric, "_enclosure", off_by_an_ulp)
    one = SurdValue(1)
    f = MetricFragment(["x", "y", "z"], {("x", "y"): one, ("y", "z"): one,
                                         ("x", "z"): SurdValue(2 + TINY)})
    assert f.triangle_failures() == [("x", "z", "y")]


def test_completion_is_validated_without_the_path_check(monkeypatch):
    # extend_to_full validates through validate_pseudometric, whose
    # per-vertex path search runs only to name the witness of a failure
    calls = []

    def refuse(g):
        raise AssertionError("the path search ran on a valid completion")

    monkeypatch.setattr(banakh.graph_metric, "_path_witness", refuse)
    validate = banakh.graph_metric.validate_pseudometric
    monkeypatch.setattr(banakh.graph_metric, "validate_pseudometric",
                        lambda g: calls.append(g) or validate(g))
    result = extend_to_full(build_mu(MonoidDesc.fingen([2, 3]), 1, 6),
                            ExtensionPolicy(seed=3))
    assert calls == [result.full]
    assert result.full.triangle_failures() == []


def test_validate_pseudometric_names_the_witness_of_a_full_graph():
    # a failed scan falls back to the path search for the witness, the
    # first edge (in vertex order) that is not its shortest path
    bad = MetricFragment(["a", "b", "c", "d"],
                         {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5,
                          ("a", "d"): 1, ("b", "d"): 1, ("c", "d"): 1})
    assert validate_pseudometric(bad) == (False, ("a", "c"))
    assert validate_pseudometric(bad) == banakh.graph_metric._path_witness(bad)


# -- the int lane of a one-dimensional table, and the float lane beside it ------


@given(full_tables())
@settings(max_examples=150, deadline=None)
def test_the_float_scan_matches_the_plain_scan(f):
    # the float-filtered scan itself, on the one- and two-dimensional tables
    # alike, whichever lane the fragment takes
    table = _DistanceTable(f.points, f.edges)
    assert table.triangle_failures() == oracles.triangle_scan(f.points,
                                                              f.distance)


# units of a line: rational, one surd, a rational multiple of a surd, one
# with a negative rational part, each also beyond the double range and below
# it
LINE_UNITS = [SurdValue(1), SurdValue.sqrt(2), SurdValue(0, {5: Fraction(3, 7)}),
              SurdValue(-1, {3: 1})]
# added to a line distance, in units: nothing, a last-bits change of either
# sign, plain rationals, and one too fine for the int lane's width
LINE_NUDGES = [0, TINY, -TINY, Fraction(1, 2), Fraction(1, 3),
               Fraction(1, 2 ** 130)]


@st.composite
def line_tables(draw):
    """One-dimensional full tables on 0-7 points: unit times (distance of
    points on a line, each entry nudged or not)."""
    n = draw(st.integers(min_value=0, max_value=7))
    points = [f"p{i}" for i in range(n)]
    coords = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    unit = (draw(st.sampled_from(LINE_UNITS))
            * draw(st.sampled_from([1, HUGE, Fraction(1, HUGE)])))
    table = {}
    for i, j in itertools.combinations(range(n), 2):
        base = abs(coords[i] - coords[j]) or draw(st.integers(1, 12))
        table[(points[i], points[j])] = \
            unit * (base + draw(st.sampled_from(LINE_NUDGES)))
    return MetricFragment(points, table)


def line(n, unit=1, sides=()):
    """Points 0..n-1 on a line, times the unit, with the given sides set to
    other lengths (in units)."""
    points = [f"p{k:02d}" for k in range(n)]
    dist = {(a, b): j - i for (i, a), (j, b)
            in itertools.combinations(enumerate(points), 2)}
    dist.update(sides)
    return MetricFragment(points, {key: unit * d for key, d in dist.items()})


@given(line_tables())
# failures through the pairs p00-p03 and p01-p02, named in triple order
@example(line(5, sides={("p01", "p02"): 4, ("p00", "p03"): 5}))
# the pair p00-p01 fails through p03 and ties through p02
@example(line(4, sides={("p00", "p01"): 2, ("p00", "p02"): 1,
                        ("p01", "p02"): 1, ("p00", "p03"): 5,
                        ("p01", "p03"): 1, ("p02", "p03"): 4}))
@example(MetricFragment([], {}))
@example(MetricFragment(["a"], {}))
@example(MetricFragment(["a", "b"], {("a", "b"): SurdValue.sqrt(2)}))
@settings(max_examples=200, deadline=None)
def test_one_dimensional_tables_match_the_plain_scan(f):
    failures = f.triangle_failures()
    assert failures == oracles.triangle_scan(f.points, f.distance)
    assert (not failures) == validate_pseudometric(f)[0]


def refuse(*args):
    raise AssertionError("the float scan ran on a one-dimensional table")


@pytest.mark.parametrize("unit", [SurdValue(1), SurdValue.sqrt(2)],
                         ids=["rational", "sqrt2"])
def test_a_line_is_scanned_without_the_float_scan(monkeypatch, unit):
    monkeypatch.setattr(banakh.graph_metric, "_DistanceTable", refuse)
    monkeypatch.setattr(banakh.graph_metric, "_vs_sum", refuse)
    f = line(40, unit)
    assert f.triangle_failures() == []
    assert validate_pseudometric(f) == (True, None)
    # the end-to-end side exceeds its path through every inner point
    long = line(40, unit, {("p00", "p39"): 39 + Fraction(1, 3)})
    assert long.triangle_failures() == [("p00", "p39", f"p{k:02d}")
                                        for k in range(1, 39)]


@pytest.mark.parametrize("off", [
    SurdValue(1, {3: 1}),
    SurdValue(3 + Fraction(1, 2 ** 130)),
], ids=["off-the-line", "too-wide"])
def test_the_int_lane_stops_at_a_value_it_cannot_hold(monkeypatch, off):
    # one value off the line, or one whose int is wider than the lane's
    # fields, sends the table to the float scan, with the oracle's failures
    scans = []
    scan = _DistanceTable.triangle_failures
    monkeypatch.setattr(_DistanceTable, "triangle_failures",
                        lambda self: scans.append(self) or scan(self))
    points = [f"p{k}" for k in range(6)]
    dist = {(a, b): SurdValue(j - i) for (i, a), (j, b)
            in itertools.combinations(enumerate(points), 2)}
    dist[("p0", "p3")] = off
    f = MetricFragment(points, dist)
    failures = f.triangle_failures()
    assert len(scans) == 1
    assert failures == oracles.triangle_scan(f.points, f.distance)
    # d(p0,p4) = 4 > (1 + sqrt(3)) + 1, and 3 + 2**-130 > 1 + 2
    assert failures
    assert validate_pseudometric(f)[0] is False


def test_a_union_refuses_a_broken_line_base_on_the_int_lane(monkeypatch):
    # the base check takes the int lane, with the same message
    monkeypatch.setattr(banakh.graph_metric, "_DistanceTable", refuse)
    monkeypatch.setattr(banakh.graph_metric, "_vs_sum", refuse)
    base = GraphMetric(["x", "y", "z"],
                       {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 5})
    member = GraphMetric(["x", "m"], {("x", "m"): 1})
    with pytest.raises(ValueError, match=r"^base of a union must be a full "
                                         r"pseudometric: d\(x,z\) exceeds "
                                         r"the path through y$"):
        floppy_union(base, [member])


# sides x-y and y-z of rank 2 over Q, so that the table stays on the float
# lane; x-z exceeds their sum by TINY, or by 1 beyond the double range
PLANE = [(SurdValue(1), SurdValue.sqrt(2), TINY),
         (SurdValue(HUGE), SurdValue.sqrt(2) * HUGE, 1)]


@pytest.mark.parametrize("xy, yz, over", PLANE, ids=["rational", "beyond-doubles"])
def test_a_two_dimensional_table_finds_a_last_bits_failure(xy, yz, over):
    f = MetricFragment(["x", "y", "z"], {("x", "y"): xy, ("y", "z"): yz,
                                         ("x", "z"): xy + yz + over})
    assert banakh.graph_metric._line_ints(list(f.edges.values())) is None
    assert f.triangle_failures() == [("x", "z", "y")]
    tie = MetricFragment(["x", "y", "z"], {("x", "y"): xy, ("y", "z"): yz,
                                           ("x", "z"): xy + yz})
    assert tie.triangle_failures() == []


def test_two_dimensional_filter_margin_covers_rounded_ends(monkeypatch):
    monkeypatch.setattr(banakh.graph_metric, "_enclosure", off_by_an_ulp)
    xy, yz, _ = PLANE[0]
    f = MetricFragment(["x", "y", "z"], {("x", "y"): xy, ("y", "z"): yz,
                                         ("x", "z"): xy + yz + TINY})
    assert f.triangle_failures() == [("x", "z", "y")]
    tie = MetricFragment(["x", "y", "z"], {("x", "y"): xy, ("y", "z"): yz,
                                           ("x", "z"): xy + yz})
    assert tie.triangle_failures() == []


# -- generic completion ---------------------------------------------------------


def four_cycle():
    return GraphMetric(["a", "b", "c", "d"],
                       {("a", "b"): 1, ("b", "c"): 1,
                        ("c", "d"): 1, ("d", "a"): 1})


def test_four_cycle_diagonals_land_strictly_inside():
    result = extend_to_full(four_cycle(), ExtensionPolicy(seed=11))
    assert result.full.is_full()
    for pair in (("a", "c"), ("b", "d")):
        w = result.assignments[pair]
        assert (w - ZERO).sign() == 1
        assert (SurdValue(2) - w).sign() == 1
    assert result.assignments[("a", "c")] != result.assignments[("b", "d")]


def test_completion_is_a_metric_fragment():
    result = extend_to_full(four_cycle(), ExtensionPolicy(seed=11))
    assert isinstance(result.full, MetricFragment)
    assert result.full.distance("a", "c") == result.assignments[("a", "c")]
    assert banakh.banakh_space.MetricFragment is banakh.graph_metric.MetricFragment


def test_extension_preserves_input_and_satisfies_triangles():
    g = build_mu(MonoidDesc.fingen([2, 3]), 1, 6)
    result = extend_to_full(g, ExtensionPolicy(seed=3))
    full = result.full
    for key, w in g.edges.items():
        assert full.edges[key] == w
    assert oracles.triangle_scan(full.vertices, full.distance) == []
    values = list(result.assignments.values())
    assert len(set(values)) == len(values)            # pairwise distinct
    for pair, w in result.assignments.items():
        lo, hi = result.intervals[pair]
        assert (w - lo).sign() == 1 and (hi - w).sign() == 1


def test_extension_is_deterministic_per_seed():
    g = four_cycle()
    a = extend_to_full(g, ExtensionPolicy(seed=7))
    b = extend_to_full(g, ExtensionPolicy(seed=7))
    c = extend_to_full(g, ExtensionPolicy(seed=8))
    assert a.assignments == b.assignments
    assert a.assignments != c.assignments


def test_extension_fresh_surds_avoid_existing_primes():
    g = GraphMetric(["a", "b", "c"],
                    {("a", "b"): SurdValue(0, {2: 1}),
                     ("b", "c"): SurdValue(0, {2: 1})})
    result = extend_to_full(g, ExtensionPolicy(seed=1))
    w = result.assignments[("a", "c")]
    assert 2 not in w.primes() and w.primes()


def test_extension_rejects_pinched_input():
    # edge (a,d) = 4 forces d(a,c) >= 4 - d(d,c) = 2 while the path a-b-c
    # caps it at 2: the interval for (a,c) is empty from the start
    g = GraphMetric(["a", "b", "c", "d"],
                    {("a", "d"): 4, ("a", "b"): 1, ("b", "c"): 1,
                     ("c", "d"): 2})
    assert g.check("a", "c") == g.hat("a", "c") == SurdValue(2)
    with pytest.raises(ExtensionExhausted) as info:
        extend_to_full(g, ExtensionPolicy(seed=0, max_backtracks=40))
    assert info.value.pair == ("a", "c")


def test_completion_of_a_graph_that_is_no_pseudometric_fails_validation():
    # a-c = 3 is longer than the path a-b-c: completion fills (a, d) and
    # (b, d), and the validating scan of the result names the edge
    g = GraphMetric(["a", "b", "c", "d"], {("a", "b"): 1, ("b", "c"): 1,
                                           ("a", "c"): 3, ("c", "d"): 1})
    with pytest.raises(RuntimeError,
                       match=r"failed validation at \('a', 'c'\)"):
        extend_to_full(g, ExtensionPolicy(seed=1))


def test_extension_guards_against_rogue_samplers():
    bad = ExtensionPolicy(seed=0,
                          dense_family=lambda pair, lo, hi, rng, p: hi + 1)
    with pytest.raises(RuntimeError, match="escaped"):
        extend_to_full(four_cycle(), bad)


# -- the exact completion the filtered engine must reproduce --------------------


def reference_extend_to_full(g, policy):
    """extend_to_full as a plain exact computation over a dict of vertex
    pairs: every comparison and sum on SurdValues, the relaxation in place,
    the check maximum over every live edge, the shortest paths and the final
    validation by the oracle's linear-minimum Dijkstra.  Same sampler,
    prime source and backtracking as the library.  ``tables[k]`` is the
    exact table after the first k kept assignments, so a backtrack pops one
    instead of replaying the rest."""
    verts = list(g.vertices)
    missing = [p for p in itertools.combinations(verts, 2)
               if p not in g.edges]

    used_primes = set()
    for w in g.edges.values():
        used_primes |= w.primes()
    prime_source = (p for p in primes_from(2) if p not in used_primes)

    rng = random.Random(policy.seed)
    sampler = policy.dense_family or (
        lambda pair, lo, hi, r, prime: _default_sample(lo, hi, r, prime))

    tables = [_all_pairs(g)]

    assignments = {}
    intervals = {}
    order = []
    live_edges = dict(g.edges)
    backtracks = 0
    idx = 0
    while idx < len(missing):
        pair = missing[idx]
        dist = tables[-1]
        lo = _check_from(dist, live_edges, pair)
        hi = dist[pair]
        if lo < hi:
            value = sampler(pair, lo, hi, rng, next(prime_source))
            if not (lo < value < hi):
                raise RuntimeError(f"sampled value {value} escaped ({lo}, {hi})")
            assignments[pair] = value
            intervals[pair] = (lo, hi)
            order.append(pair)
            live_edges[pair] = value
            dist = dict(dist)
            _shrink(dist, verts, pair, value)
            tables.append(dist)
            idx += 1
            continue
        backtracks += 1
        if not order or backtracks > policy.max_backtracks:
            raise ExtensionExhausted(pair, backtracks)
        dropped = order.pop()
        del assignments[dropped], intervals[dropped], live_edges[dropped]
        tables.pop()
        idx = missing.index(dropped)

    edges = dict(g.edges)
    edges.update(assignments)
    full = GraphMetric(verts, edges)
    # the first edge, in the library's order, that is not its shortest path
    for x in full.vertices:
        paths = oracles.dijkstra(full.vertices, full.edges, x)
        for v, w in full.adj[x]:
            if paths[v] != w:
                raise RuntimeError(
                    f"completed graph failed validation at {(x, v)}")
    return ExtensionResult(full=full, assignments=assignments,
                           intervals=intervals, backtracks=backtracks)


def _all_pairs(g):
    dist = {}
    for x in g.vertices:
        from_x = oracles.dijkstra(g.vertices, g.edges, x)
        for y, d in from_x.items():
            if x < y:
                dist[(x, y)] = d
    return dist


def _lookup(dist, u, v):
    if u == v:
        return ZERO
    return dist[(u, v) if u <= v else (v, u)]


def _shrink(dist, verts, pair, w):
    u, v = pair
    for i, j in dist:
        through = min(_lookup(dist, i, u) + w + _lookup(dist, v, j),
                      _lookup(dist, i, v) + w + _lookup(dist, u, j))
        if through < dist[(i, j)]:
            dist[(i, j)] = through


def _check_from(dist, edges, pair):
    x, y = pair
    best = ZERO
    for (a, b), w in edges.items():
        for ha, hb in ((_lookup(dist, a, x), _lookup(dist, b, y)),
                       (_lookup(dist, b, x), _lookup(dist, a, y))):
            cand = w - ha - hb
            if best < cand:
                best = cand
    return best


def near_hi(pair, lo, hi, rng, prime):
    """A dense family that crowds the upper end: hi - (hi - lo)/k."""
    return hi - (hi - lo) / rng.choice((2, 7, 1000, 10 ** 9))


def outcome(engine, g, policy):
    """Everything an engine decides: each sampler call with its interval,
    then the result, or how it failed."""
    calls = []
    family = policy.dense_family or (
        lambda pair, lo, hi, rng, prime: _default_sample(lo, hi, rng, prime))

    def recording(pair, lo, hi, rng, prime):
        calls.append((pair, lo, hi, prime))
        return family(pair, lo, hi, rng, prime)

    logged = ExtensionPolicy(seed=policy.seed,
                             max_backtracks=policy.max_backtracks,
                             dense_family=recording)
    try:
        res = engine(g, logged)
    except ExtensionExhausted as exc:
        return calls, ("exhausted", exc.pair, exc.backtracks)
    except RuntimeError as exc:         # the final validation failed
        return calls, ("invalid", str(exc))
    return calls, (list(res.assignments.items()), list(res.intervals.items()),
                   res.backtracks, res.full.edges)


def assert_engines_agree(g, policy):
    got = outcome(extend_to_full, g, policy)
    assert got == outcome(reference_extend_to_full, g, policy)
    return got


FLOPPY_MONOIDS = [MonoidDesc.fingen([2, 3]), MonoidDesc.fingen([3, 5]),
                  MonoidDesc.fingen([3, 4]), MonoidDesc.fingen([2, 5]), OMEGA1]
SCALES = [SurdValue(1), SurdValue(0, {2: 1}), SurdValue(1, {3: 1}),
          SurdValue(0, {5: Fraction(3, 2)})]
families = st.sampled_from([None, near_hi])


@given(st.sampled_from(FLOPPY_MONOIDS),
       st.sampled_from([(1, 4), (Fraction(1, 2), 2), (2, 8)]),
       st.sampled_from(SCALES), families, st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_engine_matches_reference_on_difference_windows(monoid, r_window,
                                                         scale, family, seed):
    g = build_mu(monoid, *r_window)
    if scale != SurdValue(1):
        g = ScaledMu(g, scale, {v: f"s{v}" for v in g.vertices})
    calls, result = assert_engines_agree(
        g, ExtensionPolicy(seed=seed, dense_family=family))
    assert calls and result[2] == 0


@given(st.sampled_from(FLOPPY_MONOIDS), st.sampled_from(SCALES),
       st.sampled_from([("0", "2"), ("-1", "2"), ("0", "3")]), families,
       st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_engine_matches_reference_on_a_floppy_union(monoid, scale, glue,
                                                    family, seed):
    # two rescaled copies of a window glued along a base pair, as the
    # builder glues copies onto its current fragment
    template = build_mu(monoid, 1, 3)
    x, y = glue
    base = GraphMetric(["gx", "gy"], {("gx", "gy"): scale * template.hat(x, y)})
    copies = []
    for tag in "ab":
        rename = {v: f"{tag}{v}" for v in template.vertices}
        rename.update({x: "gx", y: "gy"})
        copies.append(ScaledMu(template, scale, rename))
    union, _ = floppy_union(base, copies)
    assert_engines_agree(union, ExtensionPolicy(seed=seed, dense_family=family))


@st.composite
def weighted_graphs(draw):
    """Small connected graphs with weights from a short list, so that exact
    ties are common; the weights need not be shortest paths, so some pairs
    are pinched (check >= hat) and the completion backtracks or gives up,
    and some completions fail the final validation."""
    n = draw(st.integers(min_value=3, max_value=6))
    verts = [f"v{i}" for i in range(n)]
    weights = st.sampled_from([SurdValue(1), SurdValue(2), SurdValue(3),
                               SurdValue(Fraction(3, 2)), SurdValue(0, {2: 1}),
                               SurdValue(1, {2: 1})])
    edges = {(verts[i], verts[i + 1]): draw(weights) for i in range(n - 1)}
    for u, v in itertools.combinations(verts, 2):
        if (u, v) not in edges and draw(st.booleans()):
            edges[(u, v)] = draw(weights)
    return GraphMetric(verts, edges)


@st.composite
def nudged_graphs(draw):
    """Connected graphs on 3-7 points of a line, each edge the distance of
    its ends (or a drawn one, for a repeated point) plus a NUDGES entry, so
    that paths tie exactly or differ in the last bits."""
    n = draw(st.integers(min_value=3, max_value=7))
    verts = [f"v{i}" for i in range(n)]
    coords = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    pairs = [(i, i + 1) for i in range(n - 1)] + [
        p for p in itertools.combinations(range(n), 2)
        if p[1] > p[0] + 1 and draw(st.booleans())]
    edges = {}
    for i, j in pairs:
        base = abs(coords[i] - coords[j]) or draw(st.integers(1, 12))
        edges[(verts[i], verts[j])] = \
            SurdValue(base) + draw(st.sampled_from(NUDGES))
    return GraphMetric(verts, edges)


# u reaches v by 1 + 1, TINY below the edge (s, v): with ends one ulp the
# wrong way, only the margin keeps that relaxation from being skipped
LAST_BITS_SHORTCUT = GraphMetric(
    ["s", "u", "v"], {("s", "u"): SurdValue(1), ("u", "v"): SurdValue(1),
                      ("s", "v"): SurdValue(2 + TINY)})


# from s, v is reached at 10 and lowered to 2 through a, and w is reached
# at 5 and lowered to 3 through v, each before it is expanded: a lowered
# vertex must be queued again at its new value, or x keeps 6 for 4
LOWERED_TWICE = GraphMetric(
    ["s", "a", "v", "w", "x"],
    {("s", "v"): SurdValue(10), ("s", "a"): SurdValue(1),
     ("a", "v"): SurdValue(1), ("v", "w"): SurdValue(1),
     ("s", "w"): SurdValue(5), ("w", "x"): SurdValue(1)})


# two unit chains of 40 edges from s meet at t, and b's last edge is TINY
# short of 1: t is reached at 40 through a39 first and lowered from b39,
# near 40, where an ulp is 2**-47; a margin from the edges alone (B = 1,
# tol = 2**-48) lets ends one ulp the wrong way skip that relaxation
LONG_CHAINS = GraphMetric(
    ["s", "t"] + [f"{c}{i}" for c in "ab" for i in range(1, 40)],
    {**{(f"{c}{i}", f"{c}{i + 1}"): SurdValue(1)
        for c in "ab" for i in range(1, 39)},
     ("s", "a1"): SurdValue(1), ("s", "b1"): SurdValue(1),
     ("a39", "t"): SurdValue(1), ("b39", "t"): SurdValue(1 - TINY)})


@pytest.mark.parametrize("ends", [_enclosure, off_by_an_ulp],
                         ids=["certified", "off-by-an-ulp"])
@given(st.one_of(weighted_graphs(), nudged_graphs()))
@example(LAST_BITS_SHORTCUT)
@example(LOWERED_TWICE)
@example(LONG_CHAINS)
@settings(max_examples=100, deadline=None)
def test_distances_from_matches_the_oracle(ends, g):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(banakh.graph_metric, "_enclosure", ends)
        for x in g.vertices:
            assert g.distances_from(x) == \
                oracles.dijkstra(g.vertices, g.edges, x), x


def test_distances_from_beyond_the_double_range():
    # every end is infinite, and so is tol: each relaxation is decided on
    # the exact values.  b, reached at 3H, is lowered to 2H through z
    # before it is expanded, and c is reached from b at its final value
    h = SurdValue(HUGE)
    g = GraphMetric(["a", "b", "c", "z"],
                    {("a", "z"): h, ("z", "b"): h, ("a", "b"): h * 3,
                     ("b", "c"): h})
    got = g.distances_from("a")
    assert got == {"a": ZERO, "z": h, "b": h * 2, "c": h * 3}
    assert got == oracles.dijkstra(g.vertices, g.edges, "a")


def plain_window():
    """The <2, 3> window of radius 1 and window 5 as a plain graph, as
    `banakh extend` reads it from a file: 11 vertices, floppy, not full."""
    g = build_mu(MonoidDesc.fingen([2, 3]), 1, 5)
    return GraphMetric(g.vertices, g.edges)


def test_completion_seeds_from_every_vertex_but_the_last(monkeypatch):
    calls = []
    paths = GraphMetric.distances_from

    def counted(g, x):
        calls.append(x)
        return paths(g, x)

    monkeypatch.setattr(GraphMetric, "distances_from", counted)
    # every difference of Z_plus is a member: the window is a full graph,
    # and nothing reads a seed table
    line = build_mu(MonoidDesc.fingen([1]), 1, 4)
    assert line.is_full()
    assert extend_to_full(line, ExtensionPolicy(seed=0)).assignments == {}
    assert calls == []
    # one missing pair: the last row sets no entry
    extend_to_full(path_graph([1, 1]), ExtensionPolicy(seed=0))
    assert calls == ["v0", "v1"]
    # validate_pseudometric names its witness from the path table, and
    # extend_to_full completes a copy of the same table: one search per
    # vertex but the last, for both together
    calls.clear()
    g = plain_window()
    assert validate_pseudometric(g) == (True, None)
    assert calls == list(g.vertices[:-1])
    assert extend_to_full(g, ExtensionPolicy(seed=3)).assignments
    assert calls == list(g.vertices[:-1])


def test_hat_and_check_of_a_plain_graph_read_its_path_table():
    g = plain_window()
    base = MetricFragment(["a", "b"], {("a", "b"): 2})
    member = GraphMetric(["a", "b", "c"], {("a", "c"): 1, ("b", "c"): 1})
    union, _ = floppy_union(base, [member])
    for graph in (g, base, union):
        assert graph._hat_table is graph._path_table
    assert union.hat("a", "c") == 1 and union.check("a", "b") == 2


def table_state(table):
    return ([[table.exact(i, j) for j in range(len(table.verts))]
             for i in range(len(table.verts))],
            [row[:] for row in table.lo], [row[:] for row in table.hi],
            table.edges[:], table.bound, table.tol)


@pytest.mark.parametrize("make", [
    plain_window,
    lambda: build_mu(OMEGA1, 1, 6),
    lambda: copy_of_a_copy(build_mu(OMEGA1, 1, 4))],
    ids=["plain", "difference", "copy of a copy"])
def test_completion_leaves_the_path_table_as_it_was(make):
    g = make()
    pairs = list(itertools.combinations(g.vertices, 2))
    hats = [g.hat(x, y) for x, y in pairs]
    checks = [g.check(x, y) for x, y in pairs]
    before = table_state(g._path_table)
    result = extend_to_full(g, ExtensionPolicy(seed=5))
    assert result.assignments and result.backtracks == 0
    assert [g.hat(x, y) for x, y in pairs] == hats
    assert [g.check(x, y) for x, y in pairs] == checks
    assert table_state(g._path_table) == before
    again = extend_to_full(g, ExtensionPolicy(seed=5))
    assert again.assignments == result.assignments
    assert again.full.edges == result.full.edges


# -- the difference graph's int path table ---------------------------------------


def small_rationals(top):
    return st.fractions(min_value=Fraction(1, 2), max_value=top,
                        max_denominator=2)


difference_monoids = st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(MonoidDesc.fingen),
    st.lists(small_rationals(3), min_size=1, max_size=2).map(MonoidDesc.fingen),
    small_rationals(2).map(lambda g: MonoidDesc.groupcone([g])),
    st.just(OMEGA1))
PATH_SCALES = [SurdValue(1), SurdValue(Fraction(3, 2)), SurdValue.sqrt(2)]


def copy_of_a_copy(template):
    """A 3/2 copy of a sqrt(2) copy of the template, named t<vertex>."""
    inner = ScaledMu(template, SurdValue.sqrt(2),
                     {v: f"s{v}" for v in template.vertices})
    return ScaledMu(inner, SurdValue(Fraction(3, 2)),
                    {f"s{v}": f"t{v}" for v in template.vertices})


@given(difference_monoids, st.sampled_from([1, Fraction(1, 2), 2]),
       st.integers(1, 5), st.sampled_from(PATH_SCALES))
@example(MonoidDesc.fingen([3, 5]), 1, 3, SurdValue.sqrt(2))
@example(MonoidDesc.fingen([2, 5]), 1, 3, SurdValue(1))
@settings(max_examples=100, deadline=None)
def test_difference_graph_paths_match_the_oracle_and_the_search(
        monoid, r, units, scale):
    # every row of the int table, mirrored or searched, against the plain
    # Dijkstra and against the float-filtered search it replaces, on the
    # window, on a copy and on a copy of a copy; the example is a window
    # whose closed hat falls below its path values
    try:
        g = build_mu(monoid, r, r * units)
    except ValueError:        # no edge in the window, or not connected
        assume(False)
    for graph in (g, ScaledMu(g, scale, {v: f"s{v}" for v in g.vertices}),
                  copy_of_a_copy(g)):
        for x in graph.vertices:
            want = oracles.dijkstra(graph.vertices, graph.edges, x)
            assert graph.distances_from(x) == want == \
                GraphMetric.distances_from(graph, x)


@given(difference_monoids, st.sampled_from([1, Fraction(1, 2), 2]),
       st.integers(1, 3), st.sampled_from(PATH_SCALES),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
       st.booleans(), st.booleans(), st.booleans())
@example(MonoidDesc.fingen([3, 5]), 1, 3, SurdValue.sqrt(2), [0, 4],
         True, True, True)
@settings(max_examples=40, deadline=None)
def test_union_paths_match_the_oracle_and_the_search(
        monoid, r, units, scale, picks, a_everywhere, b_everywhere, plain):
    # a base of window points at their scaled closed hats, and glued onto
    # it: a copy and a copy of a copy (each at every base point or at the
    # first), sharing glue, and a plain graph at the first base point.  The
    # example puts -1 and 1 of <3, 5> at window 3 in the base, where the
    # closed hat falls below the window's path value
    try:
        g = build_mu(monoid, r, r * units)
    except ValueError:        # no edge in the window, or not connected
        assume(False)
    glue = sorted({g.vertices[k % len(g.vertices)] for k in picks})
    base = GraphMetric([f"g{v}" for v in glue],
                       {(f"g{u}", f"g{v}"): scale * g.hat(u, v)
                        for u, v in itertools.combinations(glue, 2)})

    def rename(tag, everywhere):
        at = glue if everywhere else glue[:1]
        return {v: f"g{v}" if v in at else f"{tag}{v}" for v in g.vertices}

    inner = ScaledMu(g, SurdValue(Fraction(3, 2)),
                     {v: f"i{v}" for v in g.vertices})
    outer = rename("b", b_everywhere)
    family = [ScaledMu(g, scale, rename("a", a_everywhere)),
              ScaledMu(inner, scale * Fraction(2, 3),
                       {f"i{v}": outer[v] for v in g.vertices})]
    if plain:
        own = rename("q", False)
        family.append(GraphMetric(own.values(),
                                  {(own[u], own[v]): scale * w
                                   for (u, v), w in g.edges.items()}))
    union, _ = floppy_union(base, family)
    for x in union.vertices:
        row = union.distances_from(x)
        assert row == oracles.dijkstra(union.vertices, union.edges, x) == \
            GraphMetric.distances_from(union, x), x
        kept = dict(row)
        row[x] = SurdValue(1)
        row.popitem()
        assert union.distances_from(x) == kept
    with pytest.raises(KeyError, match="unknown vertex"):
        union.distances_from("nowhere")


def test_the_path_table_is_not_the_closed_hat():
    # at window 3, <3, 5> joins only differences 3, 5 and 6, and a detour
    # through the window is longer than the infinite graph's
    g = build_mu(MonoidDesc.fingen([3, 5]), 1, 3)
    below = [(x, y) for x in g.vertices for y in g.vertices
             if g.hat(x, y) < g.distances_from(x)[y]]
    assert ("-1", "1") in below
    assert g.hat_path("-1", "1") == \
        oracles.dijkstra(g.vertices, g.edges, "-1")["1"]
    # hat and check read a closed table apart from the path table, on the
    # window and on a copy
    copy = ScaledMu(g, SurdValue.sqrt(2), {v: f"s{v}" for v in g.vertices})
    hats = [0, 11, 8, 11, 8, 3, 14]         # from -1, in vertex order
    paths = [0, 19, 8, 11, 22, 3, 14]
    for graph, unit in ((g, SurdValue(1)), (copy, SurdValue.sqrt(2))):
        assert graph._hat_table is not graph._path_table
        x, table = graph.vertices[0], graph._path_table
        assert [graph.hat(x, y) for y in graph.vertices] == \
            [unit * n for n in hats]
        assert [table.exact(0, j) for j in range(len(paths))] == \
            [graph.hat_path(x, y) for y in graph.vertices] == \
            [unit * n for n in paths]


def test_difference_completion_seeds_from_the_int_table(monkeypatch):
    # a sqrt(2) copy of an omega-1 window, and a copy of a copy of one:
    # both have missing pairs
    template = build_mu(OMEGA1, 1, 6)
    copies = [ScaledMu(template, SurdValue.sqrt(2),
                       {v: f"a{v}" for v in template.vertices}),
              copy_of_a_copy(build_mu(OMEGA1, 1, 4))]
    calls = []
    paths = GraphMetric.distances_from

    def counted(h, x):
        calls.append(x)
        return paths(h, x)

    monkeypatch.setattr(GraphMetric, "distances_from", counted)
    for g in copies:
        plain = GraphMetric(g.vertices, g.edges)
        calls.clear()
        got = extend_to_full(g, ExtensionPolicy(seed=5))
        assert got.assignments and calls == []
        want = extend_to_full(plain, ExtensionPolicy(seed=5))
        assert calls == list(g.vertices[:-1])
        assert got.assignments == want.assignments
        assert got.intervals == want.intervals
        assert got.full.edges == want.full.edges


@pytest.mark.parametrize("closure", ["dyadic-plus-thirds", "dyadic"])
def test_the_closed_hat_is_exact_in_steps(closure):
    # |Δ| + 2*min_add(|Δ|) on Fractions, times r: a hat is kept in steps,
    # and a step count that is not an int is never rounded
    monoid, r = MonoidDesc.closure(closure), Fraction(1, 2)
    g = build_mu(monoid, r, 2, denom_bound=16)
    for x, y in itertools.product(g.vertices, repeat=2):
        delta = abs(g.unit_of[x] - g.unit_of[y])
        assert g.hat(x, y) == \
            SurdValue((delta + 2 * monoid.min_add(delta)) * r), (x, y)


def test_path_rows_are_fresh_dicts():
    template = build_mu(OMEGA1, 1, 4)
    g = ScaledMu(template, SurdValue(Fraction(3, 2)),
                 {v: f"a{v}" for v in template.vertices})
    for graph, x, y in ((template, "-2", "3"), (g, "a-2", "a3")):
        row = graph.distances_from(x)
        kept = dict(row)
        row[y] = ZERO
        del row[x]
        assert graph.distances_from(x) == kept
        with pytest.raises(KeyError, match="unknown vertex"):
            graph.distances_from("nowhere")


def test_a_dropped_difference_graph_is_freed_at_once():
    # a MuGraph is its own int core: held as an attribute, it would be a
    # reference cycle, left for the cyclic collector with all its tables
    template = build_mu(OMEGA1, 1, 4)
    copy = ScaledMu(template, SurdValue.sqrt(2),
                    {v: f"a{v}" for v in template.vertices})
    assert copy.hat("a0", "a1") == copy.hat_path("a0", "a1")   # both tables
    freed = weakref.ref(template)
    gc.disable()
    try:
        del template, copy
        assert freed() is None
    finally:
        gc.enable()


@given(weighted_graphs(), families, st.integers(0, 10 ** 6),
       st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_on_small_graphs(g, family, seed, budget):
    assert_engines_agree(g, ExtensionPolicy(seed=seed, max_backtracks=budget,
                                            dense_family=family))


def test_the_column_follows_an_edge_away_from_its_key():
    # on the path v0-v1-v2-v3 with the column keyed at v0, the edge
    # (v3, v1) = 1 shortens the entry (v3, v0), whose second end is the key
    g = path_graph([1, 1, 1])
    verts, edges = g.vertices, dict(g.edges)
    table = _DistanceTable(verts, edges, g.distances_from)
    index = table.index
    table.check(index["v0"], index["v2"])
    table.add_edge(index["v3"], index["v1"], SurdValue(1))
    edges[("v1", "v3")] = SurdValue(1)
    paths = {v: oracles.dijkstra(verts, edges, v) for v in verts}
    assert table.key == index["v0"] and table.exact(3, 0) == 2
    for y in verts:
        assert table.check(index["v0"], index[y]) == oracles.check_scan(
            verts, edges, lambda a, b: paths[a][b], "v0", y), y


@given(weighted_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_distance_table_follows_its_growing_graph(g, data):
    # edges added one by one, each strictly inside (check, hat) as in the
    # completion: every entry stays the plain shortest path of the grown
    # edge set and check stays the plain scan.  After each edge the pairs
    # of the column's key are asked first, on the column kept across
    # add_edge, then every pair in shuffled order, so that the column is
    # built again on a miss; copy() drops it
    verts, edges = g.vertices, dict(g.edges)
    table = _DistanceTable(verts, edges,
                           lambda x: GraphMetric.distances_from(g, x))
    index = table.index
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    primes = primes_from(2)
    unordered = list(itertools.combinations(verts, 2))
    missing = [p for p in unordered if p not in edges]
    for step, pair in enumerate(data.draw(st.permutations(missing)) + [None]):
        paths = {v: oracles.dijkstra(verts, edges, v) for v in verts}
        for x, y in itertools.product(verts, repeat=2):
            assert table.exact(index[x], index[y]) == paths[x][y], (step, x, y)
        asked = [p[::-1] if data.draw(st.booleans()) else p
                 for p in data.draw(st.permutations(unordered))]
        if table.key is not None:
            key = verts[table.key]
            asked[:0] = [(key, y) for y in data.draw(st.permutations(verts))]
        for x, y in asked:
            want = oracles.check_scan(verts, edges, lambda a, b: paths[a][b],
                                      x, y)
            assert table.check(index[x], index[y]) == want, (step, x, y)
        if pair is None:
            break
        if data.draw(st.booleans()):
            table = table.copy()
            assert table.key is None
        i, j = index[pair[0]], index[pair[1]]
        lo, hi = table.check(i, j), table.exact(i, j)
        if not lo < hi:
            continue
        value = data.draw(st.sampled_from([
            lambda: (lo + hi) / 2,
            lambda: near_hi(pair, lo, hi, rng, None),
            lambda: _default_sample(lo, hi, rng, next(primes))]))()
        assert lo < value < hi
        table.add_edge(i, j, value)
        edges[pair] = value


@given(weighted_graphs() | nudged_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_lazy_sums_match_the_eager_relaxation(g, data):
    # the table's lazy relaxation and the eager one of oracles.eager_add_edge
    # take the same edges, the same copy()s and the same backtracking
    # replays (from copies of their bases, as the completion replays);
    # after every step each exact entry and each check agree
    verts = g.vertices
    n = len(verts)

    def row(x):
        return GraphMetric.distances_from(g, x)

    bases = [_DistanceTable(verts, g.edges, row) for _ in range(2)]
    lazy, eager = (base.copy() for base in bases)
    index = lazy.index
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    primes = primes_from(2)
    kept = []

    def add(i, j, value):
        lazy.add_edge(i, j, value)
        oracles.eager_add_edge(eager, i, j, value)

    def assert_agree(step):
        for i, j in itertools.product(range(n), repeat=2):
            assert eager.d[i][j].__class__ is SurdValue
            assert lazy.exact(i, j) == eager.d[i][j], (step, i, j)
        for i, j in data.draw(st.permutations(
                list(itertools.product(range(n), repeat=2)))):
            assert lazy.check(i, j) == eager.check(i, j), (step, i, j)

    assert_agree("start")
    missing = [p for p in itertools.combinations(verts, 2)
               if p not in g.edges]
    for step, pair in enumerate(data.draw(st.permutations(missing))):
        action = data.draw(st.sampled_from(["add", "copy", "replay"]))
        if action == "copy":
            lazy, eager = lazy.copy(), eager.copy()
        elif action == "replay" and kept:
            del kept[data.draw(st.integers(0, len(kept) - 1)):]
            lazy, eager = (base.copy() for base in bases)
            for edge in kept:
                add(*edge)
        i, j = index[pair[0]], index[pair[1]]
        lo, hi = lazy.check(i, j), lazy.exact(i, j)
        if lo < hi:
            value = data.draw(st.sampled_from([
                lambda: (lo + hi) / 2,
                lambda: near_hi(pair, lo, hi, rng, None),
                lambda: _default_sample(lo, hi, rng, next(primes))]))()
            add(i, j, value)
            kept.append((i, j, value))
        assert_agree(step)


def test_a_deep_chain_of_sums_is_forced_without_recursion():
    # each sum nests the one before: forcing the last builds all 10,000
    # from an explicit stack, far past the interpreter's recursion limit
    one, root2 = SurdValue(1), SurdValue.sqrt(2)
    entry = ZERO
    for k in range(10_000):
        entry = _Sum(entry, one, root2 if k % 2 else ZERO)
    assert _exact(entry) == SurdValue(10_000, {2: 5_000})


def test_a_forced_sum_is_built_once(monkeypatch):
    inner = _Sum(SurdValue(1), SurdValue.sqrt(2), SurdValue(Fraction(1, 3)))
    outer = _Sum(inner, SurdValue(2), inner)
    value = _exact(outer)
    assert value == SurdValue(Fraction(14, 3), {2: 2})

    def no_arithmetic(*args):
        raise AssertionError("a forced sum was built again")

    monkeypatch.setattr(banakh.graph_metric, "_sum3", no_arithmetic)
    monkeypatch.setattr(SurdValue, "_combine", no_arithmetic)
    assert _exact(outer) is value
    assert _exact(inner) == SurdValue(Fraction(4, 3), {2: 1})


def count_sums(monkeypatch):
    """A list that grows by one for every lazy sum the table makes."""
    made = []
    init = _Sum.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(_Sum, "__init__", counted)
    return made


def test_a_custom_dense_family_sees_only_values(monkeypatch):
    made = count_sums(monkeypatch)
    seen = []

    def recording(pair, lo, hi, rng, prime):
        seen.append((lo, hi))
        return _default_sample(lo, hi, rng, prime)

    g = build_mu(MonoidDesc.fingen([2, 3]), 1, 4)
    extend_to_full(g, ExtensionPolicy(seed=3, dense_family=recording))
    assert made and seen
    assert all(lo.__class__ is hi.__class__ is SurdValue for lo, hi in seen)


def test_a_completion_hands_out_only_values(monkeypatch):
    made = count_sums(monkeypatch)
    g = build_mu(MonoidDesc.fingen([2, 3]), 1, 4)
    result = extend_to_full(g, ExtensionPolicy(seed=3))
    assert made and result.assignments
    assert all(v.__class__ is SurdValue for v in result.assignments.values())
    assert all(lo.__class__ is hi.__class__ is SurdValue
               for lo, hi in result.intervals.values())
    assert all(v.__class__ is SurdValue for v in result.full.edges.values())


@pytest.mark.parametrize("w", [
    SurdValue(1), SurdValue(1 + TINY), SurdValue(1 - TINY),
    SurdValue(1, {2: TINY}), SurdValue(1, {2: -TINY}),
], ids=["tie", "rational-over", "rational-under", "surd-over", "surd-under"])
def test_prefilter_and_column_margins_cover_rounded_ends(monkeypatch, w):
    # on the unit five-cycle a-b-c-d-e the first missing pair, (a, c), gets
    # w.  At w = 1, d(e,a) + w = d(e,c) is an exact tie; below it the new
    # edge shortens (a, d) and (c, e) by the difference; either way off it
    # forces check(a, d) = |w - 1|.  With ends one ulp the wrong way, the
    # margins must still keep e in A (and d in B) and send the column's
    # last-bits candidate to the exact maximum
    monkeypatch.setattr(banakh.graph_metric, "_enclosure", off_by_an_ulp)
    one = SurdValue(1)
    five_cycle = GraphMetric("abcde", {("a", "b"): one, ("b", "c"): one,
                                       ("c", "d"): one, ("d", "e"): one,
                                       ("e", "a"): one})

    def family(pair, lo, hi, rng, prime):
        if pair == ("a", "c"):
            return w
        return _default_sample(lo, hi, rng, prime)

    calls, _ = assert_engines_agree(
        five_cycle, ExtensionPolicy(seed=1, dense_family=family))
    intervals = {pair: (lo, hi) for pair, lo, hi, _ in calls}
    assert intervals[("a", "d")] == (max(w - one, one - w),
                                     min(one * 2, w + one))


def test_engines_backtrack_alike_before_a_pinched_pair():
    # "0" puts three open pairs before the pinched (a, c): every attempt
    # re-samples ("0", "d") at the upper end of its interval, and both
    # engines give up on the same pair after the same re-samples
    g = GraphMetric(["0", "a", "b", "c", "d"],
                    {("0", "a"): 1, ("a", "d"): 4, ("a", "b"): 1,
                     ("b", "c"): 1, ("c", "d"): 2})
    calls, result = assert_engines_agree(
        g, ExtensionPolicy(seed=4, max_backtracks=3, dense_family=near_hi))
    assert result == ("exhausted", ("a", "c"), 4)
    assert [pair for pair, *_ in calls] == [("0", "b"), ("0", "c")] + \
        [("0", "d")] * 4


def test_engines_exhaust_alike_on_the_pinched_four_vertex_graph():
    g = GraphMetric(["a", "b", "c", "d"],
                    {("a", "d"): 4, ("a", "b"): 1, ("b", "c"): 1,
                     ("c", "d"): 2})
    _, result = assert_engines_agree(g, ExtensionPolicy(seed=0))
    assert result == ("exhausted", ("a", "c"), 1)


def test_extension_beyond_the_double_range():
    # both edges overflow a double: every comparison goes to the brackets
    huge = 10 ** 400
    g = GraphMetric(["a", "b", "c"],
                    {("a", "b"): SurdValue(huge, {2: 1}),
                     ("b", "c"): SurdValue(huge, {3: 1})})
    result = extend_to_full(g, ExtensionPolicy(seed=2))
    lo, hi = result.intervals[("a", "c")]
    assert lo == SurdValue(0, {2: -1, 3: 1})
    assert hi == SurdValue(2 * huge, {2: 1, 3: 1})
    assert lo < result.assignments[("a", "c")] < hi
    assert_engines_agree(g, ExtensionPolicy(seed=2))


# -- scaling and unions ----------------------------------------------------------


def test_scaled_mu_carries_the_surd():
    template = build_mu(MonoidDesc.fingen([1]), 1, 3)
    rename = {v: f"s{v}" for v in template.vertices}
    scaled = ScaledMu(template, SurdValue.sqrt(2), rename)
    assert scaled.edge_value("s0", "s1") == SurdValue.sqrt(2)
    assert scaled.hat("s0", "s2") == SurdValue(0, {2: 2})
    assert scaled.check("s0", "s1") == template.check("0", "1") * SurdValue.sqrt(2)


@pytest.mark.parametrize("r", [2, Fraction(1, 2)])
@pytest.mark.parametrize("scale", [SurdValue(1), SurdValue(1, {3: 1}),
                                   "copy of a copy"])
def test_scaled_mu_scales_its_template_at_any_radius(r, scale):
    # the template's own values, radius included, times the scale: edges,
    # closed hats, checks and path values; a 3/2 copy of a sqrt(2) copy
    # scales them by both
    template = build_mu(MonoidDesc.fingen([2, 3]), r, 5 * r)
    if scale == "copy of a copy":
        scale = SurdValue(Fraction(3, 2)) * SurdValue.sqrt(2)
        rename = {v: f"t{v}" for v in template.vertices}
        scaled = copy_of_a_copy(template)
    else:
        rename = {v: f"s{v}" for v in template.vertices}
        scaled = ScaledMu(template, scale, rename)
    assert len(scaled.edges) == len(template.edges)
    for (u, v), w in template.edges.items():
        assert scaled.edge_value(rename[u], rename[v]) == scale * w
    for x, y in itertools.product(template.vertices, repeat=2):
        assert scaled.hat(rename[x], rename[y]) == scale * template.hat(x, y)
        assert scaled.check(rename[x], rename[y]) == \
            scale * template.check(x, y)
        assert scaled.hat_path(rename[x], rename[y]) == \
            scale * template.hat_path(x, y)


def test_scaled_mu_rejects_bad_scale_and_rename():
    template = build_mu(MonoidDesc.fingen([1]), 1, 2)
    same = {v: v for v in template.vertices}
    for zero in (SurdValue(0), 0):
        with pytest.raises(ValueError, match="scale must be positive"):
            ScaledMu(template, zero, same)
    with pytest.raises(ValueError, match="cover exactly"):
        ScaledMu(template, SurdValue(1), {"0": "x"})
    with pytest.raises(ValueError, match="injective"):
        ScaledMu(template, SurdValue(1), {v: "x" for v in template.vertices})
    # a rational scale is read as a value
    assert ScaledMu(template, Fraction(3, 2), same).edge_value("0", "1") == \
        SurdValue(Fraction(3, 2))


def base_pair(d=2):
    return GraphMetric(["x", "y"], {("x", "y"): d})


def test_floppy_union_certifies_an_equilateral_patch():
    member = GraphMetric(["x", "m", "y"],
                         {("x", "m"): 2, ("m", "y"): 2, ("x", "y"): 2})
    union, report = floppy_union(base_pair(2), [member])
    assert set(union.vertices) == {"x", "y", "m"}
    assert union.edge_value("x", "m") == SurdValue(2)
    assert report.certified_floppy
    assert report.member_floppy == [True]
    inner, outer = report.lambdas[0]
    assert inner.sign() > 0      # m is never metrically between glue points
    assert outer is None         # no base point outside the member


def test_floppy_union_withholds_certificate_for_midpoint_member():
    # a member whose inner point sits exactly between the glue points has a
    # vanishing positivity margin: glued, but not certified
    member = GraphMetric(["x", "m", "y"], {("x", "m"): 1, ("m", "y"): 1})
    union, report = floppy_union(base_pair(2), [member])
    assert union.edge_value("x", "m") == SurdValue(1)
    assert not report.certified_floppy
    inner, _ = report.lambdas[0]
    assert inner.sign() == 0


def test_floppy_union_condition_violations():
    with pytest.raises(ConditionViolation) as c1:
        floppy_union(base_pair(), [GraphMetric(["p", "q"], {("p", "q"): 1})])
    assert c1.value.condition == 1
    with pytest.raises(ConditionViolation) as c2:
        floppy_union(base_pair(2),
                     [GraphMetric(["x", "m", "y"],
                                  {("x", "m"): 2, ("m", "y"): 2})])
    assert c2.value.condition == 2
    with pytest.raises(ConditionViolation) as c3:
        floppy_union(base_pair(2), [
            GraphMetric(["x", "m", "y"], {("x", "m"): 1, ("m", "y"): 1}),
            GraphMetric(["x", "m"], {("x", "m"): 1}),
        ])
    assert c3.value.condition == 3
    with pytest.raises(ValueError, match="full"):
        floppy_union(GraphMetric(["x", "y", "z"],
                                 {("x", "y"): 1, ("y", "z"): 1}), [])


def test_floppy_union_refuses_a_base_that_is_not_a_metric():
    # the union reads base entries as base distances, so a full base whose
    # x-z entry exceeds the path through y is refused, and the triple named
    base = GraphMetric(["x", "y", "z"],
                       {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 5})
    member = GraphMetric(["x", "m"], {("x", "m"): 1})
    with pytest.raises(ValueError, match=r"full pseudometric: d\(x,z\) "
                                         r"exceeds the path through y"):
        floppy_union(base, [member])


def test_floppy_union_withholds_certificate_for_a_pinched_member():
    # b-d is pinched in the member: the edge a-d = 4 forces
    # check(b, d) = 4 - 1 = 3 = hat(b, d)
    member = GraphMetric(["a", "b", "c", "d"],
                         {("a", "d"): 4, ("a", "b"): 1, ("b", "c"): 1,
                          ("c", "d"): 2})
    base = GraphMetric(["a", "c"], {("a", "c"): 2})
    union, report = floppy_union(base, [member])
    assert union.edge_value("a", "d") == SurdValue(4)
    assert report.certified_floppy is False
    assert report.member_floppy == [False]
    # the same pinch among inner points, none of them between a and c: the
    # margins are positive, and the member's verdict alone withholds it
    member = GraphMetric(["a", "c", "u", "m", "v", "w"],
                         {("a", "c"): 2, ("a", "u"): 2, ("c", "u"): 2,
                          ("u", "w"): 4, ("u", "m"): 1, ("m", "v"): 1,
                          ("v", "w"): 2})
    _, report = floppy_union(base, [member])
    inner, outer = report.lambdas[0]
    assert inner.sign() > 0 and outer is None
    assert report.certified_floppy is False
    assert report.member_floppy == [False]


def test_floppy_union_refuses_a_member_edge_that_disagrees_with_the_base():
    # the member's path value x-m-y agrees with the base, its edge x-y does
    # not
    member = GraphMetric(["x", "m", "y"],
                         {("x", "y"): 5, ("x", "m"): 1, ("m", "y"): 1})
    assert member.hat("x", "y") == SurdValue(2)
    with pytest.raises(ConditionViolation, match="value conflict") as info:
        floppy_union(base_pair(2), [member])
    assert info.value.condition == 2


def test_extend_to_full_refuses_a_completion_above_the_pair_cap():
    # 448 vertices make 100,128 pairs, just above ENUMERATION_CAP; the
    # refusal comes before the table is built
    g = path_graph([SurdValue(1)] * 447)
    start = time.perf_counter()
    with pytest.raises(InputTooLarge, match="100128 pairs"):
        extend_to_full(g, ExtensionPolicy(seed=1))
    assert time.perf_counter() - start < 1.0
