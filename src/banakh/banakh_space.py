"""Two-point-sphere geometry over an abstract sphere oracle.

The central axiom: every nonempty sphere S(c;r) holds exactly two points,
and those two points lie at mutual distance 2r.  Everything in this module
is a consequence machine for that axiom — unique point location from two
anchors, discrete lines, ray orientation, segment construction, sphere and
hypersphere parametrizations — plus exact verification of finite metric
fragments and real-line embeddability.

Geometry runs against :class:`SphereOracle`, which abstracts both the point
set and the *value algebra* of distances: values only ever need equality,
rational-ratio testing, scaling by rationals, and an order where the
algebra has one.  That keeps one implementation of each construction
working over integer points, exact metric fragments, and the symbolic
group coordinates of :mod:`banakh.banakh_group`.

Every constructed point is picked by one rule, ``_the_member``: the one
member of one sphere that a condition keeps.  An empty sphere raises
NoSuchRadius, a sphere with no kept member SphereDeficiency, and one with
two kept members AmbiguityViolation.  :func:`gps_locate` is no such pick.

The finite fragments are :class:`banakh.graph_metric.MetricFragment`, the
full graph metrics, re-exported here; this module checks their axioms, with
no triangle scan on a fragment that its one forced real-line placement
embeds, and answers their spheres from the fragment's own sphere index.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .graph_metric import MetricFragment, _line_ints, _pair
from .monoid_algebra import MonoidDesc
from .values import SurdValue, ZERO, _vs_sum, rat

__all__ = [
    "MetricFragment",
    "FragmentReport",
    "SphereOracle",
    "ZLineOracle",
    "FragmentOracle",
    "Orientation",
    "SphereDeficiency",
    "NoSuchRadius",
    "AmbiguityViolation",
    "BanakhLawViolation",
    "EmbedResult",
    "verify_fragment",
    "real_line_banakh_check",
    "gps_locate",
    "discrete_line",
    "orientation",
    "segment_construct",
    "split_segment",
    "directed_point",
    "zr_sphere_map",
    "hypersphere_map",
    "embed_in_real_line",
]


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------


class FragmentReport(NamedTuple):
    metric_ok: bool
    banakh_consistent: bool
    incomplete_spheres: list
    violations: list


def verify_fragment(f: MetricFragment) -> FragmentReport:
    """Exact check of the triangle inequality and the two-point-sphere law.

    Positivity is already guaranteed by the :class:`MetricFragment`
    constructor.  A fragment that :func:`_placement` embeds in ℝ is reported
    without a scan: d(x,y) = |x - y| is a metric, and a sphere lies in
    {c - r, c + r}, two points 2r apart, so no violation exists and only the
    one-member spheres are listed.  Any other fragment, which embeds nowhere
    since the placement is forced, takes the full check.  Its triangle
    failures come from
    :meth:`MetricFragment.triangle_failures`, the exact scan that also
    validates every :func:`banakh.graph_metric.extend_to_full` result: on
    ints for a one-dimensional table such as a window of a line, float
    filtered with exact fallbacks otherwise; on a full table it agrees with
    the path check :func:`banakh.graph_metric.validate_pseudometric`.  The
    spheres are read from ``f.spheres``, each center's in the order of their
    member tuples, the order the index keeps them in, so no call sorts
    them.  A sphere with one member is *incomplete*, not
    inconsistent: no finite table can realize both members of every sphere.
    Violations are the triangle failures, then spheres with three or more
    members, or two-member spheres whose mutual distance differs from twice
    the radius (:func:`banakh.values._vs_sum` against r + r).
    """
    embeds = _placement(f)[0] is not None
    violations = [] if embeds else [{"kind": "triangle", "points": list(names)}
                                    for names in f.triangle_failures()]
    metric_ok = not violations
    incomplete = []
    banakh = True
    for c in f.points:
        for r, members in f.spheres[c].items():
            if len(members) == 1:
                incomplete.append((c, r))
            elif embeds:
                continue
            elif len(members) > 2:
                banakh = False
                violations.append({"kind": "sphere-size", "center": c,
                                   "radius": r, "members": list(members)})
            elif _vs_sum(f.distance(*members), r, r) != 0:
                banakh = False
                violations.append({"kind": "sphere-diameter", "center": c,
                                   "radius": r, "members": list(members)})
    return FragmentReport(metric_ok=metric_ok, banakh_consistent=banakh,
                          incomplete_spheres=incomplete, violations=violations)


def real_line_banakh_check(X, window_relative: bool = True):
    """For finite X ⊂ ℚ: is {x+y−z, x−y+z} ⊆ X for all x, y, z ∈ X?

    In window-relative mode, combinations falling outside [min X, max X] are
    ignored (a finite window of a line cannot contain them anyway).
    Returns (verdict, witness) with witness = (x, y, z, missing_value).
    """
    pts = sorted(set(rat(x) for x in X))
    S = set(pts)
    if not pts:
        return True, None
    lo, hi = pts[0], pts[-1]
    for x in pts:
        for y in pts:
            for z in pts:
                for c in (x + y - z, x - y + z):
                    if c in S:
                        continue
                    if window_relative and not (lo <= c <= hi):
                        continue
                    return False, (x, y, z, c)
    return True, None


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class SphereDeficiency(RuntimeError):
    """The oracle could not supply a needed sphere member."""

    def __init__(self, center, radius):
        self.center = center
        self.radius = radius
        super().__init__(f"sphere at {center!r} radius {radius!r} is deficient")


class NoSuchRadius(RuntimeError):
    def __init__(self, center, radius):
        self.center = center
        self.radius = radius
        super().__init__(f"no point at distance {radius!r} from {center!r}")


class AmbiguityViolation(RuntimeError):
    """Two sphere members satisfied a condition that must pin down one."""


class BanakhLawViolation(RuntimeError):
    """The backing space contradicted the two-point-sphere law."""


class SphereOracle:
    """Interface: points with exact distances and at-most-two-point spheres.

    ``sphere(c, r)`` must return a deterministic-ordered tuple of length
    ≤ 2 (length 1 with member c when r is the zero value).  The value-algebra
    hooks below default to SurdValue semantics; oracles with other distance
    values override them.
    """

    def dist(self, x, y):
        raise NotImplementedError

    def sphere(self, c, r):
        raise NotImplementedError

    # value algebra -------------------------------------------------------

    def value_scale(self, q, v):
        """q·v for rational q ≥ 0."""
        return v * rat(q)

    def value_ratio(self, v, w) -> Optional[Fraction]:
        """q with v = q·w, or None when no rational ratio exists."""
        return v.ratio_to(w)

    def value_is_zero(self, v) -> bool:
        return v.is_zero()

    def value_le(self, v, w) -> Optional[bool]:
        """v ≤ w, or None when the values have no order."""
        return not w < v


class ZLineOracle(SphereOracle):
    """The integers with |x − y|: the canonical one-dimensional example."""

    def dist(self, x, y):
        return SurdValue.of(abs(x - y))

    def sphere(self, c, r):
        k = r.ratio_to(1)       # None for an irrational r
        if k is None or k.denominator != 1:
            return ()
        if k < 0:
            raise ValueError("negative radius")
        if k == 0:
            return (c,)
        return (c - int(k), c + int(k))


class FragmentOracle(SphereOracle):
    """Spheres read off a finite exact distance table.

    ``sphere(c, r)`` is one lookup in the fragment's sphere index: ``(c,)``
    at radius zero, ``()`` at a radius no point realizes from c, and a
    KeyError for an unknown center at a nonzero radius.
    """

    def __init__(self, fragment: MetricFragment):
        self.fragment = fragment

    def dist(self, x, y):
        return self.fragment.distance(x, y)

    def sphere(self, c, r):
        if r.is_zero():
            return (c,)
        return self.fragment.spheres[c].get(r, ())


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


class Orientation(enum.Enum):
    PARALLEL = "parallel"
    ANTIPARALLEL = "antiparallel"
    INCOMPARABLE = "incomparable"


def gps_locate(o: SphereOracle, a, b, ra, rb):
    """The unique point at distance ra from a and rb from b, or None.

    Two distinct anchors determine any point: a two-point intersection
    contradicts the sphere law and raises BanakhLawViolation.
    """
    if a == b:
        raise ValueError("anchors must be distinct")
    sa = o.sphere(a, ra)
    sb = o.sphere(b, rb)
    inter = [p for p in sa if p in sb]
    if len(inter) > 1:
        raise BanakhLawViolation(
            f"spheres at {a!r},{b!r} intersect in {len(inter)} points: {inter}")
    return inter[0] if inter else None


def _the_member(o: SphereOracle, c, r, keep):
    """The member of sphere(c, r) that ``keep`` keeps (module docstring)."""
    members = o.sphere(c, r)
    if not members:
        raise NoSuchRadius(c, r)
    hits = [m for m in members if keep(m)]
    if len(hits) > 1:
        raise AmbiguityViolation(
            f"both members of sphere({c!r}, {r!r}) qualify: {hits}")
    if not hits:
        raise SphereDeficiency(c, r)
    return hits[0]


def _ray(o: SphereOracle, a, b, n: int, r):
    """Points a = x_0, b = x_1, ..., x_n stepping away from a.

    Each step selects the sphere member at distance 2r from the predecessor
    of the current point; that member is unique by the sphere law.
    """
    pts = [a, b]
    two_r = o.value_scale(2, r)
    while len(pts) <= n:
        prev, cur = pts[-2], pts[-1]
        pts.append(_the_member(o, cur, r,
                               lambda m: o.dist(m, prev) == two_r))
    return pts


def discrete_line(o: SphereOracle, a, b, n: int):
    """The 2n+1 points x_{−n}..x_n with x_0 = a, x_1 = b and
    dist(x_i, x_j) = |i−j|·dist(a,b), built by iterated sphere steps."""
    if a == b:
        raise ValueError("need two distinct points")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [a]
    r = o.dist(a, b)
    forward = _ray(o, a, b, n, r)
    backward = _ray(o, b, a, n + 1, r)  # b, a, x_{-1}, ..., x_{-n}
    return list(reversed(backward[2:])) + forward


def orientation(o: SphereOracle, origin, x, y) -> Orientation:
    """Same-ray / opposite-ray relation of x and y as seen from origin.

    Decidable only when dist(origin,x)/dist(origin,y) is rational: then the
    two rays are walked out to the least common length and compared.  An
    irrational ratio is Incomparable by construction.
    """
    if x == origin or y == origin:
        raise ValueError("origin must differ from both points")
    dx = o.dist(origin, x)
    dy = o.dist(origin, y)
    q = o.value_ratio(dx, dy)
    if q is None:
        return Orientation.INCOMPARABLE
    if x == y:
        return Orientation.PARALLEL
    num, den = q.numerator, q.denominator  # common length = den·dx = num·dy
    ex = _ray(o, origin, x, den, dx)[den]
    ey = _ray(o, origin, y, num, dy)[num]
    return Orientation.PARALLEL if ex == ey else Orientation.ANTIPARALLEL


def segment_construct(o: SphereOracle, x, y, r):
    """The unique z with dist(y,z) = r and dist(x,z) = dist(x,y) + r."""
    if o.value_is_zero(r):
        return y
    dxy = o.dist(x, y)
    q = o.value_ratio(r, dxy)
    if q is None:
        raise ValueError("radius must be a rational multiple of dist(x,y)")
    expected = o.value_scale(1 + q, dxy)
    return _the_member(o, y, r, lambda m: o.dist(x, m) == expected)


def split_segment(o: SphereOracle, x, z, a, b):
    """The point y between x and z with dist(x,y) = a, dist(y,z) = b."""
    dxz = o.dist(x, z)
    if o.value_is_zero(a):
        if dxz != b:
            raise ValueError("a + b must equal dist(x,z)")
        return x
    if o.value_is_zero(b):
        if dxz != a:
            raise ValueError("a + b must equal dist(x,z)")
        return z
    qa = o.value_ratio(a, dxz)
    qb = o.value_ratio(b, dxz)
    if qa is None or qb is None or qa + qb != 1:
        raise ValueError("need a + b = dist(x,z) with rational ratios")
    return _the_member(o, x, a, lambda m: o.dist(m, z) == b)


def _oriented_point(o: SphereOracle, x, ref, r, sense: Orientation):
    """Member of sphere(x, r) whose ray from x has the given sense vs ref.

    Fast path: with q = r/dist(x,ref), a member at distance exactly
    |q−1|·dist(x,ref) from ref is certifiably the parallel one — the
    antiparallel member lies at least (q+1)·dist(x,ref) away, strictly more.
    (Only the parallel side is certified this way: the parallel member's
    distance has no usable upper bound, so matching (q+1)·d does not certify
    antiparallelity.)  Falls back to walking rays out to a common length.
    """
    dref = o.dist(x, ref)
    q = o.value_ratio(r, dref)
    if q is None:
        raise ValueError("radius must be a rational multiple of dist(x,ref)")
    if q <= 0:
        raise ValueError("radius must be positive")
    members = o.sphere(x, r)
    if not members:
        raise NoSuchRadius(x, r)
    expected_par = o.value_scale(abs(q - 1), dref)
    par_hits = [m for m in members if o.dist(m, ref) == expected_par]
    if len(par_hits) == 1:
        if sense is Orientation.PARALLEL:
            return par_hits[0]
        rest = [m for m in members if m != par_hits[0]]
        if rest:
            return rest[0]
        raise SphereDeficiency(x, r)
    return _the_member(o, x, r,
                       lambda m: orientation(o, x, m, ref) is sense)


def directed_point(o: SphereOracle, x, y, r):
    """The unique member of sphere(x, r) on the ray from x through y."""
    return _oriented_point(o, x, y, r, Orientation.PARALLEL)


def zr_sphere_map(o: SphereOracle, a, r, n: int) -> dict:
    """The isometric parametrization k ↦ ℓ(k·r) of the ℤr-hypersphere at a,
    for k ∈ [−n, n]; ℓ(0) = a and ℓ(r) is the first sphere member in the
    oracle's deterministic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return {0: a}
    members = o.sphere(a, r)
    if not members:
        raise NoSuchRadius(a, r)
    line = discrete_line(o, a, members[0], n)
    return {k: line[n + k] for k in range(-n, n + 1)}


class HypersphereReport(NamedTuple):
    """Per-point construction data and per-pair bound verification."""
    r_is_member: bool
    points: dict          # t (units of r) -> {"u": Fraction, "v": Fraction}
    skipped: list         # [(t, reason)]
    pairs: list           # one entry per unordered constructed pair


def hypersphere_map(o: SphereOracle, a, b, window, denom_bound: int = 64,
                    monoid: Optional[MonoidDesc] = None):
    """Parametrize the hypersphere through a and b over (N−N) ∩ [−w, w].

    N is the realized-distance monoid at r = dist(a,b), in units of r
    (so 1 ∈ N), supplied by the caller; integers (N = ℤ₊) by default.
    ℓ(t) is built by going out along u·r toward b and back v·r toward a,
    where u is minimal in N with v = u − t ∈ N.  Any admissible u yields the
    same point (two-anchor uniqueness), so construction failures at the
    window edge fall through to the next u.

    Returns (mapping t ↦ point, HypersphereReport).  The report checks, for
    every constructed pair, |s−t|·r ≤ d ≤ (|s−t| + 2·inf-additive)·r and the
    equivalence d = |s−t|·r ⇔ |s−t| ∈ N.
    """
    if a == b:
        raise ValueError("need two distinct points")
    N = monoid if monoid is not None else MonoidDesc.fingen([1])
    if not N.member(1):
        raise ValueError("unit monoid must contain 1 (r is realized)")
    r = o.dist(a, b)
    window = rat(window)
    mapping = {}
    report_points = {}
    skipped = []
    u_cap = 2 * window + 2 * (N.conductor() or 0) + 4
    u_candidates = [u for u in N.elements(u_cap, denom_bound)]
    for t in N.diff_elements(window, denom_bound):
        point, used = None, None
        for u in u_candidates:
            v = u - t
            if v < 0 or not N.member(v):
                continue
            try:
                x = a if u == 0 else directed_point(o, a, b,
                                                    o.value_scale(u, r))
                if v == 0:
                    point = x
                elif u == 0:
                    point = _oriented_point(o, a, b, o.value_scale(v, r),
                                            Orientation.ANTIPARALLEL)
                else:
                    point = directed_point(o, x, a, o.value_scale(v, r))
                used = (u, v)
                break
            except (SphereDeficiency, NoSuchRadius):
                continue
        if point is None:
            skipped.append((t, "window edge"))
            continue
        mapping[t] = point
        report_points[t] = {"u": used[0], "v": used[1]}
    pairs = []
    ts = sorted(mapping)
    for s, t in combinations(ts, 2):
        delta = abs(t - s)
        d = o.dist(mapping[s], mapping[t])
        lower = o.value_scale(delta, r)
        extra = N.min_add(delta)
        entry = {"s": s, "t": t, "delta": delta,
                 "upper_verified": extra is not None,
                 "lower_ok": o.value_le(lower, d), "upper_ok": None}
        if extra is not None:
            entry["upper_ok"] = o.value_le(d, o.value_scale(delta + 2 * extra, r))
        entry["tight"] = (d == lower)
        entry["member"] = N.member(delta)
        entry["equivalence_ok"] = entry["tight"] == entry["member"]
        pairs.append(entry)
    report = HypersphereReport(r_is_member=N.member(1), points=report_points,
                               skipped=skipped, pairs=pairs)
    return mapping, report


# ---------------------------------------------------------------------------
# real-line embedding
# ---------------------------------------------------------------------------


class EmbedResult(NamedTuple):
    coords: Optional[dict] = None
    obstruction: Optional[tuple] = None

    @property
    def embeddable(self) -> bool:
        return self.coords is not None


def _trichotomy_triple(f: MetricFragment):
    """A 3-subset where no distance equals the sum of the other two."""
    for x, y, z in combinations(f.points, 3):
        a, b, c = f.distance(y, z), f.distance(x, z), f.distance(x, y)
        if _vs_sum(a, b, c) and _vs_sum(b, a, c) and _vs_sum(c, a, b):
            return (x, y, z)
    return None


def _placement(f: MetricFragment):
    """The one real-line placement: ``(coords, None)`` when it realizes f,
    ``(None, q)`` when the point q does not place, and ``(None, None)``
    when every point places but a pair fails.

    p0 sits at 0, p1 at a = d(p0, p1) > 0, and q, with b = d(p0, q) and
    c = d(p1, q), at -b when c = b + a, or at b when b = c + a or a = c + b:
    the ways that |x - a| = c for x = +-b, of which positive values allow
    at most one.  So an embedding, if one exists, is this one, complete at
    every size.  Each tie is a zero of :func:`banakh.values._vs_sum`, on
    ints for rational values.  Then each pair's distance must be
    x_u - x_v or x_v - x_u: on the ints N of a one-dimensional table
    (:func:`_line_ints`), each value N*u/D for one u > 0, else on values.
    """
    pts = f.points
    if len(pts) <= 1:
        return {p: ZERO for p in pts}, None
    p0, p1 = pts[0], pts[1]
    a = f.distance(p0, p1)
    coords, side = {p0: ZERO, p1: a}, {p0: 1, p1: 1}
    for q in pts[2:]:
        b, c = f.distance(p0, q), f.distance(p1, q)
        if _vs_sum(c, b, a) == 0:
            coords[q], side[q] = -b, -1
        elif _vs_sum(b, c, a) == 0 or _vs_sum(a, c, b) == 0:
            coords[q], side[q] = b, 1
        else:
            return None, q
    x, values = coords, f.edges.values()
    ints = _line_ints(list(values))
    if ints is not None:
        n = dict(zip(f.edges, ints))
        x = {p: s * n.get(_pair(p0, p), 0) for p, s in side.items()}
        values = ints
    for (u, v), d in zip(f.edges, values):
        gap = x[u] - x[v]
        if d != gap and d != -gap:
            return None, None
    return coords, None


def embed_in_real_line(f: MetricFragment) -> EmbedResult:
    """Exact coordinates on ℝ realizing the fragment (:func:`_placement`),
    or a witness that none exist: a triple with no collinear split, which
    (p0, p1, q) is for a point q that does not place; or, when every triple
    splits (only at exactly 4 points: Menger's pseudo-linear quadruple),
    the whole set.
    """
    coords, q = _placement(f)
    if coords is not None:
        return EmbedResult(coords=coords)
    if q is not None:
        return EmbedResult(obstruction=(f.points[0], f.points[1], q))
    bad = _trichotomy_triple(f)
    return EmbedResult(obstruction=bad if bad is not None
                       else tuple(f.points))
