"""End-to-end acceptance gate: nine checks, each under a wall-clock budget.

Each check recomputes its expected answers through the independent helpers in
oracles.py (trial-division arithmetic, brute closures, plain Dijkstra,
exhaustive scans) instead of trusting the library's own bookkeeping, and
prints exactly one PASS/FAIL line with the elapsed time.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np

import oracles
from banakh.values import SurdValue
from banakh.monoid_algebra import (MonoidDesc, dzik_reduce, ddot_set,
                                   is_half_group, is_p_divisible_in,
                                   is_floppy)
from banakh.graph_metric import (GraphMetric, ExtensionPolicy, build_mu,
                                 extend_to_full, is_floppy_graph)
from banakh.banakh_space import (ZLineOracle, FragmentOracle, Orientation,
                                 gps_locate, discrete_line, orientation,
                                 hypersphere_map, embed_in_real_line)
from banakh.banakh_group import (GroupElement, zero, basis, add, neg, scale,
                                 norm_equal, normsq, DistToken, dist_token,
                                 sphere, h_norm_certificate, GroupOracle)
from banakh.space_builder import (BuildSpec, RadiusClass, build,
                                  verify_certificate)

ZP = MonoidDesc.fingen([1])
OMEGA = MonoidDesc.closure("omega-minus-1")


@contextmanager
def criterion(num, title, limit, cap=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _line(num, title, "FAIL", time.monotonic() - start, limit, cap)
        raise
    elapsed = time.monotonic() - start
    _line(num, title, "PASS" if elapsed < limit else "FAIL", elapsed, limit,
          cap)
    assert elapsed < limit, f"time budget exceeded: {elapsed:.2f}s >= {limit}s"


def _line(num, title, verdict, elapsed, limit, cap):
    text = (f"criterion {num} ({title}): {verdict} "
            f"({elapsed:.2f}s / limit {limit:.0f}s)")
    if cap is not None:
        # fd-level capture swallows even sys.__stdout__; lift it for the line
        with cap.disabled():
            print(text, flush=True)
    else:
        print(text, file=sys.__stdout__, flush=True)


def _key(u, v):
    return (u, v) if u <= v else (v, u)


# -- 1: two-term indecomposables ----------------------------------------------------


def test_criterion_1_indecomposable_members(capfd):
    with criterion(1, "two-term indecomposables of the gap monoid", 1, capfd):
        assert ddot_set(OMEGA, 200) == [Fraction(2), Fraction(3)]


# -- 2: reduction over the full grid -------------------------------------------------


def _p_free_table(n, p):
    """p-free part of every integer in [0, n], by repeated division.

    int32 holds every value here (n is at most 10,000), and the twin
    reduction runs faster on it than on int64."""
    tab = np.arange(n + 1, dtype=np.int32)
    while True:
        mask = (tab > 0) & (tab % p == 0)
        if not mask.any():
            return tab
        tab[mask] //= p


def _twin_reduce(A, B, p, tab):
    """The reduction recurrence run on whole arrays of pairs at once.

    Same step rule as dzik_reduce (keep the smaller entry, bump the larger
    to the p-free part of larger + k*smaller), asserting the strict decrease
    of every active pair sum at every round.
    """
    inv_tab = np.zeros(p, dtype=np.int32)
    for a in range(1, p):
        inv_tab[a] = pow(a, -1, p)
    X = tab[A].copy()
    Y = tab[B].copy()
    idx = np.nonzero(X != Y)[0]
    while idx.size:
        x, y = X[idx], Y[idx]
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        k = ((p - hi % p) * inv_tab[lo % p]) % p
        succ = tab[hi + k * lo]
        assert ((lo + succ) < (x + y)).all()
        X[idx] = lo
        Y[idx] = succ
        idx = idx[np.nonzero(lo != succ)[0]]
    return X


def test_criterion_2_reduction_equals_p_free_gcd(capfd):
    with criterion(2, "reduction value is the p-free gcd of the inputs", 10,
                   capfd):
        base = np.arange(1, 2001, dtype=np.int64)
        A = np.repeat(base, 2000)
        B = np.tile(base, 2000)
        G = np.gcd(A, B)
        for p in (2, 3, 5):
            tab = _p_free_table(2000 * p, p)
            # blocks of 2**18 pairs keep each round's arrays in cache
            for s in range(0, A.size, 1 << 18):
                block = slice(s, s + (1 << 18))
                values = _twin_reduce(A[block], B[block], p, tab)
                assert (values == tab[G[block]]).all()

        # pin the scalar implementation (with its full traces) to the same
        # answers on an exhaustive corner plus a seeded full-range sample
        rng = random.Random(2)
        pairs = [(a, b) for a in range(1, 51) for b in range(1, 51)]
        pairs += [(rng.randint(1, 2000), rng.randint(1, 2000))
                  for _ in range(1000)]
        for p in (2, 3, 5):
            for a, b in pairs:
                res = dzik_reduce(a, b, p)
                assert res.value == oracles.p_free_gcd(a, b, p)
                sums = [x + y for x, y in res.trace]
                assert all(s > t for s, t in zip(sums, sums[1:]))
                assert tuple(res.trace[0]) == (oracles.p_free_part(a, p),
                                               oracles.p_free_part(b, p))
                assert tuple(res.trace[-1]) == (res.value, res.value)


# -- 3: half-group equivalences -------------------------------------------------------


def test_criterion_3_half_group_equivalences(capfd):
    with criterion(3, "half-group = brute closure = 2- and 3-divisibility",
                   30, capfd):
        rng = random.Random(314)
        for _ in range(100):
            gens = sorted({rng.randint(1, 30)
                           for _ in range(rng.randint(1, 4))})
            m = MonoidDesc.fingen(gens)
            verdict, _ = is_half_group(m)
            assert verdict is not None
            brute, _ = oracles.half_group_verdict_ints(gens)
            d2 = is_p_divisible_in(m, 2)
            d3 = is_p_divisible_in(m, 3)
            assert d2.kind != "inconclusive" and d3.kind != "inconclusive"
            assert verdict is brute
            assert (d2.kind == "divisible") is brute
            assert (d3.kind == "divisible") is brute


# -- 4: difference-graph identities ---------------------------------------------------


def test_criterion_4_difference_graph_identities(capfd):
    cases = [ZP, MonoidDesc.fingen([2]), OMEGA,
             MonoidDesc.fingen([2, 3]), MonoidDesc.fingen([3, 5])]
    with criterion(4, "difference-graph bounds and floppiness", 30, capfd):
        for m in cases:
            g = build_mu(m, 1, 10)
            verts = list(g.vertices)
            pos = g.unit_of
            for u, v in combinations(verts, 2):
                assert g.check(u, v) == SurdValue(abs(pos[u] - pos[v]))
            edge_dict = dict(g.edges)
            for u in verts:
                slow = oracles.dijkstra(verts, edge_dict, u)
                lib = GraphMetric.distances_from(g, u)
                for v in verts:
                    assert g.hat(u, v) == lib[v] == slow[v]
            graph_verdict, _ = is_floppy_graph(g)
            monoid_verdict, _ = is_floppy(m)
            assert graph_verdict is monoid_verdict


# -- 5: generic completion ------------------------------------------------------------


def _completion_pool():
    pool = [
        build_mu(MonoidDesc.fingen([2, 3]), 1, 5),
        build_mu(MonoidDesc.fingen([3, 5]), 1, 5),
        build_mu(MonoidDesc.fingen([3, 4]), 1, 5),
        build_mu(MonoidDesc.fingen([2, 5]), 1, 5),
        build_mu(OMEGA, 1, 5),
        build_mu(MonoidDesc.fingen([2, 3]), Fraction(1, 2), Fraction(5, 2)),
        build_mu(MonoidDesc.fingen([3, 5]), 2, 10),
    ]
    for g in pool:
        assert len(g.vertices) <= 12
        verdict, _ = is_floppy_graph(g)
        assert verdict
        assert any(_key(u, v) not in g.edges
                   for u, v in combinations(g.vertices, 2))
    return pool


def test_criterion_5_generic_completion(capfd):
    with criterion(5, "generic completion of floppy windows", 60, capfd):
        pool = _completion_pool()
        for i in range(50):
            g = pool[i % len(pool)]
            missing = [_key(u, v) for u, v in combinations(g.vertices, 2)
                       if _key(u, v) not in g.edges]
            bounds = {pair: (g.check(*pair), g.hat(*pair)) for pair in missing}
            res = extend_to_full(g, ExtensionPolicy(seed=1000 + i))
            full = res.full

            assert oracles.triangle_scan(
                full.vertices, lambda x, y: full.edges[_key(x, y)]) == []
            for pair, w in g.edges.items():
                assert full.edges[pair] == w
            assert sorted(res.assignments) == sorted(missing)
            values = list(res.assignments.values())
            for ia in range(len(values)):
                for ib in range(ia + 1, len(values)):
                    assert values[ia] != values[ib]
            for pair, val in res.assignments.items():
                lo, hi = bounds[pair]
                assert lo < val < hi


# -- 6: line geometry -----------------------------------------------------------------


def _compose(o1, o2):
    if Orientation.INCOMPARABLE in (o1, o2):
        return None
    return Orientation.PARALLEL if o1 is o2 else Orientation.ANTIPARALLEL


def test_criterion_6_line_geometry_suite(capfd):
    with criterion(6, "location uniqueness, lines, orientation algebra", 60,
                   capfd):
        Z = ZLineOracle()
        rng = random.Random(77)

        # two-anchor location: the brute sphere intersection never has two
        # points, and the locator returns exactly the brute answer
        for _ in range(300):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            if a == b:
                continue
            if rng.random() < 0.5:
                z = rng.randint(-60, 60)
                ra, rb = abs(a - z), abs(b - z)
            else:
                ra, rb = rng.randint(1, 40), rng.randint(1, 40)
            if ra == 0 or rb == 0:
                continue
            brute = {a - ra, a + ra} & {b - rb, b + rb}
            assert len(brute) <= 1
            got = gps_locate(Z, a, b, SurdValue(ra), SurdValue(rb))
            assert (got is None and not brute) or brute == {got}

        go = GroupOracle("L")

        def rand_elem():
            support = rng.sample(range(3), rng.randint(1, 3))
            coeffs = {i: rng.randint(-3, 3) for i in support}
            return GroupElement({k: c for k, c in coeffs.items() if c})

        planted = 0
        while planted < 200:
            a, b, z = rand_elem(), rand_elem(), rand_elem()
            if a == b or z == a or z == b:
                continue
            ra, rb = go.dist(a, z), go.dist(b, z)
            inter = [p for p in go.sphere(a, ra) if p in go.sphere(b, rb)]
            assert len(inter) == 1 and inter[0] == z
            assert gps_locate(go, a, b, ra, rb) == z
            planted += 1

        # discrete lines: all pairwise distances are |i-j| times the step
        pts = discrete_line(Z, 0, 3, 50)
        assert len(pts) == 101 and pts[50] == 0 and pts[51] == 3
        for i, j in combinations(range(101), 2):
            assert Z.dist(pts[i], pts[j]) == SurdValue(3 * abs(i - j))

        w = add(basis(0), basis(1))
        t_w = go.dist(zero(), w)
        gpts = discrete_line(go, zero(), w, 50)
        assert len(gpts) == 101 and gpts[50] == zero() and gpts[51] == w
        for i, j in combinations(range(101), 2):
            assert go.dist(gpts[i], gpts[j]) == go.value_scale(abs(i - j), t_w)

        # orientation: sign rule, composition over all triples, and exact
        # additivity through the origin for opposite rays
        nonzero = [k for k in range(-6, 7) if k]
        z_or = {}
        for x in nonzero:
            for y in nonzero:
                got = orientation(Z, 0, x, y)
                want = (Orientation.PARALLEL if (x > 0) == (y > 0)
                        else Orientation.ANTIPARALLEL)
                assert got is want
                z_or[x, y] = got
                if got is Orientation.ANTIPARALLEL:
                    assert Z.dist(x, y) == Z.dist(x, 0) + Z.dist(0, y)
        for x in nonzero:
            for y in nonzero:
                for t in nonzero:
                    assert _compose(z_or[x, y], z_or[y, t]) is z_or[x, t]

        steps = (-3, -2, -1, 1, 2, 3)
        g_or = {}
        for q1 in steps:
            for q2 in steps:
                x, y = scale(q1, w), scale(q2, w)
                got = orientation(go, zero(), x, y)
                want = (Orientation.PARALLEL if (q1 > 0) == (q2 > 0)
                        else Orientation.ANTIPARALLEL)
                assert got is want
                g_or[q1, q2] = got
                if got is Orientation.ANTIPARALLEL:
                    assert go.dist(x, y) == go.value_scale(abs(q1) + abs(q2),
                                                           t_w)
        for q1 in steps:
            for q2 in steps:
                for q3 in steps:
                    assert _compose(g_or[q1, q2], g_or[q2, q3]) is g_or[q1, q3]
        assert orientation(go, zero(), basis(0),
                           add(basis(0), basis(2))) is Orientation.INCOMPARABLE

        # reflection: the line from b to a is the line from a to b with the
        # parameter reversed about its midpoint pair (n maps to 1 - n)
        la = discrete_line(Z, 2, 5, 12)
        lb = discrete_line(Z, 5, 2, 13)
        for n in range(-12, 13):
            assert la[12 + n] == lb[13 + (1 - n)]
        ga = discrete_line(go, zero(), w, 5)
        gb = discrete_line(go, w, zero(), 6)
        for n in range(-5, 6):
            assert ga[5 + n] == gb[6 + (1 - n)]


# -- 7: group norm --------------------------------------------------------------------


def test_criterion_7_group_norm_criterion(capfd):
    with criterion(7, "norm equality is sign equality; two-point spheres",
                   30, capfd):
        elems = [GroupElement(dict(zip((0, 1, 2), combo)))
                 for combo in product(range(-3, 4), repeat=3)]
        assert len(elems) == 343
        negs = [neg(x) for x in elems]
        forms = [normsq(x) for x in elems]
        neg_forms = [normsq(x) for x in negs]
        for i, x in enumerate(elems):
            fi, ni = forms[i], negs[i]
            for j, y in enumerate(elems):
                same = norm_equal(x, y)
                assert same == (forms[j] == fi or neg_forms[j] == fi)
                assert same == (y == x or y == ni)

        for c in elems:
            for x in elems:
                if x == c:
                    continue
                t = dist_token(c, x)
                members = sphere(c, t)
                assert len(members) == 2 and x in members
                u, v = members
                assert dist_token(u, v) == DistToken(scale(2, t.rep))

        z0 = zero()
        for x in elems:
            cert = h_norm_certificate(x)
            if x == z0:
                assert cert["holds"] is False
            else:
                assert cert["holds"] is True and cert["quantity"] >= 1


# -- 8: builder round-trip ------------------------------------------------------------


def test_criterion_8_builder_round_trip(capfd):
    with criterion(8, "window builds embed or witness; certificates verify",
                   60, capfd):
        line_spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),),
                              stages=1, window=Fraction(5), seed=1)
        frag, cert = build(line_spec)
        emb = embed_in_real_line(frag)
        assert emb.embeddable
        coords = sorted(emb.coords.values())
        assert len(coords) == 11
        assert all(b - a == SurdValue(1) for a, b in zip(coords, coords[1:]))
        rep = verify_certificate(frag, line_spec, cert)
        assert rep["all_ok"], rep

        two_spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                                    RadiusClass(SurdValue(0, {2: 1}), ZP)),
                             stages=2, window=Fraction(2), seed=5)
        frag2, cert2 = build(two_spec)
        emb2 = embed_in_real_line(frag2)
        assert not emb2.embeddable
        assert emb2.obstruction is not None and len(emb2.obstruction) == 3
        x, y, z = emb2.obstruction
        dxy, dyz, dxz = (frag2.distance(x, y), frag2.distance(y, z),
                         frag2.distance(x, z))
        assert dxy != dyz + dxz and dyz != dxy + dxz and dxz != dxy + dyz
        rep2 = verify_certificate(frag2, two_spec, cert2)
        assert rep2["all_ok"], rep2

        # every realized rational-multiple window is a floppy monoid
        for spec, fragment, report in ((line_spec, frag, rep),
                                       (two_spec, frag2, rep2)):
            realized = sorted(set(v for _, v in fragment.pairs()))
            for cls in spec.canonical_classes():
                multiples = sorted({q for v in realized
                                    for q in (v.ratio_to(cls.r),)
                                    if q is not None and q > 0})
                assert multiples
                verdict, _ = is_floppy(MonoidDesc.fingen(multiples))
                assert verdict is True
            assert report["class_floppy_ok"] is True


# -- 9: hypersphere bounds ------------------------------------------------------------


def test_criterion_9_hypersphere_bounds(capfd):
    with criterion(9, "hypersphere bounds and tightness on the gap build",
                   30, capfd):
        spec = BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
                         stages=1, window=Fraction(7), seed=3)
        frag, _ = build(spec)
        o = FragmentOracle(frag)
        r = frag.distance("a0", "a2")
        assert r == SurdValue(2)
        units = MonoidDesc.fingen([1, Fraction(3, 2)])
        mapping, rep = hypersphere_map(o, "a0", "a2", 3, monoid=units)

        assert rep.r_is_member
        assert mapping[Fraction(0)] == "a0" and mapping[Fraction(1)] == "a2"
        assert len(mapping) == 11
        assert len(rep.pairs) == len(mapping) * (len(mapping) - 1) // 2
        # the two half-offsets cannot be decided inside the window; nothing
        # else may be skipped
        assert sorted(rep.skipped) == [(Fraction(-1, 2), "window edge"),
                                       (Fraction(1, 2), "window edge")]

        member_set = oracles.closure_fractions([1, Fraction(3, 2)], 60)
        candidates = sorted(member_set)
        tight_seen = loose_seen = 0
        for entry in rep.pairs:
            delta = abs(entry["t"] - entry["s"])
            assert entry["delta"] == delta
            d = frag.distance(mapping[entry["s"]], mapping[entry["t"]])
            lower = r * delta
            assert not (d < lower)
            extra = oracles.min_add_brute(lambda q: q in member_set,
                                          delta, candidates)
            assert extra is not None
            assert not (r * (delta + 2 * extra) < d)
            member = delta in member_set
            tight = (d == lower)
            assert tight == member
            assert entry["lower_ok"] and entry["upper_ok"]
            assert entry["upper_verified"] and entry["equivalence_ok"]
            assert entry["tight"] == tight and entry["member"] == member
            tight_seen += tight
            loose_seen += not tight
        assert tight_seen and loose_seen
