"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumb way (full factorization,
breadth-first closures, dense dynamic programming, quadratic scans) and
shares no code with src/.  When a test disagrees, trust the oracle.  The two
exceptions run on the library's own ints, so that the old and the new path
can be compared case by case: :func:`eager_add_edge`, the completion table's
relaxation as it was before its sums were lazy, and
:func:`p_divisible_scan`, the p-divisibility verdict as a scan over every
unit below the conductor, as it was before it read the Apery set.
"""

from fractions import Fraction
from itertools import combinations, count, product
from math import ceil, floor, gcd, lcm


# -- integer arithmetic ------------------------------------------------------


def factorize(n: int) -> dict:
    """Prime factorization by trial division; n >= 1."""
    if n < 1:
        raise ValueError(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Primality by trial division over every d with d*d <= n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def p_free_part(n: int, p: int) -> int:
    """Rebuild n from its factorization, leaving out every factor of p."""
    result = 1
    for q, e in factorize(n).items():
        if q != p:
            result *= q ** e
    return result


def p_free_gcd(a: int, b: int, p: int) -> int:
    return p_free_part(gcd(a, b), p)


# -- surd values -------------------------------------------------------------


def surd_ratio(a, b):
    """The q with a == q·b for two SurdValues, or None; both zero gives 1.
    The quotient of one nonzero coordinate of b, checked by multiplying
    back, with no shortcut on the shape of either value."""
    if b.is_zero():
        return Fraction(1) if a.is_zero() else None
    if b.rational_part != 0:
        q = a.rational_part / b.rational_part
    else:
        p = min(b.surd_coeffs)
        q = a.coefficient(p) / b.surd_coeffs[p]
    return q if a == b * q else None


# A surd value q0 + sum c*sqrt(p) as a pair (q0, {p: c}) of Fractions with
# no zero coefficient, so that equal values are equal pairs.


def surd(rational=0, coeffs=None) -> tuple:
    return (Fraction(rational),
            {p: Fraction(c) for p, c in (coeffs or {}).items() if c != 0})


def surd_of(v) -> tuple:
    """The pair of a SurdValue, read through its Fraction views."""
    return (v.rational_part, dict(v.surd_coeffs))


def surd_add(a: tuple, b: tuple, sign: int = 1) -> tuple:
    coeffs = dict(a[1])
    for p, c in b[1].items():
        coeffs[p] = coeffs.get(p, Fraction(0)) + sign * c
    return surd(a[0] + sign * b[0], coeffs)


def surd_scale(a: tuple, q) -> tuple:
    return surd(a[0] * q, {p: c * q for p, c in a[1].items()})


def root_floor(n: int) -> int:
    """floor(sqrt(n)) by bisection."""
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


def surd_brackets(a: tuple, scale: int) -> tuple:
    """lo <= a <= hi from each sqrt(p) in [r, r + 1] / 2**scale, where
    r = floor(sqrt(p) * 2**scale), summed term by term in Fractions."""
    lo = hi = a[0]
    for p, c in a[1].items():
        r = root_floor(p * 4 ** scale)
        ends = (c * Fraction(r, 2 ** scale), c * Fraction(r + 1, 2 ** scale))
        lo += min(ends)
        hi += max(ends)
    return lo, hi


def surd_sign(a: tuple) -> int:
    """Refine the brackets until they exclude zero (a formally nonzero
    value over distinct primes is nonzero)."""
    if not a[1]:
        return (a[0] > 0) - (a[0] < 0)
    scale = 8
    while True:
        lo, hi = surd_brackets(a, scale)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        scale *= 2


def surd_between(lo: tuple, hi: tuple) -> Fraction:
    """The midpoint of the first gap, at scales 8, 16, 32, ..., between
    lo's upper and hi's lower bracket."""
    scale = 8
    while True:
        above = surd_brackets(lo, scale)[1]
        below = surd_brackets(hi, scale)[0]
        if above < below:
            return (above + below) / 2
        scale *= 2


def surd_sample(lo: tuple, hi: tuple, k: int, prime: int) -> tuple:
    """The completion sampler's c + eps*sqrt(prime) for the draw k, composed
    in Fractions: c = core_lo + (core_hi - core_lo)*k/256 between two first
    gaps, and eps the first gap below min(c - lo, hi - c), ties going to
    c - lo, over floor(sqrt(prime)) + 1."""
    core_lo = surd_between(lo, hi)
    core_hi = surd_between(surd(core_lo), hi)
    c = core_lo + (core_hi - core_lo) * Fraction(k, 256)
    below, above = surd_add(surd(c), lo, -1), surd_add(hi, surd(c), -1)
    gap = above if surd_sign(surd_add(above, below, -1)) < 0 else below
    eps = surd_between(surd(), gap) / (root_floor(prime) + 1)
    return surd(c, {prime: eps})


def surd_ratio_ref(a: tuple, b: tuple):
    """The q with a == q*b, or None; both zero gives 1.  Tries the one
    candidate quotient of a nonzero coordinate of b."""
    if b == surd():
        return Fraction(1) if a == surd() else None
    p = min(b[1]) if b[0] == 0 else None
    q = a[0] / b[0] if p is None else a[1].get(p, Fraction(0)) / b[1][p]
    return q if surd_scale(b, q) == a else None


# -- monoid closures ---------------------------------------------------------


def closure_ints(gens, bound: int):
    """All sums of the integer generators that are <= bound, as a set.

    Dense DP: table[i] says whether i is reachable.  Complete for the
    given bound.
    """
    table = [False] * (bound + 1)
    table[0] = True
    for g in gens:
        for i in range(g, bound + 1):
            if table[i - g]:
                table[i] = True
    return {i for i, ok in enumerate(table) if ok}


def closure_fractions(gens, bound: Fraction):
    """Closure of rational generators under addition, up to bound (BFS)."""
    gens = sorted({Fraction(g) for g in gens if 0 < Fraction(g) <= bound})
    seen = {Fraction(0)}
    frontier = [Fraction(0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y <= bound and y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def window_closed(units) -> bool:
    """Does every sum of two of the rationals ``units`` that is at most
    their largest lie in ``units``?  Every pair, in Fractions."""
    top = max(units, default=0)
    return all(a + b > top or a + b in units for a in units for b in units)


def half_group_verdict_ints(gens, bound: int = 4096):
    """Is {m - n : m, n in M} nonnegative part inside M?  Brute force.

    Divides out the gcd first, so a numerical-semigroup conductor bound
    (< (min gen)*(max gen) for the generators used in tests) fits well
    inside the default table.  Returns (verdict, witness_pair_or_None).
    """
    g = gens[0]
    for x in gens[1:]:
        g = gcd(g, x)
    reduced = sorted({x // g for x in gens})
    members = closure_ints(reduced, bound)
    gaps = []           # the non-members below b, ascending
    for b in range(1, bound // 2 + 1):
        if b not in members:
            gaps.append(b)
            continue
        # the least member a with b - a a gap: c = b - a is the largest
        # gap below b with b - c a member
        for c in reversed(gaps):
            if b - c in members:
                return False, (Fraction((b - c) * g), Fraction(b * g))
    return True, None


def two_term_sums(elements):
    """All x + y with x, y nonzero elements of the input collection."""
    nz = [e for e in elements if e != 0]
    return {x + y for x in nz for y in nz}


class FractionMonoid:
    """A fingen or groupcone monoid of positive rational generators as a
    Fraction membership test: its step (the gcd of the generators, a
    Fraction) and a dense table of the step multiples k*step in it, grown
    by dynamic programming until a run of (least reduced generator)
    consecutive members shows the conductor."""

    def __init__(self, variant: str, gens):
        self.variant = variant
        self.gens = sorted({Fraction(g) for g in gens})
        if not self.gens:
            return
        # the scaled step g of src/'s numerical semigroup, for the Z_plus
        # scan length
        self.scale = lcm(*(q.denominator for q in self.gens))
        scaled = [int(q * self.scale) for q in self.gens]
        self.scaled_step = gcd(*scaled)
        self.step = Fraction(self.scaled_step, self.scale)
        units = ([1] if variant == "groupcone"
                 else [n // self.scaled_step for n in scaled])
        least = min(units)
        self.table, run = [True], 1
        while run < least:
            k = len(self.table)
            ok = any(k >= u and self.table[k - u] for u in units)
            self.table.append(ok)
            run = run + 1 if ok else 0
        self.conductor_units = len(self.table) - least
        self.conductor = self.conductor_units * self.step

    def member(self, x) -> bool:
        x = Fraction(x)
        if not self.gens:
            return x == 0
        k = x / self.step
        if k.denominator != 1 or k < 0:
            return False
        k = int(k)
        return k >= self.conductor_units or self.table[k]


def half_group_fraction(m: FractionMonoid, bound=None):
    """is_half_group in Fractions: None below the conductor, else the
    least positive member a with a + gap a member, for the least gap."""
    if m.variant == "groupcone" or not m.gens:
        return True, None
    if bound is not None and Fraction(bound) < m.conductor:
        return None, f"bound below conductor {m.conductor}"
    gap = next((k * m.step for k in range(m.conductor_units)
                if not m.member(k * m.step)), None)
    if gap is None:
        return True, None
    a = next(k * m.step for k in count(1)
             if m.member(k * m.step) and m.member(k * m.step + gap))
    return False, (a, a + gap)


def p_divisible_fraction(m: FractionMonoid, p: int, domain: str, bound=None):
    """is_p_divisible_in in Fractions as (kind, element): the least s with
    p*s in M and s not, over the step multiples below the conductor
    (M_minus_M), or the integers up to one scaled step past the
    conductor, cut at ``bound`` (Z_plus)."""
    if not m.gens:
        return "divisible", None
    complete = True
    if domain == "M_minus_M":
        candidates = [k * m.step for k in range(m.conductor_units)]
    else:
        last = ceil(m.conductor) + m.scaled_step - 1
        if bound is not None:
            complete = Fraction(bound) >= last
            last = min(last, floor(Fraction(bound)))
        candidates = [Fraction(s) for s in range(last + 1)]
    for s in candidates:
        if m.member(p * s) and not m.member(s):
            return "counterexample", s
    return ("divisible" if complete else "inconclusive"), None


def p_divisible_scan(monoid, p: int, domain: str, bound=None):
    """is_p_divisible_in of a fingen or groupcone monoid with generators
    as (kind, element), by scanning its semigroup's units: every unit
    below the conductor (M_minus_M), or every integer up to one scaled
    step past the conductor, cut at ``bound`` (Z_plus)."""
    has, step, scale = monoid._has, monoid._step, monoid.scale
    if domain == "M_minus_M":
        k = next((k for k in range(monoid._reduced_conductor)
                  if has(p * k) and not has(k)), None)
        return ("divisible", None) if k is None else \
            ("counterexample", monoid._value(k))

    def holds(n: int) -> bool:
        """Is n / scale a member?"""
        return n % step == 0 and has(n // step)

    complete = True
    last = -(-monoid._reduced_conductor * step // scale) + step - 1
    if bound is not None:
        complete = Fraction(bound) >= last
        last = min(last, floor(Fraction(bound)))
    for s in range(last + 1):
        if holds(p * s * scale) and not holds(s * scale):
            return "counterexample", Fraction(s)
    return ("divisible" if complete else "inconclusive"), None


def ddot_fraction(m: FractionMonoid, window):
    """The members r <= window with no two nonzero members x, r - x below
    them, by a quadratic scan over the step multiples."""
    window = Fraction(window)
    if not m.gens:
        return []
    members = [k * m.step for k in range(floor(window / m.step) + 1)
               if m.member(k * m.step)]
    member_set = set(members)
    return [r for r in members if r != 0 and not any(
        0 < x < r and r - x in member_set for x in members)]


def min_add_brute(member, d, candidates):
    """min{v in candidates : member(v) and member(v + d)}, or None."""
    hits = [v for v in candidates if member(v) and member(v + d)]
    return min(hits) if hits else None


# -- graphs ------------------------------------------------------------------


def dijkstra(vertices, edges, source):
    """Single-source shortest paths with exact weights, no heap tricks.

    ``edges`` maps ordered pairs (u, v) -> weight; weights may be Fraction
    or anything supporting + and <.  Selection by linear minimum keeps the
    comparisons exact.  Returns dict vertex -> dist (reachable ones only).
    """
    adj = {v: [] for v in vertices}
    for (u, v), w in edges.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = {}
    visited = set()
    pending = {source: edges_zero(edges)}
    while pending:
        u = min(pending, key=lambda k: pending[k])
        d = pending.pop(u)
        dist[u] = d
        visited.add(u)
        for v, w in adj[u]:
            if v in visited:
                continue
            nd = d + w
            if v not in pending or nd < pending[v]:
                pending[v] = nd
    return dist


def edges_zero(edges):
    """A zero of the same kind as the edge weights (Fraction or value type)."""
    for w in edges.values():
        return w - w
    return Fraction(0)


def check_scan(vertices, edges, hat, x, y):
    """The edge-forced lower bound, by the plain formula: the largest of 0
    and w - hat(a, x) - hat(b, y) over every edge (a, b) -> w of ``edges``,
    taken in both orientations."""
    if x not in vertices or y not in vertices:
        raise KeyError((x, y))
    best = edges_zero(edges)
    for (a, b), w in edges.items():
        for p, q in ((a, b), (b, a)):
            cand = w - hat(p, x) - hat(q, y)
            if best < cand:
                best = cand
    return best


def eager_add_edge(table, u, v, w):
    """Add the edge (u, v) = w to a completion table and relax its entries
    eagerly: the add_edge of the library's distance table with every sum
    that passes the skip filter built exactly, by two additions, and kept
    when it is exactly below its entry.  Every entry it sets is a value."""
    w_lo, w_hi = w._enclosure()
    table.edges.append((u, v, w, w_lo, w_hi))
    table._widen(w_lo, w_hi)
    if table.adj is not None:
        table.adj[u].append((v, w, w_lo, w_hi))
        table.adj[v].append((u, w, w_lo, w_hi))
        key = table.key
        if key is not None:
            lk, hk = table.lo[key], table.hi[key]
            col_lo, col_hi = table.col_lo, table.col_hi
            for q, p in ((u, v), (v, u)):
                col_lo[q] = max(col_lo[q], w_lo - hk[p])
                col_hi[q] = max(col_hi[q], w_hi - lk[p])
    d, hi = table.d, table.hi
    du, dv = d[u][:], d[v][:]
    lu, lv = table.lo[u][:], table.lo[v][:]
    w_low = w_lo - table.tol
    in_a = [i for i, h in enumerate(hi[v]) if not lu[i] + w_low > h]
    in_b = [j for j, h in enumerate(hi[u]) if not lv[j] + w_low > h]
    for i in in_a:
        via_u = lu[i] + w_low
        hi_i = hi[i]
        for j in in_b:
            if via_u + lv[j] > hi_i[j] or i == j:
                continue
            through = du[i] + w + dv[j]
            if through < d[i][j]:
                table.set(i, j, through, *through._enclosure())


def triangle_scan(points, distance):
    """Every strict triangle failure, by the plain exact triple loop.

    For each triple x < y < z (in the order of ``points``) the sides
    d(x,z), d(y,z) and d(x,y) are tested, in that order, against the sum
    of the other two; a failing side gives its two ends, then the third
    point: (x, z, y), (y, z, x) or (x, y, z)."""
    pts = list(points)
    failures = []
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                y, z = pts[j], pts[k]
                dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
                for a, b, c, names in ((dxy, dyz, dxz, (x, z, y)),
                                       (dxy, dxz, dyz, (y, z, x)),
                                       (dyz, dxz, dxy, (x, y, z))):
                    if c > a + b:
                        failures.append(names)
    return failures


def embed_scan(points, distance):
    """Real-line coordinates for the points, or None, by trying every sign
    vector: the first point at 0 and each other point q at +d or -d, with
    d its distance to the first point, accepted when every pair's gap (in
    either direction) equals its distance."""
    pts = list(points)
    first, rest = pts[0], pts[1:]
    zero = distance(first, first)
    for signs in product((1, -1), repeat=len(rest)):
        coords = {first: zero}
        for q, s in zip(rest, signs):
            d = distance(first, q)
            coords[q] = d if s == 1 else -d
        if all(distance(x, y) in (coords[x] - coords[y], coords[y] - coords[x])
               for x, y in combinations(pts, 2)):
            return coords
    return None


# -- spheres -----------------------------------------------------------------


def reference_verify_fragment(points, distance):
    """The fragment report by the full path, as the tuple (metric_ok,
    banakh_consistent, incomplete_spheres, violations): every strict
    triangle failure (:func:`triangle_scan`), then, center by center, each
    sphere (:func:`sphere_scan`) in the order of the member lists.  A
    sphere with three or more members, or two members at other than twice
    the radius, is a violation; one with one member is incomplete."""
    violations = [{"kind": "triangle", "points": list(names)}
                  for names in triangle_scan(points, distance)]
    metric_ok, banakh, incomplete = not violations, True, []
    for c in points:
        radii = {distance(c, p) for p in points if p != c}
        spheres = sorted(((sphere_scan(points, distance, c, r), r)
                          for r in radii), key=lambda pair: pair[0])
        for members, r in spheres:
            if len(members) == 1:
                incomplete.append((c, r))
                continue
            if len(members) == 2 and distance(*members) == r + r:
                continue
            banakh = False
            kind = "sphere-size" if len(members) > 2 else "sphere-diameter"
            violations.append({"kind": kind, "center": c, "radius": r,
                               "members": members})
    return metric_ok, banakh, incomplete, violations


def sphere_scan(points, dist, center, radius):
    """Brute-force sphere membership scan."""
    return sorted(p for p in points if p != center and dist(center, p) == radius)


def banakh_law_scan(points, dist):
    """Check every sphere directly: <= 2 members, pairs at twice the radius.

    Returns list of violation descriptions (empty = consistent).
    """
    bad = []
    for c in points:
        radii = {dist(c, p) for p in points if p != c}
        for r in radii:
            members = sphere_scan(points, dist, c, r)
            if len(members) > 2:
                bad.append(("size", c, r, members))
            elif len(members) == 2:
                u, v = members
                if dist(u, v) != r + r:
                    bad.append(("diameter", c, r, members))
    return bad


def class_sphere_ledger(points, dist, classes):
    """The class-radius sphere ledger by the plain per-pair formula.

    ``classes`` lists, per radius class, its radius r, the membership test
    of its unit monoid N and its positive windowed units.  Every pair is
    asked for its unit ratio q with d(x, y) == q·r; the points at a q in
    N \\ {0} form x's class sphere at q·r.  One entry per class, center (in
    point order) and windowed unit whose sphere is nonempty."""
    pts = sorted(points)
    ledger = []
    for ci, (r, member, window) in enumerate(classes):
        for x in pts:
            units = {}
            for y in pts:
                if y == x:
                    continue
                q = dist(x, y).ratio_to(r)
                if q is not None and q > 0 and member(q):
                    units.setdefault(q, []).append(y)
            for n in window:
                members = units.get(n, [])
                if not members:
                    continue
                entry = {"center": x, "class": ci, "unit": n,
                         "radius": r * n, "members": members,
                         "complete": len(members) == 2}
                if len(members) == 2:
                    entry["diameter_ok"] = dist(*members) == r * (2 * n)
                ledger.append(entry)
    return ledger


def reference_ledger_ok(ledger, cert) -> bool:
    """The sphere-ledger verdict by rebuild and compare: ``ledger`` is the
    ledger rebuilt as fresh dicts (:func:`class_sphere_ledger`); the
    two-point law must hold on it (at most two members, two at twice the
    radius), it must equal the certificate's entries under ``==``, each
    entry's ``complete`` and ``diameter_ok`` must be bools (``==`` lets 1
    pass for True), and the certificate's two verdicts must be ``True``."""
    law = all(len(e["members"]) <= 2 and e.get("diameter_ok", True)
              for e in ledger)
    return (law and ledger == cert.spheres
            and all(type(e["complete"]) is bool
                    and type(e.get("diameter_ok", False)) is bool
                    for e in cert.spheres)
            and cert.sphere_law_ok is True and cert.growth_ok is True)


# -- group vectors -----------------------------------------------------------
#
# A group element as a plain {index: Fraction} dict with no zero values; the
# order of two elements is that of their sorted (index, coefficient) lists.


def vec(coeffs) -> dict:
    return {a: Fraction(c) for a, c in coeffs.items() if Fraction(c) != 0}


def vec_add(x: dict, y: dict) -> dict:
    keys = set(x) | set(y)
    return vec({a: x.get(a, Fraction(0)) + y.get(a, Fraction(0)) for a in keys})


def vec_neg(x: dict) -> dict:
    return {a: -c for a, c in x.items()}


def vec_sub(x: dict, y: dict) -> dict:
    return vec_add(x, vec_neg(y))


def vec_scale(q, x: dict) -> dict:
    return vec({a: Fraction(q) * c for a, c in x.items()})


def vec_sort_key(x: dict):
    return sorted(x.items())


def vec_token(x: dict, y: dict) -> dict:
    """The sign-normalized x − y: its lowest-index coefficient is positive."""
    d = vec_sub(x, y)
    if d and d[min(d)] < 0:
        return vec_neg(d)
    return d


def vec_sphere(c: dict, v: dict) -> list:
    """{c + v, c − v} in sort-key order, or [c] for v = 0."""
    if not v:
        return [c]
    return sorted([vec_add(c, v), vec_sub(c, v)], key=vec_sort_key)


def vec_ratio(s: dict, t: dict):
    """q > 0 with s = ±q·t, by comparing every quotient; None if none."""
    if not s and not t:
        return Fraction(1)
    if not s or not t or set(s) != set(t):
        return None
    quotients = {s[a] / t[a] for a in s}
    return abs(quotients.pop()) if len(quotients) == 1 else None


def vec_between(x: dict, y: dict, z: dict) -> bool:
    """x − y = q·(y − z) for some q ≥ 0 (or one of them is zero)."""
    u, v = vec_sub(x, y), vec_sub(y, z)
    if not u or not v:
        return True
    if set(u) != set(v):
        return False
    quotients = {u[a] / v[a] for a in u}
    return len(quotients) == 1 and quotients.pop() > 0


def vec_in_h(x: dict) -> bool:
    return all(c.denominator == 1 for c in x.values())


def vec_p_divisible(x: dict, p: int) -> bool:
    return all(c.numerator % p == 0 for c in x.values())


def vec_tail(x: dict) -> Fraction:
    return sum((c * c for a, c in x.items() if a != 0), Fraction(0))


def vec_h_norm_certificate(x: dict) -> dict:
    """The ‖x‖ ≥ 1 certificate of an integer vector."""
    if not x:
        return {"holds": False, "reason": "zero", "quantity": Fraction(0)}
    if set(x) == {0}:
        return {"holds": abs(x[0]) >= 1, "reason": "linear",
                "quantity": abs(x[0])}
    tail = vec_tail(x)
    return {"holds": tail >= 1, "reason": "tail", "quantity": tail}


# -- build files on Fractions --------------------------------------------------
#
# The reader as it was before rationals were read on ints: every rational of
# a document through Fraction(str), every value over the lcm of its Fraction
# denominators.  An outcome is ("value", (den, num, surds)), the value's
# int-vector form, or an error as (kind, message): "format" for a malformed
# document, "too-large" for a surd index above the primality cap.

PRIME_CAP = 2 ** 32


def fraction_rat(text: str):
    """("ratio", Fraction) of a string, or ("error", message)."""
    if "e" in text or "E" in text:
        return "error", f"exponent notation in {text!r}"
    try:
        return "ratio", Fraction(text)
    except ZeroDivisionError:
        return "error", f"zero denominator in {text!r}"
    except ValueError as exc:
        return "error", str(exc)


class _Refused(Exception):
    """(kind, message) of a refused document."""


def _fraction_of(x) -> Fraction:
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        kind, q = fraction_rat(x) if isinstance(x, str) else ("ratio",
                                                              Fraction(x))
        if kind == "ratio":
            return q
    raise _Refused("format", f"not a rational: {x!r}")


def _canonical_index(key) -> int:
    try:
        n = int(key) if isinstance(key, str) else None
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise _Refused("format", f"not a canonical index: {key!r}")
    return n


def fraction_value_read(obj):
    """The outcome of reading one value of a document: every surd key and
    coefficient in order, then the rational part, then the primality of
    each key with a nonzero coefficient, in order."""
    try:
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            q = _fraction_of(obj)
            return "value", (q.denominator, q.numerator, ())
        if not isinstance(obj, dict):
            raise _Refused("format", f"not a value: {obj!r}")
        surds = obj.get("surds", {})
        if not isinstance(surds, dict):
            raise _Refused("format", f"surds must be an object: {surds!r}")
        coeffs = {}
        for key, c in surds.items():
            p = _canonical_index(key)
            coeffs[p] = _fraction_of(c)
        lead = _fraction_of(obj.get("rat", 0))
        kept = {}
        for p, c in coeffs.items():
            if c == 0:
                continue
            if p > PRIME_CAP:
                raise _Refused("too-large",
                               f"{p} is above {PRIME_CAP}, the largest "
                               "number whose primality is decided")
            if p < 2 or factorize(p) != {p: 1}:
                raise _Refused("format", f"surd index {p} is not prime")
            kept[p] = c
    except _Refused as exc:
        return exc.args
    den = lcm(lead.denominator, *(c.denominator for c in kept.values()))
    return "value", (den, int(lead * den),
                     tuple(sorted((p, int(c * den)) for p, c in kept.items())))


def plain_value(v):
    """A value's wire form, from its public views."""
    if not v.surd_coeffs:
        return str(v.rational_part)
    return {"rat": str(v.rational_part),
            "surds": {str(p): str(c) for p, c in v.surd_coeffs.items()}}


def plain_doc(obj):
    """The JSON form of nested dicts, lists, tuples, Fractions and values,
    by recursion over isinstance."""
    if hasattr(obj, "surd_coeffs"):
        return plain_value(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): plain_doc(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_doc(v) for v in obj]
    return obj


def certificate_doc(cert) -> dict:
    return {"seed": cert.seed,
            "stages": plain_doc(cert.stages),
            "classes": plain_doc(cert.classes),
            "realized_distances": [plain_value(v)
                                   for v in cert.realized_distances],
            "generic_values": [plain_value(v) for v in cert.generic_values],
            "spheres": plain_doc(cert.spheres),
            "sphere_law_ok": cert.sphere_law_ok,
            "growth_ok": cert.growth_ok}
