"""Exact graph-pseudometric calculus.

A graph pseudometric is a positive edge-weight function on a connected graph
whose every edge value equals the shortest-path value between its endpoints.
Two derived quantities drive everything here:

* ``hat``   -- the shortest-path value between any two vertices, and
* ``check`` -- the largest lower bound forced on a pair by some edge:
               max over edges ab (taken in both orientations) of
               max(0, d(ab) - hat(a,x) - hat(b,y)).

A pseudometric is *floppy* when check < hat strictly on every non-edge pair;
floppy graphs extend to full metrics with room to choose every missing value
from a dense family.  ``build_mu`` makes the canonical difference graph of a
monoid, ``extend_to_full`` completes floppy graphs with certified-generic
surd values, and ``floppy_union`` glues fragments with positivity
certificates.

Every graph reads its path values from one all-pairs table, ``_path_table``
(a :class:`_DistanceTable` seeded by ``distances_from``): ``hat``,
``check``, the witness of :func:`validate_pseudometric` and the seed that
:func:`extend_to_full` completes.  A difference graph (a :class:`MuGraph` or
a :class:`ScaledMu` copy) answers ``hat`` and ``check`` from its closed
formula instead, and reads its closed hats and its path values
(``distances_from``) from its template's int core, as numbers of steps
times the value of one step; the union that ``floppy_union`` returns reads
its path values from its parts, as minima over glue points of member paths
and base entries (:class:`_Union`).  A plain graph's path search, the
table's updates and ``check`` compare double enclosures first and exact
values only where those cannot decide, under the error bound derived in
:class:`_DistanceTable`, whose relaxed entries are built exactly when read
(:class:`_Sum`).  A full table is a :class:`MetricFragment`, the graph that
``extend_to_full`` returns and that :mod:`banakh.banakh_space` reads its
geometry from.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import gcd, inf, isqrt, lcm, nextafter
from operator import sub
from typing import Callable, NamedTuple, Optional

from .monoid_algebra import MonoidDesc, _check_pairs
from .values import (SurdValue, ZERO, primes_from, rat, _pivots, _sample,
                     _sum3, _tol, _vs_sum, format_rat)

__all__ = [
    "GraphMetric",
    "MetricFragment",
    "MuGraph",
    "ScaledMu",
    "ExtensionPolicy",
    "ExtensionResult",
    "ExtensionExhausted",
    "ConditionViolation",
    "UnionReport",
    "validate_pseudometric",
    "hat",
    "check",
    "is_floppy_graph",
    "build_mu",
    "extend_to_full",
    "floppy_union",
]


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class GraphMetric:
    """Connected graph with exact positive edge values.

    Immutable after construction: ``hat`` and ``check`` read the path
    table ``_path_table``, built on first use and kept.
    """

    # the messages of the entry checks in _checked_edges; a subclass words
    # them for its own kind of table
    _ENTRY_ERRORS = {
        "unknown": "edge ({u!r},{v!r}) uses an unknown vertex",
        "loop": "self-loop at {u!r}",
        "sign": "edge ({u!r},{v!r}) has nonpositive value {w}",
        "conflict": "conflicting values for edge {key}",
    }

    def __init__(self, vertices, edges):
        """edges: mapping from 2-tuples of vertex ids to positive values."""
        vertices = set(vertices)
        self._set_edges(vertices, self._checked_edges(vertices, edges))
        self._require_connected()

    def _checked_edges(self, vertex_set: set, edges) -> dict:
        """The entries of ``edges`` keyed by :func:`_pair`, after the entry
        checks: every entry joins two distinct known vertices, is coerced to
        a :class:`SurdValue`, is positive and agrees with its other
        orientation."""
        errors = self._ENTRY_ERRORS
        checked = {}
        for (u, v), w in dict(edges).items():
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(errors["unknown"].format(u=u, v=v))
            if u == v:
                raise ValueError(errors["loop"].format(u=u))
            w = w if isinstance(w, SurdValue) else SurdValue.of(w)
            if not w.sign() > 0:
                raise ValueError(errors["sign"].format(u=u, v=v, w=w))
            key = _pair(u, v)
            if key in checked and checked[key] != w:
                raise ValueError(errors["conflict"].format(key=key))
            checked[key] = w
        return checked

    def _set_edges(self, vertices, edges: dict) -> None:
        """Store the distinct ``vertices`` (sorted), ``edges``, positive
        values keyed by :func:`_pair`, and their adjacency lists ``adj``; no
        entry is checked here."""
        self.vertices = tuple(sorted(vertices))
        self.edges = edges
        self.adj = {v: [] for v in self.vertices}
        for (u, v), w in edges.items():
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))

    def _require_connected(self) -> None:
        seen = set(self.vertices[:1])
        stack = list(seen)
        while stack:
            for nxt, _ in self.adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(self.vertices):
            raise ValueError("graph is not connected")

    def is_full(self) -> bool:
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def edge_value(self, u: str, v: str) -> Optional[SurdValue]:
        return self.edges.get(_pair(u, v))

    # -- shortest paths ----------------------------------------------------

    def hat_path(self, x: str, y: str) -> SurdValue:
        """Shortest-path value by exact Dijkstra."""
        return self.distances_from(x)[y]

    def distances_from(self, x: str) -> dict:
        """The exact shortest-path value from x to every vertex: Dijkstra
        on a heap of (exact value, vertex) pairs, which expands each vertex
        once, at its final value, and skips a pop whose value is stale.  A
        relaxation of the edge (u, v) = w is skipped when lo(u) + lo(w) -
        tol > hi(v), which proves d(u) + w > d(v), and decided on the exact
        values otherwise (:func:`banakh.values._vs_sum`)."""
        if x not in self.adj:
            raise KeyError(f"unknown vertex {x!r}")
        tol = self._path_tol
        best = {x: (ZERO, 0.0, 0.0)}        # value, lower end, upper end
        heap = [(ZERO, x)]
        while heap:
            d_u, u = heapq.heappop(heap)
            d, lo_u, _ = best[u]
            if d is not d_u:
                continue
            for v, w in self.adj[u]:
                old = best.get(v)
                if old is not None and (lo_u + _enclosure(w)[0] - tol > old[2]
                                        or _vs_sum(old[0], d_u, w) <= 0):
                    continue
                cand = d_u + w
                best[v] = (cand, *_enclosure(cand))
                heapq.heappush(heap, (cand, v))
        return {v: value for v, (value, _, _) in best.items()}

    @cached_property
    def _path_tol(self) -> float:
        """``distances_from``'s margin, :func:`_tol` of B = n × the largest
        |end| of an edge: a shortest path has fewer than n edges, so B bounds
        every d(u) + w and every tentative value."""
        ends = [abs(end) for w in self.edges.values() for end in _enclosure(w)]
        return _tol(len(self.vertices) * max(ends, default=0.0))

    @cached_property
    def _path_table(self) -> "_DistanceTable":
        """The path value of every pair, seeded by ``distances_from`` from
        every vertex but the last (the search above, a difference graph's int
        table, or a union's glue-point minima).  A completion starts from a
        copy: a difference graph's closed hats can fall below these values."""
        return _DistanceTable(self.vertices, self.edges, self.distances_from)

    # what hat and check read; a difference graph reads its closed formula
    _hat_table = property(lambda self: self._path_table)

    def hat(self, x: str, y: str) -> SurdValue:
        table = self._hat_table
        return table.exact(table.index[x], table.index[y])

    def check(self, x: str, y: str) -> SurdValue:
        """Largest edge-forced lower bound for the pair (both orientations)."""
        table = self._hat_table
        return table.check(table.index[x], table.index[y])


class MetricFragment(GraphMetric):
    """Finite point set with a full, exact, positive distance table: a
    complete graph metric.

    The constructor validates the table (full, symmetric, zero diagonal,
    every off-diagonal value coercible and positive) in the one pass of
    ``_checked_edges``; a full table is connected, so no search follows.  The
    triangle inequality is :meth:`triangle_failures`, and the two-point-sphere
    law is checked by :func:`banakh.banakh_space.verify_fragment`, which
    skips the scan only on a proven embedding in ℝ; neither is assumed.
    """

    _ENTRY_ERRORS = {
        "unknown": "distance entry for unknown point ({u!r},{v!r})",
        "loop": "diagonal entries must be omitted",
        "sign": "distance ({u!r},{v!r}) is not positive: {w}",
        "conflict": "conflicting distances for {key}",
    }

    def __init__(self, points, dist):
        given = list(points)
        names = set(given)
        if len(names) != len(given):
            raise ValueError("duplicate point ids")
        self._set_edges(names, self._checked_edges(names, dist))
        want = len(given) * (len(given) - 1) // 2
        if len(self.edges) != want:
            raise ValueError(f"distance table incomplete: {len(self.edges)}/{want}")
        self.points = self.vertices

    def triangle_failures(self) -> list:
        """The strict triangle failures, as name triples (see
        :func:`_triangle_failures`: on ints for a one-dimensional table, by
        the float-filtered scan of :meth:`_DistanceTable.triangle_failures`
        otherwise).  Only ``self.edges`` is read and no verdict is kept, so
        each call checks the table afresh; ``verify_fragment`` calls it on
        every fragment that it does not embed in ℝ.

        For a full table of positive values the list is empty exactly when
        every edge is its shortest path (:func:`validate_pseudometric`): a
        failure c > a + b is a two-edge path shorter than c, and without
        one, the first two edges of any path can be replaced by the edge
        between their ends, down to a single edge, never lengthening it.
        """
        return _triangle_failures(self.points, self.edges)

    @cached_property
    def spheres(self) -> dict:
        """center ↦ {distance value ↦ tuple of the points at that distance
        from center, in point order}; zero radii are not listed.  A center's
        items are in member-tuple order, that is by first member, as no
        point lies on two of its spheres: readers walk them unsorted.  The
        pairs are read in pair order (one linear pass over a table stored
        so, as a file's is), so c's members arrive in point order: the u < c
        of the pairs (u, c), then the v > c of the pairs (c, v)."""
        index = {c: {} for c in self.points}
        for (x, y), v in sorted(self.edges.items()):
            index[x].setdefault(v, []).append(y)
            index[y].setdefault(v, []).append(x)
        return {c: {v: tuple(ms) for v, ms in by_value.items()}
                for c, by_value in index.items()}

    def distance(self, x, y) -> SurdValue:
        if x == y:
            if x not in self.adj:
                raise KeyError(f"unknown point {x!r}")
            return ZERO
        return self.edges[(x, y) if x < y else (y, x)]

    def pairs(self):
        return self.edges.items()

    def __len__(self):
        return len(self.points)


class _DifferenceGraph(GraphMetric):
    """A difference graph on ``_core``, the :class:`MuGraph` that owns the
    ints: a MuGraph is its own core, and a :class:`ScaledMu` shares its
    template's.  A graph holds only its vertex names, in the core's unit
    order, and the value of one step."""

    def __init__(self, names: list, step: SurdValue):
        self._names = names
        self._at = {name: i for i, name in enumerate(names)}
        self._step = step
        self._value = value = cache(step.__mul__)   # n steps ↦ step × n
        # the core's edges join distinct units by a positive number of
        # steps, once each: stored as they are, with no entry check
        self._set_edges(names, {_pair(names[i], names[j]): value(n)
                                for i, j, n in self._core._int_edges})
        self._require_connected()

    def distances_from(self, x: str) -> dict:
        """The path value from x to every vertex of the window, read from
        the core's int path table (a fresh dict)."""
        i = self._at.get(x)
        if i is None:
            raise KeyError(f"unknown vertex {x!r}")
        return dict(zip(self._names,
                        map(self._value, self._core._path_rows[i])))

    @cached_property
    def _hat_table(self) -> "_DistanceTable":
        """The closed hats, a table apart from ``_path_table``."""
        closed, value = self._core._closed, self._value
        at = dict(zip(self._names, self._core._steps))     # name ↦ steps
        return _DistanceTable(self.vertices, self.edges, lambda x: {
            y: value(closed[abs(s - at[x])]) for y, s in at.items()})


class MuGraph(_DifferenceGraph):
    """Windowed difference graph of a monoid M, scaled by a radius.

    Vertices are the elements of (M - M) scaled by r inside [-window, window];
    two vertices are joined exactly when their distance lies in r*(M\\{0}),
    with that distance as the edge value.  The underlying object is infinite;
    ``hat`` and ``check`` therefore read the closed difference formula
    |x-y| + 2*inf{v in M : v + |x-y| in M}, which is the true value on the
    infinite graph, while ``distances_from`` (and so ``hat_path``) gives the
    path values of the window (they agree given enough window slack).  More
    than ``ENUMERATION_CAP`` pairs raise
    :class:`~banakh.values.InputTooLarge` before the first one.

    The graph is its own int core, which its :class:`ScaledMu` copies share.
    The units are ints over their common denominator ``_den``, ascending
    (``_steps``), and every value is a number of steps times the value of
    one step, r/den here: an edge is the int |ta - tb| (one membership test
    per distinct difference), a closed hat |Δ| + 2*min_add(|Δ|)*den (one
    ``min_add`` per distinct |Δ|, a Fraction where min_add(|Δ|)*den is not
    an int), and a path value the int length from a plain Dijkstra, built
    on the first ``distances_from`` and kept.  Each distinct number of steps
    becomes a :class:`SurdValue` once per graph.  Only the rows of the
    units t >= 0 are searched: t -> -t is an automorphism of the graph,
    because the unit set is symmetric (``diff_elements`` builds it so) and
    an edge and its weight depend only on |ta - tb| = |(-ta) - (-tb)|.  So
    d(-t, s) = d(t, -s), and in ascending order the row of -t is the row of
    t reversed.
    """

    def __init__(self, monoid: MonoidDesc, r, window, denom_bound: int = 64):
        self.monoid = monoid
        self.r = rat(r)
        self.window = rat(window)
        self.denom_bound = denom_bound
        if self.r <= 0:
            raise ValueError("radius must be positive")
        units = monoid.diff_elements(self.window / self.r, denom_bound)
        _check_pairs(len(units), "difference graph")
        nonzero = [t for t in monoid.elements(2 * self.window / self.r, denom_bound)
                   if t > 0]
        if not nonzero:
            raise ValueError("monoid has no nonzero elements in the window")
        self.unit_of = {format_rat(t * self.r): t for t in units}
        den = self._den = lcm(*(t.denominator for t in units))
        self._steps = [t.numerator * (den // t.denominator) for t in units]
        member = {}             # difference in steps ↦ whether M holds it
        self._int_edges = []    # (i, j, steps) for the joined units i < j
        for (i, a), (j, b) in combinations(enumerate(self._steps), 2):
            if b - a not in member:
                member[b - a] = monoid.member(Fraction(b - a, den))
            if member[b - a]:
                self._int_edges.append((i, j, b - a))
        super().__init__(list(self.unit_of), SurdValue.of(self.r / den))

    @property
    def _core(self) -> MuGraph:     # as an attribute, a reference cycle
        return self

    @cached_property
    def _path_rows(self) -> list:
        """Unit index ↦ the path lengths in steps to every unit, in unit
        order (see the class docstring)."""
        n = len(self._steps)
        adj = [[] for _ in range(n)]
        for i, j, w in self._int_edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        rows = [None] * n
        for i in range(n // 2, n):      # zero is the middle unit
            dist = [None] * n
            dist[i] = 0
            heap = [(0, i)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    if dist[v] is None or d + w < dist[v]:
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
            rows[i] = dist
            rows[n - 1 - i] = dist[::-1]
        return rows

    @cached_property
    def _closed(self) -> dict:
        """|Δ| in steps ↦ its closed hat in steps (see the class)."""
        out = {}
        for n in {b - a for a in self._steps for b in self._steps if b >= a}:
            extra = self.monoid.min_add(Fraction(n, self._den))
            if extra is None:
                # untraced: guards a fault; n is a difference of members
                raise ValueError(f"{Fraction(n, self._den)} is outside the "
                                 "difference set")
            out[n] = n + 2 * extra * self._den
        return out


class ScaledMu(_DifferenceGraph):
    """A difference graph rescaled by a positive (possibly irrational) factor
    and relabeled: a :class:`MuGraph` or another copy as its ``template``.
    Vertices carry new names; it shares the template's int core, and its
    step is the template's times the scale, so its edges, closed hats and
    path values are the template's times the scale.  This is how copies with
    irrational radii attach to a build without leaving exact arithmetic:
    the core stays on ints, the step carries the surd.
    """

    def __init__(self, template: MuGraph | ScaledMu, scale, rename: dict):
        scale = SurdValue.of(scale)
        if not scale.sign() > 0:
            raise ValueError("scale must be positive")
        if set(rename) != set(template.vertices):
            raise ValueError("rename must cover exactly the template vertices")
        if len(set(rename.values())) != len(rename):
            raise ValueError("rename must be injective")
        self.template = template
        self.scale = scale
        self._core = template._core
        super().__init__([rename[v] for v in template._names],
                         scale * template._step)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def validate_pseudometric(g: GraphMetric):
    """True iff every edge value equals the shortest-path value (path
    semantics, also for difference graphs).  Returns (verdict, witness).

    A full graph is decided by the triangle scan of its edges,
    :func:`_triangle_failures` (:meth:`MetricFragment.triangle_failures`
    proves the two checks equivalent on a full graph of positive values);
    the per-vertex path search runs only on a graph that is not full, or to
    name the witness of a failed scan."""
    if g.is_full() and not _triangle_failures(g.vertices, g.edges):
        return True, None
    return _path_witness(g)


def _path_witness(g: GraphMetric):
    """(False, the first edge, in vertex and ``adj`` order, that is not its
    shortest path in ``g._path_table``), or (True, None) if there is none."""
    table = g._path_table
    for i, x in enumerate(g.vertices):
        for v, w in g.adj[x]:
            if table.exact(i, table.index[v]) != w:
                return False, (x, v)
    return True, None


def hat(g: GraphMetric, x: str, y: str) -> SurdValue:
    return g.hat(x, y)


def check(g: GraphMetric, x: str, y: str) -> SurdValue:
    return g.check(x, y)


def is_floppy_graph(g: GraphMetric):
    """True iff check < hat strictly at every non-edge pair.

    Full graphs are floppy vacuously.  Returns (verdict, witness_pair)."""
    for u, v in combinations(g.vertices, 2):
        if _pair(u, v) in g.edges:
            continue
        if not g.check(u, v) < g.hat(u, v):
            return False, (u, v)
    return True, None


def build_mu(monoid: MonoidDesc, r, window, denom_bound: int = 64) -> MuGraph:
    """The canonical difference graph of a monoid, windowed and scaled by r."""
    return MuGraph(monoid, r, window, denom_bound)


# ---------------------------------------------------------------------------
# generic completion
# ---------------------------------------------------------------------------


class ExtensionExhausted(RuntimeError):
    """Completion ran out of backtracking budget; .pair holds the blocker."""

    def __init__(self, pair, backtracks):
        self.pair = pair
        self.backtracks = backtracks
        super().__init__(f"no admissible value for pair {pair} "
                         f"after {backtracks} backtracks")


class ExtensionPolicy(NamedTuple):
    """How to choose values for missing edges.

    The default dense family draws c + eps*sqrt(p) with a fresh prime p per
    assignment, c and eps rational, certified to lie strictly inside the
    open admissible interval.  A custom ``dense_family`` callable receives
    (pair, lo, hi, rng, fresh_prime) and must return a value in (lo, hi).
    """
    seed: int
    max_backtracks: int = 1000
    dense_family: Optional[Callable] = None


class ExtensionResult(NamedTuple):
    full: MetricFragment
    assignments: dict
    intervals: dict
    backtracks: int


def _default_sample(lo: SurdValue, hi: SurdValue, rng: random.Random,
                    prime: int) -> SurdValue:
    """c + eps*sqrt(prime) strictly inside (lo, hi), c random inside the
    certified rational core of the interval (:func:`banakh.values._sample`
    for a seeded draw)."""
    return _sample(lo, hi, rng.randrange(0, 256), prime)


def extend_to_full(g: GraphMetric, policy: ExtensionPolicy) -> ExtensionResult:
    """Complete a floppy graph metric to a full metric on the same vertices.

    Missing pairs are processed in lexicographic order; each value is drawn
    from the dense family strictly inside the open interval
    (check, hat) of the pair *at assignment time*.  If a later pair closes up
    (check = hat), the most recent assignment is re-sampled; the budget is
    ``policy.max_backtracks``.  Fresh surd primes make assigned values
    pairwise distinct and rationally unrelated to everything already present.

    The comparisons behind check and hat are float-filtered: each is first
    tried on certified double-precision enclosures of the exact values and
    decided on the exact values only where the enclosures cannot settle it,
    so every result is the exact one.  A relaxed entry is kept as an
    unsummed sum with an outward-rounded enclosure, and its exact value is
    built only when it is read: by ``check``, as the pair's ``hi``, or where
    the enclosures cannot decide an update.  Every value handed out, to the
    sampler or in the result, is a :class:`~banakh.values.SurdValue`.

    A new edge (u, v) = w is relaxed only over A x B and B x A, where A
    holds the i with d(i,u) + w < d(i,v) and B the j with
    d(j,v) + w < d(j,u): by the triangle inequality of the entries no
    other pair can get shorter through it (see :class:`_DistanceTable`).
    The entries start as a copy of ``g._path_table`` and stay shortest
    paths of the growing graph, so that precondition holds throughout.
    ``check`` reads one column cached for the pair's first point, which
    the lexicographic order asks for pair after pair; the column stays
    valid across ``add_edge`` because entries only shrink and edges are
    only added.

    The result is a :class:`MetricFragment`, validated by the scan that
    :func:`banakh.banakh_space.verify_fragment` runs on a fragment that
    does not embed in ℝ, :meth:`MetricFragment.triangle_failures`, through
    the one call :func:`validate_pseudometric`, whose per-vertex path
    search runs only to name the witness edge of a failure.
    Above ``ENUMERATION_CAP`` pairs (about 447 vertices) it raises
    :class:`~banakh.values.InputTooLarge` before building anything.
    """
    verts = list(g.vertices)
    _check_pairs(len(verts), "completion")
    missing = [p for p in combinations(verts, 2) if p not in g.edges]
    assignments, intervals, backtracks = \
        _assign(g, missing, policy) if missing else ({}, {}, 0)

    full_edges = dict(g.edges)
    full_edges.update(assignments)
    full = MetricFragment(verts, full_edges)
    ok, bad = validate_pseudometric(full)
    if not ok:
        raise RuntimeError(f"completed graph failed validation at {bad}")
    return ExtensionResult(full=full, assignments=assignments,
                           intervals=intervals, backtracks=backtracks)


def _assign(g: GraphMetric, missing: list, policy: ExtensionPolicy):
    """The values of the ``missing`` pairs of ``g``, in the order and with
    the backtracking of :func:`extend_to_full`: (assignments, intervals,
    backtracks)."""
    used_primes = set()
    for w in g.edges.values():
        used_primes |= w.primes()
    prime_source = (p for p in primes_from(2) if p not in used_primes)

    rng = random.Random(policy.seed)
    sampler = policy.dense_family or (
        lambda pair, lo, hi, r, prime: _default_sample(lo, hi, r, prime))

    base = g._path_table        # shared with g: grown only in copies
    index = base.index
    assignments: dict = {}
    intervals: dict = {}
    order: list = []
    table = base.copy()
    backtracks = 0
    idx = 0
    while idx < len(missing):
        pair = missing[idx]
        i, j = index[pair[0]], index[pair[1]]
        lo = table.check(i, j)
        hi = table.exact(i, j)
        if lo < hi:
            value = sampler(pair, lo, hi, rng, next(prime_source))
            if not (lo < value < hi):
                raise RuntimeError(f"sampled value {value} escaped ({lo}, {hi})")
            assignments[pair] = value
            intervals[pair] = (lo, hi)
            order.append(pair)
            table.add_edge(i, j, value)
            idx += 1
            continue
        # closed interval: re-sample the most recent assignment
        backtracks += 1
        if not order or backtracks > policy.max_backtracks:
            raise ExtensionExhausted(pair, backtracks)
        dropped = order.pop()
        del assignments[dropped], intervals[dropped]
        table = base.copy()
        for u, v in order:
            table.add_edge(index[u], index[v], assignments[(u, v)])
        idx = missing.index(dropped)
    return assignments, intervals, backtracks


# the one enclosure, read through a module name that the filter tests patch
_enclosure = SurdValue._enclosure


class _Sum:
    """A relaxed table entry a + w + b, kept unsummed: two earlier entries a
    and b (values or sums) and the new edge's value w.  Its enclosure lives
    in the table beside it; its exact value is built by :func:`_exact` on
    the first read and kept, and then the operands are let go."""

    __slots__ = ("a", "w", "b", "value")

    def __init__(self, a, w: SurdValue, b):
        self.a, self.w, self.b = a, w, b
        self.value = None


def _exact(entry) -> SurdValue:
    """The exact value of a table entry: a value as it is, a sum forced.

    A sum's operands are forced first, from an explicit stack, never by
    recursion, since sums nest as deep as the relaxations that made them;
    each is built once, by one three-term int sum."""
    if entry.__class__ is not _Sum:
        return entry
    if entry.value is None:
        stack = [entry]
        while stack:
            top = stack[-1]
            if top.value is not None:
                stack.pop()
                continue
            a, b = top.a, top.b
            pending = [x for x in (a, b)
                       if x.__class__ is _Sum and x.value is None]
            if pending:
                stack += pending
                continue
            stack.pop()
            a, w, b = _exact(a), top.w, _exact(b)
            top.value = SurdValue._raw(*_sum3(
                a._den, a._num, a._surds, w._den, w._num, w._surds,
                b._den, b._num, b._surds))
            top.a = top.w = top.b = None
    return entry.value


class _DistanceTable:
    """A graph's vertex index, its live edges and its hat values, addressed
    by vertex index.  ``add_edge`` is the one place where edges and entries
    change: it adds an edge and relaxes the entries through it.

    Entry d[i][j] is a value or, once ``add_edge`` has relaxed it, a
    :class:`_Sum` whose exact value is built on its first read; ``exact`` is
    the one read of an entry's value, and a sum never leaves the table.
    lo[i][j], hi[i][j] enclose the entry in doubles; each edge is kept as
    (i, j, w, lower bound of w, upper bound of w).

    ``add_edge`` needs entries that satisfy the triangle inequality, as the
    shortest-path values of any graph do, and keeps them shortest paths of
    the grown graph.  Then d(i,u) + w + d(v,j) < d(i,j) gives, through
    d(i,j) <= d(i,v) + d(v,j), that d(i,u) + w < d(i,v), and through
    d(i,j) <= d(i,u) + d(u,j), that w + d(v,j) < d(u,j).  So a path through
    the new edge (u, v) = w, entered at u, shortens only pairs in A x B, for
    A = {i : d(i,u) + w < d(i,v)} and B = {j : d(j,v) + w < d(j,u)}; entered
    at v, only pairs in B x A.  Only those pairs are tested; an i is left out
    of A (or B) only when the enclosures prove the opposite strict
    inequality, so a tie stays in.

    ``check`` reads one cached column, for one key vertex x: for every
    vertex q, bounds col_lo[q] <= M(q) <= col_hi[q] of M(q) = max over the
    edges (q, p) = w of w - d(p,x), so that check(x,y) = max(0, max over q
    of M(q) - d(q,y)).  The column and the per-vertex adjacency behind it
    are built on the first ``check`` and kept while the key is asked again
    (completion asks its pairs in lexicographic order).  Entries only shrink
    and edges are only added, so M only grows, and the bounds are only
    raised: ``add_edge`` raises them with the new edge and ``set`` with
    each new entry in row x.  A lower bound kept from an earlier, larger
    entry stays below M; the upper bounds are raised with every current
    entry, so they stay above M.  ``copy`` drops the column, and a table
    that never calls ``check`` keeps none.

    The filters decide a comparison on the enclosures when they can prove
    it and leave it to the exact values otherwise (a value against a sum
    of two, to :func:`banakh.values._vs_sum`).  Their error bound, with
    u = 2**-53 and B = ``bound`` >= |every enclosure end| seen so far:

    * each end is the value's own :meth:`SurdValue._enclosure`, mid -+ err
      rounded once, so it misses a true bound by at most u*B; or, for a
      :class:`_Sum`, its operands' ends added with each addition rounded
      outward (``nextafter`` of the rounded sum, away from the value).  An
      outward-rounded sum of true bounds is a true bound, and a sum adds
      no rounding error of its own, however deep the sums nest: its end
      misses by no more than the ends of its leaves (edge values and
      seed entries) together, at most u times their sum.  The leaves are
      nonnegative and add up to the sum's value, so that is u*B again;
    * a filter adds or subtracts three ends with two roundings, of partial
      sums below 3B, so the sum misses its exact value by at most 3u*B
      (the ends) + 5u*B (the roundings) = 8u*B;
    * add_edge compares such a sum with a fourth end (u*B) after
      subtracting ``tol`` from it (one more rounding, about 2u*B): off by
      < 11u*B; its A and B tests drop one end and one rounding of that
      sum, so they are off by less; where that skip fails, it proves an
      update by comparing the new sum's upper end with the entry's lower
      end less ``tol``: two ends and one rounding, off by < 3u*B; check
      compares two such sums, one after subtracting ``tol`` (3u*B): off
      by < 19u*B; triangle_failures compares one end with the sum of two
      less ``tol``: three ends and two roundings of 2u*B each, off by
      < 7u*B, and so does ``GraphMetric.distances_from`` (with the B of
      ``_path_tol``);
    * the column holds check's per-edge sums after their first rounding:
      col_lo[q] is the largest w_lo - hi(x,p) and col_hi[q] at least the
      largest w_hi - lo(x,p) over the edges (q, p) = w.  The second
      subtraction rounds monotonically, so the first pass finds the
      largest per-edge lower sum, and col_hi[q] - lo(q,y) < floor holds
      only when every edge at q fails its own test.  A lower sum kept from
      an earlier, larger entry bounds w - d(p,x) at that entry, with a B no
      larger than now, so it is no larger than the current candidate up to
      the same error: the column adds no error term;
    * the completion sampler picks its nearer gap, which it never builds
      (its brackets are lo's and hi's, shifted: see
      :func:`banakh.values._sample`), by :func:`banakh.values._nearer_gap`'s
      test of 2c against lo + hi: doubling is exact, so 2c's end misses by
      2u*B and the two others by u*B each, and the roundings of their sum
      (below 2B) and of the difference (below 4B) add 6u*B: off by
      < 10u*B, and it compares the difference with -tol and tol themselves;
    * the comparison itself is exact, and rounding to nearest is monotone,
      so the final addition of a test cannot turn a false one true.

    A skip therefore asks for a margin of ``tol`` = 2**-48 * B = 32u*B.
    Every skip test is false when an operand is infinite, and so is sent to
    the exact values; ``tol`` is infinite when B is beyond [2**-900, 2**900]
    (sums could overflow or fall into the subnormals).
    """

    __slots__ = ("verts", "index", "edges", "d", "lo", "hi", "bound", "tol",
                 "adj", "key", "col_lo", "col_hi")

    def __init__(self, verts, edges: dict, row: Optional[Callable] = None):
        """``edges`` maps vertex pairs to values.  Entry (i, j) is
        row(verts[i])[verts[j]]; without ``row`` it is the edge value, for a
        full table."""
        self.verts = verts = tuple(verts)
        self.index = {v: k for k, v in enumerate(verts)}
        n = len(verts)
        self.d = [[ZERO] * n for _ in range(n)]
        self.lo = [[0.0] * n for _ in range(n)]
        self.hi = [[0.0] * n for _ in range(n)]
        self.bound, self.tol = 0.0, math.inf     # until an entry is set
        self.adj = self.key = None                # until the first check
        self.edges = [(self.index[u], self.index[v], w, *_enclosure(w))
                      for (u, v), w in edges.items()]
        if row is None:
            for edge in self.edges:
                self.set(*edge)
            return
        # the last row sets no entry
        for i, x in enumerate(verts[:-1]):
            from_x = row(x)
            for j in range(i + 1, n):
                value = from_x[verts[j]]
                self.set(i, j, value, *_enclosure(value))
        for _, _, _, w_lo, w_hi in self.edges:
            self._widen(w_lo, w_hi)

    def copy(self) -> "_DistanceTable":
        """The entries and edges; the column is built again on demand."""
        other = _DistanceTable.__new__(_DistanceTable)
        other.verts, other.index = self.verts, self.index
        other.edges = self.edges[:]
        other.d = [row[:] for row in self.d]
        other.lo = [row[:] for row in self.lo]
        other.hi = [row[:] for row in self.hi]
        other.bound, other.tol = self.bound, self.tol
        other.adj = other.key = None
        return other

    def _widen(self, lo: float, hi: float) -> None:
        m = max(abs(lo), abs(hi))
        if m > self.bound:
            self.bound, self.tol = m, _tol(m)

    def exact(self, i: int, j: int) -> SurdValue:
        """Entry (i, j), exactly: the one read of an entry's value."""
        return _exact(self.d[i][j])

    def set(self, i: int, j: int, value, lo: float, hi: float) -> None:
        """Entry (i, j) = value, a value or a sum, enclosed in [lo, hi]."""
        self.d[i][j] = self.d[j][i] = value
        self.lo[i][j] = self.lo[j][i] = lo
        self.hi[i][j] = self.hi[j][i] = hi
        self._widen(lo, hi)
        if self.key == i:
            self._lift(j)
        elif self.key == j:
            self._lift(i)

    def _lift(self, p: int) -> None:
        """Raise the column's bounds at every neighbour q of p by its edge
        (q, p) = w and the current enclosure of d(p, key)."""
        key = self.key
        lo_p, hi_p = self.lo[key][p], self.hi[key][p]
        col_lo, col_hi = self.col_lo, self.col_hi
        for q, _, w_lo, w_hi in self.adj[p]:
            c = w_lo - hi_p
            if c > col_lo[q]:
                col_lo[q] = c
            c = w_hi - lo_p
            if c > col_hi[q]:
                col_hi[q] = c

    def _build_column(self, x: int) -> None:
        """The column for key x, and the adjacency if there is none yet."""
        n = len(self.verts)
        if self.adj is None:
            self.adj = [[] for _ in range(n)]
            for a, b, w, w_lo, w_hi in self.edges:
                self.adj[a].append((b, w, w_lo, w_hi))
                self.adj[b].append((a, w, w_lo, w_hi))
        self.key = x
        self.col_lo, self.col_hi = [-math.inf] * n, [-math.inf] * n
        for p in range(n):
            self._lift(p)

    def add_edge(self, u: int, v: int, w: SurdValue) -> None:
        """Add the edge (u, v) = w and relax the entries through it:
        d[i][j] = min(d[i][j], d[i][u] + w + d[v][j], d[i][v] + w + d[u][j]),
        tested only on the pairs of A x B and B x A (see the class).  A
        pair that the skip filter keeps gets the :class:`_Sum` of its path
        through the edge, with outward-rounded ends, when those ends prove
        it below the entry; only otherwise are the two forced and compared
        exactly.

        Rows u and v are read as they were before the pass: a path that
        uses the new edge twice is never shorter, so the exact result does
        not depend on the order of the pass."""
        w_lo, w_hi = _enclosure(w)
        self.edges.append((u, v, w, w_lo, w_hi))
        self._widen(w_lo, w_hi)
        if self.adj is not None:
            self.adj[u].append((v, w, w_lo, w_hi))
            self.adj[v].append((u, w, w_lo, w_hi))
            key = self.key
            if key is not None:
                lk, hk = self.lo[key], self.hi[key]
                col_lo, col_hi = self.col_lo, self.col_hi
                for q, p in ((u, v), (v, u)):
                    col_lo[q] = max(col_lo[q], w_lo - hk[p])
                    col_hi[q] = max(col_hi[q], w_hi - lk[p])
        d, lo, hi, tol = self.d, self.lo, self.hi, self.tol
        du, dv = d[u][:], d[v][:]
        lu, lv = lo[u][:], lo[v][:]
        hu, hv = hi[u][:], hi[v][:]
        w_low = w_lo - tol
        # i leaves A only on a proven d(i,u) + w > d(i,v), j leaves B only on
        # a proven d(j,v) + w > d(j,u)
        in_a = [i for i, h in enumerate(hi[v]) if not lu[i] + w_low > h]
        in_b = [j for j, h in enumerate(hi[u]) if not lv[j] + w_low > h]
        for i in in_a:
            # a lower bound of d(i,u) + w, less the slack
            via_u = lu[i] + w_low
            # the outward-rounded ends of d(i,u) + w
            s_lo = nextafter(lu[i] + w_lo, -inf)
            s_hi = nextafter(hu[i] + w_hi, inf)
            lo_i, hi_i = lo[i], hi[i]
            for j in in_b:
                # skip a proven d(i,u) + w + d(v,j) > d(i,j)
                if via_u + lv[j] > hi_i[j] or i == j:
                    continue
                through = _Sum(du[i], w, dv[j])
                t_hi = nextafter(s_hi + hv[j], inf)
                # a proven through < d(i,j), or else the exact values
                if (t_hi < lo_i[j] - tol
                        or _exact(through) < _exact(d[i][j])):
                    self.set(i, j, through,
                              nextafter(s_lo + lv[j], -inf), t_hi)

    def check(self, x: int, y: int) -> SurdValue:
        """max(0, w - d(a,x) - d(b,y)) over the edges (a, b) = w in both
        orientations, from the column of x: a certified lower bound of the
        maximum from the column's lower bounds, then the exact maximum over
        the edges whose upper bound reaches it, at the vertices whose column
        bound does."""
        if self.key != x:
            self._build_column(x)
        # the exact 0 is always a candidate
        best = max(0.0, max(map(sub, self.col_lo, self.hi[y])))
        floor = best - self.tol
        adj, lx, ly = self.adj, self.lo[x], self.lo[y]
        result = None if 0.0 < floor else ZERO
        for q, c in enumerate(map(sub, self.col_hi, ly)):
            if c < floor:
                continue
            l_q = ly[q]
            for p, w, _, w_hi in adj[q]:
                if w_hi - lx[p] - l_q < floor:
                    continue
                cand = w - self.exact(x, p) - self.exact(y, q)
                if result is None or result < cand:
                    result = cand
        return result

    def triangle_failures(self) -> list:
        """The strict triangle failures of the entries, as name triples.

        Triples x < y < z (by index) come in ``combinations`` order; each
        tests the sides d(x,z), d(y,z), d(x,y) in turn against the sum of
        the other two, and a failing side is named by its ends, then the
        third point: (x, z, y), (y, z, x) or (x, y, z).  A side c passes on
        the enclosures when c_hi < a_lo + b_lo - tol, which proves c < a + b;
        the rest go to :func:`_vs_sum`.  The scan runs only on tables
        built from values, which hold no :class:`_Sum`, so it reads the
        entries directly.  A collinear tie c = a + b is never decided on
        the enclosures, so a one-dimensional table, whose every triple can
        be one, is scanned on ints by :func:`_triangle_failures` instead."""
        points, d, lo, hi, tol = self.verts, self.d, self.lo, self.hi, self.tol
        n = len(points)
        failures = []
        for i in range(n - 2):
            lo_i, hi_i = lo[i], hi[i]
            for j in range(i + 1, n - 1):
                lo_j, hi_j = lo[j], hi[j]
                xy_lo, xy_hi = lo_i[j], hi_i[j]
                for k in range(j + 1, n):
                    xz_lo, xz_hi = lo_i[k], hi_i[k]
                    yz_lo, yz_hi = lo_j[k], hi_j[k]
                    xz_ok = xz_hi < xy_lo + yz_lo - tol
                    yz_ok = yz_hi < xy_lo + xz_lo - tol
                    xy_ok = xy_hi < yz_lo + xz_lo - tol
                    if xz_ok and yz_ok and xy_ok:
                        continue
                    x, y, z = points[i], points[j], points[k]
                    dxy, dyz, dxz = d[i][j], d[j][k], d[i][k]
                    if not xz_ok and _vs_sum(dxz, dxy, dyz) > 0:
                        failures.append((x, z, y))
                    if not yz_ok and _vs_sum(dyz, dxy, dxz) > 0:
                        failures.append((y, z, x))
                    if not xy_ok and _vs_sum(dxy, dyz, dxz) > 0:
                        failures.append((x, y, z))
        return failures


def _triangle_failures(verts, edges: dict) -> list:
    """The strict triangle failures of a full table of positive values, as
    :meth:`_DistanceTable.triangle_failures` orders and names them; that
    float scan takes every table but a one-dimensional one.

    There every value is q*u, for u > 0 the first value and q rational
    (from ``values._pivots``, once per distinct value).  With D the lcm of
    the q's denominators, N = q*D is a positive int, and c > a + b exactly
    when N_c > N_a + N_b (divide by u > 0, multiply by D > 0).  Each row of
    N is packed into an int of W-bit fields, 2**(W-2) > every N: for a pair
    x < y with a = N(x,y), the fields over every z > y of H-1-a + N(x,z) -
    N(y,z), H-1-a - N(x,z) + N(y,z) and H-1+a - N(x,z) - N(y,z), H =
    2**(W-1), lie in [H - 2*max N, H + max N), inside [0, 2**W), so none
    borrows from the next, and one reaches H exactly where side xz, yz or xy
    fails.  So one int test per pair tells whether a triple through it
    fails, and only such a pair is scanned triple by triple, for the names.
    An N of more than ``_LINE_BITS`` bits, whose rows would outgrow the
    float scan's tables, leaves for the float scan too."""
    n = len(verts)
    ints = _line_ints(list(edges.values())) if n > 2 else None
    if ints is None:
        return _DistanceTable(verts, edges).triangle_failures()
    index = {v: k for k, v in enumerate(verts)}
    rows = [[0] * n for _ in range(n)]
    for (x, y), v in zip(edges, ints):
        i, j = index[x], index[y]
        rows[i][j] = rows[j][i] = v
    width = max(ints).bit_length() + 2
    bits = {v: format(v, f"0{width}b") for v in {0, *ints}}
    packed = [int("".join(map(bits.__getitem__, reversed(row))), 2)
              for row in rows]
    ones, pairs = ((1 << width * n) - 1) // ((1 << width) - 1), []
    for j in range(1, n - 1):
        shift = width * (j + 1)
        one = ones >> shift
        high, y = one << (width - 1), packed[j] >> shift
        for i in range(j):
            a, x = rows[i][j], packed[i] >> shift
            low = high - (a + 1) * one
            if ((low + x - y) | (low - x + y)
                    | (low + 2 * a * one - x - y)) & high:
                pairs.append((i, j))
    failures = []
    for i, j in sorted(pairs):
        x, y, a = verts[i], verts[j], rows[i][j]
        for k in range(j + 1, n):
            xz, yz, z = rows[i][k], rows[j][k], verts[k]
            if xz > a + yz:
                failures.append((x, z, y))
            if yz > a + xz:
                failures.append((y, z, x))
            if a > xz + yz:
                failures.append((x, y, z))
    return failures


# 128-bit fields at most: 16 bytes an entry
_LINE_BITS = 126


def _line_ints(values: list) -> Optional[list]:
    """Each value's N (see :func:`_triangle_failures`), or None if one is no
    rational multiple of the first or an N has more than ``_LINE_BITS``."""
    u, ratios, qs, lcm_den = values[0], {}, [], 1
    for w in values:
        key = w._den, w._num, w._surds      # the unique form, hashed in C
        q = ratios.get(key)
        if q is None:
            piv = _pivots(w._num, w._surds, u._num, u._surds)
            if piv is None:
                return None
            # den may be negative: lcm ignores its sign, and num*(D//den)
            # is q*D either way
            num, den = piv[0] * u._den, piv[1] * w._den
            g = gcd(num, den)
            ratios[key] = q = num // g, den // g
            lcm_den = lcm(lcm_den, q[1])
            if lcm_den.bit_length() > _LINE_BITS:
                return None
        qs.append(q)
    ints = [num * (lcm_den // den) for num, den in qs]
    return ints if max(ints).bit_length() <= _LINE_BITS else None


# ---------------------------------------------------------------------------
# unions
# ---------------------------------------------------------------------------


class ConditionViolation(ValueError):
    """A union precondition failed; .condition in {1,2,3}, .witness explains."""

    def __init__(self, condition: int, witness):
        self.condition = condition
        self.witness = witness
        super().__init__(f"union condition ({condition}) failed: {witness}")


class UnionReport(NamedTuple):
    certified_floppy: bool
    member_floppy: list
    lambdas: list  # per member: (inner, outer) exact minima, None if vacuous


class _Union(GraphMetric):
    """The graph that :func:`floppy_union` returns: a full metric base P
    with members glued on.  Its path values are read from the parts, so
    only ``distances_from`` differs from a plain graph's.

    Write G_C for the glue points of a member C (its vertices in P), d_C for
    C's own ``distances_from`` (a difference graph's int path rows, the
    search for a plain member) and p for the base entries.  Then, with a
    base vertex its own glue point at distance 0:

    * d(a, b) = p(a, b) for a, b in P;
    * d(x, y) = min over a in G_C, b in G_C' of d_C(x,a) + p(a,b) + d_C'(b,y)
      for x in C, y in C' outside P, and for a vertex x or y of P;
    * for x, y in the same C outside P, d_C(x, y) is one more candidate.

    Every candidate is the length of a walk in the union, so d is at most
    the minimum.  It is at least the minimum: a vertex outside P lies in
    one member only (condition 3), and every edge at it is an edge of that
    member, so a path leaves a member's own vertices only through its glue
    points.  Cut a shortest path at its vertices in P.  A stretch between
    consecutive cuts a, b is a base edge; or a member edge, which equals
    p(a, b) (a conflicting edge is refused); or a path through one member
    C's own vertices, which costs at least d_C(a, b), hence at least C's
    closed hat (a window's paths are paths of the infinite graph, and a
    plain member's hat is its path value), which equals p(a, b) by
    condition 2.  The base is a metric, so the stretches from the first cut
    a to the last cut b cost at least p(a, b): a metric base collapses to
    single edges.  Before a the path runs in x's member and costs at least
    d_C(x, a); after b, at least d_C'(b, y).  A path with no cut runs inside
    one member C, and costs at least d_C(x, y).

    The in-copy path d_C(x, y) stays a candidate, so the formula holds at
    any window: it needs no slack under which a copy's paths equal its
    closed hats.  It is read in two steps.  d(x, b) for b in P is the min
    over a in G_C of d_C(x, a) + p(a, b), and for y outside P in C',
    d(x, y) is the min over b in G_C' of d(x, b) + d_C'(b, y).  A row keeps
    its entries, so each unordered pair is built once, by the first of its
    two rows; each row handed out is a fresh dict.  The minima are decided
    on exact ``<``, which compares the cached enclosures first.
    """

    def __init__(self, base: GraphMetric, family: list, shares: list,
                 verts, edges):
        super().__init__(verts, edges)
        self._p = {a: {a: ZERO} for a in base.vertices}
        for (a, b), w in base.edges.items():
            self._p[a][b] = self._p[b][a] = w
        self._parts = list(zip(family, shares))
        self._home = {x: i for i, f in enumerate(family)
                      for x in f.vertices if x not in self._p}
        self._rows = {}         # vertex ↦ its finished row

    @cached_property
    def _glue_rows(self) -> list:
        """Per member: glue point a ↦ d_C(a, ·)."""
        return [{a: f.distances_from(a) for a in shared}
                for f, shared in self._parts]

    def distances_from(self, x: str) -> dict:
        row = self._rows.get(x)
        if row is None:
            if x not in self.adj:
                raise KeyError(f"unknown vertex {x!r}")
            row = self._rows[x] = self._row(x)
        return dict(row)

    def _row(self, x: str) -> dict:
        """d(x, ·): the base entries first, then the members' own vertices,
        each pair read from the other end's row where that is finished."""
        rows, p, glue_rows = self._rows, self._p, self._glue_rows
        home = self._home.get(x)
        own = {}
        if home is None:
            row = dict(p[x])
        else:
            f, shared = self._parts[home]
            own = f.distances_from(x)
            row = {}
            for b, p_b in p.items():
                done = rows.get(b)
                row[b] = done[x] if done is not None else min(
                    own[a] if a == b else own[a] + p_b[a] for a in shared)
        for y, j in self._home.items():
            if y == x:
                row[y] = ZERO
                continue
            done = rows.get(y)
            if done is not None:
                row[y] = done[x]
                continue
            via = glue_rows[j]
            best = min(via[b][y] if b == x else row[b] + via[b][y]
                       for b in self._parts[j][1])
            if j == home and own[y] < best:
                best = own[y]
            row[y] = best
        return row


def floppy_union(p: GraphMetric, family: list) -> tuple[GraphMetric, UnionReport]:
    """Glue floppy fragments onto a full pseudometric.

    Preconditions checked exactly: (0) the base is full and passes the
    triangle scan, (1) every member meets the base, (2) the member's hat
    agrees with the base on shared pairs, (3) distinct members meet only
    inside the base.  The union reads its path values from the parts
    (:class:`_Union`, which proves the formula from these conditions).  The
    report carries, per member, the two positivity minima that certify
    floppiness of the union: over glue points a,b the quantities
    hat_f(a,x) + hat_f(x,b) - hat_f(a,b) for inner x and
    p(a,y) + p(y,b) - p(a,b) for outer y.
    """
    if not p.is_full():
        raise ValueError("base of a union must be a full pseudometric")
    failures = _triangle_failures(p.vertices, p.edges)
    if failures:
        a, b, c = failures[0]       # the side a-b, longer than a-c-b
        raise ValueError("base of a union must be a full pseudometric: "
                         f"d({a},{b}) exceeds the path through {c}")
    base_verts = set(p.vertices)
    shares = []
    for i, f in enumerate(family):
        shared = sorted(set(f.vertices) & base_verts)
        if not shared:
            raise ConditionViolation(1, f"member {i} is disjoint from the base")
        for x, y in combinations(shared, 2):
            if f.hat(x, y) != p.edge_value(x, y):
                raise ConditionViolation(
                    2, f"member {i} disagrees with the base on ({x},{y})")
        shares.append(shared)
    for (i, f), (j, h) in combinations(enumerate(family), 2):
        overlap = (set(f.vertices) & set(h.vertices)) - base_verts
        if overlap:
            raise ConditionViolation(
                3, f"members {i},{j} overlap outside the base: {sorted(overlap)}")

    verts = set(p.vertices)
    edges = dict(p.edges)
    for f in family:
        verts |= set(f.vertices)
        for key, w in f.edges.items():
            if key in edges and edges[key] != w:
                raise ConditionViolation(2, f"edge {key} value conflict")
            edges[key] = w
    union = _Union(p, family, shares, verts, edges)

    member_floppy = []
    lambdas = []
    certified = True
    for f, shared in zip(family, shares):
        verdict, _ = is_floppy_graph(f)
        member_floppy.append(verdict)
        inner = min((f.hat(a, x) + f.hat(x, b) - f.hat(a, b)
                     for x in set(f.vertices) - base_verts
                     for a in shared for b in shared), default=None)
        outer = min((p.edge_value(a, y) + p.edge_value(y, b)
                     - (ZERO if a == b else p.edge_value(a, b))
                     for y in base_verts - set(f.vertices)
                     for a in shared for b in shared), default=None)
        lambdas.append((inner, outer))
        for bound in (inner, outer):
            if bound is not None and not bound.sign() > 0:
                certified = False
        if not verdict:
            certified = False
    report = UnionReport(certified_floppy=certified,
                         member_floppy=member_floppy, lambdas=lambdas)
    return union, report

