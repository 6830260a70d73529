"""Staged manufacture of finite fragments with prescribed distance sets.

A build starts from the windowed difference graph of the first radius class,
completes it to a full metric with certified-generic surd values, then runs
successor rounds: every point whose class-distance sphere is deficient (at
most one member) gets an isomorphic copy of that class's difference graph
glued onto the sphere, the union is checked floppy, and the whole thing is
completed again.  The result is a fragment whose realized distances split
into the prescribed class monoids plus a logged set of generic values, whose
spheres obey the two-point law, and which ships with a certificate that can
be re-verified without rerunning the build.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple

from .banakh_space import MetricFragment, verify_fragment
from .graph_metric import (ExtensionExhausted, ExtensionPolicy, MuGraph,
                           ScaledMu, extend_to_full, floppy_union)
from .monoid_algebra import ENUMERATION_CAP, MonoidDesc, is_floppy
from .values import InputTooLarge, SurdValue, rat

__all__ = [
    "RadiusClass",
    "BuildSpec",
    "Certificate",
    "SpecRejected",
    "BuildExhausted",
    "build",
    "verify_certificate",
]


class SpecRejected(ValueError):
    """The build request violates a precondition (e.g. a non-floppy class)."""


class BuildExhausted(RuntimeError):
    def __init__(self, stage: int, pair, detail: str = ""):
        self.stage = stage
        self.pair = pair
        super().__init__(f"build stalled at stage {stage} on {pair}"
                         + (f": {detail}" if detail else ""))


class RadiusClass(NamedTuple):
    """A prescribed radius r with its unit monoid N (so the value set is
    r·N, and 1 ∈ N because r itself is a realized distance)."""
    r: SurdValue
    monoid: MonoidDesc


# A stage that adds no point leaves the fragment as it was, so every later
# stage repeats it (about 0.24 ms and one log entry each), and completion
# refuses more than 447 points (ENUMERATION_CAP pairs): a build's stages
# after the 447th only repeat, or are refused.  Real builds meet that cap
# far sooner: radii 1 and sqrt(2) over Z+ at window 2 have 205 points after
# three stages and are refused in the fourth.
_STAGE_CAP = (1 + isqrt(1 + 8 * ENUMERATION_CAP)) // 2


class BuildSpec:
    """A build request: the radius classes, the stage count, the window,
    the denominator bound and the seed.  The radii are kept as a tuple and
    the window as a Fraction; a request that cannot be built is refused
    here.  Specs compare by their fields and are unhashable."""

    __slots__ = ("radii", "stages", "window", "denom_bound", "seed")
    __hash__ = None

    def __init__(self, radii: tuple, stages: int = 1,
                 window: Fraction = Fraction(5), denom_bound: int = 64,
                 seed: int = 0):
        self.radii = tuple(radii)
        self.stages = stages
        self.window = rat(window)
        self.denom_bound = denom_bound
        self.seed = seed
        if self.stages < 1:
            raise SpecRejected("stages must be at least 1")
        if self.stages > _STAGE_CAP:
            raise InputTooLarge(f"the build would run {self.stages} stages, "
                                f"above the cap of {_STAGE_CAP}")
        if self.window <= 0:
            raise SpecRejected("window must be positive")
        for cls in self.radii:
            if not cls.r.sign() > 0:
                raise SpecRejected("radii must be positive")
            verdict, witness = is_floppy(cls.monoid)
            if not verdict:
                raise SpecRejected(
                    f"monoid of radius {cls.r} is not floppy (witness {witness})")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={value!r}" for name, value
                            in zip(self.__slots__, self._values())) + ")")

    def canonical_classes(self):
        """Deduplicate classes that coincide after rational rescaling;
        reject rational-ratio pairs that do not coincide."""
        kept = []
        for cls in self.radii:
            matched = False
            for old in kept:
                q = cls.r.ratio_to(old.r)
                if q is None:
                    continue
                w = self.window / min(q, 1)
                same = ([e * q for e in cls.monoid.elements(w, self.denom_bound)]
                        == old.monoid.elements(w * q, self.denom_bound))
                if same:
                    matched = True
                    break
                raise SpecRejected(
                    f"radii {cls.r} and {old.r} are rationally related but "
                    "their value monoids differ")
            if not matched:
                kept.append(cls)
        return tuple(kept)


class Certificate(NamedTuple):
    seed: int
    stages: list
    classes: list              # per class: {"r", "floppy", "units_window"}
    realized_distances: list   # sorted distinct SurdValues
    generic_values: list       # every extension assignment, in order
    spheres: list              # class-radius sphere ledger on the final object
    sphere_law_ok: bool = True      # two-point law held at every class radius
    growth_ok: bool = True     # every copy-targeted sphere ended with 2 points


def _invert(r: SurdValue) -> SurdValue:
    """1/r for rational r or a pure single-surd r = c·sqrt(p)."""
    if r.is_rational():
        return SurdValue(1 / r.as_rational())
    primes = sorted(r.primes())
    if r.rational_part == 0 and len(primes) == 1:
        p = primes[0]
        c = r.coefficient(p)
        return SurdValue(0, {p: 1 / (c * p)})
    raise SpecRejected("radii must be rational or pure single-surd values")


def _class_table(spec: BuildSpec, classes) -> list:
    """Per canonical class: (the class, a rational units window w ≤
    window/r, exact when r is rational, and the positive units of the class
    monoid up to w).  The class's windowed radii are r times these units."""
    table = []
    for cls in classes:
        uw = (_invert(cls.r) * spec.window).brackets(16)[0]
        table.append((cls, uw, [n for n in cls.monoid.elements(
            uw, spec.denom_bound) if n > 0]))
    return table


def _certified_classes(table) -> list:
    """The certificate's ``classes`` field for a class table."""
    return [{"r": cls.r, "floppy": True, "units_window": uw}
            for cls, uw, _ in table]


def _unit_fits(values, classes) -> dict:
    """Each value that is a positive rational multiple q·r of a class radius
    r ↦ (that class's index, q).  At most one class fits: canonical classes
    are pairwise rationally unrelated (`canonical_classes` merges or rejects
    two radii with a rational ratio), and q·r = q'·r' would make r/r' = q'/q
    rational."""
    fits = {}
    for v in values:
        for ci, cls in enumerate(classes):
            q = v.ratio_to(cls.r)
            if q is not None and q > 0:
                fits[v] = (ci, q)
                break
    return fits


def _class_units(f: MetricFragment, x: str, ci: int, fits) -> dict:
    """Unit ratio q > 0 ↦ the sorted points at distance q·r from x, for the
    radius r of class ci, read from the fragment's sphere index and its
    unit fits.  A q outside the class monoid N is kept: readers that look
    up windowed units, which lie in N, need no membership test."""
    units = {}
    for v, members in f.spheres[x].items():
        fit = fits.get(v)
        if fit is not None and fit[0] == ci:
            units[fit[1]] = members
    return units


def build(spec: BuildSpec):
    """Run the staged construction.  Deterministic for a given seed."""
    classes = spec.canonical_classes()
    table = _class_table(spec, classes)
    templates = []  # per class: the copy template and its lattice units
    for cls, uw, _ in table:
        if uw < 1:
            raise SpecRejected(
                f"window {spec.window} cannot host a single step of radius {cls.r}")
        if spec.stages > 1:
            # copies carry double slack so every glued sphere member fits
            # and shortest paths inside the copy match the closed hat formula
            tmpl = MuGraph(cls.monoid, 1, 2 * uw, spec.denom_bound)
            templates.append((tmpl, frozenset(tmpl.unit_of.values())))

    if not classes:
        fragment = MetricFragment(["a0"], {})
        cert = Certificate(seed=spec.seed, stages=[], classes=[],
                           realized_distances=[], generic_values=[],
                           spheres=[], sphere_law_ok=True)
        return fragment, cert

    cls0, uw0, _ = table[0]
    base = MuGraph(cls0.monoid, 1, uw0, spec.denom_bound)
    rename0 = {tid: f"a{tid}" for tid in base.vertices}
    stage_log = []
    generic_log = []
    targets_seen = set()  # (point, class, unit) that a glued copy completes
    # no name keeps a completed graph, or its path table, past _complete
    fragment, backtracks = _complete(ScaledMu(base, cls0.r, rename0), spec,
                                     0, generic_log)
    fits = _unit_fits(set(fragment.edges.values()), classes)
    stage_log.append(_stage_entry(0, new_vertices=len(rename0),
                                  extension_backtracks=backtracks))

    for stage in range(1, spec.stages):
        copies = {}
        stage_targets = []
        deferred = []
        skipped = []
        for x in fragment.points:
            for ci, ((cls, _, radii), (tmpl, lattice)) in enumerate(
                    zip(table, templates)):
                units = _class_units(fragment, x, ci, fits)
                deficient = [n for n in radii if len(units.get(n, ())) <= 1]
                if not deficient:
                    continue
                sphere = sorted((y, q) for q, members in units.items()
                                if cls.monoid.member(q) for y in members)
                glue = frozenset([x] + [y for y, _ in sphere])
                key = (glue, ci)
                if key not in copies:
                    positions = _lattice_positions(fragment, x, sphere, ci,
                                                   fits, lattice)
                    if positions is None:
                        skipped.append((x, ci,
                                        "sphere not placeable in the copy lattice"))
                        continue
                    copies[key] = (_make_copy(tmpl, cls, stage, len(copies),
                                              positions), positions)
                # the shared copy completes a radius only when both lattice
                # neighbours of x at that offset exist in the window
                _, positions = copies[key]
                px = positions[x]
                covered = [n for n in deficient
                           if px + n in lattice and px - n in lattice]
                if covered:
                    stage_targets.append((x, ci, covered))
                rest = [n for n in deficient if n not in covered]
                if rest:
                    deferred.append((x, ci, rest))
        ordered = [mu for mu, _ in copies.values()]
        targets_seen.update((x, ci, n) for x, ci, ns in stage_targets for n in ns)
        entry = _stage_entry(stage, targets=stage_targets, deferred=deferred,
                             skipped=skipped)
        stage_log.append(entry)
        if not ordered:
            continue
        g, report = floppy_union(fragment, ordered)
        new_count = len(g.vertices) - len(fragment.vertices)
        fragment, backtracks = _complete(g, spec, stage, generic_log)
        del g
        fits = _unit_fits(set(fragment.edges.values()), classes)
        entry.update(copies=len(ordered),
                     union_certified=report.certified_floppy,
                     member_floppy=report.member_floppy,
                     lambdas=report.lambdas, new_vertices=new_count,
                     extension_backtracks=backtracks)

    spheres, law_ok = _sphere_ledger(fragment, table, fits)
    # every targeted (point, class, unit) ends with a two-member entry
    growth_ok = targets_seen <= {(e["center"], e["class"], e["unit"])
                                 for e in spheres if e["complete"]}
    if not growth_ok:
        raise BuildExhausted(spec.stages, None,
                             "a targeted sphere failed to reach two points")
    if not law_ok:
        raise BuildExhausted(spec.stages, None,
                             "two-point sphere law violated on a class radius")
    realized = sorted(set(fragment.edges.values()))
    cert = Certificate(seed=spec.seed, stages=stage_log,
                       classes=_certified_classes(table),
                       realized_distances=realized, generic_values=generic_log,
                       spheres=spheres, sphere_law_ok=law_ok, growth_ok=growth_ok)
    return fragment, cert


def _stage_entry(stage: int, **fields) -> dict:
    """A stage's log entry: the values of a stage that glued no copies,
    updated by ``fields``."""
    return {"stage": stage, "copies": 0, "union_certified": True,
            "member_floppy": [], "new_vertices": 0,
            "extension_backtracks": 0, **fields}


def _lattice_positions(f: MetricFragment, x: str, sphere, ci, fits, lattice):
    """Signed template units for the glue, from the sorted (member, unit
    ratio q) pairs of the class-ci sphere: the anchor sits at 0, each member
    at ±q in the template's ``lattice`` units, signs chosen so that all
    pairwise distances match the lattice.  None when no consistent placement
    exists."""
    pos = {x: Fraction(0)}
    for y, q in sphere:
        picks = []
        for s in ((q,) if len(pos) == 1 else (q, -q)):
            if s not in lattice:
                continue
            if all(fits.get(f.distance(y, z)) == (ci, abs(s - pz))
                   for z, pz in pos.items()):
                picks.append(s)
        if not picks:
            return None
        pos[y] = picks[0]
    return pos


def _make_copy(tmpl: MuGraph, cls: RadiusClass, stage: int, idx: int,
               positions: dict):
    """An isomorphic, rescaled copy of the class template: glue points land
    on their lattice positions, everything else is fresh."""
    by_unit = {t: name for name, t in positions.items()}
    rename = {}
    for tid in tmpl.vertices:
        t = tmpl.unit_of[tid]
        rename[tid] = by_unit.get(t, f"s{stage}c{idx}t{tid}")
    return ScaledMu(tmpl, cls.r, rename)


def _complete(g, spec: BuildSpec, stage: int, generic_log: list):
    """The stage's fragment, completed from g, and its backtracks; the
    assigned values go to generic_log in pair order.

    No spec is known to exhaust completion, an error extend_to_full
    documents: a floppy graph stays floppy under c + eps*sqrt(p), p fresh
    (a later tie reduces to an old tie or a zero distance), stage 0's window
    is floppy (check_window <= check_inf < hat_inf <= hat_window), and so is
    each union, certified."""
    policy = ExtensionPolicy(seed=spec.seed + 7919 * stage)
    try:
        result = extend_to_full(g, policy)
    except ExtensionExhausted as exc:
        raise BuildExhausted(stage, exc.pair,
                             f"extension budget spent ({exc.backtracks})") from exc
    generic_log.extend(result.assignments[p] for p in sorted(result.assignments))
    return result.full, result.backtracks


def _ledger_rows(f: MetricFragment, table, fits):
    """The sphere ledger's rows in ledger order (class, center, unit):
    (class index, center, unit n, radius n·r, member tuple, diameter_ok)
    for each nonempty sphere at a windowed class radius; diameter_ok tells
    whether two members lie 2n·r apart, and is None for other sizes.  The
    radius and diameter are the fragment's own value objects, from its
    unit ``fits`` inverted, so on a table with one object per value, as
    read from a file, each sphere lookup hits by identity; a radius that
    no pair realizes is never looked up."""
    for ci, (_, _, radii) in enumerate(table):
        by_unit = {q: v for v, (cj, q) in fits.items() if cj == ci}
        windowed = [(n, by_unit[n], by_unit.get(2 * n))
                    for n in radii if n in by_unit]
        for x in f.points:
            at = f.spheres[x]
            for n, radius, diameter in windowed:
                members = at.get(radius)
                if members is None:
                    continue
                ok = None
                if len(members) == 2:
                    d = f.distance(*members)
                    ok = diameter is not None and (d is diameter
                                                   or d == diameter)
                yield ci, x, n, radius, members, ok


def _sphere_ledger(f: MetricFragment, table, fits):
    """The ledger's entries, the dicts of :func:`_ledger_rows`, and the
    two-point law's verdict on them.  A deficient sphere is recorded (a
    later stage would complete it); more than two members, or a pair at
    the wrong mutual distance, violates the law."""
    ledger = []
    ok = True
    for ci, x, n, radius, members, diameter_ok in _ledger_rows(f, table, fits):
        entry = {"center": x, "class": ci, "unit": n, "radius": radius,
                 "members": list(members), "complete": len(members) == 2}
        if diameter_ok is not None:
            entry["diameter_ok"] = diameter_ok
        ok = ok and len(members) <= 2 and diameter_ok is not False
        ledger.append(entry)
    return ledger, ok


def _ledger_matches(rows, entries) -> bool:
    """Do the certificate's ledger ``entries`` equal the dicts that
    :func:`_sphere_ledger` makes of ``rows``, with the law holding on every
    row and each entry's ``complete`` and ``diameter_ok`` a bool?  Entries
    and rows are walked in step up to the first mismatch.  Each field
    compares as dict ``==`` would, row value on the left (``True == 1`` and
    ``Fraction(2) == 2`` pass, a tuple of members does not; a missing key
    reads as None, which no row value equals), and each distinct pair of
    unit or radius objects once, remembered by their ids while both live."""
    if not isinstance(entries, list):
        return False
    same = set()    # (id(entry object), id(row object)) of the equal pairs
    count = 0
    for ci, x, n, radius, members, diameter_ok in rows:
        size = len(members)
        if count == len(entries) or size > 2 or diameter_ok is False:
            return False
        e = entries[count]
        count += 1
        if not (isinstance(e, dict)
                and len(e) == (6 if diameter_ok is None else 7)
                and x == e.get("center") and ci == e.get("class")
                and list(members) == e.get("members")
                and e.get("complete") is (size == 2)
                and (diameter_ok is None
                     or e.get("diameter_ok") is diameter_ok)):
            return False
        unit, value = e.get("unit"), e.get("radius")
        if (id(unit), id(n)) not in same:
            if not (n is unit or n == unit):
                return False
            same.add((id(unit), id(n)))
        if (id(value), id(radius)) not in same:
            if not (radius is value or radius == value):
                return False
            same.add((id(value), id(radius)))
    return count == len(entries)


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------


def _window_closed(units) -> bool:
    """Is the set of positive rationals ``units`` closed under its sums up to
    its largest element?  Decided on ints over one common denominator."""
    den = lcm(*(q.denominator for q in units))
    ints = sorted(q.numerator * (den // q.denominator) for q in units)
    have, top = set(ints), ints[-1] if ints else 0
    # each a with every b >= a whose sum stays at or below the top
    return all(a + b in have for i, a in enumerate(ints)
               for b in ints[i:bisect_right(ints, top - a)])


def verify_certificate(fragment: MetricFragment, spec: BuildSpec,
                       cert: Certificate) -> dict:
    """Recheck a build output without rerunning the build.

    Checks:
    - the metric and sphere axioms of the fragment;
    - that the realized distances are the certificate's, and that each is
      a class value or a logged generic;
    - that each class's realized window lies in its monoid and is closed
      under in-window addition;
    - that the certificate's classes are the spec's canonical classes, with
      their `r`, `floppy: true` and `units_window`;
    - that the sphere ledger equals the one the build writes for the
      fragment and spec, with the two-point law holding on it and its
      `complete` and `diameter_ok` flags bools, checked entry by entry
      against the fragment's ledger rows (:func:`_ledger_matches`), no
      ledger built; and that the certificate's `sphere_law_ok` and
      `growth_ok` are both `true`;
    - that the `stages` log has one entry per stage, numbered from 0 (none
      when the spec has no classes), whose integer `new_vertices` sum to
      the fragment's point count.
    `class_floppy_ok` is always true: realized windows generate finitely
    generated monoids, which are floppy.
    """
    report = {}
    frag_report = verify_fragment(fragment)
    report["metric_ok"] = frag_report.metric_ok
    report["banakh_consistent"] = frag_report.banakh_consistent
    report["violations"] = frag_report.violations

    classes = spec.canonical_classes()
    realized = set(fragment.edges.values())
    report["distances_match_cert"] = realized == set(cert.realized_distances)
    fits = _unit_fits(realized, classes)

    generics = set(cert.generic_values)
    in_class = {v for v, (ci, q) in fits.items() if classes[ci].monoid.member(q)}
    stray = sorted(realized - generics - in_class)
    report["realized_subset_ok"] = not stray
    report["stray_distances"] = stray

    class_windows_ok = (len(in_class) == len(fits)  # each fit is a member
                        and all(_window_closed({q for cj, q in fits.values()
                                                if cj == ci})
                                for ci in range(len(classes))))
    report["class_windows_ok"] = class_windows_ok
    report["class_floppy_ok"] = True

    table = _class_table(spec, classes)
    report["classes_match_cert"] = cert.classes == _certified_classes(table)
    ledger_ok = (_ledger_matches(_ledger_rows(fragment, table, fits),
                                 cert.spheres)
                 and cert.sphere_law_ok is True and cert.growth_ok is True)
    report["sphere_ledger_ok"] = ledger_ok

    # a malformed log or entry reads as false, never as a format error
    log = cert.stages if isinstance(cert.stages, list) else [None]
    fields = [(e.get("stage"), e.get("new_vertices")) if isinstance(e, dict)
              else (None, None) for e in log]
    stages_ok = (len(fields) == (spec.stages if classes else 0)
                 and all(type(k) is int and k == pos and type(n) is int
                         for pos, (k, n) in enumerate(fields))
                 and sum(n for _, n in fields)
                 == (len(fragment.points) if classes else 0))
    report["stages_ok"] = stages_ok

    report["all_ok"] = all((report["metric_ok"], report["banakh_consistent"],
                            report["distances_match_cert"],
                            report["realized_subset_ok"], class_windows_ok,
                            report["classes_match_cert"], ledger_ok,
                            stages_ok))
    return report
