"""JSON round-trips for every object the command line touches.

Values serialize as exact rationals ("p/q") or as {"rat": ..., "surds":
{prime: coefficient}}; nothing ever passes through floats.  ``dumps``
produces canonical bytes (sorted keys, no whitespace) so identical inputs
give identical outputs across runs and platforms.

Reading builds no ``Fraction`` for a canonical rational ("-?[0-9]+" with
an optional "/[0-9]+"): :func:`banakh.values._ratio` reads it into
lowest-terms ints, and a value is built from those by
``SurdValue._from_ints``, the validating constructor on ints, after the
canonical-key check (zero coefficients dropped, then a prime index).
Every other form (decimals, whitespace, "+", underscores, non-ASCII
digits) falls back to ``Fraction(str)``, with its reading and its
errors.  An edge list or a certificate reads each distinct value
string, and each distinct surd form of strings, once, through a memo local
to the call, so equal values share one immutable object with its cached
hash and enclosure.  The readers import the layers whose objects they
build (``graph_metric``, ``banakh_group``, ``space_builder``) when they
run, so a command that reads none of those loads none.  Integer fields
(``stages``, ``denom_bound``, ``seed``, a ledger entry's ``class``) take
only a JSON integer, never a bool, float or string.  A row that repeats
a pair with a different value is a format error, never its last value.
Every ``_plain`` call, the one writer of certificates and reports, formats
each distinct value once, through a memo local to the call, and leaves a
leaf of a dict or a list in place without a recursive call;
``_center_rows`` writes a report's (center, value) pairs, up to about
100,000 of them, in the same form without the recursion.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .monoid_algebra import CLOSURES, MonoidDesc, _check_pairs
from .values import (InputTooLarge, SurdValue, _ratio, format_rat,
                     format_ratio)

__all__ = [
    "dumps",
    "FormatError",
    "value_to_json", "value_from_json",
    "monoid_to_json", "monoid_from_json",
    "graph_to_json", "graph_from_json",
    "fragment_to_json", "fragment_from_json",
    "buildspec_to_json", "buildspec_from_json",
    "element_to_json", "element_from_json",
    "token_to_json", "token_from_json",
    "certificate_to_json", "certificate_from_json",
]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class FormatError(ValueError):
    """Malformed input document."""


def _ratio_from(obj) -> tuple[int, int]:
    """The lowest-terms (num, den) of an int or string of a document, read
    by :func:`banakh.values._ratio`; a bool is not a rational."""
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        try:
            return _ratio(obj)
        except ValueError as exc:
            raise FormatError(f"not a rational: {obj!r}") from exc
    raise FormatError(f"not a rational: {obj!r}")


def _rat_from(obj) -> Fraction:
    return Fraction(*_ratio_from(obj))


def _int_from(obj, what: str) -> int:
    """A JSON integer; a bool, a float or a string is refused, never
    truncated."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise FormatError(f"{what} must be an integer: {obj!r}")


def _memo(read):
    """``read`` run once per distinct string of one document, and once per
    distinct surd form whose "rat" and coefficients are all strings: equal
    values then share one immutable object, with its cached hash, and a
    dict finds them by identity.  Any other form is read afresh, so a bool
    never meets an int's entry."""
    memo = {}

    def cached(obj):
        if type(obj) is str:
            key = obj
        elif (type(obj) is dict and type(obj.get("rat")) is str
              and type(surds := obj.get("surds", {})) is dict
              and all(type(c) is str for c in surds.values())):
            key = (obj["rat"], *surds.items())
        else:
            return read(obj)
        out = memo.get(key)
        if out is None:
            out = memo[key] = read(obj)
        return out
    return cached


def value_to_json(v: SurdValue):
    den = v._den
    rational = format_ratio(v._num, den)
    if not v._surds:
        return rational
    return {"rat": rational,
            "surds": {str(p): format_ratio(c, den) for p, c in v._surds}}


def _index_from(key) -> int:
    """A JSON object key that is the canonical decimal form of an int (no
    sign but "-", no padding, no leading zero), as an int."""
    try:
        n = int(key) if isinstance(key, str) else None
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise FormatError(f"not a canonical index: {key!r}")
    return n


def value_from_json(obj) -> SurdValue:
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return SurdValue._from_ints(*_ratio_from(obj), ())
    if isinstance(obj, dict):
        surds = obj.get("surds", {})
        if not isinstance(surds, dict):
            raise FormatError(f"surds must be an object: {surds!r}")
        coeffs = [(_index_from(key), *_ratio_from(c))
                  for key, c in surds.items()]
        num, den = _ratio_from(obj.get("rat", 0))
        try:
            return SurdValue._from_ints(num, den, coeffs)
        except InputTooLarge:
            raise
        except ValueError as exc:    # an index that is not a prime
            raise FormatError(str(exc)) from exc
    raise FormatError(f"not a value: {obj!r}")


def monoid_to_json(m: MonoidDesc) -> dict:
    if m.variant == "closure":
        return {"variant": "closure", "closure_id": m.closure_id}
    return {"variant": m.variant,
            "generators": [format_rat(g) for g in m.generators]}


def monoid_from_json(obj) -> MonoidDesc:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise FormatError(f"not a monoid description: {obj!r}")
    variant = obj["variant"]
    if variant == "closure":
        cid = obj.get("closure_id")
        if cid not in CLOSURES:
            raise FormatError(f"unknown closure id {cid!r}")
        return MonoidDesc.closure(cid)
    if variant not in ("fingen", "groupcone"):
        raise FormatError(f"unknown monoid variant {variant!r}")
    gens = [_rat_from(g) for g in obj.get("generators", [])]
    if any(g <= 0 for g in gens):
        raise FormatError("generators must be positive")
    return MonoidDesc(variant, gens)


def _edge_list_to_json(keys, names, edges) -> dict:
    """The names and the [u, v, value] rows sorted by pair, under keys."""
    return {keys[0]: list(names),
            keys[1]: [[u, v, value_to_json(w)] for (u, v), w in sorted(edges)]}


def _edge_list_from_json(obj, keys, what: str):
    """(names, {_pair(u, v): value}) of an edge list, else "not a <what>:";
    a pair given twice, in either orientation, must repeat its value.

    Above ENUMERATION_CAP pairs of names it raises InputTooLarge before
    any row is read: every command that reads one scans its triangles,
    O(n**3), and completion refuses such a graph anyway."""
    from .graph_metric import _pair
    value = _memo(value_from_json)
    try:
        names = [str(p) for p in obj[keys[0]]]
        _check_pairs(len(names), what)
        rows = obj[keys[1]]
        edges = {_pair(str(u), str(v)): value(w) for u, v, w in rows}
        if len(edges) < len(rows):      # a pair is repeated
            for u, v, w in rows:
                if edges[key := _pair(str(u), str(v))] != value(w):
                    raise ValueError(f"conflicting values for {key}")
    except InputTooLarge:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"not a {what}: {exc}") from exc
    return names, edges


def graph_to_json(g: GraphMetric) -> dict:
    return _edge_list_to_json(("vertices", "edges"), g.vertices, g.edges.items())


def graph_from_json(obj) -> GraphMetric:
    from .graph_metric import GraphMetric
    return GraphMetric(*_edge_list_from_json(obj, ("vertices", "edges"), "graph"))


def fragment_to_json(f: MetricFragment) -> dict:
    return _edge_list_to_json(("points", "dist"), f.points, f.pairs())


def fragment_from_json(obj) -> MetricFragment:
    from .graph_metric import MetricFragment
    return MetricFragment(*_edge_list_from_json(obj, ("points", "dist"),
                                                "fragment"))


def buildspec_to_json(spec: BuildSpec) -> dict:
    return {"radii": [{"r": value_to_json(c.r), "monoid": monoid_to_json(c.monoid)}
                      for c in spec.radii],
            "stages": spec.stages,
            "window": format_rat(spec.window),
            "denom_bound": spec.denom_bound,
            "seed": spec.seed}


def buildspec_from_json(obj, seed=None) -> BuildSpec:
    from .space_builder import BuildSpec, RadiusClass
    try:
        radii = [RadiusClass(value_from_json(c["r"]), monoid_from_json(c["monoid"]))
                 for c in obj["radii"]]
        spec = BuildSpec(radii=radii,
                         stages=_int_from(obj.get("stages", 1), "stages"),
                         window=_rat_from(obj.get("window", 5)),
                         denom_bound=_int_from(obj.get("denom_bound", 64),
                                               "denom_bound"),
                         seed=_int_from(obj["seed"] if seed is None
                                        else seed, "seed"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"not a build spec: {exc}") from exc
    return spec


def element_to_json(x: GroupElement) -> dict:
    return {"coeffs": {str(a): format_rat(c)
                       for a, c in sorted(x.coeffs.items())}}


def element_from_json(obj) -> GroupElement:
    from .banakh_group import GroupElement
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), dict):
        raise FormatError(f"not a group element: {obj!r}")
    try:
        coeffs = {_index_from(a): _rat_from(c)
                  for a, c in obj["coeffs"].items()}
    except (TypeError, ValueError) as exc:
        raise FormatError(f"not a group element: {exc}") from exc
    if any(a < 0 for a in coeffs):
        raise FormatError("coordinate indices must be non-negative")
    return GroupElement(coeffs)


def token_to_json(t: DistToken) -> dict:
    out = element_to_json(t.rep)
    out["sign_normalized"] = True
    return out


def token_from_json(obj) -> DistToken:
    from .banakh_group import DistToken
    return DistToken(element_from_json(obj))


# the types that JSON writes as they are
_LEAVES = frozenset((str, int, bool, float, type(None)))


def _plain(obj, memo=None):
    """The JSON form of nested dicts, lists and tuples of exact values.

    Each distinct :class:`SurdValue` or ``Fraction`` (equal values have
    equal forms, whatever their type) is formatted once per top-level call,
    through ``memo``; an irrational value's form is a fresh dict at each
    place, so the document shares no mutable part.  A leaf of a dict or a
    list is left in place without a call, and any other object as it is."""
    if memo is None:
        memo = {}
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _LEAVES else _plain(v, memo)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _LEAVES else _plain(v, memo) for v in obj]
    if not isinstance(obj, (SurdValue, Fraction)):
        return obj
    out = memo.get(obj)
    if out is None:
        out = memo[obj] = (value_to_json(obj) if isinstance(obj, SurdValue)
                           else format_ratio(obj.numerator, obj.denominator))
    if type(out) is dict:
        return {"rat": out["rat"], "surds": dict(out["surds"])}
    return out


def _center_rows(pairs) -> list:
    """The [center, value] rows ``_plain`` makes of (center, SurdValue)
    pairs; each value object is formatted once and its rows share the form,
    so the rows are fit only for writing out."""
    forms = {}
    rows = []
    for c, v in pairs:
        form = forms.get(id(v))
        if form is None:
            form = forms[id(v)] = value_to_json(v)
        rows.append([c, form])
    return rows


def certificate_to_json(cert: Certificate) -> dict:
    return _plain({"seed": cert.seed,
                   "stages": cert.stages,
                   "classes": cert.classes,
                   "realized_distances": cert.realized_distances,
                   "generic_values": cert.generic_values,
                   "spheres": cert.spheres,
                   "sphere_law_ok": cert.sphere_law_ok,
                   "growth_ok": cert.growth_ok})


def certificate_from_json(obj) -> Certificate:
    from .space_builder import Certificate
    value, unit = _memo(value_from_json), _memo(_rat_from)
    try:
        spheres = []
        for entry in obj["spheres"]:
            entry = dict(entry)
            entry["center"] = str(entry["center"])
            entry["members"] = [str(m) for m in entry["members"]]
            entry["radius"] = value(entry["radius"])
            entry["class"] = _int_from(entry["class"], "class")
            entry["unit"] = unit(entry["unit"])
            spheres.append(entry)
        classes = []
        for cls in obj["classes"]:
            cls = dict(cls)
            cls["r"] = value(cls["r"])
            cls["units_window"] = _rat_from(cls["units_window"])
            classes.append(cls)
        return Certificate(
            seed=_int_from(obj["seed"], "seed"),
            stages=obj["stages"],
            classes=classes,
            realized_distances=[value(v) for v in obj["realized_distances"]],
            generic_values=[value(v) for v in obj["generic_values"]],
            spheres=spheres,
            sphere_law_ok=obj["sphere_law_ok"],
            growth_ok=obj["growth_ok"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"not a certificate: {exc}") from exc
