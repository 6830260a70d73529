"""Command-line frontend: file-based workflows over the library modules.

Every subcommand is a thin adapter around one module operation.  Exit
codes are 0 for a true verdict / successful construction, 1 for a false
verdict with a machine-readable witness, and 2 for usage or format errors
(diagnostics on stderr).  A null geometric outcome (no such point, or a
sphere the fragment cannot supply) prints a ``null`` answer and exits 0
from ``gps``, ``orient`` and ``segment``, but 1 from ``line``, whose walk
stopped short of the points it was asked for.

Output has one path.  A handler returns ``(payload, exit code)`` and writes
nothing; ``main`` renders the payload inside its error mapping.  A payload
is a JSON value (canonical, or indented under ``--human``), finished text
(``mu --dot``, ``ddot --human``), or ``None`` when the handler has written
its one stderr line.  It goes to ``--out`` on exit 0 and to stdout
otherwise, so a failed ``extend`` or ``build`` prints its error object and
writes no file.  ``extend`` names an edge longer than a path (exit 2)
before completion runs, whose one failure is an exhausted budget (exit 1).

A run is a cold process, so it pays only for its command.  ``_COMMANDS``
is the one table of subcommands; ``main`` builds the subparser of the
command named first in ``argv``, or all of them for anything else (help,
no arguments, an unknown name), with the same usage line either way.  The
module imports at the top only the layers that parsing, the error mapping
and the monoid commands read (``values``, ``monoid_algebra``,
``serialize``).  A handler imports what it reads from the layers above at
the top of its own body, as ``serialize``'s readers do.  No layer imports
``dataclasses``, whose ``inspect`` chain would add about 6 ms to each cold
run.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .monoid_algebra import (CLOSURES, MonoidDesc, MonoidMembershipError,
                             ddot_set, dzik_reduce, is_floppy, is_half_group)
from .serialize import (FormatError, buildspec_from_json,
                        certificate_from_json, certificate_to_json, dumps,
                        element_from_json, element_to_json,
                        fragment_from_json, fragment_to_json, graph_from_json,
                        graph_to_json, token_to_json,
                        value_from_json, value_to_json, _center_rows, _plain)
from .values import format_rat, rat

__all__ = ["main"]


# ---------------------------------------------------------------------------
# small plumbing helpers
# ---------------------------------------------------------------------------


def _unique_keys(pairs) -> dict:
    """A JSON object; a repeated key is a format error, not its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = dict.fromkeys(obj, 0)      # keys in document order
        for k, _ in pairs:
            counts[k] += 1
        raise FormatError(f"repeated key {max(counts, key=counts.get)!r}")
    return obj


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _rat_list(text: str) -> list[Fraction]:
    try:
        return [rat(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise FormatError(f"bad rational list {text!r}: {exc}") from exc


def _parse_value(text: str):
    if text.lstrip().startswith("{"):
        text = json.loads(text, object_pairs_hook=_unique_keys)
    return value_from_json(text)


def _monoid_from_args(args) -> MonoidDesc:
    picked = [flag for flag in (args.gens, args.cone, args.monoid)
              if flag is not None]
    if len(picked) != 1:
        raise FormatError("give exactly one of --gens, --cone, --monoid")
    if args.gens is not None:
        return MonoidDesc.fingen(_rat_list(args.gens))
    if args.cone is not None:
        return MonoidDesc.groupcone(_rat_list(args.cone))
    if args.monoid not in CLOSURES:
        raise FormatError(f"unknown closure id {args.monoid!r}; "
                          "known: " + ", ".join(sorted(CLOSURES)))
    return MonoidDesc.closure(args.monoid)


def _fragment_oracle(path) -> FragmentOracle:
    """Sphere oracle over the fragment stored at ``path``; a ValueError
    unless the fragment is a metric that keeps the two-point-sphere law."""
    from .banakh_space import FragmentOracle, verify_fragment
    fragment = fragment_from_json(_load_json(path))
    report = verify_fragment(fragment)
    if not (report.metric_ok and report.banakh_consistent):
        raise ValueError("fragment fails verify: "
                         + dumps(_plain(report.violations[0])))
    return FragmentOracle(fragment)


def _dot_text(g: GraphMetric) -> str:
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for (u, v), w in sorted(g.edges.items()):
        lines.append(f'  "{u}" -- "{v}" [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit code) and writes nothing
# ---------------------------------------------------------------------------


def cmd_verify(args):
    from .banakh_space import verify_fragment
    report = verify_fragment(fragment_from_json(_load_json(args.fragment)))
    return ({"metric_ok": report.metric_ok,
             "banakh_consistent": report.banakh_consistent,
             "incomplete_spheres": _center_rows(report.incomplete_spheres),
             "violations": _plain(report.violations)},
            0 if report.metric_ok and report.banakh_consistent else 1)


def cmd_embed(args):
    from .banakh_space import embed_in_real_line
    result = embed_in_real_line(fragment_from_json(_load_json(args.fragment)))
    if result.embeddable:
        return {"embeddable": True,
                "coords": {p: value_to_json(c)
                           for p, c in result.coords.items()}}, 0
    return {"embeddable": False, "obstruction": list(result.obstruction)}, 1


def cmd_halfgroup(args):
    monoid = _monoid_from_args(args)
    bound = rat(args.bound) if args.bound else None
    verdict, witness = is_half_group(monoid, bound)
    if verdict is None:
        print("verdict inconclusive: raise --bound above the conductor",
              file=sys.stderr)
        return None, 2
    if verdict:
        return {"verdict": True}, 0
    a, b = witness
    return {"verdict": False,
            "witness": f"{format_rat(b - a)} = {format_rat(b)}-{format_rat(a)} not in M"}, 1


def cmd_floppy(args):
    verdict, witness = is_floppy(_monoid_from_args(args))
    payload = {"verdict": verdict}
    if witness is not None:
        payload["witness"] = format_rat(witness)
    return payload, 0 if verdict else 1


def cmd_ddot(args):
    values = ddot_set(_monoid_from_args(args), rat(args.window),
                      args.denom_bound)
    if args.human:
        return "{" + ", ".join(format_rat(v) for v in values) + "}\n", 0
    return {"ddot": [format_rat(v) for v in values]}, 0


def cmd_dzik(args):
    member = None
    if any(flag is not None for flag in (args.gens, args.cone, args.monoid)):
        member = _monoid_from_args(args).member
    try:
        result = dzik_reduce(args.a, args.b, args.p, member=member)
    except MonoidMembershipError as exc:
        return {"error": "membership", "element": exc.element}, 1
    return {"value": result.value,
            "trace": [list(pair) for pair in result.trace]}, 0


def cmd_mu(args):
    from .graph_metric import build_mu
    g = build_mu(_monoid_from_args(args), rat(args.r), rat(args.window),
                 args.denom_bound)
    return (_dot_text(g) if args.dot else graph_to_json(g)), 0


def cmd_extend(args):
    from .graph_metric import (ExtensionExhausted, ExtensionPolicy,
                               extend_to_full, validate_pseudometric)
    g = graph_from_json(_load_json(args.graph))
    # no completion exists when an edge is longer than a path: blame it
    ok, edge = validate_pseudometric(g)
    if not ok:
        raise ValueError(f"edge {edge} is longer than a path")
    try:
        result = extend_to_full(g, ExtensionPolicy(seed=args.seed,
                                                   max_backtracks=args.budget))
    except ExtensionExhausted as exc:
        return {"error": "extension-exhausted", "pair": list(exc.pair),
                "backtracks": exc.backtracks}, 1
    return {"graph": graph_to_json(result.full),
            "assignments": [[u, v, value_to_json(w)]
                            for (u, v), w in sorted(result.assignments.items())],
            "backtracks": result.backtracks}, 0


def cmd_line(args):
    from .banakh_space import NoSuchRadius, SphereDeficiency, discrete_line
    oracle = _fragment_oracle(args.fragment)
    try:
        return {"line": list(discrete_line(oracle, args.a, args.b, args.n))}, 0
    except (SphereDeficiency, NoSuchRadius) as exc:
        return {"line": None, "reason": str(exc)}, 1


def cmd_gps(args):
    from .banakh_space import BanakhLawViolation, gps_locate
    oracle = _fragment_oracle(args.fragment)
    try:
        return {"point": gps_locate(oracle, args.a, args.b,
                                    _parse_value(args.ra),
                                    _parse_value(args.rb))}, 0
    except BanakhLawViolation as exc:
        return {"error": "two-point-intersection", "detail": str(exc)}, 1


def cmd_orient(args):
    from .banakh_space import NoSuchRadius, SphereDeficiency, orientation
    oracle = _fragment_oracle(args.fragment)
    try:
        sense = orientation(oracle, args.origin, args.x, args.y)
        return {"orientation": sense.name.lower()}, 0
    except (SphereDeficiency, NoSuchRadius) as exc:
        return {"orientation": None, "reason": str(exc)}, 0


def cmd_segment(args):
    # never AmbiguityViolation on a verified fragment: two members of S(y, r)
    # at R = d(x,y) + r from x make S(x, R), 2R = 2r apart, so d(x,y) = 0
    from .banakh_space import NoSuchRadius, SphereDeficiency, segment_construct
    oracle = _fragment_oracle(args.fragment)
    try:
        return {"point": segment_construct(oracle, args.x, args.y,
                                           _parse_value(args.r))}, 0
    except (SphereDeficiency, NoSuchRadius) as exc:
        return {"point": None, "reason": str(exc)}, 0


def cmd_group(args):
    from .banakh_group import (DistToken, GroupOracle, dist_token,
                               h_norm_certificate, norm_equal,
                               solve_norm_equation)
    task = args.task
    if task == "dist":
        x = element_from_json(_load_json(args.paths[0]))
        y = element_from_json(_load_json(args.paths[1]))
        return token_to_json(dist_token(x, y)), 0
    if task == "sphere":
        c = element_from_json(_load_json(args.paths[0]))
        t = DistToken(element_from_json(_load_json(args.paths[1])))
        members = GroupOracle(args.lattice).sphere(c, t)
        return {"sphere": [element_to_json(m) for m in members]}, 0
    if task == "normeq":
        x = element_from_json(_load_json(args.paths[0]))
        y = element_from_json(_load_json(args.paths[1]))
        verdict = norm_equal(x, y)
        return {"norm_equal": verdict}, 0 if verdict else 1
    if task == "hnorm":
        cert = h_norm_certificate(element_from_json(_load_json(args.paths[0])))
        return _plain(cert), 0 if cert["holds"] else 1
    # "solve", the last of the parser's choices
    coeffs = _rat_list(args.coeffs or "")
    if len(coeffs) != 6:
        raise FormatError("--coeffs needs a1,a2,a3,b1,b2,b3")
    result = solve_norm_equation(*coeffs)
    return {"infinite": result.infinite,
            "solutions": [format_rat(t) for t in result.solutions]}, 0


def cmd_build(args):
    from .space_builder import BuildExhausted, SpecRejected, build
    try:
        fragment, cert = build(buildspec_from_json(_load_json(args.spec),
                                                   seed=args.seed))
    except BuildExhausted as exc:
        return {"error": "build-exhausted", "stage": exc.stage,
                "pair": _plain(exc.pair)}, 1
    except SpecRejected as exc:
        print(f"spec rejected: {exc}", file=sys.stderr)
        return None, 2
    return {"fragment": fragment_to_json(fragment),
            "certificate": certificate_to_json(cert)}, 0


def cmd_certify(args):
    from .space_builder import SpecRejected, verify_certificate
    doc = _load_json(args.fragment)
    if not isinstance(doc, dict) or "fragment" not in doc or "certificate" not in doc:
        raise FormatError("expected a build output with 'fragment' and 'certificate'")
    fragment = fragment_from_json(doc["fragment"])
    cert = certificate_from_json(doc["certificate"])
    spec_obj = _load_json(args.spec)
    if not isinstance(spec_obj, dict):
        raise FormatError("expected a build spec object")
    try:
        spec = buildspec_from_json(spec_obj,
                                   seed=spec_obj.get("seed", cert.seed))
        report = verify_certificate(fragment, spec, cert)
    except SpecRejected as exc:
        print(f"spec rejected: {exc}", file=sys.stderr)
        return None, 2
    return _plain(report), 0 if report["all_ok"] else 1


# ---------------------------------------------------------------------------
# parser: one table of the subcommands
# ---------------------------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


def _required(*flags, **options):
    return tuple(_arg(flag, required=True, **options) for flag in flags)


_MONOID = (
    _arg("--gens",
         help="comma-separated positive rationals (finitely generated)"),
    _arg("--cone", help="comma-separated generators "
                        "(group-cone: all non-negative combinations)"),
    _arg("--monoid",
         help="closure id, one of: " + ", ".join(sorted(CLOSURES))))
_WINDOW = (_arg("--window", required=True),
           _arg("--denom-bound", type=int, default=64, dest="denom_bound"))
_FRAGMENT, _OUT = _arg("fragment"), _arg("--out")

# name: (handler, help, arguments after --human)
_COMMANDS = {
    "verify": (cmd_verify, "check a fragment's metric and sphere axioms",
               (_FRAGMENT,)),
    "embed": (cmd_embed, "exact real-line embedding or an obstruction",
              (_FRAGMENT,)),
    "halfgroup": (cmd_halfgroup, "is ±M a group under addition?",
                  (*_MONOID, _arg("--bound", help="search cap (rational)"))),
    "floppy": (cmd_floppy, "floppiness verdict for a monoid", _MONOID),
    "ddot": (cmd_ddot, "two-term-indecomposable members up to a window",
             (*_MONOID, *_WINDOW)),
    "dzik": (cmd_dzik, "p-free gcd by the descending pair reduction",
             (*_required("--a", "--b", "--p", type=int), *_MONOID)),
    "mu": (cmd_mu, "windowed difference graph of a scaled monoid",
           (*_MONOID, _arg("--r", required=True, help="radius (rational)"),
            *_WINDOW, _OUT,
            _arg("--dot", action="store_true",
                 help="emit a DOT graph description instead of JSON"))),
    "extend": (cmd_extend, "complete a floppy graph to a full metric",
               (_arg("graph"), _arg("--seed", type=int, required=True),
                _arg("--budget", type=int, default=1000), _OUT)),
    "line": (cmd_line, "discrete line through two fragment points",
             (_FRAGMENT, *_required("--a", "--b"),
              _arg("-n", type=int, required=True))),
    "gps": (cmd_gps, "locate a point from two anchor distances",
            (_FRAGMENT, *_required("--a", "--ra", "--b", "--rb"))),
    "orient": (cmd_orient, "ray orientation of two points from an origin",
               (_FRAGMENT, *_required("--origin", "--x", "--y"))),
    "segment": (cmd_segment, "extend a segment beyond its endpoint",
                (_FRAGMENT, *_required("--x", "--y", "--r"))),
    "group": (cmd_group, "symbolic free-group geometry tasks",
              (_arg("task", choices=["dist", "sphere", "normeq", "hnorm",
                                     "solve"]),
               _arg("paths", nargs="*"),
               _arg("--lattice", choices=["H", "L"], default="L"),
               _arg("--coeffs", help="a1,a2,a3,b1,b2,b3 for solve"))),
    "build": (cmd_build, "run the staged fragment construction",
              (_arg("--spec", required=True),
               _arg("--seed", type=int, required=True), _OUT)),
    "certify": (cmd_certify, "re-verify a build output against its spec",
                (_FRAGMENT, _arg("spec"))),
}

def _build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named ``only``; its
    usage line names all of them either way."""
    parser = argparse.ArgumentParser(
        prog="banakh",
        description="Exact arithmetic for two-point-sphere metric geometry.")
    # the metavar is the one argparse writes for all the choices; given
    # always, it would rename the subcommand in "required" and "invalid
    # choice" errors, which only the full parser reports
    sub = parser.add_subparsers(
        dest="subcommand", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if only else None)
    for name in [only] if only else _COMMANDS:
        handler, help_text, arguments = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--human", action="store_true",
                        help="indented output instead of canonical JSON")
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
        sp.set_defaults(func=handler)
    return parser


def _write(payload, args, code: int) -> None:
    """The one writer of a handler's answer (see the module docstring)."""
    if not isinstance(payload, str):
        payload = (json.dumps(payload, sort_keys=True, indent=2)
                   if args.human else dumps(payload)) + "\n"
    path = getattr(args, "out", None) if code == 0 else None
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(only).parse_args(argv)
    try:
        payload, code = args.func(args)
        if payload is not None:
            _write(payload, args, code)
        return code
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, IndexError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # untraced: only `python -m banakh.cli` runs it, in the subprocess tests
    sys.exit(main())
