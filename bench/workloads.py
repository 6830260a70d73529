"""The benchmark's workloads: ``build``, ``query`` and ``cli``.

Each workload makes its inputs from the run's seed, times the library calls
a user of the toolkit makes, and checks every answer afterwards, outside the
timed part, against facts computed here without the library's bookkeeping
(positions on a line, plain integer arithmetic, coefficient dictionaries,
floats parsed from the canonical JSON).  The library only ever receives the
generated inputs.

Why these three (README.md has the longer version):

* ``build`` is the staged two-class build (radii 1 and sqrt 2 over the
  positive integers, window 2, two stages, 29 points).  Generic completion
  is about 99% of its time, so a faster completion engine shows here.
* ``query`` reads finished fragments and never completes anything in its
  timed part, so completion changes should leave it alone while sphere,
  group-element and monoid changes show.
* ``cli`` runs cold ``python -m banakh.cli`` processes one after another;
  it is the only workload where start-up cost (imports, argparse) shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

from timing import SpeedMeter, clock

BENCH_DIR = Path(__file__).resolve().parent
LAYER_MODULES = ("values", "monoid_algebra", "graph_metric", "banakh_space",
                 "banakh_group", "space_builder", "serialize", "cli")
CHILD_TIMEOUT_S = 60
INTERPRETER_S = 0.05    # cli times are scaled to this bare interpreter start


class LibraryMissing(RuntimeError):
    """The checkout holds no importable ``banakh`` package."""


class Library:
    """A fresh import of ``banakh`` from the checkout's ``src`` directory."""

    def __init__(self, src: Path):
        if not (src / "banakh" / "__init__.py").is_file():
            raise LibraryMissing(f"no banakh package under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        forget_library()
        importlib.invalidate_caches()
        self.src = src
        self.pkg = importlib.import_module("banakh")
        if Path(self.pkg.__file__).resolve().parent != (src / "banakh").resolve():
            raise LibraryMissing(f"banakh was imported from {self.pkg.__file__}")
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module("banakh." + name))

    def modules(self):
        return [self.pkg] + [getattr(self, name) for name in LAYER_MODULES]


def forget_library() -> None:
    """Drop every ``banakh`` module from ``sys.modules``."""
    for name in [m for m in sys.modules
                 if m == "banakh" or m.startswith("banakh.")]:
        del sys.modules[name]


def attempt(null_types, fn, args):
    """Run one library call: ("ok", value), ("null", exc) for a documented
    null answer, or ("error", exc).

    The exception is returned without its traceback: the traceback's frames
    reach the caller's list of answers, and that cycle would keep a whole
    round's answers alive until a full garbage collection, so that peak
    memory depended on when one happened.
    """
    try:
        return "ok", fn(*args)
    except null_types as exc:
        return "null", exc.with_traceback(None)
    except Exception as exc:  # any other error is a failed call
        return "error", exc.with_traceback(None)


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks
# ---------------------------------------------------------------------------


def p_free(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def brute_ddot(gens, window: int):
    """Members r <= window of the integer monoid <gens> that are not a sum
    of two nonzero members."""
    member = [False] * (window + 1)
    member[0] = True
    for k in range(1, window + 1):
        member[k] = any(g <= k and member[k - g] for g in gens)
    return [r for r in range(1, window + 1) if member[r]
            and not any(member[x] and member[r - x] for x in range(1, r))]


def json_float(obj) -> float:
    """A canonical JSON value ("p/q" or {"rat", "surds"}) as a float."""
    if isinstance(obj, str):
        return float(Fraction(obj))
    return float(Fraction(obj["rat"])) + sum(
        float(Fraction(c)) * math.sqrt(int(p)) for p, c in obj["surds"].items())


def fragment_floats_ok(doc) -> bool:
    """Positive distances and the triangle inequality, in floats with a
    relative slack far above rounding error."""
    points = doc["points"]
    d = {}
    for u, v, w in doc["dist"]:
        d[u, v] = d[v, u] = json_float(w)
    if len(d) != len(points) * (len(points) - 1):
        return False
    if min(d.values(), default=1.0) <= 0:
        return False
    for x, y, z in combinations(points, 3):
        a, b, c = d[x, y], d[y, z], d[x, z]
        slack = 1e-9 * (a + b + c)
        if a > b + c + slack or b > a + c + slack or c > a + b + slack:
            return False
    return True


def line_positions(pairs, name_pos):
    """True when every distance ((x, y), value) is |pos(x) - pos(y)|."""
    for (x, y), v in pairs:
        if not v.is_rational() or v.as_rational() != abs(name_pos[x] - name_pos[y]):
            return False
    return True


def coeff_add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


class InProcess:
    """A workload whose operations run in the benchmark's own process."""

    @contextlib.contextmanager
    def metered(self, src):
        """The meter of the timed part; afterwards, this process's peak RSS."""
        yield SpeedMeter(period=0.1)
        self.peak_rss_mb = own_peak_rss_mb()


class BuildWorkload(InProcess):
    """Two-class staged build, its certificate check and canonical JSON."""

    name = "build"
    setup_repeats = 40
    certify_repeats = 5
    sizes = {"full": {"window": 2, "stages": 2, "points": 29, "specs": 16},
             "tiny": {"window": "3/2", "stages": 2, "points": None, "specs": 2}}
    min_ops = 2

    def __init__(self, size="full"):
        self.p = self.sizes[size]
        # sha256 of the canonical JSON of spec seeds 0, 1, ..., for the
        # full size only
        self.digests = (json.loads((BENCH_DIR / "digests.json").read_text())
                        if size == "full" else None)

    def spec_seeds(self, seed):
        """seed, seed+1, ..., wrapped into the digest table, so that every
        build of the full size has a recorded digest whatever the run's
        seed; the first one is the build the traced run makes."""
        seeds = [seed + i for i in range(self.p["specs"])]
        if self.digests is None:
            return seeds
        return [s % len(self.digests) for s in seeds]

    def prepare(self, lib, seed):
        b = lib.space_builder
        v = lib.values
        zp = lib.monoid_algebra.MonoidDesc.fingen([1])
        radii = (b.RadiusClass(v.SurdValue(1), zp),
                 b.RadiusClass(v.SurdValue(0, {2: 1}), zp))
        return [b.BuildSpec(radii=radii, stages=self.p["stages"],
                            window=Fraction(self.p["window"]), seed=s)
                for s in self.spec_seeds(seed)]

    def cleanup(self, specs):
        pass

    def _op(self, lib, spec, out):
        """Build, re-verify the certificate (several times, because one
        check is short and noisy) and write the canonical JSON."""
        b, s = lib.space_builder, lib.serialize
        fragment, cert = out.time("op", b.build, spec)
        for _ in range(self.certify_repeats):
            report = out.time("certify", b.verify_certificate, fragment, spec,
                              cert)
        text = out.time("json", lambda: s.dumps({
            "fragment": s.fragment_to_json(fragment),
            "certificate": s.certificate_to_json(cert)}))
        out.ops += 2 + self.certify_repeats
        return report, text

    def measure(self, lib, specs, seconds, out):
        start = clock()
        for spec in specs:
            if clock() - start >= seconds and out.timed("op") >= self.min_ops:
                break
            self._check(lib, spec, *self._op(lib, spec, out), out)

    def trace_ops(self, lib, specs, out):
        """The build at the run's seed.  Its check reads the JSON back
        through the library, so it is returned to run after tracing."""
        report, text = self._op(lib, specs[0], out)
        return lambda: self._check(lib, specs[0], report, text, out)

    def _check(self, lib, spec, report, text, out):
        s = lib.serialize
        doc = json.loads(text)
        ok = report["all_ok"] is True and fragment_floats_ok(doc["fragment"])
        if self.p["points"] is not None:
            ok = ok and len(doc["fragment"]["points"]) == self.p["points"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests is not None:
            ok = ok and self.digests.get(str(spec.seed)) == digest
        again = s.dumps({
            "fragment": s.fragment_to_json(s.fragment_from_json(doc["fragment"])),
            "certificate": s.certificate_to_json(
                s.certificate_from_json(doc["certificate"]))})
        ok = ok and again == text
        out.record(ok, f"build seed {spec.seed}: sha256 {digest[:16]}")


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


class QueryWorkload(InProcess):
    """Read-only geometry, group and monoid calls on finished objects."""

    name = "query"
    setup_repeats = 5         # each set-up builds two fragments
    # The fragments are built at one spec seed in every run: the gap
    # closure's completion cost differs by 20% between seeds, which would
    # spread setup_s; the run's seed makes the stream of queries.
    fragment_seed = 5
    sizes = {"full": {"line_window": 20, "gap_window": 12, "hyper_window": 3,
                      "certify_every": 5, "trace_rounds": 5},
             "tiny": {"line_window": 6, "gap_window": 6, "hyper_window": 2,
                      "certify_every": 2, "trace_rounds": 2}}
    # The three families of query call, each one end-to-end concern.
    families = {"geometry": ("sphere", "gps", "line", "orient", "segment",
                             "hyper"),
                "group": ("group", "group_gps"),
                "monoid": ("monoid", "dzik")}
    # Calls per round, by kind: each family takes a third of the round time
    # and each kind an equal share of its family's, on the seed code, from
    # per-call times measured at query seeds 1-3 (README, "Query mix").  One
    # hypersphere_map (5.6 ms) sets the size of a kind's share.
    mix = {"sphere": 93, "gps": 46, "line": 17, "orient": 53, "segment": 56,
           "hyper": 1, "group": 170, "group_gps": 156, "monoid": 16,
           "dzik": 199}

    def __init__(self, size="full"):
        self.p = self.sizes[size]

    def prepare(self, lib, seed):
        b, s, v = lib.space_builder, lib.serialize, lib.values
        M = lib.monoid_algebra.MonoidDesc
        st = SimpleNamespace()
        st.rng = random.Random(f"query:{seed}")
        st.fragments = []
        for monoid, window in ((M.fingen([1]), self.p["line_window"]),
                               (M.closure("omega-minus-1"), self.p["gap_window"])):
            spec = b.BuildSpec(radii=(b.RadiusClass(v.SurdValue(1), monoid),),
                               stages=1, window=Fraction(window),
                               seed=self.fragment_seed)
            fragment, cert = b.build(spec)
            # users query objects they read back from a build file
            doc = json.loads(s.dumps({"fragment": s.fragment_to_json(fragment),
                                      "certificate": s.certificate_to_json(cert)}))
            st.fragments.append((s.fragment_from_json(doc["fragment"]), spec,
                                 s.certificate_from_json(doc["certificate"])))
        st.line, st.gap = st.fragments[0][0], st.fragments[1][0]
        st.pos = {p: int(p[1:]) for p in st.line.points}
        st.gap_pos = {p: int(p[1:]) for p in st.gap.points}
        st.name = {k: p for p, k in st.pos.items()}
        st.oracle = lib.banakh_space.FragmentOracle(st.line)
        st.gap_oracle = lib.banakh_space.FragmentOracle(st.gap)
        G = lib.banakh_group
        st.group = G.GroupOracle("L")
        st.elems = [G.GroupElement(dict(zip((0, 1, 2), c)))
                    for c in product(range(-3, 4), repeat=3)]
        st.hyper_monoid = M.fingen([1, Fraction(3, 2)])
        st.spent = Counter()     # wall time of the timed calls, by kind
        return st

    def cleanup(self, st):
        pass

    # -- one round of calls ---------------------------------------------------

    def make_round(self, lib, st):
        """(kind, callable, args, facts for the check) for one round."""
        rng, pos, name = st.rng, st.pos, st.name
        S = lib.banakh_space
        V = lib.values.SurdValue
        M = lib.monoid_algebra
        G = lib.banakh_group
        W = self.p["line_window"]
        pts = st.line.points
        calls = []
        for _ in range(self.mix["sphere"]):
            c, k = rng.choice(pts), rng.randint(1, W + 4)
            calls.append(("sphere", st.oracle.sphere, (c, V(k)), (c, k)))
        for _ in range(self.mix["gps"]):
            a, b_, z = rng.sample(pts, 3)
            calls.append(("gps", S.gps_locate,
                          (st.oracle, a, b_, V(abs(pos[a] - pos[z])),
                           V(abs(pos[b_] - pos[z]))), z))
        for _ in range(self.mix["line"]):
            step = rng.choice((-3, -2, -1, 1, 2, 3))
            a = rng.randint(-W + 3, W - 3)
            n = rng.randint(1, 6)
            calls.append(("line", S.discrete_line,
                          (st.oracle, name[a], name[a + step], n), (a, step, n)))
        for _ in range(self.mix["orient"]):
            o = rng.randint(-W // 2, W // 2)
            dx, dy = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
            calls.append(("orient", S.orientation,
                          (st.oracle, name[o], name[o + dx], name[o + dy]),
                          (o, dx, dy)))
        for _ in range(self.mix["segment"]):
            x = rng.randint(-W, W)
            y = rng.choice([k for k in range(-W, W + 1) if k != x])
            r = rng.randint(1, 6)
            calls.append(("segment", S.segment_construct,
                          (st.oracle, name[x], name[y], V(r)), (x, y, r)))
        for _ in range(self.mix["hyper"]):
            calls.append(("hyper", S.hypersphere_map,
                          (st.gap_oracle, "a0", "a2", self.p["hyper_window"],
                           64, st.hyper_monoid), None))
        go = st.group
        for _ in range(self.mix["group"]):
            c, x = rng.sample(st.elems, 2)
            calls.append(("group", self._group_op, (go, G, c, x), (c, x)))
        for _ in range(self.mix["group_gps"]):
            a, b_, z = rng.sample(st.elems, 3)
            calls.append(("group_gps", S.gps_locate,
                          (go, a, b_, go.dist(a, z), go.dist(b_, z)), z))
        for _ in range(self.mix["monoid"]):
            gens = sorted({rng.randint(1, 30) for _ in range(rng.randint(1, 4))})
            calls.append(("monoid", self._monoid_op, (M, gens), gens))
        for _ in range(self.mix["dzik"]):
            a, b_, p = rng.randint(1, 2000), rng.randint(1, 2000), rng.choice((2, 3, 5))
            calls.append(("dzik", M.dzik_reduce, (a, b_, p), (a, b_, p)))
        rng.shuffle(calls)
        return calls

    @staticmethod
    def _group_op(go, G, c, x):
        t = go.dist(c, x)
        return t, go.sphere(c, t), G.norm_equal(c, x)

    @staticmethod
    def _monoid_op(M, gens):
        m = M.MonoidDesc.fingen(gens)
        return (M.is_half_group(m)[0], M.is_p_divisible_in(m, 2).kind,
                M.is_p_divisible_in(m, 3).kind, M.ddot_set(m, 30))

    @staticmethod
    def _run_calls(calls, null, spent):
        """Answer every call, adding each call's wall time to its kind."""
        answers = []
        for kind, fn, args, _ in calls:
            t0 = clock()
            answers.append(attempt(null, fn, args))
            spent[kind] += clock() - t0
        return answers

    def _round(self, lib, st, out):
        calls = self.make_round(lib, st)
        null = (lib.banakh_space.SphereDeficiency, lib.banakh_space.NoSuchRadius)
        answers = out.time("op", self._run_calls, calls, null, st.spent)
        out.ops += len(calls)
        for (kind, _, _, facts), (status, value) in zip(calls, answers):
            if status == "null":
                out.nulls += 1
            ok = status != "error" and self._check(kind, st, facts, status,
                                                   value)
            out.record(ok, (kind, facts, status, value))

    def _certify(self, lib, st, out):
        B, S = lib.space_builder, lib.banakh_space
        reports = out.time("certify", lambda: [
            (S.verify_fragment(f), B.verify_certificate(f, spec, cert))
            for f, spec, cert in st.fragments])
        out.ops += 2 * len(reports)
        for fr, cr in reports:
            out.record(fr.metric_ok and fr.banakh_consistent, "verify_fragment")
            out.record(cr["all_ok"] is True, "verify_certificate")

    def measure(self, lib, st, seconds, out):
        self._check_fixture(st, out)
        start = clock()
        rounds = 0
        while clock() - start < seconds or not out.timed("certify"):
            self._round(lib, st, out)
            rounds += 1
            if rounds % self.p["certify_every"] == 0:
                self._certify(lib, st, out)
        out.notes += self.shares(st.spent)

    @classmethod
    def shares(cls, spent):
        """Report lines: each family's and each kind's share of round time."""
        total = sum(spent.values()) or 1.0
        return [f"round time of {family}: {sum(spent[k] for k in kinds) / total:.1%} ("
                + ", ".join(f"{k} {spent[k] / total:.1%}" for k in kinds) + ")"
                for family, kinds in cls.families.items()]

    def trace_ops(self, lib, st, out):
        self._check_fixture(st, out)
        for _ in range(self.p["trace_rounds"]):
            self._round(lib, st, out)
        self._certify(lib, st, out)

    # -- checks -------------------------------------------------------------

    def _check_fixture(self, st, out):
        W, G = self.p["line_window"], self.p["gap_window"]
        out.record(sorted(st.pos.values()) == list(range(-W, W + 1))
                   and line_positions(st.line.pairs(), st.pos), "line fixture")
        # pairs one apart hold generic values; all others are exact
        far = [(pair, v) for pair, v in st.gap.pairs()
               if abs(st.gap_pos[pair[0]] - st.gap_pos[pair[1]]) > 1]
        out.record(sorted(st.gap_pos.values()) == list(range(-G, G + 1))
                   and line_positions(far, st.gap_pos), "gap fixture")

    def _check(self, kind, st, facts, status, value):
        pos, W = st.pos, self.p["line_window"]
        inside = range(-W, W + 1)
        if kind == "sphere":
            c, k = facts
            want = {p for p in pos if abs(pos[p] - pos[c]) == k}
            return status == "ok" and set(value) == want
        if kind == "gps" or kind == "group_gps":
            return status == "ok" and value == facts
        if kind == "line":
            a, step, n = facts
            fits = all(a + i * step in inside for i in range(-n, n + 1))
            if not fits:
                return status == "null"
            return (status == "ok" and len(value) == 2 * n + 1
                    and [pos[p] for p in value]
                    == [a + i * step for i in range(-n, n + 1)])
        if kind == "orient":
            o, dx, dy = facts
            g = math.gcd(abs(dx), abs(dy))
            num, den = abs(dx) // g, abs(dy) // g     # |dx|/|dy| = num/den
            if o + den * dx not in inside or o + num * dy not in inside:
                return status == "null"
            want = "PARALLEL" if (dx > 0) == (dy > 0) else "ANTIPARALLEL"
            return status == "ok" and value.name == want
        if kind == "segment":
            x, y, r = facts
            z = y + r if y > x else y - r
            if z not in inside:
                return status == "null"
            return status == "ok" and pos[value] == z
        if kind == "hyper":
            mapping, rep = value
            w = self.p["hyper_window"]
            halves = [Fraction(k, 2) for k in range(-2 * w, 2 * w + 1)]
            # offsets whose construction leaves the fragment are skipped
            skipped = [t for t, _ in rep.skipped]
            return (status == "ok" and sorted([*mapping, *skipped]) == halves
                    and {0, 1} <= set(mapping)
                    and all(st.gap_pos[p] == 2 * t for t, p in mapping.items())
                    and all(e["lower_ok"] and e["upper_ok"]
                            and e["equivalence_ok"] for e in rep.pairs))
        if kind == "group":
            c, x = facts
            t, members, same = value
            d = coeff_add(x.coeffs, c.coeffs, -1)
            want = [coeff_add(c.coeffs, d), coeff_add(c.coeffs, d, -1)]
            got = [m.coeffs for m in members]
            neg_c = {k: -v for k, v in c.coeffs.items()}
            return (len(got) == 2 and all(m in want for m in got)
                    and got[0] != got[1]
                    and t.rep.coeffs in (d, {k: -v for k, v in d.items()})
                    and same == (x.coeffs in (c.coeffs, neg_c)))
        if kind == "monoid":
            gens = facts
            half, d2, d3, ddot = value
            truth = all(g % gens[0] == 0 for g in gens)
            return (half is truth and (d2 == "divisible") is truth
                    and (d3 == "divisible") is truth
                    and ddot == brute_ddot(gens, 30))
        if kind == "dzik":
            a, b, p = facts
            return value.value == p_free(math.gcd(a, b), p)
        raise ValueError(f"unknown call kind {kind!r}")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class CliWorkload:
    """Cold ``python -m banakh.cli`` processes, one after another."""

    name = "cli"
    setup_repeats = 40
    certify_repeats = 3       # one cold certify per cycle is too few samples
    sizes = {"full": {"trace_cycles": 3}, "tiny": {"trace_cycles": 1}}

    def __init__(self, size="full"):
        self.p = self.sizes[size]
        self._dirs = 0

    @contextlib.contextmanager
    def metered(self, src):
        """Start the launcher of the cold processes, before this process
        imports the library, and yield the meter of the timed part;
        afterwards, the largest peak RSS of the cold processes."""
        # A CLI process is mostly process start-up, which does not follow
        # the in-process reference: over 100 s, blocks of ten cold
        # `halfgroup` runs took 66-112 ms and the reference 5.4-10.2 ms,
        # their ratio varying by 25%, while the ratio to a bare interpreter
        # start (38-63 ms) stayed within 1.73-1.93.
        with Launcher(src) as launcher:
            self.launcher = launcher
            yield SpeedMeter(launcher.interpreter_start, INTERPRETER_S)
            self.peak_rss_mb = launcher.peak_rss_mb()

    def prepare(self, lib, seed):
        """Write the command inputs to a fresh work directory."""
        s, b, v = lib.serialize, lib.space_builder, lib.values
        M = lib.monoid_algebra.MonoidDesc
        st = SimpleNamespace()
        rng = random.Random(f"cli:{seed}")
        self._dirs += 1
        work = lib.src.parent / ".bench_work" / f"cli-{os.getpid()}-{self._dirs}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        st.work = work

        def write(name, obj):
            path = work / name
            path.write_text(obj if isinstance(obj, str) else s.dumps(obj))
            return str(path)

        spec_obj = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                                    "generators": ["1"]}}],
                    "stages": 1, "window": "5", "denom_bound": 64}
        build_seed = rng.randint(0, 10**6)
        spec = b.BuildSpec(radii=(b.RadiusClass(v.SurdValue(1), M.fingen([1])),),
                           stages=1, window=Fraction(5), seed=build_seed)
        fragment, cert = b.build(spec)
        built = s.dumps({"fragment": s.fragment_to_json(fragment),
                         "certificate": s.certificate_to_json(cert)}) + "\n"
        st.built_text = built
        paths = {
            "spec": write("spec.json", spec_obj),
            "built": write("built.json", built),
            "line": write("line.json", s.fragment_to_json(fragment)),
        }
        mu_gens = rng.choice(([2, 3], [3, 5], [3, 4], [2, 5]))
        st.mu_text = s.dumps(s.graph_to_json(
            lib.graph_metric.build_mu(M.fingen(mu_gens), 1, 5))) + "\n"
        paths["mu"] = write("mu.json", st.mu_text)
        x = {rng.randint(0, 3): rng.randint(-5, 5) or 1 for _ in range(3)}
        y = x
        while y == x:
            y = {rng.randint(0, 3): rng.randint(-5, 5) or 1 for _ in range(3)}
        paths["x"] = write("x.json", {"coeffs": {str(k): str(c) for k, c in x.items()}})
        paths["y"] = write("y.json", {"coeffs": {str(k): str(c) for k, c in y.items()}})
        st.x, st.y = x, y

        gens = sorted({rng.randint(1, 30) for _ in range(rng.randint(1, 4))})
        g = ",".join(map(str, gens))
        window = rng.randint(10, 30)
        a, b_, p = rng.randint(1, 2000), rng.randint(1, 2000), rng.choice((2, 3, 5))
        la = rng.randint(-3, 3)
        lstep = rng.choice((-2, -1, 1, 2))
        ln = rng.randint(1, 4)
        o = rng.randint(-1, 1)
        dx, dy = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        st.facts = {"gens": gens, "window": window, "dzik": (a, b_, p),
                    "line": (la, lstep, ln), "orient": (o, dx, dy)}
        st.script = [
            ["halfgroup", "--gens", g],
            ["floppy", "--gens", g],
            ["ddot", "--gens", g, "--window", str(window)],
            ["dzik", "--a", str(a), "--b", str(b_), "--p", str(p)],
            ["mu", "--gens", ",".join(map(str, mu_gens)), "--r", "1",
             "--window", "5"],
            ["extend", paths["mu"], "--seed", str(build_seed)],
            ["build", "--spec", paths["spec"], "--seed", str(build_seed)],
            ["certify", paths["built"], paths["spec"]],
            ["verify", paths["line"]],
            ["line", paths["line"], "--a", f"a{la}", "--b", f"a{la + lstep}",
             "-n", str(ln)],
            ["orient", paths["line"], "--origin", f"a{o}", "--x", f"a{o + dx}",
             "--y", f"a{o + dy}"],
            ["group", "dist", paths["x"], paths["y"]],
        ]
        return st

    def cleanup(self, st):
        shutil.rmtree(st.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            st.work.parent.rmdir()

    # -- expected answers ---------------------------------------------------

    def _in_process(self, lib, argv):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return code, buf.getvalue()

    def expected(self, lib, st, out):
        """In-process answers, each checked against independent facts; the
        cold processes must then reproduce them byte for byte."""
        st.expect = [self._in_process(lib, argv) for argv in st.script]
        for argv, (code, text) in zip(st.script, st.expect):
            out.record(self._check(st, argv[0], code, text),
                       ("in-process", argv, code, text[:200]))

    def _check(self, st, cmd, code, text):
        f = st.facts
        try:
            doc = json.loads(text)
        except ValueError:
            return False
        gens = f["gens"]
        if cmd == "halfgroup":
            truth = all(g % gens[0] == 0 for g in gens)
            return doc["verdict"] is truth and code == (0 if truth else 1)
        if cmd == "floppy":
            return code == 0 and doc == {"verdict": True}
        if cmd == "ddot":
            return code == 0 and doc["ddot"] == [
                str(r) for r in brute_ddot(gens, f["window"])]
        if cmd == "dzik":
            a, b, p = f["dzik"]
            return code == 0 and doc["value"] == p_free(math.gcd(a, b), p)
        if cmd == "mu":
            return code == 0 and text == st.mu_text
        if cmd == "extend":
            n = len(doc["graph"]["vertices"])
            return code == 0 and len(doc["graph"]["edges"]) == n * (n - 1) // 2
        if cmd == "build":
            return code == 0 and text == st.built_text
        if cmd == "certify":
            return code == 0 and doc["all_ok"] is True
        if cmd == "verify":
            return code == 0 and doc["metric_ok"] and doc["banakh_consistent"]
        if cmd == "line":
            a, step, n = f["line"]
            want = [a + i * step for i in range(-n, n + 1)]
            if all(-5 <= k <= 5 for k in want):
                return code == 0 and doc["line"] == [f"a{k}" for k in want]
            return code == 1 and doc["line"] is None
        if cmd == "orient":
            o, dx, dy = f["orient"]
            want = "parallel" if (dx > 0) == (dy > 0) else "antiparallel"
            return code == 0 and doc == {"orientation": want}
        if cmd == "group":
            d = coeff_add(st.y, st.x, -1)
            first = min(d)
            if d[first] < 0:
                d = {k: -c for k, c in d.items()}
            return code == 0 and doc["coeffs"] == {str(k): str(c)
                                                   for k, c in sorted(d.items())}
        return False

    # -- timed parts ----------------------------------------------------------

    def measure(self, lib, st, seconds, out):
        self.expected(lib, st, out)
        start = clock()
        while clock() - start < seconds or not out.timed("certify"):
            for argv, (code, text) in zip(st.script, st.expect):
                runs = [("op", "certify")] + ["certify"] * (
                    self.certify_repeats - 1) if argv[0] == "certify" else ["op"]
                for keys in runs:
                    reply = out.time(keys, self.launcher.run,
                                     [sys.executable, "-m", "banakh.cli", *argv])
                    out.ops += 1
                    out.record(reply["code"] == code and reply["stdout"] == text,
                               ("cold", argv, reply["code"], reply["stderr"][-300:]))

    def trace_ops(self, lib, st, out):
        for _ in range(self.p["trace_cycles"]):
            answers = out.time("op", lambda: [self._in_process(lib, argv)
                                              for argv in st.script])
            out.ops += len(answers)
            for argv, (code, text) in zip(st.script, answers):
                if argv[0] == "line" and code == 1:
                    out.nulls += 1
                out.record(self._check(st, argv[0], code, text),
                           ("in-process", argv, code, text[:200]))


def child_env(src: Path) -> dict:
    """This process's environment, importing banakh from src, with bytecode
    caching on (see write_bytecode)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def write_bytecode() -> None:
    """Let imports write ``__pycache__`` inside the checkout, whatever the
    environment says: otherwise a fresh checkout compiles every module from
    source in every process, and cold CLI runs measured 40% slower."""
    sys.dont_write_bytecode = False


def _child(src: Path, code: str) -> subprocess.CompletedProcess:
    """Run code in a cold interpreter that imports banakh from src."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(src),
                          cwd=src.parent, check=True, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def interpreter_start(src: Path) -> float:
    """Wall time of one bare interpreter start."""
    t0 = clock()
    _child(src, "pass")
    return clock() - t0


_TIMED_IMPORT = ("import time; t = time.perf_counter(); import banakh.cli; "
                 "print(time.perf_counter() - t)")


def startup_probes(src: Path, repeats: int):
    """Median wall time of a bare interpreter start, and median time of
    ``import banakh.cli`` as measured inside a cold interpreter; one
    process at a time."""
    interpreter = statistics.median(
        interpreter_start(src) for _ in range(repeats))
    imported = statistics.median(
        float(_child(src, _TIMED_IMPORT).stdout) for _ in range(repeats))
    return interpreter, imported


class Launcher:
    """The cli workload's cold processes, started by ``launcher.py``.

    Linux counts the memory of the process that starts a child in the
    child's peak RSS (exec keeps the high-water mark of the address space it
    replaces), and this process holds the library and its inputs: started
    from here, every cold ``banakh.cli`` process reported this process's
    30 MB, where on its own one peaks at 16 MB.  The launcher imports only
    the standard library, so its children's peak RSS is their own.  The
    reference (a bare interpreter start) goes through it too, so that the
    operations and the reference pay the same round trip.
    """

    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")], cwd=src.parent,
            env=child_env(src), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False

    def _ask(self, argv: list) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher of the cold processes ended")
        return json.loads(line)

    def run(self, argv) -> dict:
        """Run one process: {"code", "stdout", "stderr"}."""
        return self._ask([str(a) for a in argv])

    def interpreter_start(self) -> float:
        """Wall time of one bare interpreter start."""
        t0 = clock()
        reply = self._ask([sys.executable, "-c", "pass"])
        elapsed = clock() - t0
        if reply["code"] != 0:
            raise RuntimeError(f"bare interpreter failed: {reply['stderr']}")
        return elapsed

    def peak_rss_mb(self) -> float:
        return self._ask([])["peak_rss_mb"]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (BuildWorkload, QueryWorkload, CliWorkload)}
