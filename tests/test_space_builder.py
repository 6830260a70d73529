import hashlib
import json
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from banakh import space_builder
from banakh.banakh_group import NormEquationResult
from banakh.banakh_space import EmbedResult, MetricFragment
from banakh.graph_metric import ExtensionExhausted, ExtensionPolicy, GraphMetric
from banakh.monoid_algebra import MonoidDesc
from banakh.serialize import (buildspec_from_json, buildspec_to_json,
                              certificate_from_json, certificate_to_json,
                              dumps, fragment_from_json, fragment_to_json)
from banakh.space_builder import (RadiusClass, BuildSpec, Certificate,
                                  SpecRejected, BuildExhausted, build,
                                  verify_certificate, _STAGE_CAP)
from banakh.values import InputTooLarge, SurdValue

ZP = MonoidDesc.fingen([1])
OMEGA = MonoidDesc.closure("omega-minus-1")
SQRT2 = SurdValue(0, {2: 1})
SQRT3 = SurdValue(0, {3: 1})
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def zp_spec(window=5, seed=1, stages=1):
    return BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),),
                     stages=stages, window=Fraction(window), seed=seed)


# -- request validation -------------------------------------------------------------


def test_spec_rejects_bad_shapes():
    unit = (RadiusClass(SurdValue(1), ZP),)
    with pytest.raises(SpecRejected):
        BuildSpec(radii=unit, stages=0)
    with pytest.raises(SpecRejected):
        BuildSpec(radii=unit, window=Fraction(0))
    with pytest.raises(SpecRejected):
        BuildSpec(radii=(RadiusClass(SurdValue(-1), ZP),))


def test_spec_refuses_a_stage_count_above_the_cap():
    unit = (RadiusClass(SurdValue(1), ZP),)
    with pytest.raises(InputTooLarge,
                       match=f"{_STAGE_CAP + 1} stages, above the cap of "
                             f"{_STAGE_CAP}"):
        BuildSpec(radii=unit, stages=_STAGE_CAP + 1)
    # the cap's argument: the one-class window-2 build grows at stage 1
    # only, and every later stage repeats it
    few, _ = build(zp_spec(window=2, stages=2))
    many, cert = build(zp_spec(window=2, stages=_STAGE_CAP))
    assert many.edges == few.edges
    assert len(cert.stages) == _STAGE_CAP and cert.stages[1]["new_vertices"]
    assert all(e["copies"] == 0 and e["new_vertices"] == 0
               for e in cert.stages[2:])


def test_spec_rejects_non_floppy_value_monoid():
    dpt = MonoidDesc.closure("dyadic-plus-thirds")
    with pytest.raises(SpecRejected, match="not floppy"):
        BuildSpec(radii=(RadiusClass(SurdValue(1), dpt),))


def test_spec_rejects_mixed_surd_radius():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1, {2: 1}), ZP),))
    with pytest.raises(SpecRejected):
        build(spec)


def test_spec_rejects_window_below_one_step():
    with pytest.raises(SpecRejected, match="window"):
        build(zp_spec(window=Fraction(1, 2)))


def test_only_a_staged_build_makes_copy_templates(monkeypatch):
    made = []

    class Counted(space_builder.MuGraph):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(space_builder, "MuGraph", Counted)
    radii = (RadiusClass(SurdValue(1), ZP), RadiusClass(SQRT2, ZP))
    build(BuildSpec(radii=radii, stages=1, window=Fraction(2), seed=5))
    assert len(made) == 1       # the base of stage 0
    made.clear()
    build(BuildSpec(radii=radii, stages=2, window=Fraction(2), seed=5))
    assert len(made) == 3       # and one template per class


def test_canonical_classes_dedupes_rescalings():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SurdValue(2),
                                        MonoidDesc.fingen([Fraction(1, 2)]))),
                     window=Fraction(3))
    assert len(spec.canonical_classes()) == 1


def test_canonical_classes_rejects_incompatible_rational_pair():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SurdValue(2), ZP)),
                     window=Fraction(3))
    with pytest.raises(SpecRejected, match="rationally related"):
        spec.canonical_classes()


def test_canonical_classes_keeps_incommensurable_radii():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     window=Fraction(2))
    assert len(spec.canonical_classes()) == 2


def test_exception_taxonomy():
    assert issubclass(SpecRejected, ValueError)
    assert issubclass(BuildExhausted, RuntimeError)


# -- the records ---------------------------------------------------------------------


def test_spec_takes_keywords_or_positions_and_normalises_its_fields():
    unit = RadiusClass(SurdValue(1), ZP)
    spec = BuildSpec(radii=[unit], stages=2, window="3/2", denom_bound=32,
                     seed=7)
    assert spec == BuildSpec([unit], 2, "3/2", 32, 7)
    assert type(spec.radii) is tuple and spec.radii == (unit,)
    assert type(spec.window) is Fraction and spec.window == Fraction(3, 2)
    whole = BuildSpec([unit], window=2)
    assert type(whole.window) is Fraction and whole.window == 2
    default = BuildSpec([unit])
    assert (default.stages, default.window, default.denom_bound,
            default.seed) == (1, Fraction(5), 64, 0)


@pytest.mark.parametrize("fields, error, message", [
    ({"stages": 0}, SpecRejected, "stages must be at least 1"),
    ({"stages": _STAGE_CAP + 1}, InputTooLarge,
     f"the build would run {_STAGE_CAP + 1} stages, above the cap of "
     f"{_STAGE_CAP}"),
    ({"window": 0}, SpecRejected, "window must be positive"),
    ({"radii": [RadiusClass(SurdValue(-1), ZP)]}, SpecRejected,
     "radii must be positive"),
    ({"radii": [RadiusClass(SurdValue(1),
                            MonoidDesc.closure("dyadic-plus-thirds"))]},
     SpecRejected, "monoid of radius 1 is not floppy (witness 1/3)"),
    # the checks run in this order: stages, window, then each radius
    ({"stages": 0, "window": 0}, SpecRejected, "stages must be at least 1"),
    ({"window": 0, "radii": [RadiusClass(SurdValue(-1), ZP)]}, SpecRejected,
     "window must be positive")],
    ids=["stages-0", "stages-above-cap", "window-0", "radius-negative",
         "not-floppy", "stages-first", "window-before-radii"])
def test_spec_refuses_a_bad_request_with_its_message(fields, error, message):
    with pytest.raises(error) as exc:
        BuildSpec(**{"radii": [RadiusClass(SurdValue(1), ZP)], **fields})
    assert type(exc.value) is error and str(exc.value) == message


def test_spec_compares_by_fields_is_unhashable_and_keeps_its_repr():
    spec = BuildSpec((RadiusClass(SurdValue(1), ZP),), stages=2,
                     window=Fraction(3, 2), seed=7)
    assert spec == BuildSpec([RadiusClass(SurdValue(1), ZP)], 2, "3/2", 64, 7)
    assert spec != BuildSpec(spec.radii, 2, "3/2", 64, 8)
    assert spec != (spec.radii, 2, Fraction(3, 2), 64, 7)
    with pytest.raises(TypeError):
        hash(spec)
    assert repr(spec) == (
        "BuildSpec(radii=(RadiusClass(r=1, monoid=MonoidDesc(fingen <1>)),), "
        "stages=2, window=Fraction(3, 2), denom_bound=64, seed=7)")
    assert buildspec_from_json(buildspec_to_json(spec)) == spec


def test_the_result_records_keep_their_defaults():
    policy = ExtensionPolicy(5)
    assert policy.max_backtracks == 1000 and policy.dense_family is None
    cert = Certificate(0, [], [], [], [], [])
    assert cert.sphere_law_ok is True and cert.growth_ok is True
    assert EmbedResult().embeddable is False
    assert EmbedResult(coords={"a": Fraction(0)}).embeddable is True
    assert NormEquationResult(True, ()).count == "infinite"
    assert NormEquationResult(False, (Fraction(1), Fraction(2))).count == 2


# -- degenerate and single-class builds ------------------------------------------------


def test_empty_radius_list_builds_a_single_point():
    spec = BuildSpec(radii=())
    frag, cert = build(spec)
    assert frag.points == ("a0",)
    assert cert.realized_distances == [] and cert.stages == []
    report = verify_certificate(frag, spec, cert)
    assert report["stages_ok"] and report["all_ok"]
    forged = cert._replace(stages=[{"stage": 0, "new_vertices": 1}])
    assert not verify_certificate(frag, spec, forged)["stages_ok"]


def test_unit_line_build():
    frag, cert = build(zp_spec())
    assert len(frag.points) == 11
    assert cert.generic_values == []  # nothing generic about a line of integers
    # the distance multiset is exactly that of {-5..5} on the real line
    counts = Counter(v for _, v in frag.pairs())
    assert all(counts[SurdValue(k)] == 11 - k for k in range(1, 11))
    assert cert.sphere_law_ok and cert.growth_ok
    report = verify_certificate(frag, zp_spec(), cert)
    assert report["all_ok"], report


def test_unit_line_sphere_ledger_contents():
    frag, cert = build(zp_spec())
    assert cert.spheres and all(e["diameter_ok"] for e in cert.spheres
                                if e["complete"])
    # the window's interior spheres are complete, the boundary ones are not
    assert any(e["complete"] for e in cert.spheres)
    assert any(not e["complete"] for e in cert.spheres)
    deficient = [e for e in cert.spheres if not e["complete"]]
    assert all(len(e["members"]) == 1 for e in deficient)


def test_build_is_deterministic_per_seed():
    def run(seed):
        spec = BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
                         stages=1, window=Fraction(7), seed=seed)
        return build(spec)

    f_a, c_a = run(3)
    f_b, c_b = run(3)
    assert sorted(f_a.pairs()) == sorted(f_b.pairs())
    assert c_a.generic_values == c_b.generic_values
    _, c_other = run(4)
    assert c_a.generic_values != c_other.generic_values


def test_generic_gap_build_verifies():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
                     stages=1, window=Fraction(7), seed=3)
    frag, cert = build(spec)
    assert len(frag.points) == 15
    assert len(cert.generic_values) == 14
    # generic values are genuinely new distances, irrational by construction
    assert all(not v.is_rational() for v in cert.generic_values)
    report = verify_certificate(frag, spec, cert)
    assert report["all_ok"], report
    assert cert.stages[0]["new_vertices"] == 15


def test_incommensurable_two_class_build():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     stages=2, window=Fraction(2), seed=5)
    frag, cert = build(spec)
    assert len(frag.points) == 29
    assert len(cert.stages) == 2
    second = cert.stages[1]
    assert second["copies"] >= 1 and second["union_certified"]
    assert second["new_vertices"] > 0
    report = verify_certificate(frag, spec, cert)
    assert report["all_ok"], report
    # both classes keep their own realized windows
    realized = set(cert.realized_distances)
    assert SurdValue(1) in realized and SQRT2 in realized


@pytest.mark.parametrize("spec", [
    BuildSpec(radii=(RadiusClass(SurdValue(1), ZP), RadiusClass(SQRT2, ZP)),
              stages=2, window=Fraction(2), seed=5),
    BuildSpec(radii=tuple(RadiusClass(r, ZP) for r in (SurdValue(1), SQRT2,
                                                        SQRT3)),
              stages=2, window=Fraction(2), seed=5),
    BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
              stages=1, window=Fraction(7), seed=3),
], ids=["two-classes", "three-classes", "omega-minus-1"])
def test_sphere_ledger_matches_the_per_pair_formula(spec):
    # the ledger the build reads from its sphere index, against every
    # pair's own unit ratio
    frag, cert = build(spec)
    classes = [(cls.r, cls.monoid.member,
                [n for n in cls.monoid.elements(c["units_window"],
                                                spec.denom_bound) if n > 0])
               for cls, c in zip(spec.canonical_classes(), cert.classes)]
    assert cert.spheres
    assert cert.spheres == oracles.class_sphere_ledger(frag.points,
                                                       frag.distance, classes)


@pytest.mark.parametrize("thin, law_ok, message", [
    (True, False, "a targeted sphere failed to reach two points"),
    (True, True, "a targeted sphere failed to reach two points"),
    (False, False, "two-point sphere law violated"),
], ids=["both", "growth", "law"])
def test_growth_verdict_reads_the_ledger_before_the_law(monkeypatch, thin,
                                                        law_ok, message):
    # a targeted sphere left with one member fails the build; when the law
    # fails too, the growth message still wins
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     stages=2, window=Fraction(2), seed=5)
    _, cert = build(spec)
    x, ci, units = cert.stages[1]["targets"][0]
    ledger = space_builder._sphere_ledger

    def forged(*args):
        entries, _ = ledger(*args)
        for e in entries:
            if thin and (e["center"], e["class"], e["unit"]) == (x, ci,
                                                                  units[0]):
                e["members"], e["complete"] = e["members"][:1], False
        return entries, law_ok

    monkeypatch.setattr(space_builder, "_sphere_ledger", forged)
    with pytest.raises(BuildExhausted, match=message):
        build(spec)


def test_an_exhausted_completion_stops_the_build(monkeypatch):
    # no spec is known to exhaust completion (see _complete's docstring), so
    # a stub raises the error extend_to_full documents, at stage 1
    complete = space_builder.extend_to_full
    exhausted = ExtensionExhausted(("a", "b"), 3)
    stages = []

    def stub(g, policy):
        stages.append(policy.seed)
        if len(stages) == 2:
            raise exhausted
        return complete(g, policy)

    monkeypatch.setattr(space_builder, "extend_to_full", stub)
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     stages=2, window=Fraction(2), seed=5)
    with pytest.raises(BuildExhausted) as info:
        build(spec)
    assert stages == [5, 5 + 7919]
    assert (info.value.stage, info.value.pair) == (1, ("a", "b"))
    assert str(info.value) == ("build stalled at stage 1 on ('a', 'b'): "
                               "extension budget spent (3)")
    assert info.value.__cause__ is exhausted


@pytest.mark.parametrize("stages", [1, 2])
def test_the_last_completed_graph_is_released_before_the_ledger(
        monkeypatch, stages):
    # the graph, and the path table cached on it, is dead once completed:
    # the sphere ledger is built without it
    complete, ledger = space_builder.extend_to_full, space_builder._sphere_ledger
    graphs, alive = [], []

    def completing(g, policy):
        graphs.append(weakref.ref(g))
        return complete(g, policy)

    def ledger_after(*args):
        alive.append(graphs[-1]() is not None)
        return ledger(*args)

    monkeypatch.setattr(space_builder, "extend_to_full", completing)
    monkeypatch.setattr(space_builder, "_sphere_ledger", ledger_after)
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     stages=stages, window=Fraction(2), seed=5)
    build(spec)
    assert len(graphs) == stages and alive == [False]


def build_bytes(radii, window, seed):
    """The canonical JSON that `banakh build` prints for classes of the
    given radii over Z+, 2 stages."""
    spec = BuildSpec(radii=tuple(RadiusClass(r, ZP) for r in radii),
                     stages=2, window=Fraction(window), seed=seed)
    frag, cert = build(spec)
    return dumps({"fragment": fragment_to_json(frag),
                  "certificate": certificate_to_json(cert)})


@pytest.mark.parametrize("radii, window, digest", [
    ((SurdValue(1), SQRT2), 2,
     "d7f5cc7f8a30707b63b5b29f6aec193b2e2ddb3898fa8ad334d5b7f2df22c8ff"),
    ((SurdValue(1), SQRT2, SQRT3), 2,
     "05c18c122565224a2f4cac9b3391305181397bcaf0d6444ca2ce1c35803706c5"),
    ((SurdValue(1), SQRT2), 3,
     "75f94710888b2b6dfd2cd54b5a31d107d867de8f9a8f6d9d48746d5ac7841366"),
], ids=["29-points", "49-points", "69-points"])
def test_build_output_bytes_are_pinned(radii, window, digest):
    # the two- and three-class builds at window 2 (29 and 49 points) and
    # the two-class build at window 3 (69 points), at seed 5; any change
    # to the completion or the sampler that moves one byte shows here
    text = build_bytes(radii, window, 5)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("stages, window, points", [(2, 2, 29),
                                                     (3, Fraction(3, 2), 107)])
def test_a_staged_build_runs_no_path_search(monkeypatch, stages, window,
                                            points):
    # every stage >= 1 union reads its paths from its parts, and stage 0
    # from the difference graph's int table: no float-filtered search runs
    calls = []
    paths = GraphMetric.distances_from

    def counted(g, x):
        calls.append(x)
        return paths(g, x)

    monkeypatch.setattr(GraphMetric, "distances_from", counted)
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     stages=stages, window=window, seed=5)
    frag, cert = build(spec)
    assert len(frag.points) == points
    assert all(entry["copies"] for entry in cert.stages[1:])
    assert calls == []


@pytest.mark.parametrize("seed", [0, 13, 27, 39])
def test_build_output_bytes_match_the_benchmark_digests(seed):
    # the benchmark's build (radii 1 and sqrt 2, window 2) keeps the bytes
    # that bench/digests.json records for its spec seed; the file is only
    # read
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    text = build_bytes((SurdValue(1), SQRT2), 2, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == digests[str(seed)]


# -- independent recheck ------------------------------------------------------------


def _tampered(frag: MetricFragment, key, value) -> MetricFragment:
    table = dict(frag.pairs())
    table[key] = value
    return MetricFragment(frag.points, table)


def test_verifier_gives_the_same_report_on_a_fragment_read_back():
    # the fragment read back from JSON has fresh values and no caches, so
    # the second report is computed from nothing the build left behind
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     stages=2, window=Fraction(2), seed=5)
    frag, cert = build(spec)
    text = dumps({"fragment": fragment_to_json(frag),
                  "certificate": certificate_to_json(cert)})
    doc = json.loads(text)
    again = fragment_from_json(doc["fragment"])
    assert again.edges == frag.edges
    assert all(again.edges[k] is not w for k, w in frag.edges.items())
    report = verify_certificate(frag, spec, cert)
    assert report["all_ok"], report
    assert verify_certificate(again, spec,
                              certificate_from_json(doc["certificate"])) == report


def test_verifier_catches_edited_distance():
    spec = zp_spec()
    frag, cert = build(spec)
    key = min(k for k, v in frag.pairs() if v == SurdValue(1))
    bad = _tampered(frag, key, SurdValue(Fraction(1, 2)))
    report = verify_certificate(bad, spec, cert)
    assert not report["all_ok"]
    assert not report["distances_match_cert"]
    assert SurdValue(Fraction(1, 2)) in report["stray_distances"]
    assert not report["metric_ok"]


def test_verifier_catches_stripped_generic_log():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
                     stages=1, window=Fraction(7), seed=3)
    frag, cert = build(spec)
    # logged values 3 and 4 are in decreasing order, so stripping both
    # checks that the strays come out sorted
    log = cert.generic_values
    assert log[4] < log[3]
    for stripped in ((0,), (3, 4)):
        hollow = Certificate(seed=cert.seed, stages=cert.stages,
                             classes=cert.classes,
                             realized_distances=cert.realized_distances,
                             generic_values=[v for i, v in enumerate(log)
                                             if i not in stripped],
                             spheres=cert.spheres)
        report = verify_certificate(frag, spec, hollow)
        assert not report["all_ok"]
        assert not report["realized_subset_ok"]
        assert report["stray_distances"] == sorted(log[i] for i in stripped)


def test_verifier_catches_class_values_outside_the_monoid():
    # the unit line checked against a spec whose class monoid lacks 1
    frag, cert = build(zp_spec())
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1),
                                        MonoidDesc.fingen([2, 3])),),
                     window=Fraction(5), seed=1)
    report = verify_certificate(frag, spec, cert)
    assert not report["class_windows_ok"] and not report["all_ok"]
    assert report["stray_distances"] == [SurdValue(1)]


def monoid_window(gens, drop):
    """The units of the monoid that gens generate, up to twice the largest
    generator: closed, unless the unit at index drop is left out."""
    units = sorted(oracles.closure_fractions(gens, 2 * max(gens)) - {0})
    del units[drop:drop + 1]
    return units


unit_sets = st.one_of(
    # mixed denominators, seldom closed
    st.sets(st.fractions(min_value=Fraction(1, 30), max_value=5,
                         max_denominator=30), max_size=12),
    st.builds(monoid_window,
              st.lists(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                        Fraction(3, 4), Fraction(5, 7),
                                        Fraction(1), Fraction(6, 5),
                                        Fraction(9, 4)]),
                       min_size=1, max_size=3),
              st.integers(0, 30)),
)


@given(unit_sets)
@example({Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6),
          Fraction(1)})
# 1/3 + 1/3 lies below the top 5/6 and is missing
@example({Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)})
@example(set())
@settings(max_examples=200, deadline=None)
def test_window_closure_matches_the_fraction_closure(units):
    units = set(units)
    assert space_builder._window_closed(units) == oracles.window_closed(units)


def test_verifier_catches_edited_sphere_ledger():
    spec = zp_spec()
    frag, cert = build(spec)
    entry = dict(cert.spheres[0])
    entry["members"] = list(reversed(frag.points[:2]))
    forged = Certificate(seed=cert.seed, stages=cert.stages,
                         classes=cert.classes,
                         realized_distances=cert.realized_distances,
                         generic_values=cert.generic_values,
                         spheres=[entry] + cert.spheres[1:])
    report = verify_certificate(frag, spec, forged)
    assert not report["sphere_ledger_ok"] and not report["all_ok"]


def test_verifier_asks_each_value_its_class_once(monkeypatch):
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                            RadiusClass(SQRT2, ZP)),
                     stages=2, window=Fraction(2), seed=5)
    frag, cert = build(spec)
    calls = []
    ratio_to = SurdValue.ratio_to

    def counted(self, other):
        calls.append((self, other))
        return ratio_to(self, other)

    monkeypatch.setattr(SurdValue, "ratio_to", counted)
    classes = spec.canonical_classes()
    merging = len(calls)  # the calls that canonical_classes makes itself
    calls.clear()
    assert verify_certificate(frag, spec, cert)["all_ok"]
    realized = set(frag.edges.values())
    assert len(calls) - merging <= len(realized) * len(classes)


def _with_ledger(cert: Certificate, spheres) -> Certificate:
    return Certificate(seed=cert.seed, stages=cert.stages,
                       classes=cert.classes,
                       realized_distances=cert.realized_distances,
                       generic_values=cert.generic_values, spheres=spheres)


def _ledger_forgeries(frag, cert, foreign_radius):
    """Sphere ledgers that do not list every nonempty windowed class sphere
    exactly once; in each but the first two, every entry names the true
    members of its sphere and the entry count is right."""
    spheres = cert.spheres
    center = frag.points[0]
    foreign = {"center": center, "class": 0, "unit": 1,
               "radius": foreign_radius,
               "members": list(frag.spheres[center][foreign_radius])}
    return {"emptied": [], "dropped": spheres[:-1],
            "repeated": spheres[:-1] + spheres[:1],
            "unknown-center": [dict(spheres[0], center="zz", members=[])]
                              + spheres[1:],
            "wrong-class": [dict(spheres[0], **{"class": 1})] + spheres[1:],
            "foreign-radius": [foreign] + spheres[1:]}


@pytest.mark.parametrize("spec, foreign", [
    (zp_spec(), "outside the window"),
    (BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
               stages=1, window=Fraction(7), seed=3), "generic"),
], ids=["unit-line", "omega-minus-1"])
def test_verifier_requires_a_complete_sphere_ledger(spec, foreign):
    frag, cert = build(spec)
    assert verify_certificate(frag, spec, cert)["sphere_ledger_ok"]
    if foreign == "generic":
        radius = min(cert.generic_values)
    else:
        radius = SurdValue(cert.classes[0]["units_window"] + 1)
    assert radius in frag.spheres[frag.points[0]]
    for name, spheres in _ledger_forgeries(frag, cert, radius).items():
        report = verify_certificate(frag, spec, _with_ledger(cert, spheres))
        assert not report["sphere_ledger_ok"], name
        assert not report["all_ok"], name
        assert report["metric_ok"] and report["realized_subset_ok"], name


def test_verifier_checks_the_diameter_of_each_two_point_sphere():
    # the two ends of the line (-5 and 5) moved to distance 19/2: the
    # sphere of radius 5 at the middle keeps its two members, but its
    # diameter is no longer 10, and no sphere at a windowed radius gains
    # or loses a member.  The ledger is the true one of the edited
    # fragment, so only the diameter can fail.
    spec = zp_spec()
    frag, cert = build(spec)
    (ends,) = [k for k, v in frag.pairs() if v == SurdValue(10)]
    bad = _tampered(frag, ends, SurdValue(Fraction(19, 2)))
    classes = [(SurdValue(1), ZP.member, [Fraction(n) for n in range(1, 6)])]
    ledger = oracles.class_sphere_ledger(bad.points, bad.distance, classes)
    assert [e for e in ledger if e["complete"] and not e["diameter_ok"]]
    report = verify_certificate(bad, spec, _with_ledger(cert, ledger))
    assert not report["sphere_ledger_ok"]


def _edit_entry(cert, pair, **changes):
    """The certificate with its first two-member (pair) or one-member ledger
    entry changed."""
    i = next(i for i, e in enumerate(cert.spheres)
             if (len(e["members"]) == 2) is pair)
    spheres = list(cert.spheres)
    spheres[i] = dict(spheres[i], **changes)
    return cert._replace(spheres=spheres)


CERT_EDITS = {
    "unit": (lambda c: _edit_entry(c, True, unit=Fraction(7)),
             "sphere_ledger_ok"),
    "complete": (lambda c: _edit_entry(c, True, complete=False),
                 "sphere_ledger_ok"),
    "diameter_ok": (lambda c: _edit_entry(c, True, diameter_ok=False),
                    "sphere_ledger_ok"),
    "one-member-diameter_ok": (lambda c: _edit_entry(c, False,
                                                     diameter_ok=True),
                               "sphere_ledger_ok"),
    # 1 == True and 0 == False, so an int flag compares equal to its bool
    "complete-as-int": (lambda c: _edit_entry(c, True, complete=1),
                        "sphere_ledger_ok"),
    "incomplete-as-int": (lambda c: _edit_entry(c, False, complete=0),
                          "sphere_ledger_ok"),
    "diameter_ok-as-int": (lambda c: _edit_entry(c, True, diameter_ok=1),
                           "sphere_ledger_ok"),
    "extra-key": (lambda c: _edit_entry(c, True, note="x"),
                  "sphere_ledger_ok"),
    # a ledger that is not a list matches no sphere index
    "ledger-as-dict": (lambda c: c._replace(spheres={}), "sphere_ledger_ok"),
    "units_window": (lambda c: c._replace(classes=[
        dict(c.classes[0], units_window=Fraction(99))]), "classes_match_cert"),
    "floppy": (lambda c: c._replace(classes=[
        dict(c.classes[0], floppy=False)]), "classes_match_cert"),
    "classes-dropped": (lambda c: c._replace(classes=[]),
                        "classes_match_cert"),
    "sphere_law_ok": (lambda c: c._replace(sphere_law_ok=False),
                      "sphere_ledger_ok"),
    "growth_ok": (lambda c: c._replace(growth_ok=False), "sphere_ledger_ok"),
    "stages-emptied": (lambda c: c._replace(stages=[]), "stages_ok"),
    "stage-dropped": (lambda c: c._replace(stages=c.stages[:-1]),
                      "stages_ok"),
    "stage-renumbered": (lambda c: c._replace(stages=[
        c.stages[0], dict(c.stages[1], stage=2)]), "stages_ok"),
    "new_vertices": (lambda c: c._replace(stages=[
        dict(c.stages[0], new_vertices=c.stages[0]["new_vertices"] + 1)]
        + c.stages[1:]), "stages_ok"),
}


@pytest.fixture(scope="module")
def zp_two_stage():
    spec = zp_spec(window=3, stages=2)
    frag, cert = build(spec)
    return spec, frag, cert


def test_the_stages_log_counts_every_point(zp_two_stage):
    spec, frag, cert = zp_two_stage
    assert [e["stage"] for e in cert.stages] == [0, 1]
    assert cert.stages[1]["copies"] > 0
    assert sum(e["new_vertices"] for e in cert.stages) == len(frag.points)
    assert verify_certificate(frag, spec, cert)["stages_ok"]


@pytest.mark.parametrize("name", CERT_EDITS)
def test_verifier_reads_every_certified_field(zp_two_stage, name):
    spec, frag, cert = zp_two_stage
    assert verify_certificate(frag, spec, cert)["all_ok"]
    edit, key = CERT_EDITS[name]
    for forged in (edit(cert),
                   certificate_from_json(certificate_to_json(edit(cert)))):
        report = verify_certificate(frag, spec, forged)
        assert report[key] is False and report["all_ok"] is False, name
        assert report["metric_ok"] and report["realized_subset_ok"], name


@pytest.mark.parametrize("spec", [
    BuildSpec(radii=(RadiusClass(SurdValue(1), ZP), RadiusClass(SQRT2, ZP)),
              stages=2, window=Fraction(2), seed=5),
    BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
              stages=1, window=Fraction(7), seed=3),
], ids=["two-classes", "omega-minus-1"])
def test_verifier_accepts_the_per_pair_ledger_of_a_fragment_read_back(spec):
    # the ledger the verifier rebuilds is the plain per-pair one, computed
    # here on the fragment and certificate as read back from JSON
    frag, cert = build(spec)
    doc = json.loads(dumps({"fragment": fragment_to_json(frag),
                            "certificate": certificate_to_json(cert)}))
    again = fragment_from_json(doc["fragment"])
    read = certificate_from_json(doc["certificate"])
    classes = [(cls.r, cls.monoid.member,
                [n for n in cls.monoid.elements(c["units_window"],
                                                spec.denom_bound) if n > 0])
               for cls, c in zip(spec.canonical_classes(), read.classes)]
    ledger = oracles.class_sphere_ledger(again.points, again.distance, classes)
    assert ledger
    report = verify_certificate(again, spec, read._replace(spheres=ledger))
    assert report["sphere_ledger_ok"] and report["all_ok"], report


# -- the ledger check against the rebuild and compare -------------------------------


LEDGER_SPECS = {
    "two-classes": BuildSpec(radii=(RadiusClass(SurdValue(1), ZP),
                                    RadiusClass(SQRT2, ZP)),
                             stages=2, window=Fraction(2), seed=5),
    "omega-minus-1": BuildSpec(radii=(RadiusClass(SurdValue(1), OMEGA),),
                               stages=1, window=Fraction(7), seed=3),
    "41-point-line": zp_spec(window=20, seed=5),
}


@pytest.fixture(scope="module", params=sorted(LEDGER_SPECS))
def read_back(request):
    """A build as read back from its JSON: (spec, fragment, certificate,
    the verifier's report on it, the per-pair ledger of the fragment)."""
    spec = LEDGER_SPECS[request.param]
    frag, cert = build(spec)
    doc = json.loads(dumps({"fragment": fragment_to_json(frag),
                            "certificate": certificate_to_json(cert)}))
    frag = fragment_from_json(doc["fragment"])
    cert = certificate_from_json(doc["certificate"])
    classes = [(cls.r, cls.monoid.member,
                [n for n in cls.monoid.elements(c["units_window"],
                                                spec.denom_bound) if n > 0])
               for cls, c in zip(spec.canonical_classes(), cert.classes)]
    ledger = oracles.class_sphere_ledger(frag.points, frag.distance, classes)
    return spec, frag, cert, verify_certificate(frag, spec, cert), ledger


def _tamper(kind, spheres, i, j, frag):
    """Edit the ledger ``spheres`` (a list of entry copies) in place: the
    i-th entry, or the i-th and j-th, by the named edit."""
    e = spheres[i]
    if kind == "drop":
        del spheres[i]
    elif kind == "duplicate":
        spheres.insert(i, dict(e))
    elif kind == "swap":
        spheres[i], spheres[j] = spheres[j], spheres[i]
    elif kind == "append":
        spheres.append(dict(e, center=frag.points[j % len(frag.points)]))
    elif kind == "class-true":
        e["class"] = True
    elif kind == "unit-int":
        e["unit"] = int(e["unit"])
    elif kind == "unit-bool":
        e["unit"] = True
    elif kind == "radius-fraction":
        r = SurdValue.of(e["radius"])
        e["radius"] = r.as_rational() if r.is_rational() else r.rational_part
    elif kind == "radius-copy":
        r = SurdValue.of(e["radius"])
        e["radius"] = SurdValue(r.rational_part, r.surd_coeffs)
    elif kind == "members-tuple":
        e["members"] = tuple(e["members"])
    elif kind == "complete-one":
        e["complete"] = 1
    elif kind == "diameter_ok-toggled":
        if "diameter_ok" in e:
            del e["diameter_ok"]
        else:
            e["diameter_ok"] = True
    else:   # "extra-key"
        e["note"] = "x"


LEDGER_EDITS = ("drop", "duplicate", "swap", "append", "class-true",
                "unit-int", "unit-bool", "radius-fraction", "radius-copy",
                "members-tuple", "complete-one", "diameter_ok-toggled",
                "extra-key")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_ledger_check_equals_the_rebuild_and_compare(read_back, data):
    # a read-back certificate's ledger, edited one to three times: the
    # verifier's whole report is its report on the true certificate with
    # the ledger verdict of the rebuild and compare
    spec, frag, cert, clean, ledger = read_back
    assert clean["all_ok"] and oracles.reference_ledger_ok(ledger, cert)
    spheres = [dict(e) for e in cert.spheres]
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(LEDGER_EDITS))
        i, j = (data.draw(st.integers(0, len(spheres) - 1)) for _ in "ij")
        _tamper(kind, spheres, i, j, frag)
    forged = cert._replace(spheres=spheres)
    ok = oracles.reference_ledger_ok(ledger, forged)
    assert verify_certificate(frag, spec, forged) == dict(
        clean, sphere_ledger_ok=ok, all_ok=ok)


@pytest.mark.parametrize("read_back", ["two-classes"], indirect=True)
@pytest.mark.parametrize("kind, ci, passes", [
    ("class-true", 1, True), ("class-true", 0, False), ("unit-int", 1, True),
    ("unit-bool", 1, True), ("radius-fraction", 0, True),
    ("radius-fraction", 1, False), ("radius-copy", 1, True),
    ("members-tuple", 1, False),
])
def test_the_ledger_check_keeps_the_dict_equality(read_back, kind, ci,
                                                  passes):
    # on the first entry of class ci (radius 1 or sqrt(2)) at unit 1: an
    # equal int, bool, Fraction or distinct value passes, as dict == lets
    # it, and a tuple of members fails (CERT_EDITS has the flag and key
    # edits, _ledger_forgeries the reordered ledgers)
    spec, frag, cert, clean, ledger = read_back
    i = next(i for i, e in enumerate(cert.spheres)
             if e["class"] == ci and e["unit"] == 1)
    spheres = [dict(e) for e in cert.spheres]
    _tamper(kind, spheres, i, i + 1, frag)
    forged = cert._replace(spheres=spheres)
    assert oracles.reference_ledger_ok(ledger, forged) is passes
    report = verify_certificate(frag, spec, forged)
    assert report["sphere_ledger_ok"] is passes and report["all_ok"] is passes
