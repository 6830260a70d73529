import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from banakh import serialize
from banakh.banakh_group import DistToken, GroupElement
from banakh.graph_metric import build_mu
from banakh.monoid_algebra import MonoidDesc
from banakh.serialize import (FormatError, dumps, value_to_json,
                              value_from_json, monoid_to_json,
                              monoid_from_json, graph_to_json, graph_from_json,
                              fragment_to_json, fragment_from_json,
                              buildspec_to_json, buildspec_from_json,
                              element_to_json, element_from_json,
                              token_to_json, token_from_json,
                              certificate_to_json, certificate_from_json,
                              _plain)
from banakh.space_builder import (BuildSpec, Certificate, RadiusClass, build,
                                  verify_certificate)
from banakh.values import InputTooLarge, SurdValue, rat

import oracles
from conftest import line_fragment


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
surd_values = st.builds(
    lambda q, cs: SurdValue(q, cs),
    rationals,
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), rationals, max_size=3))


def reload(obj):
    """Full wire trip: python -> canonical text -> python."""
    return json.loads(dumps(obj))


# -- values ------------------------------------------------------------------------


@given(surd_values)
def test_value_round_trip(v):
    assert value_from_json(reload(value_to_json(v))) == v


def test_value_wire_shapes():
    assert value_to_json(SurdValue(Fraction(3, 4))) == "3/4"
    assert value_to_json(SurdValue(5)) == "5"
    doc = value_to_json(SurdValue(1, {2: Fraction(-1, 3)}))
    assert doc == {"rat": "1", "surds": {"2": "-1/3"}}
    assert value_from_json(7) == SurdValue(7)


def test_value_rejects_floats_bools_and_nonprimes():
    with pytest.raises(FormatError):
        value_from_json(1.5)
    with pytest.raises(FormatError):
        value_from_json(True)
    with pytest.raises(FormatError):
        value_from_json({"rat": 0.25})
    with pytest.raises(FormatError):
        value_from_json({"surds": {"4": "1"}})
    with pytest.raises(FormatError):
        value_from_json("3/0")
    with pytest.raises(FormatError, match="not a rational"):
        value_from_json({"rat": "1", "surds": {"2": "1e5"}})
    with pytest.raises(FormatError):
        value_from_json([1, 2])


# strings of the characters a rational's forms use (with a fullwidth and an
# Arabic-Indic three), and canonical ratios
ratio_texts = st.one_of(
    st.text(alphabet="0123456789-+/._ e\uff13\u0663", max_size=10),
    st.from_regex(r"-?[0-9]{1,8}(/[0-9]{1,6})?", fullmatch=True))
surd_docs = st.builds(
    lambda surds, rational: ({"surds": surds} if rational is None
                             else {"rat": rational, "surds": surds}),
    st.dictionaries(
        st.sampled_from(["2", "3", "4", "9", "02", " 3", "-3", "1", "0",
                         "4294967291", "4294967311"]),
        st.one_of(ratio_texts, st.sampled_from([0, 1, True, 1.5])),
        max_size=3),
    st.one_of(st.none(), ratio_texts))


def read_outcome(obj):
    """value_from_json's outcome in the form of oracles.fraction_value_read."""
    try:
        v = value_from_json(obj)
    except (FormatError, InputTooLarge) as exc:
        kind = {FormatError: "format", InputTooLarge: "too-large"}
        return kind[type(exc)], str(exc)
    return "value", (v._den, v._num, v._surds)


def rat_outcome(text):
    try:
        q = rat(text)
    except ValueError as exc:
        assert type(exc) is ValueError
        return "error", str(exc)
    assert type(q) is Fraction
    return "ratio", q


@given(st.one_of(ratio_texts, surd_docs, st.integers(-10**6, 10**6)))
@example("3/0")
@example("-0/0")
@example("-4/6")
@example("007/014")
@example("1" * 5000)
@example("-" + "1" * 5000)
@example("1/" + "1" * 5000)
@example({"surds": {"4": "0", "2": "-1/2"}})
@example({"rat": "1/3", "surds": {"4": "1"}})
@example({"rat": "1", "surds": {"02": "1"}})
@example({"surds": {"4294967311": "1"}})
@example({"surds": {"4294967311": "0"}})
@example({"surds": {"4": "1", "4294967311": "1"}})
@example({"surds": {"4294967311": "1", "4": "1"}})
@example({"surds": {"2": "1/3", "3": "-1/6"}})
@example({"surds": {"x": "3/0"}, "rat": "y"})
@example({"surds": {"2": "3/0"}, "rat": "y"})
def test_int_reader_matches_the_fraction_path(obj):
    # the same int-vector form, or the same error type and message
    assert read_outcome(obj) == oracles.fraction_value_read(obj)
    if isinstance(obj, str):
        assert rat_outcome(obj) == oracles.fraction_rat(obj)


@pytest.mark.parametrize("surds", [
    {"2": "1", "02": "1"}, {"02": "1"}, {" 3": "1"}, {"+5": "1"},
    {"3 ": "1"}, {"2.0": "1"}, {"1_3": "1"}, {"x": "1"}, {"": "1"},
])
def test_value_takes_only_canonical_surd_keys(surds):
    # "02" would read as 2 and "2" and "02" as one coefficient
    with pytest.raises(FormatError, match="canonical"):
        value_from_json({"rat": "0", "surds": surds})


def test_element_takes_only_canonical_keys():
    for key in ("01", " 1", "+1", "1.0"):
        with pytest.raises(FormatError, match="canonical"):
            element_from_json({"coeffs": {key: "2"}})
    assert element_from_json({"coeffs": {"10": "2"}}) == GroupElement({10: 2})


# -- monoids -----------------------------------------------------------------------


@pytest.mark.parametrize("m", [
    MonoidDesc.fingen([Fraction(2), Fraction(3, 2)]),
    MonoidDesc.groupcone([Fraction(1, 3)]),
    MonoidDesc.closure("dyadic"),
    MonoidDesc.closure("omega-minus-1"),
])
def test_monoid_round_trip(m):
    m2 = monoid_from_json(reload(monoid_to_json(m)))
    assert m2.variant == m.variant
    assert m2.generators == m.generators
    assert m2.closure_id == m.closure_id


def test_monoid_rejects_malformed():
    with pytest.raises(FormatError):
        monoid_from_json({"variant": "closure", "closure_id": "who"})
    with pytest.raises(FormatError):
        monoid_from_json({"variant": "ring"})
    with pytest.raises(FormatError):
        monoid_from_json({"variant": "fingen", "generators": ["0"]})
    with pytest.raises(FormatError):
        monoid_from_json(["fingen"])


# -- graphs and fragments -----------------------------------------------------------


def test_graph_round_trip():
    g = build_mu(MonoidDesc.closure("omega-minus-1"), Fraction(1), Fraction(6), 16)
    g2 = graph_from_json(reload(graph_to_json(g)))
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges


def test_graph_rejects_malformed():
    with pytest.raises(FormatError):
        graph_from_json({"vertices": ["a", "b"]})
    with pytest.raises(FormatError):
        graph_from_json({"vertices": ["a", "b"], "edges": [["a", "b"]]})


def test_fragment_round_trip():
    f = line_fragment({"a": 0, "b": Fraction(1, 2), "c": 2})
    f2 = fragment_from_json(reload(fragment_to_json(f)))
    assert f2.points == f.points
    assert dict(f2.pairs()) == dict(f.pairs())


def test_a_document_reads_each_distinct_value_once():
    f = line_fragment({f"p{k}": k for k in range(6)})
    values = [w for _, w in fragment_from_json(reload(fragment_to_json(f)))
              .pairs()]
    assert len({id(w) for w in values}) == len(set(values)) == 5
    _, _, cert = _built()
    read = certificate_from_json(reload(certificate_to_json(cert)))
    radii = [e["radius"] for e in read.spheres]
    assert len({id(r) for r in radii}) == len(set(radii)) < len(radii)


def test_a_document_reads_each_distinct_surd_form_once():
    root2 = {"rat": "0", "surds": {"2": "1"}}
    doc = {"points": ["a", "b", "c"],
           "dist": [["a", "b", root2], ["b", "c", dict(root2)],
                    ["a", "c", {"rat": "0", "surds": {"2": "2"}}]]}
    f = fragment_from_json(doc)
    assert f.edge_value("a", "b") is f.edge_value("b", "c")
    assert f.edge_value("a", "b") == SurdValue(0, {2: 1})
    # a form with a non-string part is read afresh: a bool after an int
    # of the same value is still refused
    for first, again in ((1, True), ({"rat": "0", "surds": {"2": 1}},
                                     {"rat": "0", "surds": {"2": True}}),
                         ({"rat": 0, "surds": {"2": "1"}},
                          {"rat": False, "surds": {"2": "1"}})):
        doc = {"points": ["a", "b", "c"],
               "dist": [["a", "b", first], ["b", "c", first],
                        ["a", "c", again]]}
        with pytest.raises(FormatError):
            fragment_from_json(doc)


def test_fragment_incomplete_table_still_fails():
    doc = {"points": ["a", "b", "c"], "dist": [["a", "b", "1"]]}
    with pytest.raises(ValueError):
        fragment_from_json(doc)


@pytest.mark.parametrize("reader, keys, what", [
    (fragment_from_json, ("points", "dist"), "fragment"),
    (graph_from_json, ("vertices", "edges"), "graph")])
def test_a_repeated_row_must_repeat_its_value(reader, keys, what):
    # a later row once replaced an earlier one before any check ran; a
    # reversed row once passed the reader and met another message later
    rest = [["a", "c", "1"], ["b", "c", "1"]]
    for rows in ([["a", "b", "5"], ["a", "b", "2"]],
                 [["a", "b", "2"], ["a", "b", "5"]],
                 [["a", "b", "5"], ["b", "a", "2"]],
                 [["b", "a", "2"], ["a", "b", "5"]]):
        doc = {keys[0]: ["a", "b", "c"], keys[1]: rows + rest}
        with pytest.raises(FormatError, match=rf"^not a {what}: "
                           r"conflicting values for \('a', 'b'\)$"):
            reader(doc)
    # an equal value, however it is written and in either orientation,
    # repeats the row
    for again in (["a", "b", "4/2"], ["b", "a", "4/2"]):
        doc = {keys[0]: ["a", "b", "c"],
               keys[1]: [["a", "b", "2"], again] + rest}
        assert reader(doc).edge_value("a", "b") == 2


def test_edge_lists_above_the_pair_cap_are_refused_before_any_row():
    # 448 names are 100,128 pairs, above ENUMERATION_CAP; the malformed row
    # would be a FormatError if it were read
    names = [f"p{k}" for k in range(448)]
    for reader, keys in ((fragment_from_json, ("points", "dist")),
                         (graph_from_json, ("vertices", "edges"))):
        with pytest.raises(InputTooLarge, match="100128 pairs.*100000"):
            reader({keys[0]: names, keys[1]: [["p0"]]})
    # one name fewer is under the cap and read as before
    with pytest.raises(ValueError,
                       match=r"distance table incomplete: 0/99681$") as info:
        fragment_from_json({"points": names[:447], "dist": []})
    assert not isinstance(info.value, (InputTooLarge, FormatError))


# -- build specs ---------------------------------------------------------------------


def test_buildspec_round_trip_and_seed_override():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(0, {2: 1}),
                                        MonoidDesc.fingen([1])),),
                     stages=2, window=Fraction(5, 2), denom_bound=32, seed=11)
    doc = reload(buildspec_to_json(spec))
    back = buildspec_from_json(doc)
    assert back.seed == 11 and back.stages == 2
    assert back.window == Fraction(5, 2) and back.denom_bound == 32
    assert back.radii[0].r == spec.radii[0].r
    assert buildspec_from_json(doc, seed=99).seed == 99
    del doc["seed"]
    with pytest.raises(FormatError):
        buildspec_from_json(doc)
    assert buildspec_from_json(doc, seed=4).seed == 4


@pytest.mark.parametrize("field, bad", [
    ("stages", 1.9), ("stages", True), ("stages", "2"),
    ("denom_bound", 64.0), ("denom_bound", "64"),
    ("seed", 1.5), ("seed", False), ("seed", "11"),
])
def test_buildspec_integer_fields_are_json_integers(field, bad):
    # int() once truncated "stages": 1.9 to one stage
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1), MonoidDesc.fingen([1])),),
                     window=Fraction(2), seed=11)
    doc = reload(buildspec_to_json(spec))
    doc[field] = bad
    with pytest.raises(FormatError, match=f"{field} must be an integer"):
        buildspec_from_json(doc)
    if field == "seed":
        # a seed given by the caller is checked the same way
        del doc["seed"]
        with pytest.raises(FormatError, match="seed must be an integer"):
            buildspec_from_json(doc, seed=bad)


# -- group elements and tokens ---------------------------------------------------------


@given(st.dictionaries(st.integers(min_value=0, max_value=5), rationals,
                       max_size=4))
def test_element_round_trip(coeffs):
    x = GroupElement(coeffs)
    assert element_from_json(reload(element_to_json(x))) == x


def test_element_rejects_malformed():
    with pytest.raises(FormatError):
        element_from_json({"coeffs": {"-1": "2"}})
    with pytest.raises(FormatError):
        element_from_json({"coeffs": {"0": "x"}})
    with pytest.raises(FormatError):
        element_from_json({"x": 1})


def test_token_round_trip_renormalizes_sign():
    t = token_from_json({"coeffs": {"1": "-2", "3": "5"}})
    assert t == DistToken(GroupElement({1: 2, 3: -5}))
    assert token_from_json(reload(token_to_json(t))) == t


# -- certificates ---------------------------------------------------------------------


def _built():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(1),
                                        MonoidDesc.closure("omega-minus-1")),),
                     stages=1, window=Fraction(6), seed=2)
    frag, cert = build(spec)
    return spec, frag, cert


def test_certificate_survives_the_wire():
    spec, frag, cert = _built()
    cert2 = certificate_from_json(reload(certificate_to_json(cert)))
    assert cert2.seed == cert.seed
    assert cert2.realized_distances == cert.realized_distances
    assert cert2.generic_values == cert.generic_values
    assert [e["radius"] for e in cert2.spheres] == [e["radius"] for e in cert.spheres]
    report = verify_certificate(frag, spec, cert2)
    assert report["all_ok"], report


def test_certificate_rejects_malformed():
    with pytest.raises(FormatError):
        certificate_from_json({"seed": 0})


@pytest.mark.parametrize("bad", [2.0, True, "2"])
@pytest.mark.parametrize("field", ["seed", "class"])
def test_certificate_integer_fields_are_json_integers(field, bad):
    _, _, cert = _built()
    doc = reload(certificate_to_json(cert))
    if field == "seed":
        doc["seed"] = bad
    else:
        doc["spheres"][0]["class"] = bad
    with pytest.raises(FormatError, match=f"{field} must be an integer"):
        certificate_from_json(doc)


class Third(Fraction):
    """A Fraction subclass, which the writer formats like a Fraction."""


plain_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
              st.floats(allow_nan=False), st.text(max_size=2), rationals,
              rationals.map(Third), surd_values),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)),
                        kids, max_size=3)),
    max_leaves=12)


@given(plain_docs, plain_docs, plain_docs, st.lists(surd_values, max_size=3))
@example([], [], None, [])
def test_writer_matches_the_recursive_reference(stages, classes, spheres,
                                                values):
    assert dumps(_plain(spheres)) == dumps(oracles.plain_doc(spheres))
    cert = Certificate(seed=3, stages=stages, classes=classes,
                       realized_distances=values, generic_values=values[::-1],
                       spheres=spheres, sphere_law_ok=True, growth_ok=False)
    assert (dumps(certificate_to_json(cert))
            == dumps(oracles.certificate_doc(cert)))


def test_each_place_of_a_certificate_holds_its_own_form():
    spec = BuildSpec(radii=(RadiusClass(SurdValue(0, {2: 1}),
                                        MonoidDesc.fingen([1])),),
                     stages=1, window=Fraction(2), seed=2)
    _, cert = build(spec)
    doc = certificate_to_json(cert)
    before = dumps(doc)
    radii = [entry["radius"] for entry in doc["spheres"]]
    assert len(radii) > 1 and all(isinstance(r, dict) for r in radii)
    radii[0]["rat"] = "7"
    radii[0]["surds"]["2"] = "7"
    assert radii[1] == value_to_json(SurdValue(0, {2: 1}))
    doc["spheres"][0]["radius"] = value_to_json(SurdValue(0, {2: 1}))
    assert dumps(doc) == before


def test_a_report_formats_each_distinct_value_once(monkeypatch):
    calls = []

    def counted(v):
        calls.append(v)
        return value_to_json(v)
    monkeypatch.setattr(serialize, "value_to_json", counted)
    root2, half = SurdValue(0, {2: 1}), SurdValue(Fraction(1, 2))
    report = {"violations": [{"pair": ["a", "b"], "value": root2},
                             {"pair": ("b", "c"), "value": half},
                             {"pair": ["a", "c"], "value": root2}],
              "values": [root2, half, root2 + half, root2],
              "unit": Fraction(1, 2)}
    doc = _plain(report)
    assert sorted(calls) == sorted([root2, half, root2 + half])
    assert dumps(doc) == dumps(oracles.plain_doc(report))
    # each top-level call has its own memo
    _plain(report)
    assert len(calls) == 6


def test_canonical_bytes():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    spec, frag, cert = _built()
    _, frag_b, cert_b = _built()
    assert dumps(certificate_to_json(cert)) == dumps(certificate_to_json(cert_b))
    assert (dumps(certificate_to_json(cert))
            == dumps(oracles.certificate_doc(cert)))
    assert dumps(fragment_to_json(frag)) == dumps(fragment_to_json(frag_b))
