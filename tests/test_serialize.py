import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
                              certificate_to_json, certificate_from_json)
from banakh.space_builder import BuildSpec, RadiusClass, build, verify_certificate
from banakh.values import SurdValue

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


def test_fragment_incomplete_table_still_fails():
    doc = {"points": ["a", "b", "c"], "dist": [["a", "b", "1"]]}
    with pytest.raises(ValueError):
        fragment_from_json(doc)


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


def test_canonical_bytes():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    spec, frag, cert = _built()
    _, frag_b, cert_b = _built()
    assert dumps(certificate_to_json(cert)) == dumps(certificate_to_json(cert_b))
    assert dumps(fragment_to_json(frag)) == dumps(fragment_to_json(frag_b))
