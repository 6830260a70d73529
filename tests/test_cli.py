import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import banakh
import banakh.cli
from banakh.cli import main
from banakh.serialize import (buildspec_from_json, certificate_to_json, dumps,
                              fragment_to_json, graph_to_json)
from banakh.graph_metric import GraphMetric, MetricFragment
from banakh.monoid_algebra import APERY_CAP
from banakh.space_builder import BuildExhausted, build
from banakh.values import SurdValue

from conftest import line_fragment


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def line_file(tmp_path):
    f = line_fragment({f"p{k:+d}": k for k in range(-3, 4)})
    path = tmp_path / "line.json"
    path.write_text(dumps(fragment_to_json(f)))
    return str(path)


@pytest.fixture
def elem_file(tmp_path):
    def make(name, coeffs):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps({"coeffs": {str(a): str(c)
                                          for a, c in coeffs.items()}}))
        return str(path)
    return make


@pytest.fixture
def input_files(capsys, tmp_path, line_file, elem_file):
    """Paths by placeholder name: a line fragment, a graph, two group
    elements, a one-class build spec and its build."""
    files = {"LINE": line_file, "X": elem_file("x", {1: 1, 2: -1}),
             "Y": elem_file("y", {1: 2})}
    for name, doc in [
            ("GRAPH", {"vertices": ["a", "b", "c"],
                       "edges": [["a", "b", "1"], ["b", "c", "1"]]}),
            ("SPEC", {"radii": [{"r": "1", "monoid": {
                "variant": "fingen", "generators": ["1"]}}],
                "window": "2"})]:
        files[name] = str(tmp_path / f"input_{name.lower()}.json")
        Path(files[name]).write_text(json.dumps(doc))
    files["BUILT"] = str(tmp_path / "input_built.json")
    assert main(["build", "--spec", files["SPEC"], "--seed", "1",
                 "--out", files["BUILT"]]) == 0
    capsys.readouterr()
    return files


# -- verdict plumbing -----------------------------------------------------------------


def test_verify_good_fragment(capsys, line_file):
    code, doc, _ = run_json(capsys, "verify", line_file)
    assert code == 0
    assert doc["metric_ok"] and doc["banakh_consistent"]
    assert doc["violations"] == []


def test_verify_reports_violations(capsys, tmp_path):
    bad = {"points": ["a", "b", "c"],
           "dist": [["a", "b", "1"], ["a", "c", "1"], ["b", "c", "5"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc, _ = run_json(capsys, "verify", str(path))
    assert code == 1
    assert not doc["metric_ok"]
    assert any(v["kind"] == "triangle" for v in doc["violations"])


def test_embed_line_and_obstruction(capsys, tmp_path, line_file):
    code, doc, _ = run_json(capsys, "embed", line_file)
    assert code == 0 and doc["embeddable"]
    assert len(doc["coords"]) == 7
    diamond = {"points": ["a", "b", "m", "n"],
               "dist": [["a", "b", "2"], ["a", "m", "1"], ["a", "n", "1"],
                        ["b", "m", "1"], ["b", "n", "1"], ["m", "n", "1"]]}
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(diamond))
    code, doc, _ = run_json(capsys, "embed", str(path))
    assert code == 1 and not doc["embeddable"]
    assert len(doc["obstruction"]) == 3


def test_halfgroup_verdicts(capsys):
    code, doc, _ = run_json(capsys, "halfgroup", "--monoid", "dyadic")
    assert code == 0 and doc == {"verdict": True}
    code, doc, _ = run_json(capsys, "halfgroup", "--gens", "2,3")
    assert code == 1
    assert doc == {"verdict": False, "witness": "1 = 3-2 not in M"}
    code, out, err = run(capsys, "halfgroup", "--gens", "2,3", "--bound", "1")
    assert code == 2 and out == "" and "inconclusive" in err


def test_monoid_above_the_apery_cap_is_bad_input(capsys):
    # the same check stops `--gens 1000000007,1000000009` before it asks
    # for a list of 10**9 entries; just above the cap, a missing check
    # would only allocate APERY_CAP entries and answer
    gens = f"{2 * (APERY_CAP + 1)},{2 * (APERY_CAP + 2)}"
    for sub in ("halfgroup", "floppy"):
        code, out, err = run(capsys, sub, "--gens", gens)
        assert code == 2 and out == ""
        assert err.startswith("bad input:") and str(APERY_CAP + 1) in err
    # a group cone builds no Apery set, so it has no such cap
    code, doc, _ = run_json(capsys, "halfgroup", "--cone", gens)
    assert code == 0 and doc == {"verdict": True}


@pytest.mark.parametrize("argv", [
    ("dzik", "--a", "6", "--b", "10", "--p", "100000000000000000039"),
    ("gps", "{line}", "--a", "p+0",
     "--ra", '{"rat":"0","surds":{"100000000000000000039":"1"}}',
     "--b", "p+1", "--rb", "1"),
    ("ddot", "--gens", "1", "--window", "1000000000"),
    ("mu", "--monoid", "dyadic", "--r", "1", "--window", "1",
     "--denom-bound", "1000000"),
    # 2,001 units, so about 2·10⁶ pairs of membership tests
    ("mu", "--gens", "1", "--r", "1", "--window", "1000"),
], ids=["dzik-prime", "gps-surd-index", "ddot-window", "mu-denom-bound",
        "mu-unit-pairs"])
def test_work_above_a_cap_is_bad_input(capsys, line_file, argv):
    # primality above 2**32, enumerations above ENUMERATION_CAP points and
    # difference graphs above ENUMERATION_CAP unit pairs are refused before
    # the work starts
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.replace("{line}", line_file) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("bad input:")


@pytest.fixture(scope="module")
def big_line_doc():
    """A complete 448-point line: 100,128 pairs, one above the cap."""
    names = [f"p{k}" for k in range(448)]
    return {"points": names,
            "dist": [[a, b, str(j - i)] for i, a in enumerate(names)
                     for j, b in enumerate(names) if i < j]}


@pytest.mark.parametrize("argv", [
    ("verify", "{file}"),
    ("embed", "{file}"),
    ("line", "{file}", "--a", "p0", "--b", "p1", "-n", "2"),
    ("gps", "{file}", "--a", "p0", "--ra", "2", "--b", "p3", "--rb", "1"),
    ("orient", "{file}", "--origin", "p0", "--x", "p1", "--y", "p2"),
    ("segment", "{file}", "--x", "p0", "--y", "p1", "--r", "2"),
    ("certify", "{built}", "{built}"),
], ids=lambda argv: argv[0])
def test_a_file_above_the_pair_cap_is_bad_input(capsys, tmp_path,
                                                big_line_doc, argv):
    # the triangle scan of 100,128 pairs would run for minutes; the file is
    # refused once its names are read
    # (`extend` has its own test: its graphs have far fewer edges)
    paths = {"file": big_line_doc,
             "built": {"fragment": big_line_doc, "certificate": {}}}
    for key, obj in paths.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(obj))
    argv = [a.format(**{k: str(tmp_path / f"{k}.json") for k in paths})
            for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("bad input:")
    assert "100128 pairs" in err


@pytest.mark.parametrize("argv", [
    ("halfgroup", "--gens", "1e100000000"),
    ("ddot", "--gens", "1", "--window", "1e100000000"),
    ("verify", "{doc}"),
], ids=["gens", "window", "fragment-value"])
def test_exponent_notation_is_refused_at_once(capsys, tmp_path, argv):
    # Fraction("1e100000000") would build the power of ten for minutes
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"points": ["a", "b"],
                                "dist": [["a", "b", "1e100000000"]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.replace("{doc}", str(path)) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "'1e100000000'" in err


def test_floppy_verdicts(capsys):
    code, doc, _ = run_json(capsys, "floppy", "--gens", "1")
    assert code == 0 and doc == {"verdict": True}
    code, doc, _ = run_json(capsys, "floppy", "--monoid", "dyadic-plus-thirds")
    assert code == 1 and doc == {"verdict": False, "witness": "1/3"}


def test_monoid_flags_are_exclusive(capsys):
    code, out, err = run(capsys, "floppy", "--gens", "1", "--monoid", "dyadic")
    assert code == 2 and "exactly one" in err


def test_an_unknown_closure_id_is_a_format_error(capsys):
    code, out, err = run(capsys, "halfgroup", "--monoid", "nosuch")
    assert (code, out) == (2, "")
    assert err == ("format error: unknown closure id 'nosuch'; known: "
                   "dyadic, dyadic-plus-thirds, omega-minus-1\n")


def test_ddot_output_modes(capsys):
    code, doc, _ = run_json(capsys, "ddot", "--monoid", "omega-minus-1",
                            "--window", "6")
    assert code == 0 and doc == {"ddot": ["2", "3"]}
    code, out, _ = run(capsys, "ddot", "--monoid", "omega-minus-1",
                       "--window", "6", "--human")
    assert code == 0 and out == "{2, 3}\n"


def test_dzik_value_and_membership_error(capsys):
    code, doc, _ = run_json(capsys, "dzik", "--a", "4", "--b", "6", "--p", "2")
    assert code == 0 and doc["value"] == 1
    assert doc["trace"][0] == [1, 3] and doc["trace"][-1][0] == doc["value"]
    code, doc, _ = run_json(capsys, "dzik", "--a", "4", "--b", "6", "--p", "2",
                            "--gens", "4,6")
    assert code == 1 and doc["error"] == "membership"


def test_mu_json_dot_and_out(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "mu", "--gens", "1", "--r", "1",
                            "--window", "3")
    assert code == 0
    assert set(doc["vertices"]) == {"-3", "-2", "-1", "0", "1", "2", "3"}
    code, out, _ = run(capsys, "mu", "--gens", "1", "--r", "1",
                       "--window", "2", "--dot")
    assert code == 0 and out.startswith("graph G {") and '"0" -- "1"' in out
    dest = tmp_path / "mu.json"
    code, out, _ = run(capsys, "mu", "--gens", "1", "--r", "1",
                       "--window", "2", "--out", str(dest))
    assert code == 0 and out == "" and json.loads(dest.read_text())["vertices"]


def test_extend_completes_a_cycle_deterministically(capsys, tmp_path):
    cycle = GraphMetric("abcd", {("a", "b"): SurdValue(1), ("b", "c"): SurdValue(1),
                                 ("c", "d"): SurdValue(1), ("d", "a"): SurdValue(1)})
    path = tmp_path / "cycle.json"
    path.write_text(dumps(graph_to_json(cycle)))
    code, first, _ = run(capsys, "extend", str(path), "--seed", "5")
    assert code == 0
    code, again, _ = run(capsys, "extend", str(path), "--seed", "5")
    assert first == again  # same seed, byte-identical output
    doc = json.loads(first)
    assert len(doc["assignments"]) == 2  # the two diagonals
    code, other, _ = run(capsys, "extend", str(path), "--seed", "6")
    assert json.loads(other)["assignments"] != doc["assignments"]


def test_extend_reports_exhaustion(capsys, tmp_path):
    pinched = GraphMetric("abcd", {("a", "d"): SurdValue(4), ("a", "b"): SurdValue(1),
                                   ("b", "c"): SurdValue(1), ("c", "d"): SurdValue(2)})
    path = tmp_path / "pinched.json"
    path.write_text(dumps(graph_to_json(pinched)))
    code, doc, _ = run_json(capsys, "extend", str(path), "--seed", "1")
    assert code == 1
    assert doc["error"] == "extension-exhausted" and doc["pair"] == ["a", "c"]


def test_line_walks_and_stops(capsys, line_file):
    code, doc, _ = run_json(capsys, "line", line_file,
                            "--a", "p+0", "--b", "p+1", "-n", "2")
    assert code == 0
    assert doc["line"] == ["p-2", "p-1", "p+0", "p+1", "p+2"]
    code, doc, _ = run_json(capsys, "line", line_file,
                            "--a", "p+0", "--b", "p+1", "-n", "4")
    assert code == 1 and doc["line"] is None and "reason" in doc


def test_gps_point_and_null(capsys, line_file):
    code, doc, _ = run_json(capsys, "gps", line_file, "--a", "p+0", "--ra", "2",
                            "--b", "p+3", "--rb", "1")
    assert code == 0 and doc == {"point": "p+2"}
    code, doc, _ = run_json(capsys, "gps", line_file, "--a", "p+0", "--ra", "1",
                            "--b", "p+3", "--rb", "1")
    assert code == 0 and doc == {"point": None}


# a-b and p-q are the diagonals of a unit square: the unit spheres at a and
# at b both hold p and q
SQUARE = {"points": ["a", "b", "p", "q"],
          "dist": [["a", "p", "1"], ["a", "q", "1"], ["b", "p", "1"],
                   ["b", "q", "1"], ["a", "b", "2"], ["p", "q", "2"]]}


def test_gps_on_a_two_point_intersection_is_a_false_verdict(capsys,
                                                             tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    code, doc, _ = run_json(capsys, "verify", str(path))
    assert code == 0 and doc["metric_ok"] and doc["violations"] == []
    code, doc, err = run_json(capsys, "gps", str(path), "--a", "a", "--ra",
                              "1", "--b", "b", "--rb", "1")
    assert code == 1 and err == ""
    assert doc == {"error": "two-point-intersection",
                   "detail": "spheres at 'a','b' intersect in 2 points: "
                             "['p', 'q']"}


def test_an_exhausted_build_prints_its_error_and_writes_no_file(
        capsys, tmp_path, monkeypatch):
    def exhausted(spec):
        raise BuildExhausted(1, ("a", "c"), "extension budget spent (3)")

    monkeypatch.setattr(banakh.space_builder, "build", exhausted)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"radii": [{"r": "1", "monoid": {
        "variant": "fingen", "generators": ["1"]}}], "window": "2"}))
    dest = tmp_path / "built.json"
    code, doc, err = run_json(capsys, "build", "--spec", str(spec), "--seed",
                              "1", "--out", str(dest))
    assert code == 1 and err == ""
    assert doc == {"error": "build-exhausted", "stage": 1, "pair": ["a", "c"]}
    assert not dest.exists()


def test_orient_senses(capsys, line_file):
    code, doc, _ = run_json(capsys, "orient", line_file,
                            "--origin", "p+0", "--x", "p+1", "--y", "p+2")
    assert code == 0 and doc == {"orientation": "parallel"}
    code, doc, _ = run_json(capsys, "orient", line_file,
                            "--origin", "p+0", "--x", "p+1", "--y", "p-2")
    assert code == 0 and doc == {"orientation": "antiparallel"}


def test_segment_extends_and_runs_out(capsys, line_file):
    code, doc, _ = run_json(capsys, "segment", line_file,
                            "--x", "p-1", "--y", "p+1", "--r", "2")
    assert code == 0 and doc == {"point": "p+3"}
    code, doc, _ = run_json(capsys, "segment", line_file,
                            "--x", "p+0", "--y", "p+3", "--r", "3")
    assert code == 0 and doc["point"] is None and "reason" in doc


def test_group_tasks(capsys, elem_file):
    x = elem_file("x", {0: 1, 2: Fraction(1, 2)})
    y = elem_file("y", {0: -1, 2: Fraction(-1, 2)})
    z = elem_file("z", {1: 3})
    code, doc, _ = run_json(capsys, "group", "dist", x, y)
    assert code == 0
    assert doc["coeffs"] == {"0": "2", "2": "1"} and doc["sign_normalized"]
    code, doc, _ = run_json(capsys, "group", "normeq", x, y)
    assert code == 0 and doc == {"norm_equal": True}
    code, doc, _ = run_json(capsys, "group", "normeq", x, z)
    assert code == 1 and doc == {"norm_equal": False}
    code, doc, _ = run_json(capsys, "group", "sphere", z, z)
    assert code == 0 and len(doc["sphere"]) == 2
    code, doc, _ = run_json(capsys, "group", "sphere", z, x, "--lattice", "H")
    assert code == 0 and doc == {"sphere": []}
    # a center outside H has no sphere in H: bad input, not its L members
    half, one = elem_file("half", {0: Fraction(1, 2)}), elem_file("one", {0: 1})
    code, out, err = run(capsys, "group", "sphere", half, one, "--lattice", "H")
    assert (code, out) == (2, "")
    assert err == "bad input: center is not in the integer lattice\n"
    code, doc, _ = run_json(capsys, "group", "sphere", half, one)
    assert code == 0 and doc == {"sphere": [{"coeffs": {"0": "-1/2"}},
                                            {"coeffs": {"0": "3/2"}}]}
    code, doc, _ = run_json(capsys, "group", "hnorm", z)
    assert code == 0 and doc["holds"] and doc["reason"] == "tail"
    code, doc, _ = run_json(capsys, "group", "solve",
                            "--coeffs", "1,0,0,0,2,0")
    assert code == 0 and doc == {"infinite": False, "solutions": ["-2", "2"]}
    code, out, err = run(capsys, "group", "solve", "--coeffs", "1,2")
    assert code == 2 and "a1,a2,a3,b1,b2,b3" in err


GROUP_ELEMENTS = {
    "x": {0: Fraction(1, 2), 2: Fraction(-3, 4), 5: Fraction(2, 3)},
    "y": {0: Fraction(-1, 3), 1: Fraction(5, 6), 2: Fraction(1, 4)},
    "t": {1: Fraction(-7, 6), 3: Fraction(3, 10)},
    "c": {0: 2, 3: -1},
    "u": {1: -2, 3: 3},
    "h": {1: 2, 4: -1},
    "k": {0: -3},
}

# stdout captured from the {index: Fraction} implementation, before elements
# were stored on one common denominator: member order, canonical sign and
# lowest terms must not move
GROUP_OUTPUT_BYTES = [
    (("dist", "x", "y"),
     '{"coeffs":{"0":"5/6","1":"-5/6","2":"-1","5":"2/3"},'
     '"sign_normalized":true}\n'),
    (("dist", "y", "x"),
     '{"coeffs":{"0":"5/6","1":"-5/6","2":"-1","5":"2/3"},'
     '"sign_normalized":true}\n'),
    (("dist", "t", "c"),
     '{"coeffs":{"0":"2","1":"7/6","3":"-13/10"},"sign_normalized":true}\n'),
    (("sphere", "x", "t"),
     '{"sphere":[{"coeffs":{"0":"1/2","1":"-7/6","2":"-3/4","3":"3/10",'
     '"5":"2/3"}},{"coeffs":{"0":"1/2","1":"7/6","2":"-3/4","3":"-3/10",'
     '"5":"2/3"}}]}\n'),
    (("sphere", "y", "x"),
     '{"sphere":[{"coeffs":{"0":"-5/6","1":"5/6","2":"1","5":"-2/3"}},'
     '{"coeffs":{"0":"1/6","1":"5/6","2":"-1/2","5":"2/3"}}]}\n'),
    (("sphere", "c", "u", "--lattice", "H"),
     '{"sphere":[{"coeffs":{"0":"2","1":"-2","3":"2"}},'
     '{"coeffs":{"0":"2","1":"2","3":"-4"}}]}\n'),
    (("sphere", "u", "c", "--lattice", "H"),
     '{"sphere":[{"coeffs":{"0":"-2","1":"-2","3":"4"}},'
     '{"coeffs":{"0":"2","1":"-2","3":"2"}}]}\n'),
    (("sphere", "c", "t", "--lattice", "H"), '{"sphere":[]}\n'),
    (("hnorm", "h"), '{"holds":true,"quantity":"5","reason":"tail"}\n'),
    (("hnorm", "k"), '{"holds":true,"quantity":"3","reason":"linear"}\n'),
    (("hnorm", "c"), '{"holds":true,"quantity":"1","reason":"tail"}\n'),
]


@pytest.mark.parametrize("argv,expected", GROUP_OUTPUT_BYTES,
                         ids=[" ".join(a) for a, _ in GROUP_OUTPUT_BYTES])
def test_group_output_bytes_are_pinned(capsys, elem_file, argv, expected):
    paths = {name: elem_file(name, coeffs)
             for name, coeffs in GROUP_ELEMENTS.items()}
    task, *rest = argv
    code, out, err = run(capsys, "group", task,
                         *(paths.get(a, a) for a in rest))
    assert (code, out, err) == (0, expected, "")


@pytest.fixture
def pinned_inputs(tmp_path, line_file, elem_file):
    """Input files of the pinned commands, by the names their argv uses."""
    def write(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(obj))
        return str(path)

    def graph(edges):
        return graph_to_json(GraphMetric("abcd", {e: SurdValue(w)
                                                  for e, w in edges.items()}))

    spec = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                            "generators": ["1"]}}],
            "stages": 1, "window": "2"}
    fragment, cert = build(buildspec_from_json(spec, seed=1))
    built = {"fragment": fragment_to_json(fragment),
             "certificate": certificate_to_json(cert)}
    forged = json.loads(dumps(built))
    forged["fragment"]["dist"][0][2] = "1/7"
    return {
        "line": line_file, "spec": write("spec", spec),
        "built": write("built", built), "forged": write("forged", forged),
        "x": elem_file("x", GROUP_ELEMENTS["x"]),
        "y": elem_file("y", GROUP_ELEMENTS["y"]),
        "cycle": write("cycle", graph({("a", "b"): 1, ("b", "c"): 1,
                                       ("c", "d"): 1, ("d", "a"): 1})),
        "pinched": write("pinched", graph({("a", "d"): 4, ("a", "b"): 1,
                                           ("b", "c"): 1, ("c", "d"): 2})),
        # the ray from a through b must reach length 3, beyond the table
        "short": write("short", {"points": ["a", "b", "c"],
                                 "dist": [["a", "b", "1"], ["b", "c", "2"],
                                          ["a", "c", "3"]]}),
        "rank2": write("rank2", _rank2_line()),
        "unplaced": write("unplaced", _rank2_line(("x00", "x33"))),
        "unpaired": write("unpaired", _rank2_line(("x32", "x33"))),
        "out": str(tmp_path / "out.txt"),
    }


def _rank2_line(longer=None):
    """The 16 points a + b*sqrt(2), 0 <= a, b <= 3, named x<a><b>, with the
    pair ``longer`` one unit longer: from x00, x33 no longer places; between
    x32 and x33, every point places and that pair fails."""
    coords = {f"x{a}{b}": SurdValue(a, {2: b})
              for a in range(4) for b in range(4)}
    names = list(coords)
    dist = {}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            gap = coords[y] - coords[x]
            dist[(x, y)] = (gap if gap.sign() > 0 else -gap) + (
                1 if (x, y) == longer else 0)
    return fragment_to_json(MetricFragment(names, dist))


def _pinned(text):
    """Short output as it is, longer output by (half) its SHA-256."""
    if text is None or len(text) <= 120:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


# (argv, exit code, stdout, first stderr line, --out file or None), captured
# before the handlers returned their answers to one writer in `main`; an
# argument in braces names a file of `pinned_inputs`
CLI_OUTPUT_BYTES = [
    (("verify", "{line}"), 0,
     'sha256:b91d3fc649d41f5c3ca2b5d486aae746',
     '', None),
    (("embed", "{line}"), 0,
     '{"coords":{"p+0":"0","p+1":"1","p+2":"2","p+3":"3",'
     '"p-1":"-1","p-2":"-2","p-3":"-3"},"embeddable":true}\n',
     '', None),
    (("halfgroup", "--gens", "2,3"), 1,
     '{"verdict":false,"witness":"1 = 3-2 not in M"}\n',
     '', None),
    (("halfgroup", "--gens", "2,3", "--human"), 1,
     '{\n  "verdict": false,\n  "witness": "1 = 3-2 not in M"\n}\n',
     '', None),
    (("halfgroup", "--gens", "2,3", "--bound", "1"), 2,
     '',
     'verdict inconclusive: raise --bound above the conductor',
     None),
    (("floppy", "--monoid", "dyadic-plus-thirds"), 1,
     '{"verdict":false,"witness":"1/3"}\n',
     '', None),
    (("ddot", "--monoid", "omega-minus-1", "--window", "6"), 0,
     '{"ddot":["2","3"]}\n',
     '', None),
    (("ddot", "--monoid", "omega-minus-1", "--window", "6", "--human"), 0,
     '{2, 3}\n',
     '', None),
    (("dzik", "--a", "4", "--b", "6", "--p", "2"), 0,
     '{"trace":[[1,3],[1,1]],"value":1}\n',
     '', None),
    (("dzik", "--a", "4", "--b", "6", "--p", "2", "--gens", "4,6"), 1,
     '{"element":1,"error":"membership"}\n',
     '', None),
    (("mu", "--gens", "1", "--r", "1", "--window", "1"), 0,
     '{"edges":[["-1","0","1"],["-1","1","2"],["0","1","1"]]'
     ',"vertices":["-1","0","1"]}\n',
     '', None),
    (("mu", "--gens", "1", "--r", "1", "--window", "1", "--human"), 0,
     'sha256:2b9c7ad9b0f13f69691bccb7a49d9cbf',
     '', None),
    (("mu", "--gens", "1", "--r", "1", "--window", "1", "--out", "{out}"), 0,
     '', '',
     '{"edges":[["-1","0","1"],["-1","1","2"],["0","1","1"]]'
     ',"vertices":["-1","0","1"]}\n'),
    (("mu", "--gens", "1", "--r", "1", "--window", "1", "--dot"), 0,
     'graph G {\n  "-1";\n  "0";\n  "1";\n'
     '  "-1" -- "0" [label="1"];\n  "-1" -- "1" [label="2"];\n'
     '  "0" -- "1" [label="1"];\n}\n',
     '', None),
    (("mu", "--gens", "1", "--r",
      "1", "--window", "1", "--dot", "--out", "{out}"), 0,
     '', '',
     'graph G {\n  "-1";\n  "0";\n  "1";\n'
     '  "-1" -- "0" [label="1"];\n  "-1" -- "1" [label="2"];\n'
     '  "0" -- "1" [label="1"];\n}\n'),
    (("extend", "{cycle}", "--seed", "5"), 0,
     'sha256:7290a7b6d64f0bc921ab5460c9033177',
     '', None),
    (("extend", "{cycle}", "--seed", "5", "--out", "{out}"), 0,
     '', '',
     'sha256:7290a7b6d64f0bc921ab5460c9033177'),
    (("extend", "{pinched}", "--seed", "1", "--out", "{out}"), 1,
     '{"backtracks":1,"error":"extension-exhausted","pair":["a","c"]}\n',
     '', None),
    (("line", "{line}", "--a", "p+0", "--b", "p+1", "-n", "2"), 0,
     '{"line":["p-2","p-1","p+0","p+1","p+2"]}\n',
     '', None),
    (("line", "{line}", "--a", "p+0", "--b", "p+1", "-n", "4"), 1,
     '{"line":null,"reason":"sphere at \'p+3\' radius 1 is deficient"}\n',
     '', None),
    (("gps", "{line}", "--a", "p+0",
      "--ra", "2", "--b", "p+3", "--rb", "1"), 0,
     '{"point":"p+2"}\n',
     '', None),
    (("gps", "{line}", "--a", "p+0",
      "--ra", "1", "--b", "p+3", "--rb", "1"), 0,
     '{"point":null}\n',
     '', None),
    (("orient", "{line}", "--origin", "p+0", "--x", "p+1", "--y", "p-2"), 0,
     '{"orientation":"antiparallel"}\n',
     '', None),
    (("orient", "{short}", "--origin", "a", "--x", "b", "--y", "c"), 0,
     '{"orientation":null,"reason":"sphere at \'b\' radius 1 is deficient"}\n',
     '', None),
    (("segment", "{line}", "--x", "p-1", "--y", "p+1", "--r", "2"), 0,
     '{"point":"p+3"}\n',
     '', None),
    (("segment", "{line}", "--x", "p+0", "--y", "p+3", "--r", "3"), 0,
     '{"point":null,"reason":"sphere at \'p+3\' radius 3 is deficient"}\n',
     '', None),
    (("group", "dist", "{x}", "{y}"), 0,
     '{"coeffs":{"0":"5/6","1":"-5/6","2":"-1","5":"2/3"},'
     '"sign_normalized":true}\n',
     '', None),
    (("group", "normeq", "{x}", "{y}"), 1,
     '{"norm_equal":false}\n',
     '', None),
    (("group", "solve", "--coeffs", "1,0,0,0,2,0", "--human"), 0,
     '{\n  "infinite": false,\n  "solutions": [\n    "-2",\n    "2"\n  ]\n}\n',
     '', None),
    (("build", "--spec", "{spec}", "--seed", "1"), 0,
     'sha256:011a69b82e0440b64b70e36c44ae64dc',
     '', None),
    (("build", "--spec", "{spec}", "--seed", "1", "--out", "{out}"), 0,
     '', '',
     'sha256:011a69b82e0440b64b70e36c44ae64dc'),
    (("build", "--spec", "{spec}", "--seed", "1", "--human"), 0,
     'sha256:db2823acbeca79b66b88ebb1abac0d8b',
     '', None),
    (("certify", "{built}", "{spec}"), 0,
     'sha256:4c97336bdad913cf4b7444329387d8c8',
     '', None),
    (("certify", "{forged}", "{spec}"), 1,
     'sha256:911bf215ea93909fd57dba2cb93e7f02',
     '', None),
    # the rank-2 line and its two longer copies: placement and pair check
    (("verify", "{rank2}"), 0,
     'sha256:9ca1e3657c9fe9e84396ce0ac05c62af',
     '', None),
    (("embed", "{rank2}"), 0,
     'sha256:b5f1a74cde92fe302a18ba03d1974be1',
     '', None),
    (("verify", "{unplaced}"), 1,
     'sha256:d3dcf9747b905006d9e921fb58fb142d',
     '', None),
    (("embed", "{unplaced}"), 1,
     '{"embeddable":false,"obstruction":["x00","x01","x33"]}\n',
     '', None),
    (("verify", "{unpaired}"), 1,
     'sha256:52988c811cdb5f21b7499c59648c819b',
     '', None),
    (("embed", "{unpaired}"), 1,
     '{"embeddable":false,"obstruction":["x00","x32","x33"]}\n',
     '', None),
]


@pytest.mark.parametrize("argv,code,out,err,written", CLI_OUTPUT_BYTES,
                         ids=[" ".join(case[0]) for case in CLI_OUTPUT_BYTES])
def test_cli_output_bytes_are_pinned(capsys, pinned_inputs, argv, code, out,
                                     err, written):
    got_code, got_out, got_err = run(capsys, *(a.format(**pinned_inputs)
                                               for a in argv))
    dest = Path(pinned_inputs["out"])
    got_written = dest.read_text() if dest.exists() else None
    assert (got_code, _pinned(got_out), got_err.split("\n")[0],
            _pinned(got_written)) == (code, out, err, written)


def test_an_unwritable_out_path_is_an_io_error(capsys, tmp_path):
    dest = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "mu", "--gens", "1", "--r", "1",
                         "--window", "2", "--out", str(dest))
    assert code == 2 and out == "" and err.startswith("io error:")
    assert not dest.parent.exists()


def test_build_and_certify_round_trip(capsys, tmp_path):
    spec = {"radii": [{"r": "1",
                       "monoid": {"variant": "closure",
                                  "closure_id": "omega-minus-1"}}],
            "stages": 1, "window": "5", "denom_bound": 64}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "built.json"
    code, out, _ = run(capsys, "build", "--spec", str(spec_path),
                       "--seed", "3", "--out", str(out_path))
    assert code == 0 and out == ""
    built = json.loads(out_path.read_text())
    assert built["certificate"]["seed"] == 3
    assert built["certificate"]["sphere_law_ok"] is True
    code, doc, _ = run_json(capsys, "certify", str(out_path), str(spec_path))
    assert code == 0 and doc["all_ok"] is True and doc["stages_ok"] is True
    # a tampered fragment must fail certification
    built["fragment"]["dist"][0][2] = "1/7"
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(built))
    code, doc, _ = run_json(capsys, "certify", str(forged), str(spec_path))
    assert code == 1 and doc["all_ok"] is False


def _certify_forged(capsys, tmp_path, stages, window, forge):
    """Build the unit line at seed 1, let forge edit the certificate in
    place, and certify the result: the exit code, the report (None when
    there is none) and stderr."""
    spec = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                            "generators": ["1"]}}],
            "stages": stages, "window": window}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "built.json"
    code, _, _ = run(capsys, "build", "--spec", str(spec_path), "--seed", "1",
                     "--out", str(out_path))
    assert code == 0
    built = json.loads(out_path.read_text())
    forge(built["certificate"])
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(built))
    code, out, err = run(capsys, "certify", str(forged), str(spec_path))
    return code, json.loads(out) if out else None, err


@pytest.mark.parametrize("forge", [
    lambda spheres: [],
    lambda spheres: spheres[1:],
    lambda spheres: [dict(spheres[0], center="zz")] + spheres[1:],
    lambda spheres: [dict(spheres[0], center=["a0"])] + spheres[1:],
], ids=["emptied", "dropped", "unknown-center", "list-center"])
def test_certify_fails_an_incomplete_sphere_ledger(capsys, tmp_path, forge):
    # a verdict (exit 1), not a usage error: the fragment is well formed,
    # its certificate just does not list every class sphere
    code, doc, err = _certify_forged(
        capsys, tmp_path, 1, "5",
        lambda cert: cert.update(spheres=forge(cert["spheres"])))
    assert code == 1 and err == ""
    assert doc["sphere_ledger_ok"] is False and doc["all_ok"] is False
    assert doc["metric_ok"] is True and doc["distances_match_cert"] is True


def _edit_first_entry(key, value):
    def edit(cert):
        assert cert["spheres"][0]["complete"] is True
        cert["spheres"][0][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _edit_first_entry("unit", "7"),
    _edit_first_entry("complete", False),
    _edit_first_entry("diameter_ok", False),
    lambda cert: cert["classes"][0].update(units_window="99"),
    lambda cert: cert.update(sphere_law_ok=False),
    lambda cert: cert.update(growth_ok=False),
    lambda cert: cert.update(sphere_law_ok="false"),
], ids=["unit", "complete", "diameter_ok", "units_window", "sphere_law_ok",
        "growth_ok", "string-flag"])
def test_certify_fails_an_edited_certificate_field(capsys, tmp_path, edit):
    code, doc, err = _certify_forged(capsys, tmp_path, 2, "3", edit)
    assert code == 1 and err == ""
    assert doc["all_ok"] is False and doc["metric_ok"] is True


@pytest.mark.parametrize("edit", [
    lambda stages: stages.clear(),
    lambda stages: stages.pop(),
    lambda stages: stages[1].update(stage=2),
    lambda stages: stages[0].update(new_vertices=stages[0]["new_vertices"] + 1),
    lambda stages: stages[0].update(new_vertices=str(stages[0]["new_vertices"])),
    lambda stages: stages.__setitem__(1, "stage 1"),
], ids=["emptied", "dropped", "renumbered", "new_vertices", "string-count",
        "string-entry"])
def test_certify_fails_an_edited_stages_log(capsys, tmp_path, edit):
    # a verdict (exit 1) on a wrong or malformed log, never a format error
    code, doc, err = _certify_forged(capsys, tmp_path, 2, "3",
                                     lambda cert: edit(cert["stages"]))
    assert code == 1 and err == ""
    assert doc["stages_ok"] is False and doc["all_ok"] is False
    assert doc["metric_ok"] is True and doc["sphere_ledger_ok"] is True


def test_certify_needs_both_certified_flags(capsys, tmp_path):
    for flag in ("sphere_law_ok", "growth_ok"):
        code, _, err = _certify_forged(capsys, tmp_path, 2, "3",
                                       lambda cert: cert.pop(flag))
        assert code == 2 and "not a certificate" in err, flag


def test_certify_gives_a_verdict_on_a_window_with_large_units(capsys,
                                                              tmp_path):
    # the realized units 100001, 100002 and 200003 miss 2*100001: a class
    # window verdict (exit 1), with no monoid built from the units
    fragment = {"points": ["a", "b", "c"],
                "dist": [["a", "b", "100001"], ["b", "c", "100002"],
                         ["a", "c", "200003"]]}
    cert = {"seed": 0, "stages": [],
            "classes": [{"r": "1", "floppy": True, "units_window": "5"}],
            "realized_distances": ["100001", "100002", "200003"],
            "generic_values": [], "spheres": [],
            "sphere_law_ok": True, "growth_ok": True}
    spec = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                            "generators": ["1"]}}]}
    built_path, spec_path = tmp_path / "built.json", tmp_path / "spec.json"
    built_path.write_text(json.dumps({"fragment": fragment,
                                      "certificate": cert}))
    spec_path.write_text(json.dumps(spec))
    code, doc, err = run_json(capsys, "certify", str(built_path),
                              str(spec_path))
    assert code == 1 and err == ""
    assert doc["class_windows_ok"] is False and doc["all_ok"] is False
    assert doc["metric_ok"] is True and doc["sphere_ledger_ok"] is True


@pytest.mark.parametrize("doc", [{"fragment": {"points": ["a"], "dist": []}},
                                 {"certificate": {}}, [1]],
                         ids=["no certificate", "no fragment", "list"])
def test_certify_needs_a_fragment_and_a_certificate(capsys, tmp_path, doc):
    built, spec = tmp_path / "built.json", tmp_path / "spec.json"
    built.write_text(json.dumps(doc))
    spec.write_text(json.dumps({"radii": []}))
    code, out, err = run(capsys, "certify", str(built), str(spec))
    assert (code, out) == (2, "")
    assert err == ("format error: expected a build output with 'fragment' "
                   "and 'certificate'\n")


@pytest.mark.parametrize("spec", [[1], "spec"], ids=["list", "string"])
def test_certify_rejects_a_spec_that_is_not_an_object(capsys, tmp_path, spec):
    # a format error (exit 2), not a false verdict (exit 1) or a traceback
    good_path, spec_path = tmp_path / "good.json", tmp_path / "spec.json"
    good_path.write_text(json.dumps(
        {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                         "generators": ["1"]}}],
         "window": "2"}))
    built_path = tmp_path / "built.json"
    code, _, _ = run(capsys, "build", "--spec", str(good_path), "--seed", "3",
                     "--out", str(built_path))
    assert code == 0
    spec_path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "certify", str(built_path), str(spec_path))
    assert code == 2 and out == ""
    assert "format error" in err and "build spec" in err


def test_build_rejects_bad_spec(capsys, tmp_path, input_files):
    spec = {"radii": [{"r": "1",
                       "monoid": {"variant": "closure",
                                  "closure_id": "dyadic-plus-thirds"}}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "build", "--spec", str(path), "--seed", "0")
    assert code == 2 and out == "" and "spec rejected" in err
    # certify reads the same spec the same way, against a good build
    code, out, err = run(capsys, "certify", input_files["BUILT"], str(path))
    assert code == 2 and out == "" and err.startswith("spec rejected:")


@pytest.mark.parametrize("field, bad", [
    ("stages", 1.9), ("stages", True), ("denom_bound", "64"),
])
def test_build_refuses_an_integer_field_that_is_not_an_integer(
        capsys, tmp_path, field, bad):
    # "stages": 1.9 once built one stage, and certified against the spec
    spec = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                            "generators": ["1"]}}],
            "window": "2", field: bad}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "build", "--spec", str(path), "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("format error") and f"{field} must be an integer" in err


@pytest.mark.parametrize("where", ["spec seed", "certificate seed",
                                   "ledger class"])
def test_certify_refuses_an_integer_field_that_is_not_an_integer(
        capsys, tmp_path, where):
    spec = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                            "generators": ["1"]}}],
            "window": "2"}
    spec_path, built_path = tmp_path / "spec.json", tmp_path / "built.json"
    spec_path.write_text(json.dumps(spec))
    code, _, _ = run(capsys, "build", "--spec", str(spec_path), "--seed", "1",
                     "--out", str(built_path))
    assert code == 0
    built = json.loads(built_path.read_text())
    if where == "spec seed":
        spec_path.write_text(json.dumps(dict(spec, seed=1.0)))
    elif where == "certificate seed":
        built["certificate"]["seed"] = 1.0
    else:
        built["certificate"]["spheres"][0]["class"] = 0.0
    built_path.write_text(json.dumps(built))
    code, out, err = run(capsys, "certify", str(built_path), str(spec_path))
    assert code == 2 and out == ""
    assert err.startswith("format error") and "must be an integer" in err


# -- error plumbing ------------------------------------------------------------------


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "/nonexistent/f.json")
    assert code == 2 and out == "" and "io error" in err


def test_malformed_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and "malformed JSON" in err


@pytest.mark.parametrize("argv", [
    ("mu", "--gens", "1", "--r", "1/0", "--window", "2"),
    ("ddot", "--gens", "1", "--window", "1/0"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "zero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task", ["verify", "embed", "extend"])
@pytest.mark.parametrize("values", [("5", "2"), ("2", "5"),
                                    ("5", "2", "reversed"),
                                    ("2", "5", "reversed")])
def test_a_pair_repeated_with_another_value_is_a_format_error(
        capsys, tmp_path, task, values):
    # a later row once replaced an earlier one: verify read a-b as 2 and
    # passed in one order, and extend completed with a-b = 1; written as
    # b-a, the repeat once reached the graph's check as "bad input"
    again = ["b", "a"] if "reversed" in values else ["a", "b"]
    rows = [["a", "b", values[0]], again + [values[1]], ["b", "c", "1"]]
    if task == "extend":
        doc, argv = {"vertices": ["a", "b", "c"], "edges": rows}, ("--seed", "1")
    else:
        doc, argv = {"points": ["a", "b", "c"],
                     "dist": rows + [["a", "c", "1"]]}, ()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, task, str(path), *argv)
    assert code == 2 and out == "" and err.startswith("format error")
    assert "conflicting values for ('a', 'b')" in err


def test_a_padded_surd_key_is_a_format_error(capsys, tmp_path):
    # "02" once read as a second sqrt(2) coefficient and verified
    value = {"rat": "1", "surds": {"2": "1", "02": "1"}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"points": ["a", "b"],
                                "dist": [["a", "b", value]]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and err.startswith("format error")
    assert "'02'" in err


@pytest.mark.parametrize("task", ["surds", "points", "gps", "many", "two"])
def test_a_repeated_key_is_a_format_error(capsys, tmp_path, line_file, task):
    # {"2": "1", "2": "5"} once read as 5*sqrt(2) and verified, and a second
    # "points" list replaced the first
    path = tmp_path / "doc.json"
    if task == "many":
        # 200,000 keys and one repeat: counted in one pass, not per key
        keys = [f"k{i}" for i in range(200_000)] + ["k7"]
        path.write_text("{" + ", ".join(f'"{k}": 0' for k in keys) + "}")
        argv, key = ("verify", str(path)), "'k7'"
    elif task == "two":
        # x and y both twice: the first of the most repeated, in document
        # order, is named
        path.write_text('{"points": [], "y": 1, "x": 1, "x": 2, "y": 2}')
        argv, key = ("verify", str(path)), "'y'"
    elif task == "surds":
        path.write_text('{"points": ["a", "b"], "dist": [["a", "b", '
                        '{"rat": "1", "surds": {"2": "1", "2": "5"}}]]}')
        argv, key = ("verify", str(path)), "'2'"
    elif task == "points":
        path.write_text('{"points": ["a", "b", "c"], "points": ["a", "b"], '
                        '"dist": [["a", "b", "1"]]}')
        argv, key = ("verify", str(path)), "'points'"
    else:
        argv = ("gps", line_file, "--a", "p+0", "--ra",
                '{"rat": "1", "rat": "2"}', "--b", "p+1", "--rb", "1")
        key = "'rat'"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("format error")
    assert f"repeated key {key}" in err


@pytest.mark.parametrize("bad", ["x", None, []], ids=["string", "null", "list"])
@pytest.mark.parametrize("task", ["verify", "gps", "certify", "group-dist"])
def test_a_malformed_surds_or_coeffs_object_is_a_format_error(
        capsys, tmp_path, line_file, task, bad):
    value = {"rat": "1", "surds": bad}
    path = tmp_path / "doc.json"
    if task == "verify":
        path.write_text(json.dumps({"points": ["a", "b"],
                                    "dist": [["a", "b", value]]}))
        argv = ("verify", str(path))
    elif task == "gps":
        argv = ("gps", line_file, "--a", "p+0", "--ra", json.dumps(value),
                "--b", "p+1", "--rb", "1")
    elif task == "certify":
        cert = {"seed": 0, "stages": [], "classes": [],
                "realized_distances": [value], "generic_values": [],
                "spheres": [], "sphere_law_ok": True, "growth_ok": True}
        path.write_text(json.dumps({"fragment": {"points": ["a"], "dist": []},
                                    "certificate": cert}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"radii": []}))
        argv = ("certify", str(path), str(spec))
    else:
        path.write_text(json.dumps({"coeffs": bad}))
        argv = ("group", "dist", str(path), str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("format error")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("line", "{frag}", "--a", "a", "--b", "b", "-n", "2"),
    ("gps", "{frag}", "--a", "a", "--ra", "1", "--b", "b", "--rb", "1"),
    ("orient", "{frag}", "--origin", "a", "--x", "b", "--y", "b"),
    ("segment", "{frag}", "--x", "a", "--y", "b", "--r", "1"),
    ("verify", "{frag}"),
    ("embed", "{frag}"),
    ("certify", "{built}", "{spec}"),
], ids=lambda argv: argv[0])
def test_zero_distance_is_a_usage_error(capsys, tmp_path, argv):
    # a fragment whose two points sit at distance 0 is rejected on load,
    # before any geometry can answer from it
    fragment = {"points": ["a", "b"], "dist": [["a", "b", "0"]]}
    paths = {"frag": tmp_path / "frag.json", "built": tmp_path / "built.json",
             "spec": tmp_path / "spec.json"}
    paths["frag"].write_text(json.dumps(fragment))
    paths["built"].write_text(json.dumps({"fragment": fragment,
                                          "certificate": {}}))
    paths["spec"].write_text(json.dumps({"radii": []}))
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2 and out == "" and "not positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dist, argv", [
    # the triangle inequality fails: a-c is 5, a-b-c is 2
    ([["a", "b", "1"], ["b", "c", "1"], ["a", "c", "5"]],
     ("gps", "--a", "a", "--ra", "5", "--b", "b", "--rb", "1")),
    # the sphere of radius 1 at o has three members
    ([["a", "o", "1"], ["b", "o", "1"], ["c", "o", "1"], ["a", "b", "2"],
      ["a", "c", "2"], ["b", "c", "2"]],
     ("line", "--a", "a", "--b", "o", "-n", "2")),
], ids=["triangle", "crowded-sphere"])
def test_geometry_refuses_a_fragment_that_fails_verify(capsys, tmp_path, dist,
                                                       argv):
    points = sorted({p for row in dist for p in row[:2]})
    path = tmp_path / "frag.json"
    path.write_text(json.dumps({"points": points, "dist": dist}))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == "" and "bad input" in err
    assert "Traceback" not in err


def test_orient_past_the_fragment_is_a_null_outcome(capsys, tmp_path):
    # the ray from a through b must reach length 3, beyond the table
    path = tmp_path / "frag.json"
    path.write_text(json.dumps({"points": ["a", "b", "c"],
                                "dist": [["a", "b", "1"], ["b", "c", "2"],
                                         ["a", "c", "3"]]}))
    code, doc, err = run_json(capsys, "orient", str(path),
                              "--origin", "a", "--x", "b", "--y", "c")
    assert code == 0 and doc["orientation"] is None and "reason" in doc
    assert "Traceback" not in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_human_mode_indents(capsys):
    code, out, _ = run(capsys, "floppy", "--gens", "1", "--human")
    assert code == 0 and out.startswith('{\n  "verdict": true')


def test_installed_script_matches_library(tmp_path):
    """The console script declared in pyproject.toml behaves like
    `python -m banakh.cli`. The test writes the launcher an installer
    generates for the entry point and runs it by path, so it checks this
    checkout rather than whatever `banakh` is first on PATH."""
    tomllib = pytest.importorskip("tomllib")
    src = Path(banakh.__file__).resolve().parent.parent
    with open(src.parent / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["banakh"]
    module, attr = entry.split(":")
    script = tmp_path / "banakh"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["halfgroup", "--gens", "2,3"]
    # each child reads no stdin and has a time limit of its own, so a
    # stuck child fails its test instead of stalling the whole run
    lib = subprocess.run([sys.executable, "-m", "banakh.cli", *argv],
                         capture_output=True, text=True, env=env,
                         stdin=subprocess.DEVNULL, timeout=60)
    assert lib.returncode == 1, lib.stderr
    assert json.loads(lib.stdout)["witness"] == "1 = 3-2 not in M"
    proc = subprocess.run([str(script), *argv], capture_output=True,
                          text=True, env=env, stdin=subprocess.DEVNULL,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (1, lib.stdout), proc.stderr


# -- what a cold run loads and parses ------------------------------------------

_LOADED = """
import contextlib, io, json, sys
import banakh.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = banakh.cli.main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("banakh."))]))
"""


def _run_fresh(script, **fields):
    """The JSON that ``script`` prints in a new interpreter over this
    source tree: earlier tests here may have loaded or bound anything."""
    src = Path(banakh.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script.format(**fields)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          stdin=subprocess.DEVNULL, timeout=60)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, code, absent", [
    (["halfgroup", "--gens", "2,4"], 0,
     {"graph_metric", "banakh_space", "banakh_group", "space_builder"}),
    (["mu", "--gens", "2,3", "--r", "1", "--window", "3"], 0,
     {"banakh_space", "banakh_group", "space_builder"}),
    (["extend", "GRAPH", "--seed", "1"], 0,
     {"banakh_space", "banakh_group", "space_builder"}),
    (["orient", "LINE", "--origin", "p+0", "--x", "p+1", "--y", "p-2"], 0,
     {"banakh_group", "space_builder"}),
    (["certify", "BUILT", "SPEC"], 0, {"banakh_group"}),
    (["group", "dist", "X", "Y"], 0, {"space_builder"})])
def test_a_command_loads_only_the_layers_it_reads(input_files, argv, code,
                                                  absent):
    argv = [input_files.get(a, a) for a in argv]
    got, loaded = _run_fresh(_LOADED, argv=argv)
    assert got == code
    assert {"banakh.cli", "banakh.serialize", "banakh.values"} <= set(loaded)
    assert not {f"banakh.{m}" for m in absent} & set(loaded)


_BOUND = """
import contextlib, io, json
import banakh.cli
names = set(vars(banakh.cli))
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert banakh.cli.main(argv) == 0, argv
print(json.dumps(sorted(set(vars(banakh.cli)) ^ names)))
"""


def test_a_run_binds_no_module_name(input_files):
    argvs = [["mu", "--gens", "2,3", "--r", "1", "--window", "3"],
             ["verify", "LINE"], ["group", "dist", "X", "Y"],
             ["build", "--spec", "SPEC", "--seed", "1"]]
    argvs = [[input_files.get(a, a) for a in argv] for argv in argvs]
    assert _run_fresh(_BOUND, argvs=argvs) == []


_INSPECT_CHAIN = """
import contextlib, io, json, sys
start = set(sys.modules)
import banakh.cli
from banakh import (banakh_group, banakh_space, graph_metric,
                    monoid_algebra, serialize, space_builder, values)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [banakh.cli.main(argv) for argv in {argvs!r}]
print(json.dumps([codes, sorted(set(sys.modules) - start)]))
"""


def test_no_layer_loads_dataclasses_or_the_inspect_chain(input_files):
    """``dataclasses`` imports ``inspect``, ``ast``, ``dis`` and
    ``tokenize``: about 6 ms of every cold run.  Compared with the
    interpreter's own start, so a site hook that loads one is no failure."""
    argvs = [["certify", "BUILT", "SPEC"], ["group", "dist", "X", "Y"]]
    argvs = [[input_files.get(a, a) for a in argv] for argv in argvs]
    codes, loaded = _run_fresh(_INSPECT_CHAIN, argvs=argvs)
    assert codes == [0, 0]
    assert "banakh.space_builder" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded)


def _parse_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["frobnicate"], ["halfgroup", "--gens", "2", "extra"],
    ["ddot", "--gens", "3,5"], ["-h", "halfgroup"],
    *([name, "-h"] for name in banakh.cli._COMMANDS)])
def test_one_subparser_parses_like_the_full_parser(capsys, monkeypatch,
                                                   argv):
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_exit(capsys, banakh.cli._build_parser().parse_args, argv)
    assert _parse_exit(capsys, main, argv) == full
    assert full[0] == (0 if "-h" in argv or "--help" in argv else 2)


def test_the_usage_line_names_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = ("usage: banakh [-h]\n"
             "              {verify,embed,halfgroup,floppy,ddot,dzik,mu,"
             "extend,line,gps,orient,segment,group,build,certify}\n"
             "              ...\n")
    for argv in (["halfgroup", "--gens", "2", "extra"], []):
        code, out, err = _parse_exit(capsys, main, argv)
        assert code == 2 and out == "" and err.startswith(usage)
    code, out, _ = _parse_exit(capsys, main, ["--help"])
    assert code == 0 and out.startswith(usage)


# -- bad input graphs and caps on extend -------------------------------------------


# a-c is 5 while the path a-b-c is 2: no completion can be a metric
LONG_EDGE = {"vertices": ["a", "b", "c"],
             "edges": [["a", "b", "1"], ["b", "c", "1"], ["a", "c", "5"]]}
# the same graph with a pendant d: completion stalls at the pair (a, d)
LONG_EDGE_PENDANT = {"vertices": ["a", "b", "c", "d"],
                     "edges": LONG_EDGE["edges"] + [["c", "d", "1"]]}


@pytest.mark.parametrize("graph", [LONG_EDGE, LONG_EDGE_PENDANT],
                         ids=["full", "pendant"])
def test_extend_blames_an_edge_longer_than_a_path(capsys, tmp_path, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "extend", str(path), "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("bad input:") and err.count("\n") == 1
    assert "edge ('a', 'c') is longer than a path" in err


def test_extend_above_the_pair_cap_is_bad_input(capsys, tmp_path):
    # 448 vertices make 100,128 pairs, just above ENUMERATION_CAP
    names = [f"v{k}" for k in range(448)]
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"vertices": names,
                                "edges": [[u, v, "1"] for u, v
                                          in zip(names, names[1:])]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "extend", str(path), "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("bad input:")
    assert "100128 pairs" in err


def test_build_above_the_stage_cap_is_bad_input(capsys, tmp_path):
    # each of 10**9 stages would cost a fraction of a millisecond; the count
    # is refused with the cap before the first one
    spec = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                            "generators": ["1"]}}],
            "stages": 1000000000, "window": "2"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(capsys, "build", "--spec", str(path), "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("bad input:")
    assert "1000000000 stages, above the cap of 447" in err


# -- fuzzing main() ----------------------------------------------------------------


EXIT_2_PREFIXES = ("format error:", "malformed JSON:", "io error:",
                   "spec rejected:", "bad input:", "verdict inconclusive:")

_HUGE = str(10 ** 40)
_RATS = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "3/7", "1/0", "x",
                         "", _HUGE, "-" + _HUGE, "1/" + _HUGE])
_INTS = st.one_of(st.integers(-3, 9),
                  st.sampled_from([2 ** 31 - 1, 2 ** 32 + 15, 10 ** 40,
                                   -10 ** 40])).map(str)
_RAT_LISTS = st.lists(_RATS, min_size=1, max_size=3).map(",".join)
_POINTS = st.sampled_from(["a", "b", "c", "p+0", "p+1", "p-2", "p+3", "zz"])
_FRAGMENTS = st.sampled_from(["{line}", "{short}", "{triangle}", "{doc}",
                              "{missing}"])
_ELEMENTS = st.sampled_from(["{x}", "{y}", "{doc}", "{missing}"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _RATS | _POINTS
    | st.sampled_from([[], {}]),
    lambda children: (
        st.lists(children, min_size=1, max_size=3)
        | st.dictionaries(st.sampled_from(
            ["points", "dist", "vertices", "edges", "coeffs", "rat", "surds",
             "radii", "r", "monoid", "variant", "generators", "stages",
             "window", "fragment", "certificate", "seed", "0", "2"]),
            children, min_size=1, max_size=3)),
    max_leaves=8)


def _flag(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


def _optional(strategy):
    return st.one_of(st.just([]), strategy)


_MONOID_FLAGS = st.one_of(
    _flag("gens", _RAT_LISTS), _flag("cone", _RAT_LISTS),
    _flag("monoid", st.sampled_from(["dyadic", "omega-minus-1", "nope"])),
    st.just([]), st.just(["--gens=1", "--cone=1"]))


def _command(name, *parts):
    return st.tuples(*parts).map(
        lambda drawn: [name] + [arg for part in drawn for arg in part])


def _one(values):
    return values.map(lambda v: [v])


_ARGV = st.one_of(
    _command("verify", _one(_FRAGMENTS)),
    _command("embed", _one(_FRAGMENTS)),
    _command("halfgroup", _MONOID_FLAGS, _optional(_flag("bound", _RATS))),
    _command("floppy", _MONOID_FLAGS),
    _command("ddot", _MONOID_FLAGS, _flag("window", _RATS),
             _optional(_flag("denom-bound", _INTS))),
    _command("dzik", _flag("a", _INTS), _flag("b", _INTS), _flag("p", _INTS),
             _MONOID_FLAGS),
    _command("mu", _MONOID_FLAGS, _flag("r", _RATS), _flag("window", _RATS),
             _optional(st.just(["--dot"]))),
    _command("extend", _one(st.sampled_from(["{cycle}", "{pinched}", "{doc}",
                                             "{missing}"])),
             _flag("seed", _INTS),
             _optional(_flag("budget", st.integers(-1, 3).map(str)))),
    _command("line", _one(_FRAGMENTS), _flag("a", _POINTS),
             _flag("b", _POINTS), _INTS.map(lambda n: [f"-n={n}"])),
    _command("gps", _one(_FRAGMENTS), _flag("a", _POINTS),
             _flag("ra", _RATS), _flag("b", _POINTS), _flag("rb", _RATS)),
    _command("orient", _one(_FRAGMENTS), _flag("origin", _POINTS),
             _flag("x", _POINTS), _flag("y", _POINTS)),
    _command("segment", _one(_FRAGMENTS), _flag("x", _POINTS),
             _flag("y", _POINTS), _flag("r", _RATS)),
    _command("group",
             _one(st.sampled_from(["dist", "sphere", "normeq", "hnorm",
                                   "solve"])),
             st.lists(_ELEMENTS, max_size=2),
             _optional(_flag("lattice", st.sampled_from(["H", "L"]))),
             _optional(_flag("coeffs", st.lists(_RATS, min_size=5, max_size=6)
                             .map(",".join)))),
    _command("build", _flag("spec", st.sampled_from(["{spec}", "{doc}",
                                                     "{missing}"])),
             _flag("seed", _INTS)),
    _command("certify",
             _one(st.sampled_from(["{built}", "{doc}", "{missing}"])),
             _one(st.sampled_from(["{spec}", "{doc}"]))),
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input files for the fuzzed commands, by placeholder name; ``doc``
    is rewritten with each drawn JSON document."""
    root = tmp_path_factory.mktemp("fuzz")

    def write(name, obj):
        path = root / f"{name}.json"
        path.write_text(dumps(obj))
        return str(path)

    spec = {"radii": [{"r": "1", "monoid": {"variant": "fingen",
                                            "generators": ["1"]}}],
            "stages": 1, "window": "2"}
    fragment, cert = build(buildspec_from_json(spec, seed=1))
    line = line_fragment({f"p{k:+d}": k for k in range(-3, 4)})
    return {
        "line": write("line", fragment_to_json(line)),
        "short": write("short", {"points": ["a", "b", "c"],
                                 "dist": [["a", "b", "1"], ["b", "c", "2"],
                                          ["a", "c", "3"]]}),
        "triangle": write("triangle", {"points": LONG_EDGE["vertices"],
                                       "dist": LONG_EDGE["edges"]}),
        "cycle": write("cycle", {"vertices": ["a", "b", "c", "d"],
                                 "edges": [["a", "b", "1"], ["b", "c", "1"],
                                           ["c", "d", "1"], ["a", "d", "1"]]}),
        "pinched": write("pinched", {"vertices": ["a", "b", "c", "d"],
                                     "edges": [["a", "b", "1"],
                                               ["a", "d", "4"],
                                               ["b", "c", "1"],
                                               ["c", "d", "2"]]}),
        "spec": write("spec", spec),
        "built": write("built", {"fragment": fragment_to_json(fragment),
                                 "certificate": certificate_to_json(cert)}),
        **{name: write(name, {"coeffs": {str(a): str(c) for a, c
                                         in GROUP_ELEMENTS[name].items()}})
           for name in ("x", "y")},
        "doc": str(root / "doc.json"),
        "missing": str(root / "missing.json"),
    }


@given(argv=_ARGV, doc=_JSON)
@example(argv=["extend", "{doc}", "--seed=1"], doc=LONG_EDGE)
@example(argv=["extend", "{doc}", "--seed=1"], doc=LONG_EDGE_PENDANT)
@settings(max_examples=300, deadline=None)
def test_main_ends_in_an_exit_code_on_any_input(fuzz_files, argv, doc):
    # every command ends in 0, 1 or 2; exit 2 writes one diagnostic line
    Path(fuzz_files["doc"]).write_text(json.dumps(doc))
    argv = [arg.format(**fuzz_files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith(EXIT_2_PREFIXES), (argv, err)
    else:
        assert err == "" and out.getvalue(), argv
