"""Tests of the benchmark itself: run with ``python -m pytest bench -q``.

They run every workload at a tiny size, so they take seconds, not the
minutes of a real run.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from tracing import Tracer
from workloads import WORKLOADS, Library, attempt, own_peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_and_units(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(UNIT.fullmatch(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_tiny_and_reports_every_metric(name, spec):
    end_to_end, per_layer = run.declared_metrics(ROOT)
    out, metrics, _ = run.run_untraced(WORKLOADS[name]("tiny"), SRC, 3,
                                       seconds=0.0, repeats=2)
    assert out.attempted > 0 and out.failures == []
    assert set(metrics) == set(end_to_end)
    assert all(v > 0 for v in metrics.values()), metrics
    if name == "cli":    # the cold processes' own peak, not this process's
        assert metrics["peak_rss_mb"] < own_peak_rss_mb()

    out, metrics, _ = run.run_traced(WORKLOADS[name]("tiny"), SRC, 3, probes=1)
    assert out.attempted > 0 and out.failures == []
    assert set(metrics) == set(per_layer)
    times = [m["name"] for m in spec["per_layer"] if m["unit"] == "s"
             and m["name"] != "trace.overhead_s"]
    assert all(metrics[t] > 0 for t in times), metrics


@pytest.mark.parametrize("seed", [0, 5, 39, 40, 51, 1000, -3])
def test_every_full_size_build_has_a_recorded_digest(seed):
    workload = WORKLOADS["build"]()
    assert workload.spec_seeds(seed)[0] == seed % 40
    assert all(str(s) in workload.digests for s in workload.spec_seeds(seed))


def test_a_build_with_other_output_bytes_fails():
    workload = WORKLOADS["build"]("tiny")
    workload.digests = {str(s): "0" * 64 for s in range(40)}
    out, _, _ = run.run_untraced(workload, SRC, 3, seconds=0.0, repeats=1)
    assert out.attempted > 0
    assert len(out.failures) == out.attempted


def test_a_kept_exception_holds_no_frames():
    # a traceback would tie a round's answers into a cycle with its frames
    assert attempt((ValueError,), int, ("x",))[1].__traceback__ is None
    assert attempt((KeyError,), int, ("x",))[1].__traceback__ is None


def _planned(lib):
    """(owner, attribute) of every attribute the traced run may wrap."""
    out = []
    for module_name, attr, _ in layers.SPANS + layers.COUNTED:
        module = getattr(lib, module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            out.append((getattr(module, cls_name), method))
        else:
            fn = getattr(module, attr)
            out += [(m, attr) for m in lib.modules()
                    if m.__dict__.get(attr) is fn]
    return out


def test_traced_run_restores_every_wrapped_attribute():
    lib = Library(SRC)
    planned = _planned(lib)
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in planned}
    workload = WORKLOADS["query"]("tiny")
    with Tracer() as tracer:
        layers.install(tracer, lib)
        wrapped = [(o, a) for o, a in planned
                   if o.__dict__[a] is not before[id(o), a]]
        assert len(wrapped) == len(planned)
        assert lib.space_builder.extend_to_full is lib.graph_metric.extend_to_full
        st = workload.prepare(lib, 1)
        workload.trace_ops(lib, st, run.Outcome())
    for owner, attr in planned:
        assert owner.__dict__[attr] is before[id(owner), attr], (owner, attr)
    assert lib.space_builder.extend_to_full is lib.graph_metric.extend_to_full
    assert lib.pkg.extend_to_full is lib.graph_metric.extend_to_full
    assert tracer.counts["graph_metric.extend_to_full_calls"] == 2


def test_spans_give_self_time():
    tracer = Tracer()
    tracer.spans = [("a.outer", 0.0, 10.0, -1), ("b.inner", 2.0, 5.0, 0),
                    ("a.outer", 3.0, 4.0, 1)]
    assert tracer.self_time() == {"a.outer": 8.0, "b.inner": 2.0}
    assert tracer.inclusive_time() == {"a.outer": 10.0, "b.inner": 3.0}


_COUNTS = """
import json, sys
sys.path.insert(0, {bench!r})
import run
from workloads import WORKLOADS
_, metrics, _ = run.run_traced(WORKLOADS["build"]("tiny"), run.ROOT / "src", 7, probes=1)
print(json.dumps({{k: v for k, v in metrics.items() if isinstance(v, int)}}))
"""


def test_counts_repeat_under_another_hash_seed():
    counts = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _COUNTS.format(bench=str(ROOT / "bench"))],
            capture_output=True, text=True, check=True, timeout=300,
            env={"PYTHONHASHSEED": hash_seed, "PATH": ""})
        counts.append(json.loads(proc.stdout.splitlines()[-1]))
    assert counts[0] == counts[1]
    assert counts[0]["values.lt_calls"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
