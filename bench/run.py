"""Run one workload of the banakh benchmark and print its metrics.

    python3 bench/run.py --workload build --seed 5 --seconds 30 --trace 0

The benchmark imports ``banakh`` from ``src/`` next to this directory.  With
``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics from a separate traced
pass.  Human-readable lines (median, quartiles and sample count of every
timing) come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Do not run it while the test suite runs: both are CPU-bound and the two
cores are shared.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

import layers
from timing import Outcome, SpeedMeter, quartiles
from tracing import Tracer
from workloads import (WORKLOADS, Library, LibraryMissing, forget_library,
                       startup_probes, write_bytecode)

ROOT = Path(__file__).resolve().parent.parent
PROBE_REPEATS = 5


def declared_metrics(root: Path):
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_untraced(workload, src: Path, seed: int, seconds: float, repeats: int):
    """Set up repeats times (a fresh import of the library plus the inputs),
    then time the workload for the given seconds, at reference speed.

    Set-up runs in this process for every workload, so it is scaled by the
    in-process reference, sampled every 50 ms and right after each set-up;
    the operations by the workload's own meter.
    """
    setup = Outcome(SpeedMeter(period=0.05))

    def fresh():
        lib = Library(src)
        return lib, workload.prepare(lib, seed)

    lib = state = None
    with workload.metered(src) as meter:
        out = Outcome(meter)
        try:
            with setup.meter:
                for _ in range(repeats):
                    if state is not None:
                        # free the previous set-up (module objects are
                        # cycles), so that set-ups neither pile up in the
                        # peak RSS nor pay for each other's collection
                        workload.cleanup(state)
                        lib = state = None
                        forget_library()
                        gc.collect()
                    lib, state = setup.time("setup", fresh)
            with out.meter:
                workload.measure(lib, state, seconds, out)
        finally:
            if state is not None:
                workload.cleanup(state)
    setup.finish()
    out.finish()
    out.samples["setup"] = setup.samples["setup"]
    lines = [_describe(f"{key}_s", xs) for key, xs in out.samples.items()]
    lines += out.notes
    metrics = {
        "op_p50_s": statistics.median(out.samples["op"]),
        "certify_s": statistics.median(out.samples["certify"]),
        "setup_s": statistics.median(out.samples["setup"]),
        "peak_rss_mb": workload.peak_rss_mb,
    }
    return out, metrics, lines


def run_traced(workload, src: Path, seed: int, probes: int):
    """An untraced reference pass, then the same operations traced.

    Both passes are timed at reference speed, so that the overhead is not
    machine drift; span times are plain wall times.  A workload whose checks
    call the library returns them from trace_ops, to run untraced.
    """
    lib = Library(src)
    passes = []
    for traced in (False, True):
        tracer = Tracer()
        meter = SpeedMeter(period=0.1)
        out = Outcome(meter)
        with tracer, meter:
            if traced:
                layers.install(tracer, lib)
            state = workload.prepare(lib, seed)
            try:
                check = workload.trace_ops(lib, state, out)
            finally:
                workload.cleanup(state)
        if check is not None:
            check()
        out.finish()
        passes.append(out)
    ref, out = passes
    tracer.count("banakh_space.null_outcomes", out.nulls)
    metrics = layers.layer_metrics(tracer)
    metrics["cli.interpreter_s"], metrics["cli.import_s"] = \
        startup_probes(src, probes)
    metrics["trace.overhead_s"] = out.busy - ref.busy
    lines = [f"untraced {ref.busy:.6f} s, traced {out.busy:.6f} s "
             f"for the same {out.ops} operations (at reference speed)"]
    for root, counts in sorted(tracer.root_counts().items()):
        shown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items())
                          if k.startswith("values."))
        if shown:
            lines.append(f"counted inside {root}: {shown}")
    ref.attempted += out.attempted
    ref.failures += out.failures
    return ref, metrics, lines


def _describe(name, xs):
    q1, med, q3 = quartiles(xs)
    return f"{name}: median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} n={len(xs)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        end_to_end, per_layer = declared_metrics(ROOT)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    src = ROOT / "src"
    write_bytecode()
    try:
        if args.trace:
            out, metrics, lines = run_traced(workload, src, args.seed,
                                             PROBE_REPEATS)
            declared = per_layer
        else:
            out, metrics, lines = run_untraced(
                workload, src, args.seed, args.seconds, workload.setup_repeats)
            declared = end_to_end
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(declared):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{out.attempted} checked, {len(out.failures)} failed")
    for line in lines:
        print(line)
    for failure in out.failures[:10]:
        print(f"FAILED: {str(failure)[:300]}", file=sys.stderr)
    result = {"correct": not out.failures,
              "attempted": out.attempted,
              "failed": len(out.failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in declared.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
