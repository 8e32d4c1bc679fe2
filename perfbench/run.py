"""Benchmark of the scren package: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pair_roofs --seed 1 --seconds 25 --trace 0

``--trace 0`` times items in a closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs the first ``min_calls`` calls
untraced, then runs items again with every public ``scren`` function wrapped
(see ``tracer.py``) and reports per-layer metrics; the spans are written to
``perfbench/out/``.  Every output is checked after the timed phase.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``); the three timings are taken at the
reference speed of ``speed.py``, and the raw figures are printed beside them:

- ``setup_s``: median over fresh interpreters of the time from process start
  until the inputs are ready (numpy/scipy/scren imports, seeded inputs).
- ``items_per_s``: items completed per second of the timed calls.
- ``latency_p50_s``: median wall time per item.
- ``cpu_s``: median process CPU time per item; the work is single-threaded.
- ``pass_ratio``: items whose check passed over items attempted; an exception
  counts as a failure.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

The program is imported from ``src/`` of the checkout; the benchmark fails
when it is missing.
"""

import os

# Pin BLAS to one thread; this must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
# Longest stretch of a call between two speed probes.
PROBE_INTERVAL_S = 0.5
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, then print the time")
    return parser.parse_args(argv)


def _import_program():
    """Import scren from this checkout's ``src``; fail if it is not there."""
    if not (SRC / "scren" / "__init__.py").is_file():
        raise SystemExit(f"error: no scren sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scren

    if Path(scren.__file__).resolve().parent != SRC / "scren":
        raise SystemExit(f"error: imported scren from {scren.__file__}, not from {SRC}")
    import workloads

    return workloads


def _measure_setup(workload: str, seed: int) -> float:
    """Median time from interpreter spawn until inputs are ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.time()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]) - started)
    return statistics.median(samples)


def _loop(bench, seconds: float, min_calls: int, clock, tracer=None):
    """Closed loop over calls 0, 1, ...: at least ``min_calls`` calls, then
    start another only while it is expected to end within ``seconds``.

    Returns each call's ``clock.lap()`` and its output (or exception).
    """
    laps, outputs = [], []
    began = time.perf_counter()
    while len(laps) < min_calls or (
        (time.perf_counter() - began) * (len(laps) + 1) / len(laps) <= seconds
    ):
        if tracer is not None:
            tracer.call = len(laps)
        try:
            output = bench.run(len(laps), clock.checkpoint)
        except Exception as exc:  # a failed call is counted, not fatal
            output = exc
        laps.append(clock.lap())
        outputs.append(output)
    return laps, outputs


def _failures(bench, outputs) -> int:
    failed = 0
    for i, output in enumerate(outputs):
        if isinstance(output, Exception):
            failed += bench.items_per_call
        else:
            failed += bench.failures(i, output)
    return failed


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _end_to_end(bench, args) -> tuple[dict, int, int]:
    setup_s = _measure_setup(args.workload, args.seed)
    clock = speed.Clock(PROBE_INTERVAL_S)
    laps, outputs = _loop(bench, args.seconds, bench.min_calls, clock)
    wall, cpu, raw_wall, raw_cpu = zip(*laps)
    per = bench.items_per_call
    attempted = len(outputs) * per
    failed = _failures(bench, outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (attempted / sum(wall), "1/s"),
        "latency_p50_s": (statistics.median(wall) / per, "s"),
        "cpu_s": (statistics.median(cpu) / per, "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{attempted} items in {len(outputs)} calls, {failed} failed "
          f"(fail_ratio {failed / attempted:.6g}); latency_p50_s and cpu_s are "
          f"medians over {len(outputs)} calls of {per} items")
    print(f"raw: latency_p50_s {statistics.median(raw_wall) / per:.6g} s, "
          f"items_per_s {attempted / sum(raw_wall):.6g} 1/s, "
          f"cpu_s {statistics.median(raw_cpu) / per:.6g} s; "
          f"{len(clock.probes)} probes, median {statistics.median(p[0] for p in clock.probes):.6g} s "
          f"(reference {speed.REFERENCE_S} s)")
    return metrics, attempted, failed


def _per_layer(bench, args) -> tuple[dict, int, int]:
    from tracer import Tracer

    # Probes only between calls here: inside a call their time would land in spans.
    counted = bench.min_calls
    base_laps, base_outputs = _loop(bench, 0.0, counted, speed.Clock(math.inf))
    tracer = Tracer()
    tracer.install()
    try:
        laps, outputs = _loop(bench, args.seconds, counted, speed.Clock(math.inf), tracer)
    finally:
        tracer.uninstall()
    per = bench.items_per_call
    attempted = (len(base_outputs) + len(outputs)) * per
    failed = _failures(bench, base_outputs) + _failures(bench, outputs)
    layer = tracer.layer_metrics(counted, len(outputs) * per)
    traced = sum(lap[0] for lap in laps[:counted])
    layer["trace.overhead_ratio"] = traced / sum(lap[0] for lap in base_laps) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
    metrics = {name: (value, _layer_unit(name)) for name, value in layer.items()}
    print(f"traced {len(outputs)} calls, {failed} of {attempted} items failed; "
          f"counts cover the first {counted} calls; "
          f"{len(tracer.spans)} spans written to {OUT_DIR.relative_to(ROOT)}/")
    return metrics, attempted, failed


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/item"
    if name.endswith("ratio"):
        return "ratio"
    if name == "roof.s_per_roof":
        return "s"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    bench = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.time())
        return 0

    measure = _per_layer if args.trace else _end_to_end
    metrics, attempted, failed = measure(bench, args)
    print("env " + json.dumps(_environment(args.seed)))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
