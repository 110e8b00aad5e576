"""One measurement process of the benchmark; run.py starts it.

It runs in a fresh interpreter with ``src`` on PYTHONPATH and BLAS pinned to
one thread, and prints one JSON line.

``--role setup`` times ``import fluidtail.cli``, then the workload's first
op twice, and reports import + first op - second op.  The op runs at the
smoke-test size: the first-call costs (lazy imports, compilation, caches)
do not depend on the input size, while a full-size op's run-to-run noise
would drown them.

``--role main`` imports, runs that small op once to warm up, then runs
whole rounds of the workload's ops, one at a time, until ``--seconds``
have passed; only this run's outputs decide whether the run is correct.
A traced main run alternates traced and untraced rounds, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

BASELINE_SOLVES = 3


def _run_op(op):
    """(wall seconds of op.run, Outcome); only op.run is timed."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:   # the program raised: a failed op, not a crash of the benchmark
        return time.perf_counter() - t0, Outcome("failed", f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        return seconds, op.check(result)
    except Exception as exc:   # output that cannot even be read is a wrong answer
        return seconds, Outcome("wrong", f"unreadable output: {type(exc).__name__}: {exc}")


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    from fluidtail import _sim_core

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = "absent"
    if importlib.util.find_spec("numba") is not None:
        numba = importlib.metadata.version("numba")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba": numba,
        "simulator": "numba" if _sim_core.USE_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
    }


def _main_run(args, ops) -> dict:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    records = []   # (seconds, outcome, traced, op index)
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.install()
        try:
            for index, op in enumerate(ops):
                seconds, outcome = _run_op(op)
                if traced:
                    tracer.end_op(seconds)
                records.append((seconds, outcome, traced, index))
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (tracer is None or rounds >= 2):
            break

    times = [s for s, _, _, _ in records]
    statuses = Counter(o.status for _, o, _, _ in records)
    out = {
        "rounds": rounds,
        "ops": len(records),
        "elapsed_s": elapsed,
        "failed": statuses["failed"] + statuses["wrong"],
        "wrong": statuses["wrong"],
        "failures": Counter(f"{ops[i].name} {ops[i].params}: {o.message}"
                            for _, o, _, i in records
                            if o.status != "ok"),
        "op_times": times,
        "ops_per_s": len(records) / sum(times),   # checks excluded
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mc_ci_rel": [o.extras["mc_ci_rel"] for _, o, _, _ in records
                      if "mc_ci_rel" in o.extras],
    }
    if tracer is not None:
        from fluidtail import spectral
        from workloads import REFERENCE

        traced_s = [s for s, _, traced, _ in records if traced]
        plain_s = [s for s, _, traced, _ in records if not traced]
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = statistics.fmean(traced_s) - statistics.fmean(plain_s)
        n_phases = 60 if args.tiny else 400
        solves = []
        for _ in range(BASELINE_SOLVES):
            t0 = time.perf_counter()
            spectral.solve_truncated(REFERENCE[0][1], n_phases)
            solves.append(time.perf_counter() - t0)
        layers["baseline.solve_truncated_1t_s"] = statistics.median(solves)
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("main", "setup"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import fluidtail.cli  # noqa: F401  (what a user of the CLI imports)

    import_s = time.perf_counter() - t0

    import workloads

    probe = workloads.WORKLOADS[args.workload](args.seed, True)[0]
    first_s, _ = _run_op(probe)
    if args.role == "setup":
        steady_s, _ = _run_op(probe)
        out = {"setup_s": import_s + first_s - steady_s}
    else:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
        out = _main_run(args, ops)
        out["env"] = environment()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
