#!/usr/bin/env python3
"""The fluidtail benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_sweep --seed 1 --seconds 45 --trace 0

Each workload is a closed loop with one caller in one long-lived process:
the next op starts when the previous one returns, and the process runs
whole rounds of the workload's ops until ``--seconds`` have passed.  The
inputs (random tuples, Monte Carlo seeds) come from ``--seed``.  Every
output is checked; see workloads.py.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracing.py).  Human-readable lines, including
the environment, come first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  ``--tiny`` shrinks every op for the
smoke test.

BLAS is pinned to one thread: on two cores, two OpenBLAS threads made an
N=400 solve slower and noisier (median 0.52-0.55 s, worst 1.4 s) than one
(0.34-0.45 s, worst 0.47 s) on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analyze_sweep", "mc_simulate")
SETUP_INTERPRETERS = 7     # fresh interpreters that measure set-up
DEADLINE_S = 170.0         # the whole run, all processes included
TAIL_PERCENTILES = (99, 95, 90, 80, 75)

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "roots.find_coeff_zero_s": "s",
    "roots.candidates": "count",
    "asymptotics.analyze_s": "s",
    "asymptotics.tails_s": "s",
    "spectral.solve_truncated_s": "s",
    "spectral.solves_per_op": "count",
    "spectral.solve_share": "ratio",
    "simulate.simulate_s": "s",
    "simulate.events": "count",
    "simulate.events_per_s": "1/s",
    "simulate.window_frac": "ratio",
    "simulate.fit_tail_s": "s",
    "simulate.ci_rel_x_sqrt_cpu_s": "sqrt_s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "baseline.solve_truncated_1t_s": "s",
    "mc_ci_rel": "ratio",
    "failed_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def _worker(root: Path, env: dict, deadline: float, args, role: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError(f"{role} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, root: Path) -> tuple:
    """(human-readable lines, result object) of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    compileall.compile_dir(str(root / "src" / "fluidtail"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    main = _worker(root, env, deadline, args, "main")
    attempted, failed = main["ops"], main["failed"]
    failed_frac = failed / attempted
    mc_ci_rel = statistics.median(main["mc_ci_rel"]) if main["mc_ci_rel"] else 0.0
    lines = [
        "env " + json.dumps(main["env"]),
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{attempted} ops in {main['rounds']} rounds, {main['elapsed_s']:.1f} s, "
        "closed loop, one caller",
    ]
    lines += [f"failure x{count}: {msg}" for msg, count in sorted(main["failures"].items())]
    times = sorted(main["op_times"])
    for pct in TAIL_PERCENTILES:   # the highest one with at least ten ops beyond it
        if len(times) * (100 - pct) >= 1000:
            tail = times[min(len(times) - 1, len(times) * pct // 100)]
            lines.append(f"op_p{pct}_s {tail:.6g} s (n={len(times)})")
            break
    notes = {"failed_frac": f"{failed} of {attempted} ops",
             "mc_ci_rel": f"median of {len(main['mc_ci_rel'])} ops",
             "trace.overhead_s": "traced minus untraced mean op, same process",
             "baseline.solve_truncated_1t_s": "plain CASE_I solve, BLAS 1 thread"}
    if args.trace:
        values = dict(main["layers"], mc_ci_rel=mc_ci_rel, failed_frac=failed_frac)
        units = PER_LAYER
    else:
        # printed, not bounded: each reads 0 or has no value on some workload
        lines.append(f"failed_frac {failed_frac:.6g} ratio ({notes['failed_frac']})")
        if main["mc_ci_rel"]:
            lines.append(f"mc_ci_rel {mc_ci_rel:.6g} ratio ({notes['mc_ci_rel']})")
        setups = [_worker(root, env, deadline, args, "setup")["setup_s"]
                  for _ in range(SETUP_INTERPRETERS)]
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "ops_per_s": main["ops_per_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END
        notes.update(setup_s=f"median of {len(setups)} fresh interpreters",
                     op_p50_s=f"n={attempted}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {values[name]:.6g} {unit}{note}")
    result = {"correct": main["wrong"] == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every op (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "fluidtail" / "__init__.py").is_file():
        print("perfbench: no src/fluidtail here; run from the root of a fluidtail checkout",
              file=sys.stderr)
        return 2
    try:
        lines, result = measure(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
