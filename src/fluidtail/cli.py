"""Command-line interface: analyze, solve, simulate, validate.

Every emitted number carries its provenance (analytic, spectral or
simulation) and an error estimate where one is available.  JSON payloads are
versioned with a top-level ``schema`` field.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import asymptotics
from .simulate import SimConfig, default_window, fit_tail, simulate, summary_json, survival_csv
from .asymptotics import TailCase
from .errors import FluidTailError, InvalidInputError
from .model import ModelParams, phase_stationary

SCHEMA = 1


def _val(value, source, error=None):
    out = {"value": value, "source": source}
    if error is not None:
        out["error"] = error
    return out


def _params(args) -> ModelParams:
    return ModelParams(c=args.c, lam=args.lam, mu=args.mu, r=args.r)


def _json(payload: dict) -> str:
    # one line: json.dumps with no options reuses the module's cached C encoder;
    # any option builds a new encoder per call, and indent a pure-Python one
    return json.dumps(payload) + "\n"


def _sink(path):
    """stdout, or the --out file, opened before the run so that a bad path refuses at once."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise InvalidInputError(f"cannot write --out {path!r}: {exc.strerror}") from exc


def _prefactor_val(report, value) -> dict:
    """A prefactor (linear in the transform constant) with its error bar."""
    rel_err = report.c_const_err / max(abs(report.c_const), 1e-300)
    return _val(value, "analytic", rel_err * abs(value))


def _report_payload(report) -> dict:
    return {
        "schema": SCHEMA,
        "params": {"c": report.params.c, "lam": report.params.lam,
                   "mu": report.params.mu, "r": report.params.r},
        "case": _val(report.case.label, "analytic"),
        "alpha_star": _val(report.alpha_star, "analytic", report.alpha_star_err),
        # a decay-rate zero is always simple; kept for schema 1
        "multiplicity": _val(1, "analytic"),
        "power": _val(report.power, "analytic"),
        "z_star": _val(report.z_star, "analytic"),
        "phase_ratio": _val(report.phase_ratio, "analytic"),
        "transform_constant": _val(report.c_const, "analytic", report.c_const_err),
        "density_prefactor": _prefactor_val(report, report.prefactor),
        "marginal_prefactor": _prefactor_val(report, report.marginal_prefactor),
        "boundary_residue": _val(report.d_ztilde, "analytic"),
        "z_tilde": _val(report.z_tilde, "analytic"),
        "boundary_masses": _val(list(report.boundary.masses), "analytic", report.boundary_err),
    }


def _report_csv(payload: dict) -> str:
    lines = ["key,value,source,error"]
    for key, item in payload.items():
        if not isinstance(item, dict) or "value" not in item:
            continue
        val = item["value"]
        if isinstance(val, list):
            val = ";".join(f"{v:.12g}" for v in val)
        lines.append(f"{key},{val},{item['source']},{item.get('error', '')}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    params = _params(args)
    report = asymptotics.analyze(params)
    payload = _report_payload(report)
    args.sink.write(_report_csv(payload) if args.format == "csv" else _json(payload))
    return 0


def cmd_solve(args) -> int:
    from . import spectral

    params = _params(args)
    if args.grid_points < 1:
        raise InvalidInputError(f"--grid-points must be at least 1, got {args.grid_points}")
    if args.grid_max is not None and not (math.isfinite(args.grid_max) and args.grid_max > 0.0):
        raise InvalidInputError(f"--grid-max must be positive and finite, got {args.grid_max}")
    sol = spectral.solve_truncated(params, args.truncation)
    if args.format == "csv":
        top = -sol.eigenvalues[0].real
        xs = np.linspace(0.0, args.grid_max or 30.0 / top, args.grid_points)
        args.sink.write(spectral.curves_csv(sol, xs))
    else:
        args.sink.write(spectral.summary_json(sol) + "\n")
    return 0


def cmd_simulate(args) -> int:
    params = _params(args)
    cfg = SimConfig(
        params=params, horizon=args.horizon, warmup=args.warmup,
        seed=args.seed, sample_stride=args.stride,
    )
    est = simulate(cfg)
    args.sink.write(survival_csv(est) if args.format == "csv" else summary_json(est) + "\n")
    return 0


def cmd_validate(args) -> int:
    from . import spectral

    params = _params(args)
    if args.samples < 1:
        raise InvalidInputError(f"--samples must be at least 1, got {args.samples}")
    cfg = SimConfig(params=params, horizon=args.horizon, warmup=args.warmup,
                    seed=args.seed, sample_stride=(args.horizon - args.warmup) / args.samples)
    sol = spectral.solve_truncated(params, args.truncation)
    report = asymptotics.analyze(params)
    s1 = float(sol.eigenvalues[0].real)
    spectral_rate_err = abs(s1 + report.alpha_star) / report.alpha_star
    tol_eig = args.tol_spectral_rate
    if tol_eig is None:
        tol_eig = 1e-3 if report.case is TailCase.POLE else 2e-2

    est = simulate(cfg, fit=False)
    s_low = max(1e-3, 1000.0 / est.n_samples)
    window = default_window(est, 5e-2, s_low)
    fit = fit_tail(est, window=window, power=report.power)
    xs = np.linspace(window[0], window[1], 25)
    surv = sol.survival_grid(xs)
    y = np.log(surv) - report.power * np.log(xs)
    design = np.vstack([np.ones_like(xs), xs]).T
    spectral_window_rate = -float(np.linalg.lstsq(design, y, rcond=None)[0][1])
    mc_vs_spectral = abs(fit.rate - spectral_window_rate) / spectral_window_rate
    residue_ref = (
        phase_stationary(params).prob(params.c - 1) * report.z_tilde ** params.c
    )
    residue_err = abs(report.d_ztilde - residue_ref) / residue_ref
    # the kernel masses against the oracle's; lam / (c mu) is the rate at
    # which the truncated phases' mass decays, so its N-th power bounds the
    # oracle's own truncation error
    kernel_masses = np.asarray(report.boundary.masses)
    oracle_masses = sol.boundary_masses[: params.c]
    mass_err = float(np.max(np.abs(kernel_masses - oracle_masses) / oracle_masses))
    tol_mass = 1e-10 + 100.0 * (params.lam / (params.c * params.mu)) ** args.truncation
    # the whole phase-(c-1) transform, masses and numerator, against the
    # oracle's below the decay rate; the same truncation error bounds it
    transform_err = 0.0
    for frac in (0.1, 0.5, 0.9):
        a = frac * report.alpha_star
        phi = float(sol.transform(a)[params.c - 1])
        analytic = float(asymptotics.transform_continuation(params, report.boundary, a))
        transform_err = max(transform_err, abs(analytic - phi) / abs(phi))
    checks = {
        "spectral_rate": {"value": spectral_rate_err, "tol": tol_eig,
                          "pass": spectral_rate_err < tol_eig},
        "mc_rate_vs_spectral_window": {"value": mc_vs_spectral, "tol": args.tol_mc_rate,
                                       "pass": mc_vs_spectral < args.tol_mc_rate},
        "boundary_residue": {"value": float(residue_err), "tol": 1e-5,
                             "pass": bool(residue_err < 1e-5 and report.d_ztilde > 0.0)},
        "boundary_masses": {"value": mass_err, "tol": tol_mass,
                            "pass": mass_err < tol_mass},
        "transform": {"value": transform_err, "tol": tol_mass,
                      "pass": transform_err < tol_mass},
    }
    spectral_prefactor = None
    if report.case is TailCase.POLE:
        # the leading mode's coefficient in the oracle's phase-(c-1) density
        spectral_prefactor = float(s1 * sol.mode_shapes[params.c - 1, 0])
        rel = abs(spectral_prefactor - report.prefactor) / abs(report.prefactor)
        checks["prefactor"] = {"value": rel, "tol": args.tol_prefactor,
                               "pass": rel < args.tol_prefactor}

    payload = {
        "schema": SCHEMA,
        "case": _val(report.case.label, "analytic"),
        "alpha_star": _val(report.alpha_star, "analytic"),
        "spectral_rate": _val(-s1, "spectral", abs(s1 + report.alpha_star)),
        "mc_rate": _val(fit.rate, "simulation", 0.5 * (fit.ci_high - fit.ci_low)),
        "mc_rate_vs_alpha_star": _val(
            abs(fit.rate - report.alpha_star) / report.alpha_star, "simulation"),
        "spectral_window_rate": _val(spectral_window_rate, "spectral"),
        "density_prefactor": _prefactor_val(report, report.prefactor),
        "spectral_prefactor": _val(spectral_prefactor, "spectral"),
        "boundary_residue": _val(report.d_ztilde, "analytic"),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
    args.sink.write(_json(payload))
    key_width = max(len(k) for k in checks)
    for key, chk in checks.items():
        status = "ok" if chk["pass"] else "FAIL"
        print(f"{key:<{key_width}}  {chk['value']:.3e} < {chk['tol']:.3e}  {status}",
              file=sys.stderr)
    return 0 if payload["all_pass"] else 1


@functools.cache
def _build_parser() -> tuple:
    """(top-level parser, its subcommand parsers by name)."""
    parser = argparse.ArgumentParser(
        prog="fluidtail",
        description="Tail asymptotics of a fluid queue driven by an M/M/c background chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, formats=("json", "csv")):
        p.add_argument("--c", type=int, required=True, help="number of servers")
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="arrival rate")
        p.add_argument("--mu", type=float, required=True, help="per-server rate")
        p.add_argument("--r", type=float, required=True, help="fill rate")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default="json")

    p_an = sub.add_parser("analyze", help="run the analytic pipeline")
    add_params(p_an)
    p_an.add_argument("--truncation", type=int, default=400,
                      help="no longer affects analyze; kept for callers that pass it")
    p_an.set_defaults(fn=cmd_analyze)

    p_so = sub.add_parser("solve", help="solve the truncated stationary system")
    add_params(p_so)
    p_so.add_argument("--truncation", type=int, default=400)
    p_so.add_argument("--grid-max", type=float, default=None,
                      help="largest level for csv curves")
    p_so.add_argument("--grid-points", type=int, default=201)
    p_so.set_defaults(fn=cmd_solve)

    p_si = sub.add_parser("simulate", help="Monte Carlo simulation")
    add_params(p_si)
    p_si.add_argument("--horizon", type=float, default=1e5, help="simulated time")
    p_si.add_argument("--warmup", type=float, default=100.0)
    p_si.add_argument("--stride", type=float, default=0.25,
                      help="time between stationary samples")
    p_si.add_argument("--seed", type=int, default=0)
    p_si.set_defaults(fn=cmd_simulate)

    p_va = sub.add_parser("validate",
                          help="cross-check analytic, spectral and Monte Carlo answers")
    add_params(p_va, formats=("json",))   # its checks have no CSV form
    p_va.add_argument("--truncation", type=int, default=400)
    p_va.add_argument("--horizon", type=float, default=1e5)
    p_va.add_argument("--warmup", type=float, default=100.0)
    p_va.add_argument("--samples", type=int, default=1_000_000,
                      help="stationary samples to draw over the horizon")
    p_va.add_argument("--seed", type=int, default=0)
    p_va.add_argument("--tol-spectral-rate", type=float, default=None,
                      help="relative tolerance on the dominant eigenvalue "
                           "(default 1e-3 for a pole case, 2e-2 otherwise)")
    p_va.add_argument("--tol-mc-rate", type=float, default=0.10,
                      help="Monte Carlo rate vs the oracle's same-window rate")
    p_va.add_argument("--tol-prefactor", type=float, default=0.02,
                      help="analytic vs spectral density prefactor (pole case)")
    p_va.set_defaults(fn=cmd_validate)
    return parser, sub.choices


def _parse(argv) -> argparse.Namespace:
    """The arguments of argv, parsed by the named subcommand's parser alone.

    The top-level parser scans every argument before it hands them to the
    subcommand's parser; a known name skips that scan.  A missing or
    unknown name, -h, or leftover arguments go to the top-level parser, so
    argparse prints its own usage, help and errors.
    """
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        with _sink(args.out) as args.sink:
            return args.fn(args)
    except FluidTailError as exc:
        error = {"schema": SCHEMA, "error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(_json(error))
        return 2


if __name__ == "__main__":
    sys.exit(main())
