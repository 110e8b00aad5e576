"""Workload inputs, the operations they run and the checks on each output.

Every op calls ``fluidtail.cli.main(argv)``; the program only ever sees the generated inputs.  An op's ``run`` is the timed
part; ``check`` looks at what it returned afterwards and gives an Outcome:

* ``ok``      - the output passed its check;
* ``failed``  - the program refused: it raised, or exited non-zero;
* ``wrong``   - the program answered, but the answer failed its check.

Failed and wrong ops both count as failed; only wrong ones make the run
incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig

from fluidtail import cli
from fluidtail.model import ModelParams, is_stable

# The reference tuples of tests/conftest.py, plus a c=8 Case III tuple (a* ~ 0.144).
REFERENCE = [
    ("CASE_I", ModelParams(c=1, lam=1.0, mu=3.0, r=1.0), "I"),
    ("CASE_II", ModelParams(c=1, lam=1.0, mu=4.0, r=1.0), "II"),
    ("CASE_III", ModelParams(c=3, lam=20.0, mu=30.0, r=10.0), "III"),
    ("CASE_I_C2", ModelParams(c=2, lam=0.7087, mu=1.7395, r=9.7767), "I"),
    ("C8", ModelParams(c=8, lam=6.0, mu=1.0, r=1.0), "III"),
]
RANDOM_TUPLES = 15
C_CHOICES = (1, 2, 3, 4, 5)     # random_stable_params' default
PENCIL_PHASES = (400, 800)      # truncations of the reference pencil for alpha*
WARMUP = 100.0                  # the simulate CLI's default warm-up time


@dataclass
class Outcome:
    status: str                 # "ok", "failed" or "wrong"
    message: str = ""
    extras: dict = field(default_factory=dict)


def _argv(params: ModelParams) -> list:
    return ["--c", str(params.c), "--lambda", repr(params.lam),
            "--mu", repr(params.mu), "--r", repr(params.r)]


def call_cli(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refusal(code, stdout: str) -> str:
    try:
        error = json.loads(stdout)["error"]
        return f"exit {code}: {error['type']}: {error['message']}"
    except (ValueError, KeyError, TypeError):
        return f"exit {code}"


@functools.lru_cache(maxsize=None)
def pencil_rate(params: ModelParams, n_phases: int) -> float:
    """Dominant decay rate of the reversibility-symmetrized pencil (S, R).

    The benchmark's own reference for alpha*, built as in the spectral
    oracle's eigenvalue extraction and solved separately from the program.
    Its truncation error grows with the load: at N=400 it reaches about 1%
    on slowly decaying tuples, and halves or better at N=800.
    """
    i = np.arange(n_phases + 1)
    diag = -(params.lam * (i < n_phases) + np.minimum(i, params.c) * params.mu)
    off = np.sqrt(params.lam * np.minimum(i[1:], params.c) * params.mu)
    s = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    rates = np.where(i < params.c, i - params.c, params.r).astype(float)
    w = eig(s, np.diag(rates), right=False)
    w = w[np.isfinite(w) & (w.real < -1e-9)]
    return float(-w.real.max())


def random_tuple(rng) -> ModelParams:
    """A stable tuple drawn like tests/conftest.py's random_stable_params."""
    while True:
        c = int(rng.choice(C_CHOICES))
        lam, mu, r = 10.0 ** rng.uniform(-1, 1, size=3)
        if lam >= c * mu:
            continue
        params = ModelParams(c=c, lam=float(lam), mu=float(mu), r=float(r))
        if is_stable(params):
            return params


class AnalyzeOp:
    """``fluidtail analyze``; checks the case label and alpha* against the pencil."""

    def __init__(self, name, params, label, n_phases):
        self.name, self.params, self.label, self.n_phases = name, params, label, n_phases

    def run(self):
        return call_cli(["analyze", *_argv(self.params), "--truncation", str(self.n_phases)])

    def check(self, result) -> Outcome:
        code, stdout, _ = result
        if code != 0:
            return Outcome("failed", _refusal(code, stdout))
        payload = json.loads(stdout)
        case = payload["case"]["value"]
        alpha = payload["alpha_star"]["value"]
        if self.label is not None and case != self.label:
            return Outcome("wrong", f"case {case}, expected {self.label}")
        # validate's spectral-rate tolerance; the finer pencil decides a near miss
        tol = 1e-3 if case == "I" else 2e-2
        for n_ref in PENCIL_PHASES:
            reference = pencil_rate(self.params, n_ref)
            err = abs(alpha - reference) / alpha
            if err < tol:
                break
        else:
            return Outcome("wrong", f"alpha* {alpha} vs pencil {reference}: {err:.2e}")
        return Outcome("ok")


class SimulateOp:
    """``fluidtail simulate``; checks the sampled survival curve and its fit.

    The same op runs in every round with the same Monte Carlo seed, so every
    round must print exactly what the first one printed.  On Case I tuples
    the tail is a pure exponential, which is what the CLI fits, so the fitted
    rate must also lie within three CI half-widths of the pencil's alpha*.
    On the other cases the fit ignores the tail's power-law factor and is
    biased, so only the sanity checks apply.
    """

    def __init__(self, name, params, label, horizon, stride, mc_seed):
        self.name, self.params, self.label = name, params, label
        self.horizon, self.stride = horizon, stride
        self.argv = ["simulate", *_argv(params), "--horizon", repr(horizon),
                     "--stride", repr(stride), "--seed", str(mc_seed)]
        self._first = None

    def run(self):
        return call_cli(self.argv)

    def check(self, result) -> Outcome:
        code, stdout, _ = result
        if code != 0:
            return Outcome("failed", _refusal(code, stdout))
        if self._first is None:
            self._first = stdout
        elif stdout != self._first:
            return Outcome("wrong", "output differs from the first round's at the same seed")
        payload = json.loads(stdout)
        expected = (self.horizon - WARMUP) / self.stride
        if not abs(payload["n_samples"] - expected) <= 2 or payload["n_events"] <= 0:
            return Outcome("wrong", f"{payload['n_samples']} samples, {payload['n_events']} "
                                    f"events; expected about {expected:.0f} samples")
        if not 0.0 <= payload["zero_fraction"] <= 1.0:
            return Outcome("wrong", f"zero fraction {payload['zero_fraction']}")
        rate, ci = payload["fitted_rate"], payload["fitted_ci"]
        if rate is None:
            return Outcome("wrong", "no fitted rate")
        low, high = ci
        if not (math.isfinite(rate) and rate > 0.0 and 0.0 < low < high):
            return Outcome("wrong", f"fitted rate {rate} with CI {ci}")
        half = 0.5 * (high - low)
        if self.label == "I":
            alpha = pencil_rate(self.params, PENCIL_PHASES[0])
            if not abs(rate - alpha) <= 3.0 * half:
                return Outcome("wrong", f"fitted rate {rate} vs pencil {alpha}, "
                                        f"CI half-width {half}")
        return Outcome("ok", extras={"mc_ci_rel": half / rate})


def analyze_sweep(seed: int, tiny: bool) -> list:
    """Two dense boundary-mass solves dominate; varying c varies the zero search."""
    rng = np.random.default_rng(seed)
    n = 60 if tiny else 400
    ops = [AnalyzeOp(name, p, label, n) for name, p, label in REFERENCE]
    ops += [AnalyzeOp(f"random{i}", random_tuple(rng), None, n) for i in range(RANDOM_TUPLES)]
    return ops


def mc_simulate(seed: int, tiny: bool) -> list:
    """The per-event simulator loop and the bootstrap tail fit.

    CASE_III's horizon gives about the event count of CASE_I's (8e5 events),
    and both strides give about 1e6 samples.
    """
    rng = np.random.default_rng(seed)
    mc_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
    cases = {name: (p, label) for name, p, label in REFERENCE}
    if tiny:
        runs = [("CASE_I", 2e4, 0.05), ("CASE_III", 1e3, 0.0025)]
    else:
        runs = [("CASE_I", 4e5, 0.4), ("CASE_III", 2e4, 0.02)]
    return [SimulateOp(name, *cases[name], horizon, stride, mc_seed)
            for (name, horizon, stride), mc_seed in zip(runs, mc_seeds)]


WORKLOADS = {
    "analyze_sweep": analyze_sweep,
    "mc_simulate": mc_simulate,
}
