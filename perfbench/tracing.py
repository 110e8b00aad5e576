"""Per-layer spans for the traced run, recorded from outside the package.

Each public function of a layer is wrapped under the name its caller looks
it up by, so the wrapper sees every call the workloads make:

* ``cli.main`` is called by the benchmark;
* ``asymptotics.analyze`` and ``spectral.solve_truncated`` are looked up as
  module attributes (by ``cli``, and by the lazy import inside ``analyze``);
* ``asymptotics`` holds its own ``find_coeff_zero`` and the tail helpers;
* ``cli`` holds its own ``simulate``, and ``fluidtail.simulate`` its own
  ``fit_tail``.

``model``, ``kernel`` and ``cfrac`` are only reached through ``roots`` and
``asymptotics``, so their time is part of those layers.  Spans are kept in
memory; a layer's self time is its span minus the child spans inside it.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass

from fluidtail import asymptotics, cli, spectral

# the package's ``simulate`` attribute is the function, not the module
simulate_module = importlib.import_module("fluidtail.simulate")


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int | None
    op: int


def _zero_candidates(args, kwargs, result):
    return {"zero_searches": 1, "candidates": len(result.all_roots)}


def _simulated(args, kwargs, result):
    return {"sim_calls": 1, "events": result.n_events}


def _tail_fit(args, kwargs, result):
    est = args[0]
    return {
        "tail_fits": 1,
        "window_frac": result.n_window / est.n_samples,
        "ci_rel": 0.5 * (result.ci_high - result.ci_low) / abs(result.rate),
    }


# (owner, attribute, layer, counts taken from a returned call)
TARGETS = [
    (cli, "main", "cli", None),
    (asymptotics, "analyze", "asymptotics.analyze", None),
    (asymptotics, "find_coeff_zero", "roots.find_coeff_zero", _zero_candidates),
    (asymptotics, "marginal_tail", "asymptotics.tails", None),
    (asymptotics, "boundary_mass_tail", "asymptotics.tails", None),
    (asymptotics, "lower_phase_tail", "asymptotics.tails", None),
    (spectral, "solve_truncated", "spectral.solve_truncated", None),
    (cli, "simulate", "simulate.simulate", _simulated),
    (simulate_module, "fit_tail", "simulate.fit_tail", _tail_fit),
]


class Tracer:
    """Wraps the TARGETS while installed and keeps their spans and counts."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ci_rel_x_sqrt_cpu: list[float] = []
        self.n_ops = 0
        self.op_seconds = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op_sim_cpu = 0.0
        self._op_ci_rel = None

    # -- installation -------------------------------------------------------

    def install(self):
        for owner, attr, layer, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            self.calls[layer] += 1
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                self._stack.pop()
                self.spans[sid] = Span(layer, t0, t1, parent, self.n_ops)
            if layer == "simulate.simulate":
                self._op_sim_cpu += c1 - c0
            if counter is not None:
                counted = counter(args, kwargs, result)
                self._op_ci_rel = counted.pop("ci_rel", self._op_ci_rel)
                for key, value in counted.items():
                    self.counts[key] += value
            return result

        return traced

    # -- per-op bookkeeping -------------------------------------------------

    def end_op(self, seconds: float):
        """Close one traced op that took `seconds` of wall time."""
        if self._op_ci_rel is not None and self._op_sim_cpu > 0.0:
            self.ci_rel_x_sqrt_cpu.append(self._op_ci_rel * math.sqrt(self._op_sim_cpu))
        self._op_sim_cpu, self._op_ci_rel = 0.0, None
        self.n_ops += 1
        self.op_seconds += seconds

    # -- aggregation --------------------------------------------------------

    def self_seconds(self) -> dict:
        """Total self time per layer over all recorded spans."""
        out = defaultdict(float)
        for span in self.spans:
            out[span.layer] += span.end - span.start
            if span.parent is not None:
                parent = self.spans[span.parent]
                out[parent.layer] -= span.end - span.start
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics; every `_s` time is self time per traced op."""
        ops = max(self.n_ops, 1)
        own = self.self_seconds()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "roots.find_coeff_zero_s": own["roots.find_coeff_zero"] / ops,
            "roots.candidates": ratio(c["candidates"], c["zero_searches"]),
            "asymptotics.analyze_s": own["asymptotics.analyze"] / ops,
            "asymptotics.tails_s": own["asymptotics.tails"] / ops,
            "spectral.solve_truncated_s": own["spectral.solve_truncated"] / ops,
            "spectral.solves_per_op": self.calls["spectral.solve_truncated"] / ops,
            "spectral.solve_share": ratio(own["spectral.solve_truncated"], self.op_seconds),
            "simulate.simulate_s": own["simulate.simulate"] / ops,
            "simulate.events": ratio(c["events"], c["sim_calls"]),
            "simulate.events_per_s": ratio(c["events"], own["simulate.simulate"]),
            "simulate.window_frac": ratio(c["window_frac"], c["tail_fits"]),
            "simulate.fit_tail_s": own["simulate.fit_tail"] / ops,
            "simulate.ci_rel_x_sqrt_cpu_s": ratio(sum(self.ci_rel_x_sqrt_cpu),
                                                  len(self.ci_rel_x_sqrt_cpu)),
            "cli.self_s": own["cli"] / ops,
        }
