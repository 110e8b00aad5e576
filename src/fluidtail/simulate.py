"""Event-driven Monte Carlo simulation of the fluid queue.

The phase process jumps at exponential clocks (rate lam up, min(i, c)*mu
down); between jumps the level moves linearly at the phase's net rate and is
reflected at zero.  The time-stationary law is estimated by sampling at a
fixed stride, which is what the analytic pipeline's stationary quantities
refer to.  Randomness comes from two counter-based generators (Philox),
spawned from the seed by `np.random.SeedSequence`: one draws the holding
times' exponentials, the other the uniforms that pick each jump's
direction.  A (config, seed) pair always gives the same output, and runs
are trivially parallel across seeds.  One vectorized engine
(`_sim_core.advance`) moves the sample path from time 0 to the horizon,
drawing from each stream one sub-block at a time.  Since each stream holds
one kind of draw, event k takes the k-th draw of each however the events
are cut into sub-blocks, and few draws are made past the horizon.  Apart
from the returned samples, no buffer grows with the run or the stride.
Phases are stored as int8, since every phase from TRACKED_PHASES up is
written as TRACKED_PHASES.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _sim_core
from .errors import InsufficientSamplesError, InvalidInputError
from .model import ModelParams, require_stable

_PIECE = 1 << 16  # samples binned, gathered or counted at once
N_BLOCKS = 50         # time blocks of the block bootstrap
TRACKED_PHASES = 32   # per-phase statistics pool the phases from this one up


@dataclass(frozen=True)
class SimConfig:
    """Simulation run description."""

    params: ModelParams
    horizon: float               # total simulated time
    seed: int
    warmup: float = 0.0          # time discarded before sampling starts
    sample_stride: float = 1.0   # time between stationary samples

    def __post_init__(self):
        if not math.isfinite(self.horizon) or not self.horizon > self.warmup >= 0.0:
            raise InvalidInputError(
                f"need a finite horizon > warmup >= 0, got horizon {self.horizon!r} "
                f"and warmup {self.warmup!r}")
        if not 0.0 < self.sample_stride < math.inf:
            raise InvalidInputError(
                f"sample_stride must be positive and finite, got {self.sample_stride!r}")


@dataclass(frozen=True)
class TailFit:
    """Fitted exponential tail rate with a bootstrap confidence interval."""

    rate: float
    ci_low: float
    ci_high: float
    window: tuple
    n_window: int
    n_boot_used: int             # bootstrap resamples in the CI


@dataclass(frozen=True)
class SurvivalEstimate:
    """Empirical stationary law of the fluid level.

    Everything is computed from the stride samples.  grid/survival tabulate
    P(level > x); phase_survival[i] tabulates P(phase = i, level > x) and
    phase_frequency[i] P(phase = i) for i up to TRACKED_PHASES, whose row
    pools every phase from TRACKED_PHASES up.  block_counts holds one level
    histogram per time block, N_BLOCKS consecutive slices of the samples,
    for the block bootstrap.  The raw samples are kept so that windows can
    be re-fitted later; samples_phase is int8, capped at TRACKED_PHASES.
    """

    config: SimConfig
    grid: np.ndarray
    survival: np.ndarray
    phase_survival: np.ndarray
    n_samples: int
    n_events: int
    zero_fraction: float
    phase_frequency: np.ndarray
    block_counts: np.ndarray
    fitted: TailFit | None
    samples_level: np.ndarray = field(repr=False)
    samples_phase: np.ndarray = field(repr=False)


def simulate(config: SimConfig, fit: bool = True) -> SurvivalEstimate:
    """Run the simulation described by config.

    Identical (config, seed) pairs produce identical outputs.
    """
    require_stable(config.params)
    p = config.params
    exps, uniforms = (np.random.Generator(np.random.Philox(s))
                      for s in np.random.SeedSequence(config.seed).spawn(2))
    n_max = int((config.horizon - config.warmup) / config.sample_stride) + 2
    out_level = np.empty(n_max)
    out_phase = np.empty(n_max, np.int8)
    _, _, n_written, n_events = _sim_core.advance(
        0, 0.0, config.horizon, config.warmup, config.sample_stride, p.lam, p.mu, p.c, p.r,
        exps, uniforms, out_level, out_phase, TRACKED_PHASES,
    )

    levels = out_level[:n_written]
    phases = out_phase[:n_written]
    grid, survival, phase_survival, block_counts, freq = _tabulate(levels, phases)
    est = SurvivalEstimate(
        config=config,
        grid=grid,
        survival=survival,
        phase_survival=phase_survival,
        n_samples=n_written,
        n_events=n_events,
        zero_fraction=(n_written - np.count_nonzero(levels)) / n_written if n_written else 0.0,
        phase_frequency=freq,
        block_counts=block_counts,
        fitted=None,
        samples_level=levels,
        samples_phase=phases,
    )
    if fit and n_written:
        try:
            est = replace(est, fitted=fit_tail(est))
        except InsufficientSamplesError:
            pass
    return est


def _tabulate(levels: np.ndarray, phases: np.ndarray, n_blocks: int = N_BLOCKS):
    """(grid, survival, phase_survival, block_counts, phase_frequency) of the samples.

    Sample i of n falls in time block `(i * n_blocks) // n`, so block b is the
    slice `[ceil(b n / n_blocks), ceil((b + 1) n / n_blocks))`; each slice
    is binned once, in pieces of at most _PIECE samples.
    """
    n_bins = 2048
    top = float(levels.max()) if levels.size else 1.0
    top = max(top, 1e-9)  # guard against an all-zero sample set
    edges = np.linspace(0.0, top * (1 + 1e-9), n_bins + 1)
    grid = edges[1:]
    # bin i holds lower[i] <= level < upper[i], as np.histogram counts; every level is
    # below edges[-1], so the last bin may be left open above
    lower, upper = edges[:-1], np.append(edges[1:-1], np.inf)
    scale = n_bins / edges[-1]
    n = max(levels.size, 1)
    n_phases = TRACKED_PHASES + 1
    per_phase = np.zeros(n_phases * n_bins, np.int64)
    per_block = np.zeros((n_blocks, n_bins), np.int64)
    bounds = [-(-b * levels.size // n_blocks) for b in range(n_blocks + 1)]
    for b in range(n_blocks):
        for lo in range(bounds[b], bounds[b + 1], _PIECE):
            hi = min(lo + _PIECE, bounds[b + 1])
            x = levels[lo:hi]
            # uniform-bin index, moved by one where roundoff puts a level across its edge
            idx = (x * scale).astype(np.intp)
            np.minimum(idx, n_bins - 1, out=idx)
            idx -= x < lower.take(idx)
            idx += x >= upper.take(idx)
            per_block[b] += np.bincount(idx, minlength=n_bins)
            idx += phases[lo:hi].astype(np.intp) * n_bins
            counts = np.bincount(idx)
            per_phase[:counts.size] += counts
    per_phase = per_phase.reshape(n_phases, n_bins)
    in_phase = per_phase.sum(axis=1)
    survival = 1.0 - np.cumsum(per_phase.sum(axis=0)) / n
    phase_survival = (in_phase[:, None] - np.cumsum(per_phase, axis=1)) / n
    return grid, survival, phase_survival, per_block.astype(float), in_phase / n


def default_window(est: SurvivalEstimate, s_high: float = 3e-2, s_low: float = 1e-4):
    """Window [x_lo, x_hi] spanning the given survival levels.

    x_lo and x_hi are the order statistics k_lo and k_hi of the levels, as
    `np.partition` over all samples gives them.  Only the samples at or
    above the lower edge of the histogram bin holding the lower rank are
    gathered, _PIECE samples at a time, and partitioned: the bins are exact
    (lower <= level < upper), so the cumulative bin counts tell how many
    samples lie below that edge.
    """
    levels = est.samples_level
    n = levels.size
    k_lo, k_hi = min(n - 1, int(n * (1.0 - s_high))), min(n - 1, int(n * (1.0 - s_low)))
    cum = np.cumsum(est.block_counts.sum(axis=0).astype(np.int64))
    b = int(np.searchsorted(cum, min(k_lo, k_hi), side="right"))
    below = int(cum[b - 1]) if b else 0
    edge = est.grid[b - 1] if b else 0.0
    top = np.empty(n - below)
    k = 0
    for lo in range(0, n, _PIECE):
        x = levels[lo:lo + _PIECE]
        x = x[x >= edge]
        top[k:k + x.size] = x
        k += x.size
    top.partition([k_lo - below, k_hi - below])
    return float(top[k_lo - below]), float(top[k_hi - below])


def _count_in(levels: np.ndarray, x_lo: float, x_hi: float) -> int:
    """Number of levels in [x_lo, x_hi], counted _PIECE samples at a time."""
    count = 0
    for lo in range(0, levels.size, _PIECE):
        x = levels[lo:lo + _PIECE]
        count += int(np.count_nonzero((x >= x_lo) & (x <= x_hi)))
    return count


def fit_tail(
    est: SurvivalEstimate,
    window: tuple | None = None,
    power: float = 0.0,
    n_grid: int = 25,
    n_boot: int = 200,
    min_samples: int = 10_000,
) -> TailFit:
    """Least-squares slope of log survival over a window, with bootstrap CI.

    A known polynomial factor x^power in the tail may be supplied (it is
    subtracted before fitting, never estimated); the default 0 fits a pure
    exponential.  The confidence interval resamples whole time blocks, which
    respects the serial correlation of the stride samples.  A resample with
    fewer than two positive-survival grid points has no slope and is left
    out of the CI; more than 5% left out raises InsufficientSamplesError.
    """
    if window is None:
        window = default_window(est)
    x_lo, x_hi = window
    in_window = _count_in(est.samples_level, x_lo, x_hi)
    if in_window < min_samples:
        raise InsufficientSamplesError(
            f"{in_window} samples in window {window}; need {min_samples}"
        )
    grid = np.linspace(x_lo, x_hi, n_grid)
    # linear interpolation of the survival tables onto the fit grid, as np.interp
    j = np.clip(np.searchsorted(est.grid, grid, side="right") - 1, 0, est.grid.size - 2)
    frac = np.clip((grid - est.grid[j]) / (est.grid[j + 1] - est.grid[j]), 0.0, 1.0)
    # each block's cumulative counts at the bins j and j + 1 only, and its total
    cum = np.cumsum(est.block_counts, axis=1)
    cum = np.hstack((cum[:, j], cum[:, j + 1], cum[:, -1:]))
    lower, upper = np.arange(n_grid), np.arange(n_grid, 2 * n_grid)

    def slopes(cum_total):
        """Fitted rate of each row of cumulative totals; zero-survival points are left out.

        A row with fewer than two positive points gets NaN.
        """
        surv = 1.0 - cum_total[:, :-1] / cum_total[:, -1:]
        s = surv[:, lower] + (surv[:, upper] - surv[:, lower]) * frac
        ok = s > 0
        n_ok = ok.sum(axis=1, keepdims=True)
        x = np.where(ok, grid, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(ok, np.log(s) - power * np.log(grid), 0.0)
            dx = np.where(ok, x - x.sum(axis=1, keepdims=True) / n_ok, 0.0)
            dy = np.where(ok, y - y.sum(axis=1, keepdims=True) / n_ok, 0.0)
            slope = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
        slope[n_ok[:, 0] < 2] = np.nan
        return -slope

    rate = slopes(cum.sum(axis=0)[None, :])[0]
    rng = np.random.Generator(np.random.Philox(est.config.seed + 0x5EED))
    n_blocks = est.block_counts.shape[0]
    # row b holds the blocks of resample b, drawn in the order of n_boot separate draws
    picks = rng.integers(0, n_blocks, (n_boot, n_blocks))
    rows = np.repeat(np.arange(n_boot), n_blocks)
    weights = np.bincount(rows * n_blocks + picks.ravel(), minlength=n_boot * n_blocks)
    # integer counts: the weighted sums are exact in any order
    boots = slopes(weights.reshape(n_boot, n_blocks) @ cum)
    boots = boots[~np.isnan(boots)]
    if np.isnan(rate) or boots.size < 0.95 * n_boot:
        raise InsufficientSamplesError(
            f"fewer than two positive grid points in window {window}, in the samples or "
            f"in {n_boot - boots.size} of {n_boot} bootstrap resamples"
        )
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return TailFit(rate=float(rate), ci_low=float(lo), ci_high=float(hi),
                   window=(x_lo, x_hi), n_window=in_window, n_boot_used=boots.size)


def survival_csv(est: SurvivalEstimate, n_rows: int = 256) -> str:
    """CSV of the empirical survival curve and per-phase survival."""
    idx = np.unique(np.linspace(0, est.grid.size - 1, n_rows).astype(int))
    tracked = min(est.config.params.c + 8, est.phase_survival.shape[0])
    header = "x,survival," + ",".join(f"phase{i}" for i in range(tracked))
    lines = [header]
    for k in idx:
        row = [f"{est.grid[k]:.12g}", f"{est.survival[k]:.12g}"]
        row += [f"{est.phase_survival[i][k]:.12g}" for i in range(tracked)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_json(est: SurvivalEstimate) -> str:
    """JSON summary with the fitted rate and basic checks."""
    fit = est.fitted
    return json.dumps(
        {
            "schema": 1,
            "n_samples": est.n_samples,
            "n_events": est.n_events,
            "zero_fraction": est.zero_fraction,
            "fitted_rate": None if fit is None else fit.rate,
            "fitted_ci": None if fit is None else [fit.ci_low, fit.ci_high],
            "window": None if fit is None else list(fit.window),
        },
        indent=2,
    )
