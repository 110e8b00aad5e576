"""Event-driven Monte Carlo simulation of the fluid queue.

The phase process jumps at exponential clocks (rate lam up, min(i, c)*mu
down); between jumps the level moves linearly at the phase's net rate and is
reflected at zero.  The time-stationary law is estimated by sampling at a
fixed stride, which is what the analytic pipeline's stationary quantities
refer to: sample i (i >= 1) is taken at time warmup + i*stride, and
`_sim_core.sample_count` alone counts the samples up to a time.  Randomness
comes from two counter-based generators (Philox), spawned from the seed by
`np.random.SeedSequence`: one draws the holding times' exponentials, the
other the uniforms that pick each jump's direction.  A (config, seed) pair
always gives the same output, and runs are trivially parallel across
seeds.  One vectorized engine (`_sim_core.advance`) moves the sample path
from time 0 to the horizon, event k taking the k-th draw of each stream.

No sample is stored: the engine hands each piece of stride samples to a
sink, `_Histogram`, that bins it exactly into N_BINS bins below a power of
two, and the tail fit reads its window and count from the bin counts.  So
the simulator's memory does not depend on the horizon or the stride.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _sim_core
from .errors import InsufficientSamplesError, InvalidInputError
from .model import ModelParams, require_stable

N_BINS = 4096         # level bins over [0, top)
N_BLOCKS = 50         # time blocks of the block bootstrap
TRACKED_PHASES = 32   # per-phase statistics pool the phases from this one up
_MIN_TOP = 2.0 ** -30   # the least top: a run that stays at level 0 still has a grid


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
        # then the stride is at least ulp(horizon): every step of the sample grid moves it
        if self.horizon / self.sample_stride > 2.0 ** 52:
            raise InvalidInputError(f"need horizon / sample_stride <= 2**52, got "
                                    f"{self.horizon!r} / {self.sample_stride!r}")


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

    Everything is computed from the binned stride samples.  grid holds the
    upper edges of the N_BINS level bins, all of width grid[0].  survival
    tabulates P(level >= x); phase_survival[i] P(phase = i, level >= x) and
    phase_frequency[i] P(phase = i) for i up to TRACKED_PHASES, whose row
    pools every phase from TRACKED_PHASES up.  block_counts holds one level
    histogram per time block, N_BLOCKS consecutive slices of the samples,
    for the block bootstrap.  n_zero counts the samples at level 0 exactly.
    """

    config: SimConfig
    grid: np.ndarray
    survival: np.ndarray
    phase_survival: np.ndarray
    n_samples: int
    n_events: int
    n_zero: int
    phase_frequency: np.ndarray
    block_counts: np.ndarray
    fitted: TailFit | None

    @property
    def zero_fraction(self) -> float:
        return self.n_zero / self.n_samples if self.n_samples else 0.0


class _Histogram:
    """Level histogram of the stride samples, binned a piece at a time: the sink of `advance`.

    N_BINS bins over [0, top), top the least power of two from _MIN_TOP up
    above every level seen.  Bin `floor(level * N_BINS / top)` is exact, as
    the scale is a power of two, and so is the merge of runs of bins when
    top grows; a bin is never wider than 2 max / N_BINS.  Sample i counts in
    time block `min((i * n_blocks) // n_max, n_blocks - 1)`, in the row of
    its phase and, if 0 exactly, in n_zero.
    """

    def __init__(self, n_max: int, n_blocks: int = N_BLOCKS):
        self.top, self.n, self.n_zero = _MIN_TOP, 0, 0
        # block b starts at sample ceil(b n_max / n_blocks); the last one runs on to the end
        self.starts = np.append(-(-np.arange(n_blocks) * n_max // n_blocks), 1 << 62)
        self.per_block = np.zeros((n_blocks, N_BINS), np.int64)
        self.per_phase = np.zeros((TRACKED_PHASES + 1, N_BINS), np.int64)

    def __call__(self, levels: np.ndarray, phases: np.ndarray):
        high = float(levels.max())
        if high >= self.top:
            top = math.ldexp(1.0, math.frexp(high)[1])
            k = N_BINS // int(min(top / self.top, N_BINS))   # each kept bin sums a run of old ones
            for t in (self.per_block, self.per_phase):
                t[:, :k] = t.reshape(t.shape[0], k, -1).sum(axis=2)
                t[:, k:] = 0
            self.top = top
        idx = (levels * (N_BINS / self.top)).astype(np.intp)
        cuts = np.clip(self.starts - self.n, 0, idx.size)   # the piece cut at the block starts
        for b in np.flatnonzero(cuts[1:] > cuts[:-1]):
            self.per_block[b] += np.bincount(idx[cuts[b]:cuts[b + 1]], minlength=N_BINS)
        self.n += idx.size
        self.n_zero += idx.size - np.count_nonzero(levels)
        idx += phases.astype(np.intp) * N_BINS
        counts = np.bincount(idx)
        self.per_phase.reshape(-1)[:counts.size] += counts

    def tables(self):
        """(grid, survival, phase_survival, block_counts, phase_frequency) so far."""
        n = max(self.n, 1)
        grid = np.arange(1, N_BINS + 1) * (self.top / N_BINS)
        in_phase = self.per_phase.sum(axis=1)
        survival = 1.0 - np.cumsum(self.per_phase.sum(axis=0)) / n
        phase_survival = (in_phase[:, None] - np.cumsum(self.per_phase, axis=1)) / n
        return grid, survival, phase_survival, self.per_block.astype(float), in_phase / n


def simulate(config: SimConfig, fit: bool = True) -> SurvivalEstimate:
    """Run the simulation described by config.

    Identical (config, seed) pairs produce identical outputs.
    """
    require_stable(config.params)
    p = config.params
    exps, uniforms = (np.random.Generator(np.random.Philox(s))
                      for s in np.random.SeedSequence(config.seed).spawn(2))
    hist = _Histogram(int(_sim_core.sample_count(config.horizon, config.warmup,
                                                 config.sample_stride)))
    _, _, n_written, n_events = _sim_core.advance(
        0, 0.0, config.horizon, config.warmup, config.sample_stride, p.lam, p.mu, p.c, p.r,
        exps, uniforms, hist, TRACKED_PHASES,
    )
    grid, survival, phase_survival, block_counts, freq = hist.tables()
    est = SurvivalEstimate(
        config=config,
        grid=grid,
        survival=survival,
        phase_survival=phase_survival,
        n_samples=n_written,
        n_events=n_events,
        n_zero=hist.n_zero,
        phase_frequency=freq,
        block_counts=block_counts,
        fitted=None,
    )
    if fit and n_written:
        try:
            est = replace(est, fitted=fit_tail(est))
        except InsufficientSamplesError:
            pass
    return est


def _cumulative(est: SurvivalEstimate):
    """Points (level, samples below it) of the binned law: 0 and 0, 0 and the exact zeros,
    then each bin's upper edge; a bin's other samples lie evenly between its two points."""
    below = np.cumsum(est.block_counts.sum(axis=0).astype(np.int64))
    return np.concatenate(([0.0, 0.0], est.grid)), np.concatenate(([0, est.n_zero], below))


def default_window(est: SurvivalEstimate, s_high: float = 3e-2, s_low: float = 1e-4):
    """Window [x_lo, x_hi] spanning the given survival levels.

    x_lo and x_hi estimate the order statistics k_lo = int(n (1 - s_high))
    and k_hi = int(n (1 - s_low)) of the levels, each clamped to [0, n - 1],
    from the bin counts alone: rank k sits where the interpolated count of
    samples below reaches k + 1/2.  That is 0 among the exact zeros, and
    otherwise in the bin of the exact order statistic, within one bin width.
    """
    n = est.n_samples
    if not n:
        raise InsufficientSamplesError("no samples to place a window in")
    xs, below = _cumulative(est)
    window = []
    for k in (int(n * (1.0 - s_high)), int(n * (1.0 - s_low))):
        k = min(max(k, 0), n - 1) + 0.5
        j = int(np.searchsorted(below, k))
        step = (k - below[j - 1]) / (below[j] - below[j - 1])
        window.append(float(xs[j - 1] + (xs[j] - xs[j - 1]) * step))
    return tuple(window)


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
    # samples above x_lo and up to x_hi, interpolated within the bins of the two ends
    xs, below = _cumulative(est)
    in_window = round(np.interp(x_hi, xs[1:], below[1:]) - np.interp(x_lo, xs[1:], below[1:]))
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
