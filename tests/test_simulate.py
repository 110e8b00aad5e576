import tracemalloc
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from conftest import CASE_I, CASE_I_C2, CASE_III
from fluidtail import _sim_core
from fluidtail.errors import InsufficientSamplesError
from fluidtail.model import ModelParams, phase_stationary
from fluidtail.simulate import (N_BINS, N_BLOCKS, TRACKED_PHASES, SimConfig, _Histogram,
                                default_window, fit_tail, simulate)

C8 = ModelParams(c=8, lam=6.0, mu=1.0, r=1.0)
HEAVY = ModelParams(c=4, lam=3.9, mu=1.0, r=1.0)   # phase load 0.975; the level is unstable


def make_config(params, horizon=4e4, samples=80_000, seed=7, warmup=50.0):
    return SimConfig(
        params=params, horizon=horizon, warmup=warmup, seed=seed,
        sample_stride=(horizon - warmup) / samples,
    )


class _Served:
    """Serves fixed values in order, as a `Generator` fills `out=` arrays; counts the draws.

    Past the end of the values it serves the last one again.
    """

    def __init__(self, values):
        self.values, self.drawn = np.asarray(values, float), 0

    def _serve(self, out):
        head = self.values[self.drawn:self.drawn + out.size]
        out[:head.size] = head
        out[head.size:] = self.values[-1]
        self.drawn += out.size
        return out


class _Uniforms(_Served):
    random = _Served._serve


class _Exps(_Served):
    standard_exponential = _Served._serve


class _Recorder:
    """A sink for `advance` that keeps a copy of every piece of samples."""

    def __init__(self):
        self.levels, self.phases = [np.empty(0)], [np.empty(0, np.int32)]

    def __call__(self, levels, phases):
        self.levels.append(levels.copy())
        self.phases.append(phases.copy())

    def samples(self):
        return np.concatenate(self.levels), np.concatenate(self.phases)


def _raw_samples(cfg):
    """(levels, phases, events) of `simulate(cfg)`: `advance` on the same spawned streams."""
    p = cfg.params
    exps, uniforms = (np.random.Generator(np.random.Philox(s))
                      for s in np.random.SeedSequence(cfg.seed).spawn(2))
    sink = _Recorder()
    _, _, n_written, used = _sim_core.advance(
        0, 0.0, cfg.horizon, cfg.warmup, cfg.sample_stride, p.lam, p.mu, p.c, p.r,
        exps, uniforms, sink, TRACKED_PHASES)
    levels, phases = sink.samples()
    assert levels.size == n_written
    return levels, phases, used


def _block_of(n, n_blocks=N_BLOCKS):
    """Time block of each of n samples, as the histogram sized by n assigns them."""
    return np.minimum(np.arange(n) * n_blocks // n, n_blocks - 1)


CASE1_CONFIG = make_config(CASE_I, horizon=2e5, samples=400_000)
CASE3_CONFIG = make_config(CASE_III, horizon=2e3, samples=200_000, warmup=5.0)


@pytest.fixture(scope="module")
def est_case1():
    return simulate(CASE1_CONFIG)


@pytest.fixture(scope="module")
def est_case3():
    return simulate(CASE3_CONFIG, fit=False)


@pytest.fixture(scope="module")
def raw_case1():
    return _raw_samples(CASE1_CONFIG)


@pytest.fixture(scope="module")
def raw_case3():
    return _raw_samples(CASE3_CONFIG)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(params=CASE_I, horizon=10.0, warmup=20.0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(params=CASE_I, horizon=10.0, seed=1, sample_stride=0.0)
    # at most 2**52 grid steps over the horizon, so that every step moves the grid; a short
    # window after a long warm-up is bounded by the horizon too
    SimConfig(params=CASE_I, horizon=2.0 ** 52, seed=1)
    SimConfig(params=CASE_I, horizon=100.5, warmup=100.0, seed=1, sample_stride=100.5 / 2 ** 52)
    with pytest.raises(ValueError):
        SimConfig(params=CASE_I, horizon=np.nextafter(2.0 ** 52, np.inf), seed=1)
    with pytest.raises(ValueError):
        SimConfig(params=CASE_I, horizon=100.5, warmup=100.0, seed=1, sample_stride=1e-14)


def test_reproducibility_same_seed():
    cfg = make_config(CASE_I, horizon=2e3, samples=2_000)
    a = simulate(cfg, fit=False)
    b = simulate(cfg, fit=False)
    assert np.array_equal(a.block_counts, b.block_counts)
    assert np.array_equal(a.phase_survival, b.phase_survival)
    assert a.n_events == b.n_events and a.n_zero == b.n_zero
    c = simulate(make_config(CASE_I, horizon=2e3, samples=2_000, seed=8), fit=False)
    assert not np.array_equal(a.block_counts, c.block_counts)


def test_horizon_off_the_block_grid():
    # horizon / n_blocks * n_blocks rounds below the horizon; the samples still run up to it
    cfg = SimConfig(params=CASE_I, horizon=100.3, warmup=0.0, seed=1, sample_stride=0.1)
    assert cfg.horizon / N_BLOCKS * N_BLOCKS < cfg.horizon
    est = simulate(cfg, fit=False)
    assert abs(est.n_samples - 1003) <= 1


@pytest.mark.parametrize("warmup, stride, n", [(10.0, 0.37, 100_000), (0.0, 0.05, 2_000_000)])
def test_horizon_on_the_sample_grid_gives_every_sample(warmup, stride, n):
    # sample i is at warmup + i*stride, so a horizon of warmup + n*stride holds n samples; a
    # grid summed stride by stride lands past the horizon at these tuples and loses the last
    cfg = SimConfig(params=CASE_I, horizon=warmup + n * stride, seed=1, warmup=warmup,
                    sample_stride=stride)
    assert simulate(cfg, fit=False).n_samples == n


def test_sample_count_is_exact_next_to_the_sample_times():
    # on, one ulp before and one ulp after the sample times, where the quotient's floor alone
    # is one off in about 6% of the times
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(200):
        warmup = float(rng.choice([0.0, rng.uniform(0.0, 100.0), rng.uniform(0.0, 1e6)]))
        stride = float(10.0 ** rng.uniform(-6.0, 2.0))
        i = rng.integers(0, 10 ** int(rng.integers(1, 12)), 100).astype(float)
        on = warmup + i * stride
        for t, expected in [(on, i), (np.nextafter(on, np.inf), i),
                            (np.nextafter(on, -np.inf), np.maximum(i - 1.0, 0.0))]:
            assert np.array_equal(_sim_core.sample_count(t, warmup, stride), expected)


def test_kernel_level_dynamics_handmade():
    # two crafted events check the linear motion and the exact zero clamp
    sink = _Recorder()
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=2.0)
    # rates: phase 0 -> 1.0 (up only), phase 1 -> 4.0
    exps = np.array([1.0, 6.0, 100.0])   # taus: 1.0, 1.5, interrupted
    us = np.array([0.0, 0.99, 0.0])      # up, down, -
    phase, level, n_written, used = _sim_core.advance(
        0, 0.0, 2.7, 0.0, 1.0, p.lam, p.mu, p.c, p.r,
        _Exps(exps), _Uniforms(us), sink, 32,
    )
    out_x, out_ph = sink.samples()
    # event 1 at t=1 (phase 0->1, level pinned at 0 while draining)
    # event 2 at t=2.5 (phase 1->0), level rises at r=2 to 3.0
    # horizon interrupts the third event at t=2.7 after draining 0.2
    assert phase == 0
    assert level == pytest.approx(3.0 - 1.0 * 0.2)
    assert used == 2
    # samples at t=1 (clamped zero) and t=2 (risen to 2.0)
    assert n_written == 2 == out_x.size
    assert out_x[0] == 0.0 and out_ph[0] == 0
    assert out_x[1] == pytest.approx(2.0) and out_ph[1] == 1


def test_zero_clamp_partial_interval():
    # draining from level 1 at rate -1: samples read max(0, 1 - t) exactly
    sink = _Recorder()
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=2.0)
    exps = np.array([3.0, 100.0])        # phase 0: rate 1 -> tau = 3
    us = np.array([0.0, 0.0])
    phase, level, n_written, used = _sim_core.advance(
        0, 1.0, 3.0, 0.0, 0.25, p.lam, p.mu, p.c, p.r,
        _Exps(exps), _Uniforms(us), sink, 32,
    )
    out_x, _ = sink.samples()
    assert level == 0.0 and n_written == out_x.size
    expected = np.maximum(0.0, 1.0 - np.arange(1, n_written + 1) * 0.25)
    assert np.allclose(out_x, expected)


def test_phase_frequencies_match_background_law(est_case1, raw_case1):
    xi = phase_stationary(CASE_I)
    freq = est_case1.phase_frequency
    # the standard error from the per-block frequencies, the blocks sliced as the histogram
    # slices them
    _, phases, _ = raw_case1
    block_of = _block_of(phases.size)
    for i in range(4):
        block_vals = np.array([np.mean(phases[block_of == b] == i) for b in range(N_BLOCKS)])
        se = block_vals.std(ddof=1) / np.sqrt(len(block_vals))
        assert abs(freq[i] - xi.prob(i)) < max(4.0 * se, 5e-3)


def test_zero_atom_positive(est_case1):
    assert est_case1.zero_fraction > 0.25  # boundary mass is 1/3 for this tuple
    assert est_case1.zero_fraction == pytest.approx(1.0 / 3.0, abs=0.02)


def test_survival_monotone(est_case1):
    s = est_case1.survival
    assert np.all(np.diff(s) <= 1e-12)
    assert s[0] <= 1.0 and s[-1] >= 0.0
    # per-phase survival sums to the marginal
    total = est_case1.phase_survival.sum(axis=0)
    assert np.allclose(total, s, atol=1e-12)


def test_fit_tail_rate(est_case1):
    fit = fit_tail(est_case1)
    assert fit.rate < 0.6 and fit.rate > 0.4  # alpha* = 0.5 within 20% here
    assert fit.ci_low < fit.rate < fit.ci_high
    assert fit.n_window >= 10_000


@pytest.mark.parametrize("s_high, s_low", [(3e-2, 1e-4), (0.15, 1e-3)])
def test_window_count_is_interpolated_within_the_end_bins(est_case1, raw_case1, s_high, s_low):
    # the count misses the exact one only by samples of the two bins that hold the ends
    levels = raw_case1[0]
    window = default_window(est_case1, s_high, s_low)
    fit = fit_tail(est_case1, window=window, min_samples=100)
    exact = np.count_nonzero((levels >= window[0]) & (levels <= window[1]))
    ends = np.floor(np.asarray(window) / est_case1.grid[0]).astype(int)
    slack = est_case1.block_counts[:, ends].sum()
    assert abs(fit.n_window - exact) <= slack < 0.05 * exact
    # from the middle of one end bin to the middle of the other: half of each end bin counts
    (b, c), counts, width = ends, est_case1.block_counts.sum(axis=0), est_case1.grid[0]
    mid = fit_tail(est_case1, window=((b + 0.5) * width, (c + 0.5) * width), min_samples=100)
    assert mid.n_window == round(counts[b] / 2 + counts[b + 1:c].sum() + counts[c] / 2)


def test_tables_match_histograms(est_case1, raw_case1):
    # the streamed tables count exactly what one np.histogram per phase and per block counts on
    # the power-of-two edges, top being the least power of two above every level
    est = est_case1
    levels, phases, n_events = raw_case1
    n = est.n_samples
    assert (n, n_events) == (levels.size, est.n_events)
    top = est.grid[-1]
    assert top == 2.0 ** np.floor(np.log2(top)) and top / 2 <= levels.max() < top
    edges = np.linspace(0.0, top, N_BINS + 1)
    for i in range(est.phase_survival.shape[0]):
        counts, _ = np.histogram(levels[phases == i], bins=edges)
        assert np.array_equal(est.phase_survival[i], (counts.sum() - np.cumsum(counts)) / n)
    block_of = _block_of(n)
    for b in range(N_BLOCKS):
        counts, _ = np.histogram(levels[block_of == b], bins=edges)
        assert np.array_equal(est.block_counts[b], counts)
    freq = np.bincount(phases, minlength=TRACKED_PHASES + 1) / n
    assert np.array_equal(est.phase_frequency, freq)
    assert est.n_zero == np.count_nonzero(levels == 0.0)
    assert est.zero_fraction == (n - np.count_nonzero(levels)) / n


def _binned(levels, phases, n_blocks=N_BLOCKS, piece=4099):
    """The histogram's tables of `levels`, fed in pieces, in time blocks over their count."""
    hist = _Histogram(levels.size, n_blocks)
    for lo in range(0, levels.size, piece):
        hist(levels[lo:lo + piece], phases[lo:lo + piece])
    return hist


@pytest.mark.parametrize("n, n_blocks", [(1003, 7), (20, 50), (1, 3), (140_001, 2)])
def test_tabulate_blocks_are_slices_of_the_samples(n, n_blocks):
    # counts off a multiple of n_blocks, empty blocks, blocks longer than one binning piece, and
    # pieces cut across blocks; the largest level so far grows from piece to piece, so the bins
    # merge on the way
    rng = np.random.Generator(np.random.Philox(17))
    levels = np.maximum(rng.exponential(1.0, n) - 0.3, 0.0)
    phases = rng.integers(0, 33, n)
    grid, _, phase_survival, block_counts, freq = _binned(levels, phases, n_blocks).tables()
    edges = np.linspace(0.0, grid[-1], N_BINS + 1)
    block_of = _block_of(n, n_blocks)
    for b in range(n_blocks):
        counts, _ = np.histogram(levels[block_of == b], bins=edges)
        assert np.array_equal(block_counts[b], counts)
    for i in range(33):
        counts, _ = np.histogram(levels[phases == i], bins=edges)
        assert np.array_equal(phase_survival[i], (counts.sum() - np.cumsum(counts)) / n)
    assert np.array_equal(freq, np.bincount(phases, minlength=33) / n)


@pytest.mark.parametrize("high", [7.3, 1.75111, 63.7325])
def test_tabulate_bins_levels_on_edges(high):
    # levels on and one ulp beside every bin edge, up to the largest level `high`, land in
    # np.histogram's bins; fed in increasing order, they merge the bins many times on the way
    top = 2.0 ** np.ceil(np.log2(high))
    edges = np.linspace(0.0, top, N_BINS + 1)
    levels = np.concatenate((edges[:-1], np.nextafter(edges[:-1], np.inf),
                             np.nextafter(edges[1:], 0.0)))
    levels = np.sort(levels[levels <= high])
    hist = _binned(levels, np.zeros(levels.size, np.int64), piece=97)
    grid, survival, _, block_counts, _ = hist.tables()
    assert grid[-1] == top
    counts, _ = np.histogram(levels, bins=edges)
    assert np.array_equal(block_counts.sum(axis=0), counts)
    assert np.array_equal(survival, 1.0 - np.cumsum(counts) / levels.size)


def _reference_slopes(est, window, power, n_grid=25, n_boot=200):
    """Per-resample reference for `fit_tail`: one np.interp and one lstsq per bootstrap row.

    Returns the rate and, per resample, its slope and its number of positive grid points.
    """
    grid = np.linspace(*window, n_grid)

    def slope(counts_total):
        surv = 1.0 - np.cumsum(counts_total) / counts_total.sum()
        s = np.interp(grid, est.grid, surv)
        ok = s > 0
        y = np.log(s[ok]) - power * np.log(grid[ok])
        design = np.vstack([np.ones(ok.sum()), grid[ok]]).T
        return -np.linalg.lstsq(design, y, rcond=None)[0][1], ok.sum()

    rng = np.random.Generator(np.random.Philox(est.config.seed + 0x5EED))
    n_blocks = est.block_counts.shape[0]
    boots = [slope(est.block_counts[rng.integers(0, n_blocks, n_blocks)].sum(axis=0))
             for _ in range(n_boot)]
    return slope(est.block_counts.sum(axis=0))[0], *map(np.array, zip(*boots))


def _reference_fit(est, window, power):
    """Rate and CI of the reference; resamples with fewer than two positive points are left out."""
    rate, boots, n_ok = _reference_slopes(est, window, power)
    return (rate, *np.percentile(boots[n_ok >= 2], [2.5, 97.5]))


@pytest.mark.parametrize("s_high, s_low, power", [(3e-2, 1e-4, 0.0), (3e-2, 3e-3, 1.5),
                                                  (3e-4, 2e-5, 0.0)])
def test_fit_tail_matches_per_resample_reference(est_case1, s_high, s_low, power):
    # the far window leaves grid points at zero survival in some resamples
    window = default_window(est_case1, s_high, s_low)
    fit = fit_tail(est_case1, window=window, power=power, min_samples=100)
    rate, lo, hi = _reference_fit(est_case1, window, power)
    assert fit.rate == pytest.approx(rate, abs=1e-12)
    assert fit.ci_low == pytest.approx(lo, abs=1e-12)
    assert fit.ci_high == pytest.approx(hi, abs=1e-12)


def test_far_tail_fit_leaves_out_resamples_without_a_slope(est_case1):
    # a fixed sample whose levels above 19 lie in 4 of the 50 time blocks: a resample that
    # misses all four has at most one positive grid point in this window
    rng = np.random.Generator(np.random.Philox(29))
    levels = np.minimum(rng.exponential(2.0, 50_000), 19.0)
    for b in (3, 17, 30, 44):
        levels[1000 * b:1000 * b + 40] = 20.0 + rng.exponential(2.0, 40)
    est = _with_levels(est_case1, levels)
    window = (20.0, 26.0)
    fit = fit_tail(est, window=window, min_samples=100)
    _, boots, n_ok = _reference_slopes(est, window, 0.0)
    left_out = np.count_nonzero(n_ok < 2)
    assert 0 < left_out < 0.05 * 200 and fit.n_boot_used == 200 - left_out
    lo, hi = np.percentile(boots[n_ok >= 2], [2.5, 97.5])
    assert fit.ci_low == pytest.approx(lo, abs=1e-12)
    assert fit.ci_high == pytest.approx(hi, abs=1e-12)
    # with their minimum-norm slopes the CI would differ
    assert not np.allclose(np.percentile(boots, [2.5, 97.5]), [lo, hi], rtol=0.0, atol=1e-9)


def test_fit_tail_refuses_a_window_most_resamples_miss(est_case1):
    # 23 of 200 resamples have fewer than two positive grid points here
    window = default_window(est_case1, 1e-4, 1e-5)
    _, _, n_ok = _reference_slopes(est_case1, window, 0.0)
    assert np.count_nonzero(n_ok < 2) > 10
    with pytest.raises(InsufficientSamplesError):
        fit_tail(est_case1, window=window, min_samples=10)


def _assert_in_the_bins_of(est, window, exact):
    """Each end of `window` is in the bin of its exact order statistic, and 0 where that is."""
    width = est.grid[0]
    for x, x_exact in zip(window, exact):
        assert np.floor(x / width) == np.floor(x_exact / width)
        assert (x == 0.0) == (x_exact == 0.0)
        assert abs(x - x_exact) < width


@pytest.mark.parametrize("s_high, s_low", [(3e-2, 1e-4), (5e-2, 1e-3), (3e-4, 2e-5), (1.0, 0.0)])
def test_default_window_reads_the_sorted_levels(est_case1, raw_case1, s_high, s_low):
    levels = np.sort(raw_case1[0])
    n = levels.size
    expected = (levels[min(n - 1, int(n * (1.0 - s_high)))],
                levels[min(n - 1, int(n * (1.0 - s_low)))])
    _assert_in_the_bins_of(est_case1, default_window(est_case1, s_high, s_low), expected)


def _partition_window(levels, s_high, s_low):
    n = levels.size
    k_lo, k_hi = min(n - 1, int(n * (1.0 - s_high))), min(n - 1, int(n * (1.0 - s_low)))
    part = np.partition(levels, [k_lo, k_hi])
    return part[k_lo], part[k_hi]


def _with_levels(est, levels):
    """`est` with its tables replaced by the histogram of `levels`, all in phase 0."""
    hist = _binned(levels, np.zeros(levels.size, np.int8))
    grid, survival, phase_survival, block_counts, freq = hist.tables()
    return replace(est, grid=grid, survival=survival, phase_survival=phase_survival,
                   n_samples=levels.size, n_zero=hist.n_zero, phase_frequency=freq,
                   block_counts=block_counts)


@pytest.mark.parametrize("s_high, s_low", [(3e-2, 1e-4), (0.15, 1e-3), (0.7, 0.2), (1.0, 0.0)])
@pytest.mark.parametrize("name", ["est_case1", "est_case3"])
def test_default_window_matches_partition(request, name, s_high, s_low):
    # CASE_III has 81% zero levels; with s_high 0.7 or 1 the lower rank falls in bin 0
    est = request.getfixturevalue(name)
    levels = request.getfixturevalue(name.replace("est", "raw"))[0]
    n = est.n_samples
    if name == "est_case3":
        assert est.zero_fraction > 0.75
    if s_high >= 0.7:
        assert est.block_counts[:, 0].sum() > int(n * (1.0 - s_high))
    _assert_in_the_bins_of(est, default_window(est, s_high, s_low),
                           _partition_window(levels, s_high, s_low))


@pytest.mark.parametrize("s_high, s_low", [(0.45, 0.1), (0.5, 0.4), (0.505, 0.3), (0.4, 0.5),
                                           (0.99, 0.5), (1e-3, 0.0)])
def test_default_window_with_ties_on_a_bin_edge(est_case1, s_high, s_low):
    # 100 levels on the lower edge of bin 1000, 30 one ulp below it, zeros and a spread
    edge = np.linspace(0.0, 16.0, N_BINS + 1)[1000]
    rng = np.random.Generator(np.random.Philox(23))
    levels = np.concatenate((np.zeros(200), rng.uniform(0.0, edge, 270),
                             np.full(30, np.nextafter(edge, 0.0)), np.full(100, edge),
                             rng.uniform(edge, 10.0, 399), [10.0]))
    rng.shuffle(levels)
    est = _with_levels(est_case1, levels)
    assert est.grid[999] == edge
    _assert_in_the_bins_of(est, default_window(est, s_high, s_low),
                           _partition_window(levels, s_high, s_low))


def test_default_window_of_one_sample():
    cfg = SimConfig(params=CASE_I, horizon=1.0, seed=1, sample_stride=0.6)
    est = simulate(cfg, fit=False)
    assert est.n_samples == 1
    x = float(_raw_samples(cfg)[0][0])
    # survival levels above 1 would give negative ranks; they are clamped to rank 0
    for s_high, s_low in ((3e-2, 1e-4), (1.0, 0.0), (50.0, 1000.0)):
        _assert_in_the_bins_of(est, default_window(est, s_high, s_low), (x, x))
    empty = simulate(SimConfig(params=CASE_I, horizon=1.0, seed=1, sample_stride=2.0), fit=False)
    assert empty.n_samples == 0
    with pytest.raises(InsufficientSamplesError):
        default_window(empty)


def test_simulate_peak_memory_and_int8_phases():
    # about 1e6 samples, binned as they are taken
    cfg = SimConfig(params=CASE_I, horizon=4e5, seed=1, sample_stride=0.4)
    tracemalloc.start()
    try:
        est = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_samples > 900_000 and est.fitted is not None
    assert peak < 32 * 2**20


def test_simulate_memory_does_not_grow_with_the_samples():
    # about 4e5 and 4e6 samples over the same events: nothing is kept per sample
    peaks = []
    for stride in (0.05, 0.005):
        cfg = SimConfig(params=CASE_I, horizon=2e4, seed=1, warmup=100.0, sample_stride=stride)
        tracemalloc.start()
        try:
            est = simulate(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert est.n_samples > 0.99 * (cfg.horizon - cfg.warmup) / stride
        assert est.fitted is not None
    # advance holds about a dozen arrays of at most _BLOCK elements at once; the histogram holds
    # N_BLOCKS + TRACKED_PHASES + 1 rows of N_BINS int64 counts, and its per-phase bincount,
    # the tables and the fit about three times as much
    tables = (N_BLOCKS + TRACKED_PHASES + 1) * N_BINS * 8
    assert max(peaks) < 16 * _sim_core._BLOCK * 8 + 4 * tables
    assert peaks[1] <= peaks[0] + 2**20


@pytest.mark.parametrize("params, horizon", [(CASE_I, 4e4), (CASE_III, 2e3), (C8, 1e4)],
                         ids=["CASE_I", "CASE_III", "c8"])
def test_simulate_does_not_depend_on_the_sub_block(params, horizon, monkeypatch):
    # event k takes the k-th draw of each stream however the events are cut into sub-blocks;
    # only the running sums of the levels are rounded differently
    cfg = SimConfig(params=params, horizon=horizon, seed=11, warmup=10.0, sample_stride=0.37)
    levels, phases, n_events = _raw_samples(cfg)
    monkeypatch.setattr(_sim_core, "_BLOCK", 97)
    small_levels, small_phases, small_events = _raw_samples(cfg)
    assert n_events > 1 << 16   # more than one sub-block at the default size too
    assert small_events == n_events
    assert small_levels.size == levels.size
    assert np.array_equal(small_phases, phases)
    assert np.allclose(small_levels, levels, rtol=0.0, atol=1e-9)


def test_tabulate_int8_phases_match_int64():
    # phases * N_BINS must not wrap in int8
    rng = np.random.Generator(np.random.Philox(19))
    n = 150_001
    levels = np.maximum(rng.exponential(1.0, n) - 0.3, 0.0)
    phases = rng.integers(0, TRACKED_PHASES + 1, n)
    tables8 = _binned(levels, phases.astype(np.int8)).tables()
    tables64 = _binned(levels, phases.astype(np.int64)).tables()
    for a, b in zip(tables8, tables64):
        assert np.array_equal(a, b)


def test_fit_tail_insufficient_samples():
    est = simulate(make_config(CASE_I, horizon=2e3, samples=2_000), fit=False)
    with pytest.raises(InsufficientSamplesError):
        fit_tail(est, window=(5.0, 12.0))


def test_far_tail_window_inflates_ci(est_case1):
    near = fit_tail(est_case1, window=default_window(est_case1, 3e-2, 3e-3),
                    min_samples=500)
    far = fit_tail(est_case1, window=default_window(est_case1, 3e-4, 2e-5),
                   min_samples=100)
    assert (far.ci_high - far.ci_low) > (near.ci_high - near.ci_low)


def _reference_advance(phase, level, t_end, warmup, stride, lam, mu, c, r, exps, us, max_phase):
    """Per-event reference for `_sim_core.advance`: one Python step per event.

    Returns `(phase, level, n_written, used, levels, phases)`, the samples as arrays.
    """
    n_events = exps.shape[0]
    out_level, out_phase = [], []
    t, k, i = 0.0, 0, 1   # sample i is at time warmup + i*stride
    next_sample = warmup + i * stride
    while k < n_events and t < t_end:
        service = phase * mu if phase < c else c * mu
        rate = lam + service
        tau = exps[k] / rate
        go_up = us[k] * rate < lam
        k += 1
        net = float(phase - c) if phase < c else r
        t_next = t + tau
        if t_next > t_end:
            t_next = t_end
            tau = t_end - t
            k -= 1  # the interrupted event is not consumed
        # samples inside (t, t_next]
        while next_sample <= t_next:
            if next_sample > warmup:
                dt = next_sample - t
                x = level + net * dt
                if x < 0.0:
                    x = 0.0
                out_level.append(x)
                out_phase.append(phase if phase < max_phase else max_phase)
            i += 1
            next_sample = warmup + i * stride
        level += net * tau
        if level < 0.0:
            level = 0.0
        t = t_next
        if t >= t_end:
            break
        phase = phase + 1 if go_up else phase - 1
    return phase, level, len(out_level), k, np.array(out_level), np.array(out_phase, np.int64)


_ADVANCE_CASES = {"CASE_I": CASE_I, "CASE_III": CASE_III, "CASE_I_C2": CASE_I_C2, "c8": C8,
                  "heavy": HEAVY}


@pytest.mark.parametrize("params, stride", [
    *[(p, 0.37) for p in _ADVANCE_CASES.values()], *[(p, 0.023) for p in _ADVANCE_CASES.values()],
], ids=[*_ADVANCE_CASES, *(f"{name}_pieces" for name in _ADVANCE_CASES)])
def test_advance_matches_per_event_reference(params, stride, monkeypatch):
    # short sub-blocks cross their boundaries many times before the horizon cuts in; at the
    # short stride a sub-block's samples take several grid pieces
    monkeypatch.setattr(_sim_core, "_BLOCK", 97)
    horizon, warmup, n_draws = 2e3, 10.0, 1 << 17
    args = (0, 0.0, horizon, warmup, stride, params.lam, params.mu, params.c, params.r)

    def streams():
        return [np.random.Generator(np.random.Philox(s))
                for s in np.random.SeedSequence(11).spawn(2)]

    # advance draws each sub-block's exponentials and uniforms; the reference gets whole arrays
    sink = _Recorder()
    phase, level, n_written, used = _sim_core.advance(*args, *streams(), sink, 5)
    out_level, out_phase = sink.samples()   # phases from 5 up are given as 5
    e, u = streams()
    ref_phase, ref_level, ref_written, ref_used, ref_out_level, ref_out_phase = (
        _reference_advance(*args, e.standard_exponential(n_draws), u.random(n_draws), 5))
    assert 10 * 97 < ref_used < n_draws   # many sub-blocks, and the horizon cut the reference
    assert np.any(ref_out_phase == 5)
    assert (phase, n_written, used) == (ref_phase, ref_written, ref_used)
    assert np.array_equal(out_phase, ref_out_phase)
    assert level == pytest.approx(ref_level, abs=1e-9)
    assert np.allclose(out_level, ref_out_level, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("params", [
    CASE_I, CASE_I_C2, CASE_III, C8, HEAVY,
    ModelParams(c=4, lam=3.99, mu=1.0, r=1.0), ModelParams(c=2, lam=1.9, mu=1.0, r=1.0),
], ids=["c1", "c2", "c3", "c8", "heavy_c4", "heavier_c4", "heavy_c2"])
def test_phase_path_matches_recursion(params):
    # row edges, a padded last row, and heavy loads that reach the sequential finish
    row = _sim_core._ROW
    rates = params.lam + np.arange(params.c + 1) * params.mu
    rng = np.random.Generator(np.random.Philox(5))
    for n in (1, row - 1, row, row + 1, 97, 1 << 16):
        th = _sim_core._thresholds(rng.random(n), params.lam, rates, params.c)
        for x0 in (0, 1, 7, 50):
            expected = list(accumulate(th.tolist(), _sim_core._step, initial=x0))
            assert _sim_core._phase_path(th, x0, params.c).tolist() == expected


def test_advance_builds_few_events_past_the_horizon(monkeypatch):
    # the last sub-block is sized from the time left, not built whole
    steps = 0
    phase_path = _sim_core._phase_path

    def counting_phase_path(th, x0, c):
        nonlocal steps
        steps += th.shape[0]
        return phase_path(th, x0, c)

    monkeypatch.setattr(_sim_core, "_phase_path", counting_phase_path)
    rng = np.random.Generator(np.random.Philox(3))
    exps, us = _Exps(rng.standard_exponential(1 << 18)), _Uniforms(rng.random(1 << 18))
    p, horizon = CASE_I, 4e4
    *_, used = _sim_core.advance(
        0, 0.0, horizon, 10.0, 0.5, p.lam, p.mu, p.c, p.r, exps, us,
        lambda levels, phases: None, 5)
    assert 1 << 16 < used < 1 << 18
    assert steps - used < 0.01 * used
    assert us.drawn - used < 0.01 * used
    assert exps.drawn - used < 0.01 * used
