import tracemalloc
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from conftest import CASE_I, CASE_I_C2, CASE_III
from fluidtail import _sim_core
from fluidtail.errors import InsufficientSamplesError
from fluidtail.model import ModelParams, phase_stationary
from fluidtail.simulate import (N_BLOCKS, TRACKED_PHASES, SimConfig, _tabulate, default_window,
                                fit_tail, simulate)

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


@pytest.fixture(scope="module")
def est_case1():
    return simulate(make_config(CASE_I, horizon=2e5, samples=400_000))


@pytest.fixture(scope="module")
def est_case3():
    return simulate(make_config(CASE_III, horizon=2e3, samples=200_000, warmup=5.0), fit=False)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(params=CASE_I, horizon=10.0, warmup=20.0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(params=CASE_I, horizon=10.0, seed=1, sample_stride=0.0)


def test_reproducibility_same_seed():
    cfg = make_config(CASE_I, horizon=2e3, samples=2_000)
    a = simulate(cfg, fit=False)
    b = simulate(cfg, fit=False)
    assert np.array_equal(a.samples_level, b.samples_level)
    assert np.array_equal(a.samples_phase, b.samples_phase)
    assert a.n_events == b.n_events
    c = simulate(make_config(CASE_I, horizon=2e3, samples=2_000, seed=8), fit=False)
    assert not np.array_equal(a.samples_level, c.samples_level)


def test_horizon_off_the_block_grid():
    # horizon / n_blocks * n_blocks rounds below the horizon; the samples still run up to it
    cfg = SimConfig(params=CASE_I, horizon=100.3, warmup=0.0, seed=1, sample_stride=0.1)
    assert cfg.horizon / N_BLOCKS * N_BLOCKS < cfg.horizon
    est = simulate(cfg, fit=False)
    assert abs(est.n_samples - 1003) <= 1


def test_kernel_level_dynamics_handmade():
    # two crafted events check the linear motion and the exact zero clamp
    out_x = np.zeros(8)
    out_ph = np.zeros(8, np.int64)
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=2.0)
    # rates: phase 0 -> 1.0 (up only), phase 1 -> 4.0
    exps = np.array([1.0, 6.0, 100.0])   # taus: 1.0, 1.5, interrupted
    us = np.array([0.0, 0.99, 0.0])      # up, down, -
    phase, level, n_written, used = _sim_core.advance(
        0, 0.0, 2.7, 0.0, 1.0, p.lam, p.mu, p.c, p.r,
        _Exps(exps), _Uniforms(us), out_x, out_ph, 32,
    )
    # event 1 at t=1 (phase 0->1, level pinned at 0 while draining)
    # event 2 at t=2.5 (phase 1->0), level rises at r=2 to 3.0
    # horizon interrupts the third event at t=2.7 after draining 0.2
    assert phase == 0
    assert level == pytest.approx(3.0 - 1.0 * 0.2)
    assert used == 2
    # samples at t=1 (clamped zero) and t=2 (risen to 2.0)
    assert n_written == 2
    assert out_x[0] == 0.0 and out_ph[0] == 0
    assert out_x[1] == pytest.approx(2.0) and out_ph[1] == 1


def test_zero_clamp_partial_interval():
    # draining from level 1 at rate -1: samples read max(0, 1 - t) exactly
    out_x = np.zeros(16)
    out_ph = np.zeros(16, np.int64)
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=2.0)
    exps = np.array([3.0, 100.0])        # phase 0: rate 1 -> tau = 3
    us = np.array([0.0, 0.0])
    phase, level, n_written, used = _sim_core.advance(
        0, 1.0, 3.0, 0.0, 0.25, p.lam, p.mu, p.c, p.r,
        _Exps(exps), _Uniforms(us), out_x, out_ph, 32,
    )
    assert level == 0.0
    expected = np.maximum(0.0, 1.0 - np.arange(1, n_written + 1) * 0.25)
    assert np.allclose(out_x[:n_written], expected)


def test_phase_frequencies_match_background_law(est_case1):
    xi = phase_stationary(CASE_I)
    freq = est_case1.phase_frequency
    # the standard error from the per-block frequencies, the blocks sliced as _tabulate slices them
    n = est_case1.n_samples
    bounds = [-(-b * n // N_BLOCKS) for b in range(N_BLOCKS + 1)]
    for i in range(4):
        block_vals = np.array([np.mean(est_case1.samples_phase[lo:hi] == i)
                               for lo, hi in zip(bounds, bounds[1:])])
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


def test_tables_match_histograms(est_case1):
    # the bincount tables count exactly what one np.histogram per phase and per block counts
    est = est_case1
    edges = np.concatenate(([0.0], est.grid))
    n = est.n_samples
    for i in range(est.phase_survival.shape[0]):
        counts, _ = np.histogram(est.samples_level[est.samples_phase == i], bins=edges)
        assert np.array_equal(est.phase_survival[i], (counts.sum() - np.cumsum(counts)) / n)
    n_blocks = est.block_counts.shape[0]
    block_of = (np.arange(n) * n_blocks) // n
    for b in range(n_blocks):
        counts, _ = np.histogram(est.samples_level[block_of == b], bins=edges)
        assert np.array_equal(est.block_counts[b], counts)
    freq = np.bincount(est.samples_phase, minlength=TRACKED_PHASES + 1) / n
    assert np.array_equal(est.phase_frequency, freq)


@pytest.mark.parametrize("n, n_blocks", [(1003, 7), (20, 50), (1, 3), (140_001, 2)])
def test_tabulate_blocks_are_slices_of_the_samples(n, n_blocks):
    # counts off a multiple of n_blocks, empty blocks, and blocks longer than one binning piece
    rng = np.random.Generator(np.random.Philox(17))
    levels = np.maximum(rng.exponential(1.0, n) - 0.3, 0.0)
    phases = rng.integers(0, 33, n)
    grid, _, phase_survival, block_counts, freq = _tabulate(levels, phases, n_blocks)
    edges = np.concatenate(([0.0], grid))
    block_of = (np.arange(n) * n_blocks) // n
    for b in range(n_blocks):
        counts, _ = np.histogram(levels[block_of == b], bins=edges)
        assert np.array_equal(block_counts[b], counts)
    for i in range(33):
        counts, _ = np.histogram(levels[phases == i], bins=edges)
        assert np.array_equal(phase_survival[i], (counts.sum() - np.cumsum(counts)) / n)
    assert np.array_equal(freq, np.bincount(phases, minlength=33) / n)


@pytest.mark.parametrize("top", [7.3, 1.75111, 63.7325])
def test_tabulate_bins_levels_on_edges(top):
    # levels on and one ulp beside every bin edge land in np.histogram's bins
    edges = np.linspace(0.0, top * (1 + 1e-9), 2049)
    levels = np.concatenate((edges[:-1], np.nextafter(edges[:-1], np.inf),
                             np.nextafter(edges[1:-1], 0.0), [top]))
    _, survival, _, block_counts, _ = _tabulate(levels, np.zeros(levels.size, np.int64))
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


@pytest.mark.parametrize("s_high, s_low", [(3e-2, 1e-4), (5e-2, 1e-3), (3e-4, 2e-5), (1.0, 0.0)])
def test_default_window_reads_the_sorted_levels(est_case1, s_high, s_low):
    levels = np.sort(est_case1.samples_level)
    n = levels.size
    expected = (levels[min(n - 1, int(n * (1.0 - s_high)))],
                levels[min(n - 1, int(n * (1.0 - s_low)))])
    assert default_window(est_case1, s_high, s_low) == expected


def _partition_window(levels, s_high, s_low):
    n = levels.size
    k_lo, k_hi = min(n - 1, int(n * (1.0 - s_high))), min(n - 1, int(n * (1.0 - s_low)))
    part = np.partition(levels, [k_lo, k_hi])
    return part[k_lo], part[k_hi]


def _with_levels(est, levels):
    """`est` with its samples and tables replaced by those of `levels`, all in phase 0."""
    phases = np.zeros(levels.size, np.int8)
    grid, survival, phase_survival, block_counts, freq = _tabulate(levels, phases)
    return replace(est, grid=grid, survival=survival, phase_survival=phase_survival,
                   n_samples=levels.size, phase_frequency=freq, block_counts=block_counts,
                   samples_level=levels, samples_phase=phases)


@pytest.mark.parametrize("s_high, s_low", [(3e-2, 1e-4), (0.15, 1e-3), (0.7, 0.2), (1.0, 0.0)])
@pytest.mark.parametrize("name", ["est_case1", "est_case3"])
def test_default_window_matches_partition(request, name, s_high, s_low):
    # CASE_III has 81% zero levels; with s_high 0.7 or 1 the lower rank falls in bin 0
    est = request.getfixturevalue(name)
    n = est.n_samples
    if name == "est_case3":
        assert est.zero_fraction > 0.75
    if s_high >= 0.7:
        assert est.block_counts[:, 0].sum() > int(n * (1.0 - s_high))
    assert default_window(est, s_high, s_low) == _partition_window(est.samples_level, s_high, s_low)


@pytest.mark.parametrize("s_high, s_low", [(0.45, 0.1), (0.5, 0.4), (0.505, 0.3), (0.4, 0.5),
                                           (0.99, 0.5), (1e-3, 0.0)])
def test_default_window_with_ties_on_a_bin_edge(est_case1, s_high, s_low):
    # 100 levels on the lower edge of bin 1000, 30 one ulp below it, zeros and a spread
    edge = np.linspace(0.0, 10.0 * (1 + 1e-9), 2049)[1000]
    rng = np.random.Generator(np.random.Philox(23))
    levels = np.concatenate((np.zeros(200), rng.uniform(0.0, edge, 270),
                             np.full(30, np.nextafter(edge, 0.0)), np.full(100, edge),
                             rng.uniform(edge, 10.0, 399), [10.0]))
    rng.shuffle(levels)
    est = _with_levels(est_case1, levels)
    assert est.grid[999] == edge
    assert default_window(est, s_high, s_low) == _partition_window(levels, s_high, s_low)


def test_default_window_of_one_sample():
    est = simulate(SimConfig(params=CASE_I, horizon=1.0, seed=1, sample_stride=0.6), fit=False)
    assert est.n_samples == 1
    x = float(est.samples_level[0])
    assert default_window(est) == (x, x)
    assert default_window(est, 1.0, 0.0) == (x, x)


def test_simulate_peak_memory_and_int8_phases():
    # about 1e6 samples: the levels take 8 MiB, the int8 phases 1 MiB
    cfg = SimConfig(params=CASE_I, horizon=4e5, seed=1, sample_stride=0.4)
    tracemalloc.start()
    try:
        est = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_samples > 900_000 and est.fitted is not None
    assert est.samples_phase.dtype == np.int8
    assert peak < 32 * 2**20


def test_simulate_memory_is_the_outputs_plus_a_few_sub_blocks():
    # about 10 samples per event: one sub-block holds every event of the run and 4e5 samples
    cfg = SimConfig(params=CASE_I, horizon=2e4, seed=1, warmup=100.0, sample_stride=0.05)
    n_max = int((cfg.horizon - cfg.warmup) / cfg.sample_stride) + 2
    outputs = n_max * (8 + 1)   # float64 levels and int8 phases
    tracemalloc.start()
    try:
        est = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_samples > 390_000 and est.fitted is not None
    # advance holds about a dozen arrays of at most _BLOCK elements at once, and the tables
    # and the fit less than that
    assert peak < outputs + 16 * _sim_core._BLOCK * 8


@pytest.mark.parametrize("params, horizon", [(CASE_I, 4e4), (CASE_III, 2e3), (C8, 1e4)],
                         ids=["CASE_I", "CASE_III", "c8"])
def test_simulate_does_not_depend_on_the_sub_block(params, horizon, monkeypatch):
    # event k takes the k-th draw of each stream however the events are cut into sub-blocks;
    # only the running sums of the levels are rounded differently
    cfg = SimConfig(params=params, horizon=horizon, seed=11, warmup=10.0, sample_stride=0.37)
    default = simulate(cfg, fit=False)
    monkeypatch.setattr(_sim_core, "_BLOCK", 97)
    small = simulate(cfg, fit=False)
    assert default.n_events > 1 << 16   # more than one sub-block at the default size too
    assert small.n_events == default.n_events
    assert small.n_samples == default.n_samples
    assert np.array_equal(small.samples_phase, default.samples_phase)
    assert np.allclose(small.samples_level, default.samples_level, rtol=0.0, atol=1e-9)


def test_tabulate_int8_phases_match_int64():
    # phases * n_bins must not wrap in int8
    rng = np.random.Generator(np.random.Philox(19))
    n = 150_001
    levels = np.maximum(rng.exponential(1.0, n) - 0.3, 0.0)
    phases = rng.integers(0, TRACKED_PHASES + 1, n)
    tables8 = _tabulate(levels, phases.astype(np.int8))
    tables64 = _tabulate(levels, phases.astype(np.int64))
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


def _reference_advance(phase, level, t_end, warmup, stride, lam, mu, c, r, exps, us,
                       out_level, out_phase, max_phase):
    """Per-event reference for `_sim_core.advance`: one Python step per event."""
    n_events = exps.shape[0]
    max_out = out_level.shape[0]
    t, next_sample, n_written, k = 0.0, warmup + stride, 0, 0
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
            if next_sample > warmup and n_written < max_out:
                dt = next_sample - t
                x = level + net * dt
                if x < 0.0:
                    x = 0.0
                out_level[n_written] = x
                out_phase[n_written] = phase if phase < max_phase else max_phase
                n_written += 1
            next_sample += stride
        level += net * tau
        if level < 0.0:
            level = 0.0
        t = t_next
        if t >= t_end:
            break
        phase = phase + 1 if go_up else phase - 1
    return phase, level, n_written, k


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
    n_max = int((horizon - warmup) / stride) + 2

    def run(step, exps, us):
        out_level, out_phase = np.zeros(n_max), np.zeros(n_max, np.int64)
        phase, level, n_written, used = step(
            0, 0.0, horizon, warmup, stride, params.lam, params.mu, params.c, params.r,
            exps, us, out_level, out_phase, 5)  # phases from 5 up are written as 5
        return (phase, n_written, used, out_phase), level, out_level

    def streams():
        return [np.random.Generator(np.random.Philox(s))
                for s in np.random.SeedSequence(11).spawn(2)]

    # advance draws each sub-block's exponentials and uniforms; the reference gets whole arrays
    exact, level, out_level = run(_sim_core.advance, *streams())
    e, u = streams()
    ref_exact, ref_level, ref_out_level = run(
        _reference_advance, e.standard_exponential(n_draws), u.random(n_draws))
    used, out_phase = ref_exact[2], ref_exact[-1]
    assert 10 * 97 < used < n_draws   # many sub-blocks, and the horizon cut the reference
    assert np.any(out_phase == 5)
    assert exact[:-1] == ref_exact[:-1]
    assert np.array_equal(exact[-1], out_phase)
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
        np.zeros(1 << 17), np.zeros(1 << 17, np.int64), 5)
    assert 1 << 16 < used < 1 << 18
    assert steps - used < 0.01 * used
    assert us.drawn - used < 0.01 * used
    assert exps.drawn - used < 0.01 * used


def test_sample_events_match_searchsorted():
    # ties, samples before the first end and past the last, sub-blocks of 1 and 2 events,
    # strides 100 times above and below the event spacing, and grids cut at a warm-up
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(400):
        n = int(rng.choice([1, 2, 3, 64, 3000]))
        spacing = rng.exponential()
        stride = spacing * float(rng.choice([0.01, 0.37, 1.0, 2.9, 100.0]))
        t0 = rng.uniform(0.0, 1e4)
        ends = t0 + np.cumsum(rng.exponential(spacing, n))
        start = t0 + rng.uniform(-3.0, 1.0) * stride
        m = max(int((ends[-1] - start) / stride), 0) + int(rng.integers(1, 4))
        st = np.full(m, stride)
        st[0] = start
        np.cumsum(st, out=st)
        ts = st[int(rng.integers(0, m)):]
        tie = rng.random(n) < 0.3
        ends[tie] = ts[rng.integers(0, ts.size, n)][tie]
        ends.sort()
        expected = np.searchsorted(ends[:-1], ts, side="left")
        assert np.array_equal(_sim_core._sample_events(ends, ts, stride), expected)
