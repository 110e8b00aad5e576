import numpy as np
import pytest

from conftest import CASE_I, CASE_I_C2, CASE_III
from fluidtail import _sim_core
from fluidtail.errors import InsufficientSamplesError
from fluidtail.model import ModelParams, phase_stationary
from fluidtail.simulate import SimConfig, _tabulate, default_window, fit_tail, simulate

C8 = ModelParams(c=8, lam=6.0, mu=1.0, r=1.0)


def make_config(params, horizon=4e4, samples=80_000, seed=7, warmup=50.0):
    return SimConfig(
        params=params, horizon=horizon, warmup=warmup, seed=seed,
        sample_stride=(horizon - warmup) / samples,
    )


@pytest.fixture(scope="module")
def est_case1():
    return simulate(make_config(CASE_I, horizon=2e5, samples=400_000))


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
    # horizon / n_blocks * n_blocks rounds below the horizon; the time past it is in the last block
    cfg = SimConfig(params=CASE_I, horizon=100.3, warmup=0.0, seed=1, sample_stride=0.1)
    assert cfg.horizon / cfg.n_blocks * cfg.n_blocks < cfg.horizon
    est = simulate(cfg, fit=False)
    assert abs(est.n_samples - 1003) <= 1
    assert est.sojourn_fraction[-1].sum() > 0.0


def test_kernel_level_dynamics_handmade():
    # two crafted events check the linear motion and the exact zero clamp
    out_x = np.zeros(8)
    out_ph = np.zeros(8, np.int64)
    sojourn = np.zeros((1, 33))
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=2.0)
    # rates: phase 0 -> 1.0 (up only), phase 1 -> 4.0
    exps = np.array([1.0, 6.0, 100.0])   # taus: 1.0, 1.5, interrupted
    us = np.array([0.0, 0.99, 0.0])      # up, down, -
    phase, level, t, next_sample, n_written, used = _sim_core.advance(
        0, 0.0, 0.0, 2.7, 0.0, 1.0, 1.0, 0, p.lam, p.mu, p.c, p.r,
        exps, us, out_x, out_ph, sojourn, 2.7, 1,
    )
    # event 1 at t=1 (phase 0->1, level pinned at 0 while draining)
    # event 2 at t=2.5 (phase 1->0), level rises at r=2 to 3.0
    # horizon interrupts the third event at t=2.7 after draining 0.2
    assert t == pytest.approx(2.7)
    assert phase == 0
    assert level == pytest.approx(3.0 - 1.0 * 0.2)
    assert used == 2
    # samples at t=1 (clamped zero) and t=2 (risen to 2.0)
    assert n_written == 2
    assert out_x[0] == 0.0 and out_ph[0] == 0
    assert out_x[1] == pytest.approx(2.0) and out_ph[1] == 1
    # sojourn accounting: 1.2 time units in phase 0, 1.5 in phase 1
    assert sojourn[0, 0] == pytest.approx(1.2)
    assert sojourn[0, 1] == pytest.approx(1.5)


def test_zero_clamp_partial_interval():
    # draining from level 1 at rate -1: samples read max(0, 1 - t) exactly
    out_x = np.zeros(16)
    out_ph = np.zeros(16, np.int64)
    sojourn = np.zeros((1, 33))
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=2.0)
    exps = np.array([3.0, 100.0])        # phase 0: rate 1 -> tau = 3
    us = np.array([0.0, 0.0])
    phase, level, t, ns, n_written, used = _sim_core.advance(
        0, 1.0, 0.0, 3.0, 0.0, 0.25, 0.25, 0, p.lam, p.mu, p.c, p.r,
        exps, us, out_x, out_ph, sojourn, 3.0, 1,
    )
    assert level == 0.0
    expected = np.maximum(0.0, 1.0 - np.arange(1, n_written + 1) * 0.25)
    assert np.allclose(out_x[:n_written], expected)


def test_phase_frequencies_match_background_law(est_case1):
    xi = phase_stationary(CASE_I)
    freq = est_case1.phase_frequency
    for i in range(4):
        block_vals = est_case1.sojourn_fraction[:, i]
        block_vals = block_vals / est_case1.sojourn_fraction.sum(axis=1)
        se = block_vals.std(ddof=1) / np.sqrt(len(block_vals))
        assert abs(freq[i] - xi.prob(i)) < max(4.0 * se, 5e-3)


def test_sojourn_law_of_large_numbers(est_case1):
    xi = phase_stationary(CASE_I)
    frac = est_case1.sojourn_fraction.sum(axis=0)
    for i in range(5):
        per_block = est_case1.sojourn_fraction[:, i] / est_case1.sojourn_fraction.sum(axis=1)
        se = per_block.std(ddof=1) / np.sqrt(len(per_block))
        assert abs(frac[i] - xi.prob(i)) < max(4.0 * se, 5e-3)


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


@pytest.mark.parametrize("top", [7.3, 1.75111, 63.7325])
def test_tabulate_bins_levels_on_edges(top):
    # levels on and one ulp beside every bin edge land in np.histogram's bins
    edges = np.linspace(0.0, top * (1 + 1e-9), 2049)
    levels = np.concatenate((edges[:-1], np.nextafter(edges[:-1], np.inf),
                             np.nextafter(edges[1:-1], 0.0), [top]))
    config = make_config(CASE_I)
    _, survival, _, block_counts = _tabulate(config, levels, np.zeros(levels.size, np.int64))
    counts, _ = np.histogram(levels, bins=edges)
    assert np.array_equal(block_counts.sum(axis=0), counts)
    assert np.array_equal(survival, 1.0 - np.cumsum(counts) / levels.size)


def _reference_fit(est, window, power, n_grid=25, n_boot=200):
    """Per-resample reference for `fit_tail`: one np.interp and one lstsq per bootstrap row."""
    grid = np.linspace(*window, n_grid)

    def slope(counts_total):
        surv = 1.0 - np.cumsum(counts_total) / counts_total.sum()
        s = np.interp(grid, est.grid, surv)
        ok = s > 0
        y = np.log(s[ok]) - power * np.log(grid[ok])
        design = np.vstack([np.ones(ok.sum()), grid[ok]]).T
        return -np.linalg.lstsq(design, y, rcond=None)[0][1]

    rng = np.random.Generator(np.random.Philox(est.config.seed + 0x5EED))
    n_blocks = est.block_counts.shape[0]
    boots = [slope(est.block_counts[rng.integers(0, n_blocks, n_blocks)].sum(axis=0))
             for _ in range(n_boot)]
    return (slope(est.block_counts.sum(axis=0)), *np.percentile(boots, [2.5, 97.5]))


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


def _reference_advance(phase, level, t, t_end, warmup, stride, next_sample, n_written,
                       lam, mu, c, r, exps, us, out_level, out_phase,
                       sojourn, block_len, n_blocks):
    """Per-event reference for `_sim_core.advance`: one Python step per event.

    It spins forever when `n_blocks * block_len` rounds below `t_end` and an
    event crosses that product; the inputs below keep clear of that.
    """
    n_events = exps.shape[0]
    max_out = out_level.shape[0]
    max_phase = sojourn.shape[1] - 1
    k = 0
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
        # sojourn accounting, split across block boundaries
        left = t
        while left < t_next:
            blk = int(left / block_len)
            if blk >= n_blocks:
                blk = n_blocks - 1
            edge = (blk + 1) * block_len
            seg = (t_next if t_next < edge else edge) - left
            ph = phase if phase < max_phase else max_phase
            sojourn[blk, ph] += seg
            left += seg
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
    return phase, level, t, next_sample, n_written, k


@pytest.mark.parametrize("params", [CASE_I, CASE_III, CASE_I_C2, C8],
                         ids=["CASE_I", "CASE_III", "CASE_I_C2", "c8"])
def test_advance_matches_per_event_reference(params, monkeypatch):
    # short chunks and sub-blocks cross both boundaries many times before the horizon cuts in
    monkeypatch.setattr(_sim_core, "_BLOCK", 97)
    horizon, warmup, stride, n_blocks, chunk = 2e3, 10.0, 0.37, 7, 1000
    n_max = int((horizon - warmup) / stride) + 2

    def run(step):
        out_level, out_phase = np.zeros(n_max), np.zeros(n_max, np.int64)
        sojourn = np.zeros((n_blocks, 6))  # phases from 5 up are pooled in the last column
        phase, level, t, next_sample, n_written = 0, 0.0, 0.0, warmup + stride, 0
        rng = np.random.Generator(np.random.Philox(11))
        used = []
        while t < horizon:
            exps, us = rng.standard_exponential(chunk), rng.random(chunk)
            phase, level, t, next_sample, n_written, k = step(
                phase, level, t, horizon, warmup, stride, next_sample, n_written,
                params.lam, params.mu, params.c, params.r, exps, us,
                out_level, out_phase, sojourn, horizon / n_blocks, n_blocks)
            used.append(k)
        return (used, phase, t, next_sample, n_written, out_phase), level, out_level, sojourn

    exact, level, out_level, sojourn = run(_sim_core.advance)
    ref_exact, ref_level, ref_out_level, ref_sojourn = run(_reference_advance)
    used, out_phase = ref_exact[0], ref_exact[-1]
    assert len(used) > 2 and used[-1] < chunk  # several chunks, the last one cut
    assert np.any(out_phase == 5)
    assert exact[:-1] == ref_exact[:-1]
    assert np.array_equal(exact[-1], out_phase)
    assert level == pytest.approx(ref_level, abs=1e-9)
    assert np.allclose(out_level, ref_out_level, rtol=0.0, atol=1e-9)
    assert np.allclose(sojourn, ref_sojourn, rtol=0.0, atol=1e-9)


def test_advance_builds_few_events_past_the_horizon(monkeypatch):
    # the last sub-block is sized from the time left, not built whole
    steps = 0
    step = _sim_core._step

    def counting_step(x, threshold):
        nonlocal steps
        steps += 1
        return step(x, threshold)

    monkeypatch.setattr(_sim_core, "_step", counting_step)
    rng = np.random.Generator(np.random.Philox(3))
    exps, us = rng.standard_exponential(1 << 18), rng.random(1 << 18)
    p, horizon = CASE_I, 4e4
    *_, used = _sim_core.advance(
        0, 0.0, 0.0, horizon, 10.0, 0.5, 10.5, 0, p.lam, p.mu, p.c, p.r, exps, us,
        np.zeros(1 << 17), np.zeros(1 << 17, np.int64), np.zeros((4, 6)), horizon / 4, 4)
    assert 1 << 16 < used < exps.shape[0]
    assert steps - used < 0.01 * used
