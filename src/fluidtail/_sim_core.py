"""Chunk-vectorized engine of the event-driven simulator.

`advance` moves one sample path of the (phase, level) process through one
chunk of pre-drawn randomness.  Event k of the chunk waits `exps[k] / rate`
and jumps up iff `us[k] * rate < lam`, where `rate = lam + min(phase, c) mu`;
the event cut by the horizon is not consumed.  Only the phase path is a
sequential recursion; event times, levels, samples and the occupation times
are whole-array operations over sub-blocks of at most `_BLOCK` events.  Once
the horizon is in sight, a sub-block is sized from the time left and the
event rate so far, so that few events are built past the horizon.
"""

import math
from itertools import accumulate

import numpy as np

# perfbench/worker.py reports the engine from this flag; the engine is numpy only
USE_NUMBA = False

_BLOCK = 1 << 16   # events per sub-block: bounds the size of every temporary
_ALWAYS_UP = 1 << 62


def _step(x, threshold):
    return x + 1 if x < threshold else x - 1


def advance(phase, level, t, t_end, warmup, stride, next_sample, n_written,
            lam, mu, c, r, exps, us, out_level, out_phase,
            sojourn, block_len, n_blocks):
    """Advance through one chunk of randomness; returns the updated state.

    Returns `(phase, level, t, next_sample, n_written, used)`, `used` being
    the number of events consumed.  Between jumps the level moves linearly
    at the phase's net rate and is clamped at zero exactly: a sample landing
    after the hitting time reads zero, not a negative excursion.  Samples
    are taken every `stride` time units after `warmup`; per-phase occupation
    time is accumulated into consecutive blocks of length `block_len` for
    variance estimation.
    """
    max_phase = sojourn.shape[1] - 1
    rates = lam + np.arange(c + 1) * mu
    used, t0, size = 0, t, _BLOCK
    while used < exps.shape[0] and t < t_end:
        k1 = min(used + size, exps.shape[0])
        u = us[used:k1]
        # up iff min(x, c) < m, m = #{j <= c : u rates[j] < lam}; m = c + 1 is up for all x
        m = np.zeros(u.shape[0], np.int64)
        for rate in rates:
            m += u * rate < lam
        m[m > c] = _ALWAYS_UP
        xs = np.fromiter(accumulate(m.tolist(), _step, initial=phase), np.int64,
                         u.shape[0] + 1)
        x = xs[:-1]
        tau = exps[used:k1] / rates[np.minimum(x, c)]
        net = np.where(x < c, (x - c).astype(float), r)
        times = np.cumsum(np.concatenate(([t], tau)))

        n = tau.shape[0]
        hit = int(np.searchsorted(times[1:], t_end, side="left"))
        if hit < n:
            # event `hit` reaches the horizon; one cut short is not consumed
            n = hit + 1
            tau = tau[:n].copy()
            if times[n] == t_end:
                consumed = n
            else:
                consumed = hit
                tau[-1] = t_end - times[hit]
            ends = times[1:n + 1].copy()
            ends[-1] = t_end
            phase = int(xs[hit])
        else:
            consumed = n
            ends = times[1:]
            phase = int(xs[n])
        starts = times[:n]
        x, net = x[:n], net[:n]

        # levels at each event start, by the Lindley form of the clamped walk
        walk = np.cumsum(np.concatenate(([0.0], net * tau)))
        levels = np.maximum(walk + np.maximum(level, -np.minimum.accumulate(walk)), 0.0)

        # samples in (t, ends[-1]], each read on the event interval holding it
        t_last = float(ends[-1])
        n_samples = max(int((t_last - next_sample) / stride), 0) + 2
        while True:
            st = np.cumsum(np.concatenate(([next_sample], np.full(n_samples - 1, stride))))
            if st[-1] > t_last:
                break
            n_samples *= 2
        due = int(np.searchsorted(st, t_last, side="right"))
        w0 = int(np.searchsorted(st[:due], warmup, side="right"))
        q = min(due, w0 + out_level.shape[0] - n_written)
        if q > w0:
            ts = st[w0:q]
            ev = np.searchsorted(ends[:-1], ts, side="left")
            out_level[n_written:n_written + q - w0] = np.maximum(
                levels[ev] + net[ev] * (ts - starts[ev]), 0.0)
            out_phase[n_written:n_written + q - w0] = np.minimum(x[ev], max_phase)
            n_written += q - w0
        next_sample = float(st[due])

        # occupation time per (block, phase); the few intervals crossing a block edge are split
        ph = np.minimum(x, max_phase)
        blk = np.minimum((starts / block_len).astype(np.int64), n_blocks - 1)
        cross = (blk < n_blocks - 1) & (ends > (blk + 1) * block_len)
        inside = ~cross
        sojourn += np.bincount(
            blk[inside] * (max_phase + 1) + ph[inside],
            weights=(ends - starts)[inside], minlength=sojourn.size,
        ).reshape(sojourn.shape)
        for left, right, b, p in zip(starts[cross], ends[cross], blk[cross], ph[cross]):
            while left < right:
                edge = right if b == n_blocks - 1 else max(min(right, (b + 1) * block_len), left)
                sojourn[b, p] += edge - left
                left, b = edge, b + 1

        level = float(levels[-1])
        t = float(ends[-1])
        used += consumed
        if t > t0:
            # events expected before the horizon, with a margin of four standard deviations;
            # a sub-block that still falls short is followed by another
            expected = (t_end - t) * used / (t - t0)
            size = min(_BLOCK, int(expected + 4.0 * math.sqrt(expected)) + 64)
    return phase, level, t, next_sample, n_written, used
