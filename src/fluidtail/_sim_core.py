"""Vectorized engine of the event-driven simulator.

`advance` moves one sample path of the (phase, level) process from time 0
to the horizon.  Event k waits `e_k / rate` and jumps up iff
`u_k * rate < lam`, where `rate = lam + min(phase, c) mu` and e_k and u_k
are the k-th draws of the exponential stream and of the uniform stream;
the event cut by the horizon is not consumed.  Event times, levels and
samples are whole-array operations over sub-blocks of at most `_BLOCK`
events, and each sub-block's exponentials and uniforms are drawn as it is
built, into reused buffers.  The samples of a sub-block go to the caller's
sink in pieces of at most `_BLOCK` samples, so no buffer grows with the
horizon or the stride.  Once the horizon is in sight, a sub-block is sized
from the time left and the event rate so far, so that few events are built
(and few draws made) past the horizon.

Sample i (i >= 1) is at time `warmup + i*stride`, computed from its index,
so the grid does not drift with the horizon.  `sample_count` counts the
samples at or before each event's end, and a piece of samples finds its
events by `np.repeat` over the per-event counts, with no search per sample.

The phase path is a recursion, `x + 1` if `x < th[k]` else `x - 1`, and
`_phase_path` computes it exactly with whole-array steps.  The sub-block is
cut into rows of `_ROW` events that step in lockstep.  Row 0 starts at the
given phase; every other row starts at a guess, 0 or 1, of the parity the
path must have there (`x_k + k` is constant mod 2).  A row is right once its
start equals the end of the row before it, so the stitch re-runs only rows
whose start changed, for `_ROUNDS` rounds:

- two walks through the same thresholds that meet stay together, so a
  re-run row stops once it meets its old path;
- at or above c the walk steps down unless the event is always-up, so a
  row that stayed at or above c moves rigidly when its start rises: it is
  shifted, not re-run.

Rows still wrong after the rounds are finished in row order by the
one-event-at-a-time recursion.  Many are left only when the queue is heavily
loaded and its phase rarely comes down to the guess; the finish then keeps
the cost near that recursion's.
"""

import math
from itertools import accumulate

import numpy as np

# perfbench/worker.py reports the engine from this flag; the engine is numpy only
USE_NUMBA = False

_BLOCK = 1 << 16   # events per sub-block and grid points per sample piece: bounds the size of
                   # every buffer and temporary, whatever the horizon and stride
_ALWAYS_UP = 1 << 30
_ROW = 64          # events per lockstep row: even, so every row starts at the parity of row 0,
                   # and a multiple of _CHECK
_ROUNDS = 3        # stitch rounds before the sequential finish
_CHECK = 8         # steps a re-run row takes between checks for meeting its old path


def _thresholds(u, lam, rates, c):
    """Per-event thresholds of the phase walk: up iff phase < threshold.

    Up iff min(x, c) < m, m = #{j <= c : u rates[j] < lam}; m = c + 1 is up for
    all x and becomes `_ALWAYS_UP`.  Phases and thresholds are int32.
    """
    m = np.ones(u.shape[0], np.int32)   # u rates[0] = u lam < lam for every u < 1
    for rate in rates[1:]:
        m += u * rate < lam
    m[m > c] = _ALWAYS_UP
    return m


def _step(x, threshold):
    return x + 1 if x < threshold else x - 1


def _lockstep(path, th):
    """Step every column of `path` from its row 0 through the thresholds `th`, one row a step."""
    up = np.empty(path.shape[1], bool)
    for j in range(th.shape[0]):
        np.less(path[j], th[j], out=up)
        np.add(path[j], up, out=path[j + 1])
        path[j + 1] += up
        path[j + 1] -= 1


def _rerun(path, th, cols, starts):
    """Re-run the columns `cols` of `path` from new starts, each until it meets its old path."""
    path[0, cols] = starts
    for j in range(0, th.shape[0], _CHECK):
        seg = np.empty((_CHECK + 1, cols.size), path.dtype)
        seg[0] = path[j, cols]
        _lockstep(seg, th[j:j + _CHECK, cols])
        moved = seg[-1] != path[j + _CHECK, cols]
        path[j + 1:j + _CHECK + 1, cols] = seg[1:]
        cols = cols[moved]
        if not cols.size:
            break


def _phase_path(th, x0, c):
    """Phase path of one sub-block: `x[0] = x0`, `x[k + 1] = _step(x[k], th[k])`.

    `th` is not empty, and `th[k]` is in 1..c or `_ALWAYS_UP`.  Column r of
    `path` is row r of the sub-block, events `r * _ROW` to `(r + 1) * _ROW`;
    the last row is padded with always-up events, which only extend it.

    The step is monotone: of two starts of one parity, the lower never ends
    above the higher.  A guess is the least start of its parity, so every
    computed row lies at or below the true path and a start only ever moves
    up; a row that stayed at or above c still does after its shift.
    """
    n = th.shape[0]
    rows = -(-n // _ROW)
    thr = np.empty((_ROW, rows), np.int32)
    thr[:, :-1] = th[:(rows - 1) * _ROW].reshape(rows - 1, _ROW).T
    thr[:, -1] = _ALWAYS_UP
    thr[:n - (rows - 1) * _ROW, -1] = th[(rows - 1) * _ROW:]
    path = np.empty((_ROW + 1, rows), np.int32)
    path[0] = x0 & 1
    path[0, 0] = x0
    _lockstep(path, thr)
    low = path[:-1].min(axis=0)
    for _ in range(_ROUNDS):
        shift = path[-1, :-1] - path[0, 1:]
        bad = np.flatnonzero(shift) + 1
        if not bad.size:
            break
        shift = shift[bad - 1]
        rigid = low[bad] >= c
        cols = bad[rigid]
        path[:, cols] += shift[rigid]
        low[cols] += shift[rigid]
        cols = bad[~rigid]
        if cols.size:
            _rerun(path, thr, cols, path[0, cols] + shift[~rigid])
            low[cols] = path[:-1, cols].min(axis=0)
    bad = np.flatnonzero(path[-1, :-1] != path[0, 1:])
    if bad.size:
        # sequential finish: each row in turn, from the true end of the row before
        starts, ends, lows = path[0].tolist(), path[-1].tolist(), low.tolist()
        end = ends[bad[0]]
        for r in range(bad[0] + 1, rows):
            shift = end - starts[r]
            if shift == 0:
                end = ends[r]
            elif lows[r] >= c:
                path[:, r] += shift
                end = ends[r] + shift
            else:
                col = list(accumulate(thr[:, r].tolist(), _step, initial=end))
                path[:, r] = col
                end = col[-1]
    del thr   # freed before the output is built, which keeps the peak memory near the recursion's
    xs = np.empty(rows * _ROW + 1, np.int32)
    xs[:-1].reshape(rows, _ROW)[:] = path[:-1].T
    xs[-1] = path[-1, -1]
    return xs[:n + 1]


def sample_count(t, warmup, stride):
    """Samples at or before time `t`, a float or an array: `#{i >= 1 : warmup + i*stride <= t}`.

    Sample i is at time `warmup + i*stride`.  The quotient's floor can be one off next to a
    sample time, from rounding; one step against the sample times themselves makes the count
    exact, so a horizon of `warmup + n*stride` holds n samples.
    """
    k = np.floor((t - warmup) / stride)
    k += warmup + (k + 1.0) * stride <= t
    k -= warmup + k * stride > t
    return np.maximum(k, 0.0).astype(np.int64)


def advance(phase, level, t_end, warmup, stride, lam, mu, c, r, exps, uniforms, sink, max_phase):
    """Advance from `(phase, level)` at time 0 to `t_end`; returns the end state.

    Returns `(phase, level, n_written, used)`, `n_written` being the number
    of samples taken and `used` the number of events consumed.  Each
    sub-block draws its exponentials and its uniforms, one of each per event
    built, by `exps.standard_exponential(out=buf)` and
    `uniforms.random(out=buf)` (`numpy.random.Generator`s, or anything that
    fills `buf` in the same order).  Between jumps the level moves linearly
    at the phase's net rate and is clamped at zero exactly: a sample landing
    after the hitting time reads zero, not a negative excursion.  Sample i
    (i >= 1) is taken at time `warmup + i*stride`, the samples up to the
    horizon counted by `sample_count`; only the count taken so far carries
    from one sub-block to the next.  Each sample is read on the event
    interval that holds it, and the samples go to `sink(levels, phases)` in
    pieces of at most `_BLOCK`, valid during the call only, in time order;
    phases above `max_phase` are given as `max_phase`.
    """
    rates = lam + np.arange(c + 1) * mu
    # rate and net rate of phases 0..c; every phase from c up moves as c
    table = np.stack((rates, np.append(np.arange(-c, 0.0), r)))
    ubuf, ebuf = np.empty(_BLOCK), np.empty(_BLOCK)
    t, taken, used, size = 0.0, 0, 0, _BLOCK
    while t < t_end:
        n = size
        us = uniforms.random(out=ubuf[:n])
        xs = _phase_path(_thresholds(us, lam, rates, c), phase, c)
        x = xs[:-1]
        rate, net = table.take(np.minimum(x, c), axis=1)
        tau = exps.standard_exponential(out=ebuf[:n])
        tau /= rate
        times = np.empty(n + 1)
        times[0] = t
        times[1:] = tau
        np.cumsum(times, out=times)

        hit = int(np.searchsorted(times[1:], t_end, side="left"))
        if hit < n:
            # event `hit` reaches the horizon; one cut short is not consumed
            n = hit + 1
            tau = tau[:n]
            if times[n] == t_end:
                consumed = n
            else:
                consumed = hit
                tau[-1] = t_end - times[hit]
            times[n] = t_end
            phase = int(xs[hit])
        else:
            consumed = n
            phase = int(xs[n])
        starts, ends = times[:n], times[1:n + 1]
        x, net = x[:n], net[:n]

        # levels at each event start, by the Lindley form of the clamped walk
        walk = np.empty(n + 1)
        walk[0] = 0.0
        np.multiply(net, tau, out=walk[1:])
        np.cumsum(walk, out=walk)
        levels = np.minimum.accumulate(walk)
        np.negative(levels, out=levels)
        np.maximum(level, levels, out=levels)
        np.add(walk, levels, out=levels)
        np.maximum(levels, 0.0, out=levels)
        del walk

        # samples in (t, ends[-1]]: event j holds those counted after its start and by its
        # end; they go to the sink a piece of at most _BLOCK samples at a time
        counts = sample_count(times[:n + 1], warmup, stride)
        total = int(counts[-1])
        for a in range(taken, total, _BLOCK):
            b = min(a + _BLOCK, total)
            # the events that hold the piece's first and last samples
            lo = int(np.searchsorted(counts, a, side="right")) - 1
            hi = int(np.searchsorted(counts, b, side="left"))
            ev = np.repeat(np.arange(lo, hi), np.diff(np.clip(counts[lo:hi + 1], a, b)))
            y = np.arange(a + 1, b + 1, dtype=float)
            y *= stride
            y += warmup
            y -= starts.take(ev)
            y *= net.take(ev)
            np.add(levels.take(ev), y, out=y)
            np.maximum(y, 0.0, out=y)
            sink(y, np.minimum(x.take(ev), max_phase))
        taken = total

        level = float(levels[-1])
        t = float(ends[-1])
        used += consumed
        if t > 0.0:
            # events expected before the horizon, with a margin of four standard deviations;
            # a sub-block that still falls short is followed by another
            expected = (t_end - t) * used / t
            size = min(_BLOCK, int(expected + 4.0 * math.sqrt(expected)) + 64)
    return phase, level, taken, used
