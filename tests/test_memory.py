"""Peak traced memory per symbol of the sampler, the smoother and its decisions, the denoiser,
the loss and the switching-HMM experiment.

Each bound is the peak measured at n = 10^5 (numpy 2.4, Python 3.11) plus
about 10%.  A stage that keeps a buffer alive after its last use, or symbols
stored wider than their alphabet needs, pushes the peak past it.
"""

import tracemalloc

import numpy as np

from sdude import (
    MarkovComponent,
    PiecewiseSourceSpec,
    bsc_channel,
    corrupt,
    cumulative_loss,
    fb_posteriors,
    hamming_loss,
    map_denoise,
    run_switching_hmm_experiment,
    sample_piecewise,
    sdude_denoise_each,
)

N = 10**5
# Measured 9.0 B per symbol: one block's uniforms (8 B) and flips (1 B), then
# the flips and the int64 path.
SAMPLE_PIECEWISE_BYTES = 10
# Measured 40.3 B per symbol: the forward and backward messages, one (2, n)
# array each (16 B each), and one segment's lock-step values (8 B); emissions
# are gathered per step.
FB_POSTERIORS_BYTES = 44
# Measured 47.5 B per symbol, in the k = 4 solve; the posteriors are freed
# before the denoisers run, and each k's outputs before the next k's solve.
SWITCHING_HMM_BYTES = 52
# Measured 35.5 B per symbol at k = 4, budgets (0, 1): the partition's order
# (8 B) and the two assignments (2 B), plus the DP values and positions of
# the longest chain's batch (about 0.12 n occurrences) while the budget-1
# walk builds its top level's row; no earlier batch's values are held then,
# nor the step offsets from which the batch's positions were gathered.
SDUDE_DENOISE_EACH_BYTES = 37
# Measured 5.9 B per symbol: the output and its read-only copy (1 B each), and
# the three cost rows of one chunk, 3 x 2^14 floats (3.9 B per symbol at 10^5).
MAP_DENOISE_BYTES = 6.5
# Measured 1.7 B per symbol: the one-byte flat index of the (x, xhat) pairs
# and the buffer in which ``np.add.at`` widens it, a block at a time.
CUMULATIVE_LOSS_BYTES = 1.9


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


FLIPS = [np.array([[1 - p, p], [p, 1 - p]]) for p in (0.01, 0.2)]
SPEC = PiecewiseSourceSpec(tuple(map(MarkovComponent, FLIPS)), (N // 2,), (0, 1), True)


def test_sample_piecewise_peak_per_symbol():
    # A first run makes numpy's one-time allocations outside the trace.
    sample_piecewise(SPEC, N, 4)
    peak = traced_peak(sample_piecewise, SPEC, N, 5)
    assert peak / N < SAMPLE_PIECEWISE_BYTES


def test_fb_posteriors_peak_per_symbol():
    flips, spec = FLIPS, SPEC
    channel = bsc_channel(0.1)
    z = corrupt(sample_piecewise(spec, N, 5), channel, 6)
    segments = [(1, N // 2, flips[0]), (N // 2 + 1, N, flips[1])]
    peak = traced_peak(fb_posteriors, z, segments, channel)
    assert peak / N < FB_POSTERIORS_BYTES


def test_map_denoise_peak_per_symbol():
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    z = corrupt(sample_piecewise(SPEC, N, 5), channel, 6)
    posteriors = fb_posteriors(z, [(1, N // 2, FLIPS[0]), (N // 2 + 1, N, FLIPS[1])], channel)
    map_denoise(posteriors, loss)
    peak = traced_peak(map_denoise, posteriors, loss)
    assert peak / N < MAP_DENOISE_BYTES


def test_switching_hmm_experiment_peak_per_symbol():
    # A first run loads every lazily imported module, outside the trace.
    run_switching_hmm_experiment(1000, 0.1, 0.01, 0.2, seed=3)
    peak = traced_peak(run_switching_hmm_experiment, N, 0.1, 0.01, 0.2, None, (4, 6), (1,), 3)
    assert peak / N < SWITCHING_HMM_BYTES


def test_sdude_denoise_each_peak_per_symbol():
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    z = corrupt(sample_piecewise(SPEC, N, 5), channel, 6)
    sdude_denoise_each(z, 4, (0, 1), channel, loss)
    peak = traced_peak(sdude_denoise_each, z, 4, (0, 1), channel, loss)
    assert peak / N < SDUDE_DENOISE_EACH_BYTES


def test_cumulative_loss_peak_per_symbol():
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    x = sample_piecewise(SPEC, N, 5)
    z = corrupt(x, channel, 6)
    cumulative_loss(x, z, loss)
    peak = traced_peak(cumulative_loss, x, z, loss)
    assert peak / N < CUMULATIVE_LOSS_BYTES
