"""Peak traced memory per symbol of the smoother and the switching-HMM experiment.

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
    fb_posteriors,
    run_switching_hmm_experiment,
    sample_piecewise,
)

N = 10**5
# Measured 48.3 B per symbol: the forward and backward messages (16 B each)
# and one segment's lock-step values and emissions (8 B each).
FB_POSTERIORS_BYTES = 53
# Measured 52.9 B per symbol; the posteriors are freed before the denoisers run.
SWITCHING_HMM_BYTES = 58


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fb_posteriors_peak_per_symbol():
    flips = [np.array([[1 - p, p], [p, 1 - p]]) for p in (0.01, 0.2)]
    spec = PiecewiseSourceSpec(tuple(map(MarkovComponent, flips)), (N // 2,), (0, 1), True)
    channel = bsc_channel(0.1)
    z = corrupt(sample_piecewise(spec, N, 5), channel, 6)
    segments = [(1, N // 2, flips[0]), (N // 2 + 1, N, flips[1])]
    peak = traced_peak(fb_posteriors, z, segments, channel)
    assert peak / N < FB_POSTERIORS_BYTES


def test_switching_hmm_experiment_peak_per_symbol():
    # A first run loads every lazily imported module, outside the trace.
    run_switching_hmm_experiment(1000, 0.1, 0.01, 0.2, seed=3)
    peak = traced_peak(run_switching_hmm_experiment, N, 0.1, 0.01, 0.2, None, (4, 6), (1,), 3)
    assert peak / N < SWITCHING_HMM_BYTES
