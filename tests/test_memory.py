"""Peak traced memory per symbol of the sampler, the corruption, the smoother and its
decisions, the context partition, the denoiser, the genie, the loss and the
switching-HMM experiment.

Each bound is the peak measured at n = 10^5 (numpy 2.4, Python 3.11) plus
about 10%.  A stage that keeps a buffer alive after its last use, or symbols
stored wider than their alphabet needs, pushes the peak past it.  The
stages that draw or map ``core.CHUNK`` = 2^14 symbols at a time hold one
chunk's temporaries beside their output, a fixed cost that the bound at
10^5 spreads over every symbol, so they are also run at 4 x 10^5: the bytes
each added symbol costs there are what the stage holds per symbol beyond its
chunks, and a whole-sequence temporary that comes back raises them.
"""

import tracemalloc

import numpy as np
import pytest

from sdude import (
    MarkovComponent,
    PiecewiseSourceSpec,
    SymbolSequence,
    bsc_channel,
    build_partition,
    corrupt,
    cumulative_loss,
    fb_posteriors,
    genie_min_losses,
    hamming_loss,
    map_denoise,
    run_switching_hmm_experiment,
    sample_piecewise,
    sdude_denoise_each,
)

N = 10**5
# Measured 3.16 B per symbol (6.19 with chunks of 2^16): one chunk's walk,
# its uniforms, flips and int64 path (about 13 B for each of its 2^14
# symbols), beside the one-byte output.
SAMPLE_PIECEWISE_BYTES = 3.5
# Measured 5.78 B per symbol (18.1 with chunks of 2^16): one chunk's
# uniforms, gathered CDF heads and int64 draws (about 29 B for each of its
# 2^14 symbols), beside the one-byte output.
CORRUPT_BYTES = 6.4
# Measured 19.3 B per symbol (24.7 while a segment's lock-step values and an
# n-float normalizer were held): the one (n, 2) posterior array (16 B), a few
# states per block, the lock-step's 16-step buffers and one chunk of sums.
FB_POSTERIORS_BYTES = 21
# Measured 19.8 B per symbol (25.0 while the step loop took the rest of a
# segment as one Python list): a segment that never coalesces runs in the
# step loop, which reads its symbols a chunk at a time.
FB_STEP_LOOP_BYTES = 21.8
# Measured 21.0 B per symbol at 4N (26.3 while the smoother held a segment's
# lock-step values beside its output): the decisions over the posteriors,
# with the smoother at 20.5; below about 2 x 10^5 symbols the k = 4 solve
# sets the peak (28.1 B at N).  The posteriors are freed before the
# denoisers run, and each k's outputs before the next k's solve.
SWITCHING_HMM_BYTES = 23
# Measured 10.5, 12.7 and 19.5 B per symbol at k = 4, 6 and 8 (14.0, 18.0
# and 18.0 with a stable argsort's intp order and buffer): the uint8 or
# uint16 ids, the int32 order and one chunk's temporaries of the counting
# sort, and at k = 8 the 2^16 digit counts and free slots, int32 like the
# order (24.8 while they were intp).
BUILD_PARTITION_BYTES = {4: 11.8, 6: 14.5, 8: 21.5}
# Measured 25.2 B per symbol at k = 4, budgets (0, 1): the partition's int32
# order (4 B) and the two assignments (2 B), plus the longest chains' batch
# (about 0.2 n occurrences): its intp positions, codes, argmin rules and
# shift flags, and the two segment buffers in which its sums and level values
# are scanned.  No earlier batch's flags are held then, nor the step offsets
# from which the batch's positions were gathered.  The output mapping widens
# its index to intp one chunk at a time.
SDUDE_DENOISE_EACH_BYTES = 27.5
# Measured 40.1 B per symbol for budgets (0, 2) on the one chain of k = 0:
# the intp positions (8 B) and one-byte codes, the level-0 and level-1
# argmin rules and the shift flags of levels 1 and 2 for the 4 rules (10 B),
# the partition's int32 order and the two assignments (6 B), and two segment
# buffers of 2^16 floats.
GENIE_MIN_LOSSES_BYTES = 44
# Measured 5.9 B per symbol: the output and its read-only copy (1 B each), and
# the three cost rows of one chunk, 3 x 2^14 floats (3.9 B per symbol at 10^5).
MAP_DENOISE_BYTES = 6.5
# Measured 1.7 B per symbol: the one-byte flat index of the (x, xhat) pairs
# and the buffer in which ``np.add.at`` widens it, a block at a time.
CUMULATIVE_LOSS_BYTES = 1.9
# Bytes each symbol added from N to 4N costs, measured 1.83 (the sampler's
# output and its copy), 1.00 (the corruption's output) and 11.0 (the
# denoiser's DP, whose longest chain grows with n), plus about 10%.
ADDED_BYTES = {"sample_piecewise": 2.0, "corrupt": 1.1, "sdude_denoise_each": 12}


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_below(peak, n, bound):
    assert peak / n < bound, f"{peak / n:.2f} B per symbol, bound {bound}"


FLIPS = [np.array([[1 - p, p], [p, 1 - p]]) for p in (0.01, 0.2)]


def switching_spec(n):
    return PiecewiseSourceSpec(tuple(map(MarkovComponent, FLIPS)), (n // 2,), (0, 1), True)


SPEC = switching_spec(N)


def test_sample_piecewise_peak_per_symbol():
    # A first run makes numpy's one-time allocations outside the trace.
    sample_piecewise(SPEC, N, 4)
    peak = traced_peak(sample_piecewise, SPEC, N, 5)
    assert_below(peak, N, SAMPLE_PIECEWISE_BYTES)


def test_corrupt_peak_per_symbol():
    channel = bsc_channel(0.1)
    x = sample_piecewise(SPEC, N, 5)
    corrupt(x, channel, 7)
    peak = traced_peak(corrupt, x, channel, 6)
    assert_below(peak, N, CORRUPT_BYTES)


def test_fb_posteriors_peak_per_symbol():
    flips, spec = FLIPS, SPEC
    channel = bsc_channel(0.1)
    z = corrupt(sample_piecewise(spec, N, 5), channel, 6)
    segments = [(1, N // 2, flips[0]), (N // 2 + 1, N, flips[1])]
    peak = traced_peak(fb_posteriors, z, segments, channel)
    assert_below(peak, N, FB_POSTERIORS_BYTES)


def test_fb_posteriors_step_loop_peak_per_symbol():
    # An identity transition never forgets its start, so the second segment's
    # blocks never coalesce, and all but its first two run in the step loop.
    flip, channel = np.array([[0.9, 0.1], [0.1, 0.9]]), bsc_channel(0.1)
    head = MarkovComponent(flip).sample(600, np.random.default_rng(5))
    x = SymbolSequence(np.concatenate([head, np.full(N - 600, head[-1])]), 2)
    z = corrupt(x, channel, 6)
    segments = [(1, 600, flip), (601, N, np.eye(2))]
    fb_posteriors(z, segments, channel)
    assert_below(traced_peak(fb_posteriors, z, segments, channel), N, FB_STEP_LOOP_BYTES)


def test_map_denoise_peak_per_symbol():
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    z = corrupt(sample_piecewise(SPEC, N, 5), channel, 6)
    posteriors = fb_posteriors(z, [(1, N // 2, FLIPS[0]), (N // 2 + 1, N, FLIPS[1])], channel)
    map_denoise(posteriors, loss)
    peak = traced_peak(map_denoise, posteriors, loss)
    assert_below(peak, N, MAP_DENOISE_BYTES)


def test_switching_hmm_experiment_peak_per_symbol():
    # A first run loads every lazily imported module, outside the trace.
    run_switching_hmm_experiment(1000, 0.1, 0.01, 0.2, seed=3)
    peak = traced_peak(run_switching_hmm_experiment, 4 * N, 0.1, 0.01, 0.2, None, (4, 6), (1,), 3)
    assert_below(peak, 4 * N, SWITCHING_HMM_BYTES)


@pytest.mark.parametrize("k", sorted(BUILD_PARTITION_BYTES))
def test_build_partition_peak_per_symbol(k):
    z = corrupt(sample_piecewise(SPEC, N, 5), bsc_channel(0.1), 6)
    build_partition(z, k)
    assert_below(traced_peak(build_partition, z, k), N, BUILD_PARTITION_BYTES[k])


def test_sdude_denoise_each_peak_per_symbol():
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    z = corrupt(sample_piecewise(SPEC, N, 5), channel, 6)
    sdude_denoise_each(z, 4, (0, 1), channel, loss)
    peak = traced_peak(sdude_denoise_each, z, 4, (0, 1), channel, loss)
    assert_below(peak, N, SDUDE_DENOISE_EACH_BYTES)


def test_genie_min_losses_peak_per_symbol():
    # The zero-order genie: every interior position in one context chain.
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    x = sample_piecewise(SPEC, N, 5)
    partition = build_partition(corrupt(x, channel, 6), 0)
    genie_min_losses(x, partition, (0, 2), loss)
    peak = traced_peak(genie_min_losses, x, partition, (0, 2), loss)
    assert_below(peak, N, GENIE_MIN_LOSSES_BYTES)


def test_cumulative_loss_peak_per_symbol():
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    x = sample_piecewise(SPEC, N, 5)
    z = corrupt(x, channel, 6)
    cumulative_loss(x, z, loss)
    peak = traced_peak(cumulative_loss, x, z, loss)
    assert_below(peak, N, CUMULATIVE_LOSS_BYTES)


def _chunked_stage_peak(stage, n):
    """Traced peak of one chunked stage on the switching source of length n."""
    channel, loss = bsc_channel(0.1), hamming_loss(2)
    spec = switching_spec(n)
    x = sample_piecewise(spec, n, 5)
    z = corrupt(x, channel, 6)
    run = {
        "sample_piecewise": (sample_piecewise, spec, n, 5),
        "corrupt": (corrupt, x, channel, 6),
        "sdude_denoise_each": (sdude_denoise_each, z, 4, (0, 1), channel, loss),
    }[stage]
    run[0](*run[1:])
    return traced_peak(*run)


@pytest.mark.parametrize("stage", sorted(ADDED_BYTES))
def test_chunked_stage_holds_no_whole_sequence_temporary(stage):
    # Bounding the added bytes by the bytes per symbol at N (which they are
    # far below) means the per-symbol peak does not rise from N to 4N.
    small, large = _chunked_stage_peak(stage, N), _chunked_stage_peak(stage, 4 * N)
    assert large / (4 * N) <= small / N
    assert_below(large - small, 3 * N, ADDED_BYTES[stage])
