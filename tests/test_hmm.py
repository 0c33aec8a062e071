import numpy as np
import pytest

from conftest import random_full_rank_channel
from oracles import binary_posteriors_reference, hmm_posteriors_by_enumeration
from sdude import (
    MarkovComponent,
    PiecewiseSourceSpec,
    SymbolSequence,
    bsc_channel,
    build_channel,
    corrupt,
    fb_posteriors,
    identity_channel,
    map_denoise,
    sample_piecewise,
    stationary_distribution,
)
from sdude.errors import ValidationError


def symmetric(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


class TestFbPosteriors:
    def test_identity_channel_point_mass(self, hamming2):
        rng = np.random.default_rng(0)
        z = SymbolSequence(rng.integers(0, 2, size=30), 2)
        post = fb_posteriors(z, [(1, 30, symmetric(0.2))], identity_channel(2))
        np.testing.assert_allclose(post[np.arange(30), z.symbols], 1.0, atol=1e-12)

    def test_posteriors_normalized(self, bsc01):
        rng = np.random.default_rng(1)
        z = SymbolSequence(rng.integers(0, 2, size=500), 2)
        post = fb_posteriors(
            z, [(1, 250, symmetric(0.05)), (251, 500, symmetric(0.3))], bsc01
        )
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_single_segment_matches_enumeration(self, bsc01):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(2, 11))
            p = float(rng.uniform(0.01, 0.45))
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            post = fb_posteriors(z, [(1, n, symmetric(p))], bsc01)
            expected = hmm_posteriors_by_enumeration(
                z.symbols, [symmetric(p)] * (n - 1), np.array([0.5, 0.5]), bsc01.pi
            )
            np.testing.assert_allclose(post, expected, atol=1e-10)

    def test_two_segments_match_enumeration(self, bsc01):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(4, 11))
            cut = int(rng.integers(1, n))
            p1, p2 = rng.uniform(0.01, 0.45, size=2)
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            segments = [(1, cut, symmetric(p1)), (cut + 1, n, symmetric(p2))]
            # Step t -> t+1 is governed by the segment containing t+1.
            steps = [symmetric(p1) if t + 1 <= cut else symmetric(p2) for t in range(1, n)]
            expected = hmm_posteriors_by_enumeration(
                z.symbols, steps, np.array([0.5, 0.5]), bsc01.pi
            )
            post = fb_posteriors(z, segments, bsc01)
            np.testing.assert_allclose(post, expected, atol=1e-10)

    def test_generic_path_matches_binary_path(self, bsc01):
        # The scalar two-state recursion and the generic one must agree.
        from sdude.hmm import _generic_posteriors, _validate_segments

        rng = np.random.default_rng(4)
        z = SymbolSequence(rng.integers(0, 2, size=200), 2)
        segments = [(1, 120, symmetric(0.02)), (121, 200, symmetric(0.25))]
        post_binary = fb_posteriors(z, segments, bsc01)
        segs = _validate_segments(segments, 200, 2)
        post_generic = _generic_posteriors(
            z.symbols, segs, bsc01.pi, np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(post_binary, post_generic, atol=1e-12)

    def test_three_state_chain_matches_enumeration(self):
        # Exercise the generic path with a genuinely non-binary chain.
        from sdude import build_channel

        rng = np.random.default_rng(8)
        pi = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
        ch = build_channel(pi)
        for trial in range(5):
            trans = rng.dirichlet(np.ones(3) * 5, size=3)
            n = 7
            z = SymbolSequence(rng.integers(0, 3, size=n), 3)
            from sdude import stationary_distribution

            post = fb_posteriors(z, [(1, n, trans)], ch)
            expected = hmm_posteriors_by_enumeration(
                z.symbols, [trans] * (n - 1), stationary_distribution(trans), pi
            )
            np.testing.assert_allclose(post, expected, atol=1e-10)

    def test_boundary_convention_is_local(self, bsc01):
        # Moving the segment boundary by one position only perturbs
        # posteriors near it; far away they agree to 1e-9.
        rng = np.random.default_rng(5)
        n = 400
        z = SymbolSequence(rng.integers(0, 2, size=n), 2)
        cut = 200
        a = fb_posteriors(z, [(1, cut, symmetric(0.02)), (cut + 1, n, symmetric(0.3))], bsc01)
        b = fb_posteriors(
            z, [(1, cut + 1, symmetric(0.02)), (cut + 2, n, symmetric(0.3))], bsc01
        )
        far = np.r_[0 : cut - 50, cut + 51 : n]
        assert np.max(np.abs(a[far] - b[far])) < 1e-9

    def test_segments_must_tile(self, bsc01):
        z = SymbolSequence([0, 1, 0, 1], 2)
        with pytest.raises(ValidationError):
            fb_posteriors(z, [(1, 2, symmetric(0.1))], bsc01)
        with pytest.raises(ValidationError):
            fb_posteriors(z, [(2, 4, symmetric(0.1))], bsc01)
        with pytest.raises(ValidationError):
            fb_posteriors(
                z, [(1, 3, symmetric(0.1)), (3, 4, symmetric(0.1))], bsc01
            )

    def test_long_sequence_stays_normalized(self, bsc01):
        # Per-step renormalization: no underflow over 10^5 positions.
        rng = np.random.default_rng(6)
        z = SymbolSequence(rng.integers(0, 2, size=10**5), 2)
        post = fb_posteriors(z, [(1, 10**5, symmetric(0.01))], bsc01)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(post).all()


class TestBinaryPathMatchesReferenceBitwise:
    """The optimized two-state smoother does the reference loop's arithmetic
    in the same order, so its posteriors must be equal, not merely close."""

    def test_random_tilings(self):
        rng = np.random.default_rng(9)
        for trial in range(1000):
            n = int(rng.integers(1, 14))
            num_segments = int(rng.integers(1, min(4, n) + 1))
            cuts = np.sort(rng.choice(np.arange(1, n), size=num_segments - 1, replace=False))
            bounds = [0, *cuts.tolist(), n]
            # Asymmetric chains; cuts may be adjacent, giving length-1 segments.
            segments = [
                (a + 1, b, rng.dirichlet([1.0, 1.0], size=2)) for a, b in zip(bounds, bounds[1:])
            ]
            ch = random_full_rank_channel(rng, 2, int(rng.integers(2, 4)))
            z = SymbolSequence(rng.integers(0, ch.noisy_size, size=n), ch.noisy_size)
            expected = binary_posteriors_reference(
                z.symbols, segments, ch.pi, stationary_distribution(segments[0][2])
            )
            assert np.array_equal(fb_posteriors(z, segments, ch), expected)

    def test_switching_hmm_input(self):
        # run_switching_hmm_experiment's own draws for seed 1, at the
        # benchmark's size.
        seed, n, switch_at = 1, 300000, 150000
        trans1, trans2 = symmetric(0.01), symmetric(0.2)
        spec = PiecewiseSourceSpec(
            components=(MarkovComponent(trans1), MarkovComponent(trans2)),
            switch_times=(switch_at,),
            block_labels=(0, 1),
            continuing=True,
        )
        source_seed, channel_seed = np.random.SeedSequence(seed).spawn(2)
        channel = bsc_channel(0.1)
        z = corrupt(sample_piecewise(spec, n, source_seed), channel, channel_seed)
        segments = [(1, switch_at, trans1), (switch_at + 1, n, trans2)]
        expected = binary_posteriors_reference(
            z.symbols, segments, channel.pi, stationary_distribution(trans1)
        )
        assert np.array_equal(fb_posteriors(z, segments, channel), expected)


# Observations that are impossible under the model once products underflow.
# In the first the smoothed row 0 sums to zero; in the second a backward
# normalizer is zero.  Both used to come back as NaN rows with a warning.
ZERO_PROBABILITY_CASES = [
    (
        [[1.0, 0.0], [1e-300, 1.0]],
        [(1, 2, [[1.0, 1e-200], [0.0, 1.0]]), (3, 4, [[1.0, 1e-200], [1e-300, 1.0]])],
        [0, 0, 0, 0],
    ),
    (
        [[1.0, 1e-160], [0.0, 1.0]],
        [(1, 1, [[1.0, 0.0], [1e-200, 1.0]]), (2, 4, [[1e-320, 1.0], [1.0, 5e-324]])],
        [1, 0, 0, 0],
    ),
]


@pytest.mark.parametrize("pi, segments, symbols", ZERO_PROBABILITY_CASES)
def test_zero_probability_observation_raises_on_both_paths(pi, segments, symbols):
    from sdude.hmm import _generic_posteriors, _validate_segments

    ch = build_channel(np.array(pi))
    z = SymbolSequence(symbols, 2)
    with pytest.raises(ValidationError, match="zero probability"):
        fb_posteriors(z, segments, ch)
    segs = _validate_segments(segments, len(symbols), 2)
    with pytest.raises(ValidationError, match="zero probability"):
        _generic_posteriors(z.symbols, segs, ch.pi, stationary_distribution(segs[0][2]))


class TestMapDenoise:
    def test_majority_posterior(self, hamming2):
        post = np.array([[0.9, 0.1], [0.4, 0.6], [0.5, 0.5]])
        out = map_denoise(post, hamming2)
        np.testing.assert_array_equal(out.symbols, [0, 1, 0])  # tie goes to 0

    def test_uniform_posteriors_all_zero(self, hamming2):
        post = np.full((10, 2), 0.5)
        out = map_denoise(post, hamming2)
        assert (out.symbols == 0).all()

    def test_shape_validation(self, hamming2):
        with pytest.raises(ValidationError):
            map_denoise(np.ones((4, 3)) / 3, hamming2)


def test_random_parameterizations_match_enumeration():
    # Random channels, losses unused; random segment tilings, n <= 10.
    rng = np.random.default_rng(7)
    for trial in range(30):
        clean = noisy = 2
        ch = random_full_rank_channel(rng, clean, noisy)
        n = int(rng.integers(2, 11))
        cut = int(rng.integers(1, n + 1))
        p1, p2 = rng.uniform(0.02, 0.48, size=2)
        segments = (
            [(1, n, symmetric(p1))]
            if cut >= n
            else [(1, cut, symmetric(p1)), (cut + 1, n, symmetric(p2))]
        )
        steps = [
            symmetric(p1) if (t + 1) <= cut or cut >= n else symmetric(p2)
            for t in range(1, n)
        ]
        z = SymbolSequence(rng.integers(0, noisy, size=n), noisy)
        expected = hmm_posteriors_by_enumeration(
            z.symbols, steps, np.array([0.5, 0.5]), ch.pi
        )
        post = fb_posteriors(z, segments, ch)
        np.testing.assert_allclose(post, expected, atol=1e-10)
