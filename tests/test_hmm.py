import numpy as np
import pytest

from conftest import random_full_rank_channel
from oracles import (
    binary_posteriors_reference,
    generic_posteriors_reference,
    hmm_posteriors_by_enumeration,
)
from sdude import (
    MarkovComponent,
    PiecewiseSourceSpec,
    SymbolSequence,
    bsc_channel,
    build_channel,
    build_loss,
    corrupt,
    fb_posteriors,
    identity_channel,
    map_denoise,
    sample_piecewise,
    stationary_distribution,
)
from sdude import hmm
from sdude.errors import ValidationError
from sdude.hmm import BLOCK


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
        from oracles import generic_posteriors_reference as _generic_posteriors
        from sdude.hmm import _validate_segments

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

    def test_segment_bounds_must_be_integers(self, bsc01):
        # Float bounds used to be truncated: these were read as (1, 4), (5, 10).
        z = SymbolSequence(np.zeros(10, dtype=np.int64), 2)
        with pytest.raises(ValidationError, match="integers"):
            fb_posteriors(z, [(1, 4.7, symmetric(0.1)), (5.2, 10, symmetric(0.1))], bsc01)
        with pytest.raises(ValidationError, match="integers"):
            fb_posteriors(z, [(1.0, 10.0, symmetric(0.1))], bsc01)
        post = fb_posteriors(z, [(np.int64(1), np.int32(10), symmetric(0.1))], bsc01)
        assert post.shape == (10, 2)

    def test_empty_sequence_is_refused(self, bsc01):
        with pytest.raises(ValidationError, match="empty"):
            fb_posteriors(SymbolSequence([], 2), [], bsc01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("segment", [0, 1])
    def test_non_finite_transition_is_refused(self, bsc01, bad, segment):
        # A NaN matrix in a later segment used to be reported as a
        # zero-probability observation, and in the first as a LinAlgError.
        z = SymbolSequence([0, 1, 0, 1], 2)
        segments = [(1, 2, symmetric(0.1)), (3, 4, symmetric(0.1))]
        segments[segment] = (*segments[segment][:2], [[1.0 - bad, bad], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="rows must be distributions"):
            fb_posteriors(z, segments, bsc01)

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
        assert_matches_reference(*switching_hmm_input(1, 300000))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_switching_hmm_input_at_default_n(self, seed):
        # The experiment's default size: each segment holds ~1950 blocks.
        assert_matches_reference(*switching_hmm_input(seed, 10**6))


def switching_hmm_input(seed, n):
    """(z, segments, channel) as run_switching_hmm_experiment draws them."""
    switch_at = n // 2
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
    return z, [(1, switch_at, trans1), (switch_at + 1, n, trans2)], channel


def assert_matches_reference(z, segments, channel):
    expected = binary_posteriors_reference(
        z.symbols, segments, channel.pi, stationary_distribution(segments[0][2])
    )
    assert np.array_equal(fb_posteriors(z, segments, channel), expected)


@pytest.fixture
def lockstep_runs(monkeypatch):
    """(blocks, exact blocks) of every lock-step call made during the test."""
    runs = []

    def recorded(symbols, start, pi, cols, forward, out):
        end, exact = real(symbols, start, pi, cols, forward, out)
        runs.append((symbols.shape[0], exact))
        return end, exact

    real = hmm._lockstep
    monkeypatch.setattr(hmm, "_lockstep", recorded)
    return runs


def tiling(rng, n, num_segments, matrix):
    cuts = np.sort(rng.choice(np.arange(1, n), size=num_segments - 1, replace=False))
    bounds = [0, *cuts.tolist(), n]
    return [(a + 1, b, matrix(rng)) for a, b in zip(bounds, bounds[1:])]


class TestLockStepMatchesReferenceBitwise:
    """The lock-step blocks against the scalar reference, at sizes where the
    blocks run: whole blocks, tails, and blocks that never coalesce."""

    def test_random_tilings_of_several_blocks(self, lockstep_runs):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(BLOCK, 12 * BLOCK))
            segments = tiling(
                rng, n, int(rng.integers(1, 4)), lambda r: symmetric(float(r.uniform(0.005, 0.45)))
            )
            ch = random_full_rank_channel(rng, 2, int(rng.integers(2, 4)))
            z = SymbolSequence(rng.integers(0, ch.noisy_size, size=n), ch.noisy_size)
            assert_matches_reference(z, segments, ch)
        assert any(blocks > 1 and exact == blocks for blocks, exact in lockstep_runs)

    def test_asymmetric_chains(self, lockstep_runs):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(2 * BLOCK, 10 * BLOCK))
            segments = tiling(rng, n, 3, lambda r: r.dirichlet([2.0, 2.0], size=2))
            ch = random_full_rank_channel(rng, 2, 2)
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            assert_matches_reference(z, segments, ch)
        assert any(blocks > 1 and exact == blocks for blocks, exact in lockstep_runs)

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_segment_lengths_around_a_block(self, bsc01, length, where):
        # A segment has `length` steps in each pass, the first one fewer
        # (each pass takes n - 1 steps in all).
        rng = np.random.default_rng(length)
        lengths = {"first": [length, 700], "middle": [300, length, 700], "last": [700, length]}
        bounds = np.cumsum([0, *lengths[where]]).tolist()
        segments = [
            (a + 1, b, symmetric(p)) for (a, b), p in zip(zip(bounds, bounds[1:]), (0.02, 0.3, 0.1))
        ]
        n = bounds[-1]
        z = SymbolSequence(rng.integers(0, 2, size=n), 2)
        assert_matches_reference(z, segments, bsc01)

    @pytest.mark.parametrize("flip", [0.0, 1e-12, 1e-4])
    def test_filters_that_do_not_forget_finish_in_the_scalar_loop(self, lockstep_runs, flip):
        # With an identity or near-identity transition and weak evidence the
        # blocks' guesses do not meet the exact run within a block, so the
        # second segment's passes finish in the scalar loop after block 1.
        rng = np.random.default_rng(13)
        n = 6 * BLOCK + 17
        segments = [(1, 2 * BLOCK, symmetric(0.1)), (2 * BLOCK + 1, n, symmetric(flip))]
        z = SymbolSequence(rng.integers(0, 2, size=n), 2)
        assert_matches_reference(z, segments, bsc_channel(0.3))
        assert lockstep_runs == [(1, 1), (4, 2), (4, 2), (1, 1)]

    def test_impossible_observation_inside_a_block_raises(self, lockstep_runs):
        # State 0 never emits 1 and every step leads to state 0, so the one 1
        # at position 1000 (step 231 of the fourth forward block) has zero
        # probability.  No RuntimeWarning may escape (pytest makes it an error).
        ch = build_channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
        symbols = np.zeros(2000, dtype=np.int64)
        symbols[1000] = 1
        before = np.geterr()
        with pytest.raises(ValidationError, match="zero probability"):
            fb_posteriors(SymbolSequence(symbols, 2), [(1, 2000, [[1.0, 0.0], [1.0, 0.0]])], ch)
        assert np.geterr() == before
        assert lockstep_runs == [(7, 4)]

    def test_impossible_backward_step_raises(self):
        # A backward state (1, 0) meeting a symbol that state 0 cannot emit
        # gives a zero normalizer on the first lock-step step.
        pi = np.eye(2)
        z = np.ones(3 * BLOCK + 1, dtype=np.int64)
        # The backward pass multiplies its states into the forward messages in ``out``.
        out = np.ones((2, len(z)))
        with pytest.raises(ValidationError, match="zero probability"):
            hmm._pass([1.0, 0.0], z, 0, 3 * BLOCK - 1, np.eye(2), pi, out, False)

    def test_error_state_is_restored(self, bsc01):
        rng = np.random.default_rng(14)
        z = SymbolSequence(rng.integers(0, 2, size=4 * BLOCK), 2)
        before = np.geterr()
        fb_posteriors(z, [(1, 4 * BLOCK, symmetric(0.05))], bsc01)
        assert np.geterr() == before


def three(p):
    """A symmetric three-state chain that leaves its state with probability p."""
    return np.full((3, 3), p / 2) + np.eye(3) * (1.0 - 1.5 * p)


def assert_matches_generic(z, segments, channel):
    segs = hmm._validate_segments(segments, len(z), channel.clean_size)
    expected = generic_posteriors_reference(
        z.symbols, segs, channel.pi, stationary_distribution(segs[0][2])
    )
    np.testing.assert_allclose(fb_posteriors(z, segments, channel), expected, rtol=0, atol=1e-12)


class TestOneSmootherForEveryAlphabet:
    """Clean alphabets other than two take the same lock-step blocks; the
    per-step numpy loop they used to take is the reference."""

    def test_random_tilings_of_several_blocks(self, lockstep_runs):
        rng = np.random.default_rng(21)
        for trial in range(12):
            n = int(rng.integers(BLOCK, 10 * BLOCK))
            segments = tiling(rng, n, int(rng.integers(1, 4)), lambda r: r.dirichlet([5.0] * 3, size=3))
            ch = random_full_rank_channel(rng, 3, int(rng.integers(3, 5)))
            z = SymbolSequence(rng.integers(0, ch.noisy_size, size=n), ch.noisy_size)
            assert_matches_generic(z, segments, ch)
        assert any(blocks > 1 and exact == blocks for blocks, exact in lockstep_runs)

    @pytest.mark.parametrize("length", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_segment_lengths_around_a_block(self, length, where):
        rng = np.random.default_rng(length)
        lengths = {"first": [length, 700], "middle": [300, length, 700], "last": [700, length]}
        bounds = np.cumsum([0, *lengths[where]]).tolist()
        segments = [
            (a + 1, b, three(p)) for (a, b), p in zip(zip(bounds, bounds[1:]), (0.02, 0.3, 0.1))
        ]
        ch = build_channel(np.full((3, 3), 0.1) + np.eye(3) * 0.7)
        n = bounds[-1]
        assert_matches_generic(SymbolSequence(rng.integers(0, 3, size=n), 3), segments, ch)

    def test_impossible_observation_inside_a_block_raises(self, lockstep_runs):
        # As the two-state case: state 0 never emits 1 and every step leads
        # to state 0, so the 1 at position 1000 has zero probability.
        ch = build_channel(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
        symbols = np.zeros(2000, dtype=np.int64)
        symbols[1000] = 1
        before = np.geterr()
        with pytest.raises(ValidationError, match="zero probability"):
            fb_posteriors(SymbolSequence(symbols, 3), [(1, 2000, [[1.0, 0.0, 0.0]] * 3)], ch)
        assert np.geterr() == before
        # Position 0 runs in the step loop, as with two states.
        assert lockstep_runs == [(7, 4)]

    def test_ten_states_normalize_each_position_in_state_order(self, lockstep_runs):
        # Along a row of more than 8 states ``np.add.reduce`` sums pairwise,
        # which differs from the state-order sum in the last bits of many rows.
        rng = np.random.default_rng(25)
        q, n = 10, 6 * BLOCK + 40
        segments = tiling(rng, n, 2, lambda r: r.dirichlet([1.0] * q, size=q) / 2 + np.eye(q) / 2)
        ch = random_full_rank_channel(rng, q, q)
        z = SymbolSequence(rng.integers(0, q, size=n), q)
        segs = hmm._validate_segments(segments, n, q)
        expected = state_order_posteriors(z.symbols, segs, ch.pi, stationary_distribution(segs[0][2]))
        assert np.array_equal(fb_posteriors(z, segments, ch), expected)
        assert any(blocks > 1 for blocks, _ in lockstep_runs)

    def test_identity_segment_finishes_in_the_step_loop(self, monkeypatch):
        # An identity transition never forgets, so block 1 of the second
        # segment never coalesces, and each pass runs the rest of that
        # segment, 2 * BLOCK + 17 steps, in the step loop: every lock-step
        # run is of whole blocks.
        runs = []

        def recorded(symbols, start, pi, cols, forward, out):
            end, exact = real(symbols, start, pi, cols, forward, out)
            runs.append((symbols.shape, exact))
            return end, exact

        real = hmm._lockstep
        monkeypatch.setattr(hmm, "_lockstep", recorded)
        rng = np.random.default_rng(22)
        n = 6 * BLOCK + 17
        segments = [(1, 2 * BLOCK, three(0.3)), (2 * BLOCK + 1, n, np.eye(3))]
        ch = build_channel(np.full((3, 3), 0.3) + np.eye(3) * 0.1)
        assert_matches_generic(SymbolSequence(rng.integers(0, 3, size=n), 3), segments, ch)
        assert runs == [((1, BLOCK), 1), ((4, BLOCK), 2), ((4, BLOCK), 2), ((1, BLOCK), 1)]

    def test_single_state_chain(self, lockstep_runs):
        n = 3 * BLOCK + 5
        ch = build_channel([[0.3, 0.7]])
        z = SymbolSequence(np.random.default_rng(23).integers(0, 2, size=n), 2)
        post = fb_posteriors(z, [(1, BLOCK, [[1.0]]), (BLOCK + 1, n, [[1.0]])], ch)
        assert np.array_equal(post, np.ones((n, 1)))
        assert any(blocks > 1 for blocks, _ in lockstep_runs)
        symbols = np.zeros(n, dtype=np.int64)
        symbols[2 * BLOCK] = 1
        with pytest.raises(ValidationError, match="zero probability"):
            fb_posteriors(SymbolSequence(symbols, 2), [(1, n, [[1.0]])], build_channel([[1.0, 0.0]]))


def state_order_posteriors(z, segments, pi, initial):
    """The smoother on Python floats, one position at a time, in ``_step``'s
    order of operations; each position's q products are divided by their
    sum, added in state order."""
    n, q = len(z), len(initial)
    # The step between positions t - 1 and t (0-based) takes the matrix of the segment holding t.
    matrices = [p.tolist() for start, end, p in segments for _ in range(start, end + 1)]
    emit = pi.T.tolist()

    def normalized(b):
        s = b[0]
        for v in b[1:]:
            s += v
        return [v / s for v in b]

    f = [normalized([initial[x] * emit[z[0]][x] for x in range(q)])]
    for t in range(1, n):
        p, a = matrices[t], f[-1]
        b = []
        for x in range(q):
            acc = a[0] * p[0][x]
            for y in range(1, q):
                acc += a[y] * p[y][x]
            b.append(acc * emit[z[t]][x])
        f.append(normalized(b))
    g = [[1.0] * q]
    for t in range(n - 2, -1, -1):
        p, e = matrices[t + 1], emit[z[t + 1]]
        w = [e[y] * g[-1][y] for y in range(q)]
        c = []
        for x in range(q):
            acc = w[0] * p[x][0]
            for y in range(1, q):
                acc += w[y] * p[x][y]
            c.append(acc)
        g.append(normalized(c))
    g.reverse()
    return np.array([normalized([fx * gx for fx, gx in zip(ft, gt)]) for ft, gt in zip(f, g)])


def starting_in_state_0(segments):
    """``segments`` with an identity first segment starting in state 0.

    The identity has no unique stationary law, so position 1 becomes a
    segment of its own whose chain moves every state to state 0: its law is
    state 0, and no step reads its matrix.
    """
    (start, end, p), rest = segments[0], segments[1:]
    p = np.asarray(p)
    if start == end or not np.array_equal(p, np.eye(len(p))):
        return segments
    drain = np.zeros_like(p)
    drain[:, 0] = 1.0
    return [(start, start, drain), (start + 1, end, p), *rest]


def near_identity(q, flip):
    return np.full((q, q), flip / (q - 1)) + np.eye(q) * (1.0 - flip - flip / (q - 1))


class TestStepLoopMatchesBlocksBitwise:
    """The step loop does the lock-step's operations in its order, so a run
    with ``BLOCK`` above n, all in the loop, must equal the default run."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_random_tilings(self, monkeypatch, lockstep_runs, q):
        rng = np.random.default_rng(30 + q)
        matrices = [
            lambda r: np.eye(q),
            lambda r: near_identity(q, 10.0 ** -r.integers(4, 13)),
            lambda r: r.dirichlet([3.0] * q, size=q),
        ]
        for trial in range(12):
            # Whole blocks and a tail of 1 to BLOCK - 1 steps in each segment.
            tails = rng.integers(1, BLOCK, size=3)
            tails[: trial % 3] = (1, BLOCK - 1)[: trial % 3]
            lengths = rng.integers(0, 4, size=3) * BLOCK + tails
            bounds = np.cumsum([0, *lengths]).tolist()
            segments = starting_in_state_0([
                (a + 1, b, matrices[(trial + i) % 3](rng))
                for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
            ])
            ch = build_channel(near_identity(q, 0.3))
            n = bounds[-1]
            z = SymbolSequence(rng.integers(0, q, size=n), q)
            blocked = fb_posteriors(z, segments, ch)
            with monkeypatch.context() as patched:
                patched.setattr(hmm, "BLOCK", n + 1)
                assert np.array_equal(fb_posteriors(z, segments, ch), blocked)
        assert any(blocks > 1 and exact == blocks for blocks, exact in lockstep_runs)
        assert any(exact < blocks for blocks, exact in lockstep_runs)

    @pytest.mark.parametrize("q", [8, 12, 16])
    def test_one_segment_of_many_states(self, monkeypatch, q):
        # One block and a tail: the block's normalizer must add its q states
        # in order, as the loop does, not pairwise.
        rng = np.random.default_rng(40 + q)
        ch = build_channel(near_identity(q, 0.3))
        z = SymbolSequence(rng.integers(0, q, size=400), q)
        segments = [(1, 400, rng.dirichlet([3.0] * q, size=q))]
        blocked = fb_posteriors(z, segments, ch)
        monkeypatch.setattr(hmm, "BLOCK", 401)
        assert np.array_equal(fb_posteriors(z, segments, ch), blocked)

    def test_impossible_observation_inside_a_tail_raises(self, lockstep_runs):
        # State 0 never emits 1 and every step leads to state 0, so the 1 at
        # position 2 * BLOCK + 20, in the forward pass's 49-step tail, has
        # zero probability.  No RuntimeWarning may escape.
        ch = build_channel(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
        n = 2 * BLOCK + 50
        symbols = np.zeros(n, dtype=np.int64)
        symbols[2 * BLOCK + 20] = 1
        with pytest.raises(ValidationError, match="zero probability"):
            fb_posteriors(SymbolSequence(symbols, 3), [(1, n, [[1.0, 0.0, 0.0]] * 3)], ch)
        assert lockstep_runs == [(2, 2)]


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
    from oracles import generic_posteriors_reference as _generic_posteriors
    from sdude.hmm import _validate_segments

    ch = build_channel(np.array(pi))
    z = SymbolSequence(symbols, 2)
    with pytest.raises(ValidationError, match="zero probability"):
        fb_posteriors(z, segments, ch)
    segs = _validate_segments(segments, len(symbols), 2)
    with pytest.raises(ValidationError, match="zero probability"):
        _generic_posteriors(z.symbols, segs, ch.pi, stationary_distribution(segs[0][2]))


def test_underflow_is_named_in_the_zero_probability_error(bsc01):
    # Every symbol is possible, but the backward message for state 0 is
    # (1/9)^t and underflows long before t = 1000.
    z = SymbolSequence(np.ones(1000, dtype=np.int64), 2)
    with pytest.raises(ValidationError, match="zero probability.*underflowed"):
        fb_posteriors(z, starting_in_state_0([(1, 1000, np.eye(2))]), bsc01)


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

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_random_losses_and_exact_ties_match_the_stated_sums(self, q):
        rng = np.random.default_rng(q)
        # Past one chunk, and with rows of equal posteriors.
        post = rng.dirichlet(np.ones(q), size=hmm.MAP_CHUNK + 500)
        post[::7] = 1.0 / q
        for recon in (q, q + 2):
            lam = rng.random((q, recon))
            # The last symbol copies the first: it ties everywhere and never wins.
            lam[:, -1] = lam[:, 0]
            for loss in (build_loss(lam), build_loss(np.round(lam * 3))):
                out = map_denoise(post, loss).symbols
                assert out.tolist() == _decisions_reference(post, loss.lam)

    @pytest.mark.parametrize("q", [3, 4])
    def test_costs_are_summed_in_state_order(self, q):
        # Symbol ``tie`` costs p_0 * v, exactly the state-order cost of the
        # random symbol; a sum in another order differs in its last bits
        # for many of these rows, and then one of the two layouts picks 1.
        rng = np.random.default_rng(10 + q)
        checked = 0
        for _ in range(300):
            p, column = rng.dirichlet(np.ones(q)), rng.random(q)
            cost = _cost_reference(p.tolist(), column.tolist())
            v = next((v for v in _neighbours(cost / p[0]) if p[0] * v == cost), None)
            if v is None:
                continue
            tie = np.zeros(q)
            tie[0] = v
            for lam in (np.stack([column, tie], axis=1), np.stack([tie, column], axis=1)):
                assert map_denoise(p[None, :], build_loss(lam)).symbols.tolist() == [0]
            checked += 1
        assert checked > 200


def _cost_reference(p, column):
    """``p[0] * column[0] + p[1] * column[1] + ...`` on Python floats, in state order."""
    cost = p[0] * column[0]
    for px, weight in zip(p[1:], column[1:]):
        cost += px * weight
    return cost


def _decisions_reference(post, lam):
    """Each row's first symbol of least ``_cost_reference``."""
    columns = lam.T.tolist()
    decisions = []
    for p in post.tolist():
        costs = [_cost_reference(p, column) for column in columns]
        decisions.append(costs.index(min(costs)))
    return decisions


def _neighbours(value, steps=4):
    """``value`` and the floats up to ``steps`` ulps either side of it."""
    below = above = value
    found = [value]
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        found += [float(below), float(above)]
    return found


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


class TestLockStepEdgesBitwise:
    """The lock-step's buffers and the normalizer's chunks at every offset,
    and segments whose blocks never coalesce, against the scalar references."""

    @pytest.mark.parametrize("tile", [hmm.TILE, 7])
    def test_segment_edge_at_every_offset_of_a_block(self, monkeypatch, bsc01, tile):
        # The second segment's blocks start at every offset of the first's,
        # and the forward pass 2 stops at every step of a tile.
        monkeypatch.setattr(hmm, "TILE", tile)
        n = 4 * BLOCK + 40
        z = SymbolSequence(np.random.default_rng(31).integers(0, 2, size=n), 2)
        for cut in range(BLOCK, 2 * BLOCK):
            assert_matches_reference(z, [(1, cut, symmetric(0.05)), (cut + 1, n, symmetric(0.3))], bsc01)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    def test_normalizer_chunks_end_at_every_offset(self, monkeypatch, chunk):
        monkeypatch.setattr(hmm, "NORM_CHUNK", chunk)
        for n in range(3 * BLOCK, 3 * BLOCK + min(chunk, 6)):
            assert_matches_reference(*switching_hmm_input(n, n))

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_normalizer_chunk_edge_at_full_size(self, edge):
        assert_matches_reference(*switching_hmm_input(edge + 5, hmm.NORM_CHUNK + edge))

    @pytest.mark.parametrize("chunk", [3, 64])
    def test_zero_sum_in_any_chunk_is_rejected(self, monkeypatch, chunk):
        monkeypatch.setattr(hmm, "NORM_CHUNK", chunk)
        n = 200
        for t in (0, chunk - 1, chunk, n - 1):
            for bad in (0.0, np.inf, np.nan):
                f = np.full((2, n), 0.25)
                f[:, t] = bad
                with pytest.raises(ValidationError, match="zero probability"):
                    hmm._normalize(f)
        f = np.random.default_rng(chunk).random((3, n)) + 0.1
        expected = f / ((f[0] + f[1]) + f[2])
        hmm._normalize(f)
        assert np.array_equal(f, expected)

    @pytest.mark.parametrize("q", [2, 3, 10])
    @pytest.mark.parametrize("tile", [hmm.TILE, 5])
    def test_segments_that_never_coalesce(self, monkeypatch, lockstep_runs, q, tile):
        # An identity transition never forgets, so in both passes block 1 of
        # the second segment never coalesces: the backward pass multiplies
        # only blocks 0 and 1 in, and the step loop does the rest.
        monkeypatch.setattr(hmm, "TILE", tile)
        rng = np.random.default_rng(40 + q)
        n, cut = 7 * BLOCK + 29, 2 * BLOCK + 3
        segments = [(1, cut, near_identity(q, 0.3)), (cut + 1, n, np.eye(q))]
        ch = build_channel(np.full((q, q), 0.7 / q) + np.eye(q) * 0.3)
        z = SymbolSequence(rng.integers(0, q, size=n), q)
        post = fb_posteriors(z, segments, ch)
        segs = hmm._validate_segments(segments, n, q)
        initial = stationary_distribution(segs[0][2])
        assert np.array_equal(post, state_order_posteriors(z.symbols, segs, ch.pi, initial))
        if q == 2:
            assert np.array_equal(post, binary_posteriors_reference(z.symbols, segs, ch.pi, initial))
        expected = generic_posteriors_reference(z.symbols, segs, ch.pi, initial)
        np.testing.assert_allclose(post, expected, rtol=0, atol=1e-12)
        assert lockstep_runs == [(2, 2), (5, 2), (5, 2), (2, 2)]
