import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdude
from oracles import solve_right_inverse_2x2
from sdude import (
    SymbolSequence,
    all_denoiser_mappings,
    bsc_channel,
    build_channel,
    build_loss,
    hamming_loss,
    identity_channel,
)
from sdude.errors import RankError, TooLarge, ValidationError


def test_public_names():
    # Helpers only tests use live in tests/oracles.py, not on this list.
    assert sorted(sdude.__all__) == [
        "ChannelModel",
        "ContextPartition",
        "DenoiseError",
        "DenoiserResult",
        "EstimatedLossTable",
        "EvalReport",
        "IIDComponent",
        "LossMatrix",
        "MarkovComponent",
        "PiecewiseSourceSpec",
        "RangeError",
        "RankError",
        "SequenceTooShort",
        "SwitchingSchedule",
        "SymbolSequence",
        "TooLarge",
        "ValidationError",
        "all_denoiser_mappings",
        "bsc_channel",
        "build_channel",
        "build_loss",
        "build_partition",
        "build_tables",
        "concentration_sweep",
        "corrupt",
        "cumulative_loss",
        "dude_denoise",
        "fb_posteriors",
        "genie_min_loss",
        "genie_min_losses",
        "hamming_loss",
        "identity_channel",
        "map_denoise",
        "run_switching_hmm_experiment",
        "run_two_block_experiment",
        "sample_piecewise",
        "sdude_denoise",
        "sdude_denoise_each",
        "stationary_distribution",
        "two_block_sequence",
    ]
    assert all(hasattr(sdude, name) for name in sdude.__all__)


class TestBuildChannel:
    def test_identity_channel_has_identity_inverse(self):
        ch = identity_channel(2)
        np.testing.assert_array_equal(ch.h_matrix, np.eye(2))

    def test_bsc01_right_inverse_matches_direct_solve(self):
        # Oracle: explicit 2x2 adjugate solve of pi @ H = I.
        ch = bsc_channel(0.1)
        expected = solve_right_inverse_2x2(ch.pi)
        np.testing.assert_allclose(ch.h_matrix, expected, atol=1e-12)
        np.testing.assert_allclose(
            ch.h_matrix, [[1.125, -0.125], [-0.125, 1.125]], atol=1e-12
        )

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            build_channel([[0.5, 0.5], [0.5, 0.5]])

    def test_more_clean_than_noisy_rejected(self):
        with pytest.raises(RankError):
            build_channel([[1.0], [1.0]])

    def test_row_sum_violation_rejected(self):
        with pytest.raises(ValidationError):
            build_channel([[0.9, 0.2], [0.1, 0.9]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            build_channel([[1.1, -0.1], [0.1, 0.9]])

    def test_wide_channel_right_inverse(self):
        pi = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        ch = build_channel(pi)
        np.testing.assert_allclose(ch.pi @ ch.h_matrix, np.eye(2), atol=1e-9)

    def test_explicit_h_override(self):
        pi = np.eye(2)
        ch = build_channel(pi, h_matrix=np.eye(2))
        np.testing.assert_array_equal(ch.h_matrix, np.eye(2))
        with pytest.raises(ValidationError):
            build_channel(pi, h_matrix=np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_h_matrix_is_refused(self, bad):
        # NaN > ATOL is false, so the identity check alone lets a NaN through.
        with pytest.raises(ValidationError):
            build_channel([[0.9, 0.1], [0.1, 0.9]], h_matrix=[[bad, 0.0], [0.0, 1.0]])

    def test_square_invertible_reduces_to_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pi = rng.dirichlet(np.ones(3), size=3)
            try:
                ch = build_channel(pi)
            except RankError:
                continue  # numerically near-singular draw
            np.testing.assert_allclose(ch.h_matrix, np.linalg.inv(pi), atol=1e-7)


class TestSymbolSequence:
    def test_symbols_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SymbolSequence([0, 2], 2)
        with pytest.raises(ValidationError):
            SymbolSequence([-1], 2)

    @pytest.mark.parametrize("size", [2.5, np.float64(2.0), "2", None, 0])
    def test_alphabet_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValidationError):
            SymbolSequence([0, 1, 1, 0, 1], size)
        assert SymbolSequence([0, 1, 1, 0, 1], np.int64(2)).alphabet_size == 2

    def test_numpy_alphabet_size_is_held_as_a_python_int(self):
        seq = SymbolSequence([0, 1, 1], np.uint8(2))
        assert type(seq.alphabet_size) is int and seq.alphabet_size == 2

    def test_immutable(self):
        seq = SymbolSequence([0, 1], 2)
        with pytest.raises(ValueError):
            seq.symbols[0] = 1


class TestDenoiserIndexing:
    def test_binary_rules_match_named_set(self):
        # The four binary rules: always-0, flip, say-what-you-see, always-1.
        table = all_denoiser_mappings(2, 2)
        assert tuple(table[0]) == (0, 0)
        assert tuple(table[1]) == (1, 0)
        assert tuple(table[2]) == (0, 1)
        assert tuple(table[3]) == (1, 1)
        assert table.shape == (4, 2)

    def test_numpy_sizes_are_held_as_python_ints(self):
        # np.int64(2) ** np.int64(64) wraps to 0; the rule count must not.
        with pytest.raises(TooLarge):
            all_denoiser_mappings(np.int64(64), np.int64(2))

    @pytest.mark.parametrize("noisy,recon", [(0, 2), (2, 0), (2.0, 2), (2, "2")])
    def test_sizes_must_be_positive_integers(self, noisy, recon):
        with pytest.raises(ValidationError, match="positive integer"):
            all_denoiser_mappings(noisy, recon)

    @pytest.mark.parametrize("noisy,recon", [(2, 2), (3, 2), (2, 3), (12, 2), (6, 4)])
    def test_encoding_is_a_bijection(self, noisy, recon):
        num_rules = recon**noisy
        assert num_rules <= 4096
        # Row j is the rule with index j = sum(mapping[z] * recon**z).
        seen = set()
        table = all_denoiser_mappings(noisy, recon)
        assert table.shape == (num_rules, noisy)
        for index, mapping in enumerate(table.tolist()):
            assert all(0 <= v < recon for v in mapping)
            assert sum(v * recon**z for z, v in enumerate(mapping)) == index
            seen.add(tuple(mapping))
        assert len(seen) == num_rules


class TestLossMatrix:
    def test_hamming(self):
        loss = hamming_loss(2)
        np.testing.assert_array_equal(loss.lam, [[0, 1], [1, 0]])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            build_loss([[0.0, -1.0]])


@pytest.mark.parametrize("build", [hamming_loss, identity_channel])
@pytest.mark.parametrize("size", [2.5, 2.0, "3", None, 0, np.int64(-1)])
def test_sizes_must_be_positive_integers(build, size):
    # 2.5 used to build a 2 x 2 matrix and "3" a 3 x 3 one.
    with pytest.raises(ValidationError, match="positive integer"):
        build(size)


@pytest.mark.parametrize("build", [hamming_loss, identity_channel])
@pytest.mark.parametrize("size", [1025, np.int64(99999999999)])
def test_square_matrices_past_the_entry_budget_are_too_large(build, size):
    # 99999999999 used to end in numpy's "array is too big" ValueError; sizes
    # past the budget are refused before anything is allocated.
    with pytest.raises(TooLarge, match=f"budget of {sdude.core.MAX_MATRIX_ENTRIES} entries"):
        build(size)


def test_the_entry_budget_admits_a_1024_symbol_loss():
    assert sdude.core.MAX_MATRIX_ENTRIES == 1024**2
    assert hamming_loss(1024).lam.shape == (1024, 1024)


def test_sizes_may_be_numpy_integers_and_hamming_loss_is_square():
    np.testing.assert_array_equal(hamming_loss(np.int64(3)).lam, 1.0 - np.eye(3))
    np.testing.assert_array_equal(identity_channel(np.int8(3)).pi, np.eye(3))
    with pytest.raises(TypeError):
        hamming_loss(2, 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 2))
def test_random_channels_satisfy_right_inverse(seed, clean, extra):
    rng = np.random.default_rng(seed)
    noisy = clean + extra
    pi = rng.dirichlet(np.ones(noisy), size=clean)
    try:
        ch = build_channel(pi)
    except RankError:
        return
    assert np.max(np.abs(ch.pi @ ch.h_matrix - np.eye(clean))) < 1e-9
