import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_full_rank_channel
from oracles import b_h_mapping, b_h_rule
from sdude import ChannelModel, build_loss, build_tables, hamming_loss
from sdude.errors import TooLarge, ValidationError

# Rule indices of the four binary single-symbol rules.
ALWAYS0, FLIP, SAY, ALWAYS1 = 0, 1, 2, 3


class TestTables:
    def test_bsc01_hamming_values(self, tables01):
        # Derived by hand: rho columns and ell = H @ rho with
        # H = [[1.125, -0.125], [-0.125, 1.125]].
        np.testing.assert_allclose(tables01.rho[:, SAY], [0.1, 0.1], atol=1e-12)
        np.testing.assert_allclose(tables01.ell[0, ALWAYS0], -0.125, atol=1e-12)
        np.testing.assert_allclose(tables01.ell[1, ALWAYS0], 1.125, atol=1e-12)
        np.testing.assert_allclose(tables01.ell[:, SAY], [0.1, 0.1], atol=1e-12)

    def test_unbiasedness_identity(self, tables01):
        np.testing.assert_allclose(
            tables01.channel.pi @ tables01.ell, tables01.rho, atol=1e-9
        )

    def test_dimension_mismatch(self, bsc01):
        with pytest.raises(ValidationError):
            build_tables(bsc01, hamming_loss(3))

    def test_rule_budget(self, bsc01):
        wide = build_loss(np.ones((2, 5000)))
        with pytest.raises(TooLarge):
            build_tables(bsc01, wide)

    def test_negative_estimated_losses_not_clamped(self, tables01):
        assert tables01.ell.min() < 0

    def test_non_finite_estimated_losses_are_refused(self):
        # A ChannelModel built directly skips build_channel's checks.
        channel = ChannelModel(pi=np.eye(2), h_matrix=np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            build_tables(channel, hamming_loss(2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(0, 2),
    st.integers(2, 3),
)
def test_unbiasedness_on_random_channels(seed, clean, extra, recon):
    # For every (x, rule): sum_z pi(x, z) ell(z, rule) == rho[x, rule].
    rng = np.random.default_rng(seed)
    ch = random_full_rank_channel(rng, clean, clean + extra)
    loss = build_loss(rng.uniform(0.0, 2.0, size=(clean, recon)))
    tables = build_tables(ch, loss)
    assert np.max(np.abs(ch.pi @ tables.ell - tables.rho)) < 1e-7


class TestBHRule:
    def test_uniform_weights_give_say_what_you_see(self, bsc01, hamming2):
        # Costs at (0.5, 0.5): 0.05 vs 0.45 for z=0, mirrored for z=1.
        assert b_h_rule([0.5, 0.5], 0, bsc01, hamming2) == 0
        assert b_h_rule([0.5, 0.5], 1, bsc01, hamming2) == 1
        mapping = b_h_mapping([0.5, 0.5], bsc01, hamming2)
        np.testing.assert_array_equal(mapping, [0, 1])

    def test_lopsided_counts_give_always_zero(self, bsc01, hamming2):
        mapping = b_h_mapping([900.0, 100.0], bsc01, hamming2)
        np.testing.assert_array_equal(mapping, [0, 0])

    def test_matches_rule_level_argmin(self, tables01):
        # The per-symbol decision equals the best whole rule under the
        # estimated loss, checked exhaustively over all rules.
        rng = np.random.default_rng(3)
        for _ in range(50):
            xi = rng.uniform(0.0, 10.0, size=2)
            by_symbol = b_h_mapping(xi, tables01.channel, tables01.loss)
            best_rule = int(np.argmin(xi @ tables01.ell))
            np.testing.assert_array_equal(by_symbol, tables01.mappings[best_rule])

    def test_matches_rule_level_argmin_ternary(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            ch = random_full_rank_channel(rng, 3, 3)
            loss = build_loss(rng.uniform(0.0, 1.0, size=(3, 3)))
            tables = build_tables(ch, loss)
            xi = rng.uniform(0.0, 5.0, size=3)
            by_symbol = b_h_mapping(xi, ch, loss)
            best_rule = int(np.argmin(xi @ tables.ell))
            np.testing.assert_array_equal(by_symbol, tables.mappings[best_rule])
