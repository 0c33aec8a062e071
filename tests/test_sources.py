import numpy as np
import pytest
from scipy import stats

from sdude import (
    IIDComponent,
    MarkovComponent,
    PiecewiseSourceSpec,
    SymbolSequence,
    bsc_channel,
    corrupt,
    identity_channel,
    sample_piecewise,
    stationary_distribution,
)
from sdude.errors import ValidationError


def constant_component(symbol, size=2):
    probs = np.zeros(size)
    probs[symbol] = 1.0
    return IIDComponent(probs)


class TestSpecValidation:
    def test_adjacent_labels_must_differ(self):
        with pytest.raises(ValidationError):
            PiecewiseSourceSpec(
                components=(constant_component(0), constant_component(1)),
                switch_times=(5,),
                block_labels=(0, 0),
            )

    def test_switch_times_strictly_increasing(self):
        comps = (constant_component(0), constant_component(1))
        with pytest.raises(ValidationError):
            PiecewiseSourceSpec(comps, (5, 5), (0, 1, 0))
        with pytest.raises(ValidationError):
            PiecewiseSourceSpec(comps, (0,), (0, 1))

    def test_labels_must_index_components(self):
        with pytest.raises(ValidationError):
            PiecewiseSourceSpec((constant_component(0),), (), (1,))

    def test_continuing_requires_markov(self):
        with pytest.raises(ValidationError):
            PiecewiseSourceSpec(
                (constant_component(0), constant_component(1)), (4,), (0, 1), continuing=True
            )

    def test_switch_past_n_rejected_at_sampling(self):
        spec = PiecewiseSourceSpec(
            (constant_component(0), constant_component(1)), (10,), (0, 1)
        )
        with pytest.raises(ValidationError):
            sample_piecewise(spec, 10, 0)


class TestNonFiniteProbabilities:
    # NaN made both old comparisons (min < 0, row-sum gap > 1e-9) False.
    @pytest.mark.parametrize("probs", [[np.nan, 0.5], [np.inf, 0.5], [1.0, np.nan], [np.nan, np.nan]])
    def test_iid_component(self, probs):
        with pytest.raises(ValidationError, match="distribution"):
            IIDComponent(probs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_markov_component(self, bad):
        with pytest.raises(ValidationError, match="distributions"):
            MarkovComponent([[1.0 - bad, bad], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="distributions"):
            MarkovComponent([[0.5, 0.5], [bad, 0.5]])

    def test_bare_corruption_matrix(self):
        x = SymbolSequence([0, 1, 0], 2)
        with pytest.raises(ValidationError, match="row-stochastic"):
            corrupt(x, np.array([[np.nan, 0.5], [0.5, 0.5]]), 0)


class TestSampling:
    def test_single_constant_component(self):
        spec = PiecewiseSourceSpec((constant_component(1),), (), (0,))
        seq = sample_piecewise(spec, 20, 0)
        assert (seq.symbols == 1).all()

    def test_two_block_structure(self):
        spec = PiecewiseSourceSpec(
            (constant_component(0), constant_component(1)), (50,), (0, 1)
        )
        seq = sample_piecewise(spec, 100, 3)
        assert (seq.symbols[:50] == 0).all()
        assert (seq.symbols[50:] == 1).all()

    def test_seeded_determinism(self):
        spec = PiecewiseSourceSpec(
            (
                MarkovComponent([[0.9, 0.1], [0.2, 0.8]]),
                IIDComponent([0.3, 0.7]),
            ),
            (40,),
            (0, 1),
        )
        a = sample_piecewise(spec, 100, 42)
        b = sample_piecewise(spec, 100, 42)
        c = sample_piecewise(spec, 100, 43)
        np.testing.assert_array_equal(a.symbols, b.symbols)
        assert not np.array_equal(a.symbols, c.symbols)

    def test_block_independence_for_repeated_labels(self):
        # Blocks 1 and 3 share one i.i.d. component; their first symbols over
        # many seeds must be independent (chi-square at the 1% level).
        spec = PiecewiseSourceSpec(
            (IIDComponent([0.5, 0.5]), IIDComponent([0.9, 0.1])),
            (30, 60),
            (0, 1, 0),
        )
        pairs = np.zeros((2, 2))
        for seed in range(400):
            seq = sample_piecewise(spec, 90, seed).symbols
            pairs[seq[0], seq[60]] += 1
        _, p_value, _, _ = stats.chi2_contingency(pairs)
        assert p_value > 0.01

    def test_markov_stationary_initialization(self):
        # Chain with stationary law (0.75, 0.25): the first symbol over many
        # seeds should hit state 0 about 75% of the time.
        comp = MarkovComponent([[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_allclose(comp.initial, [0.75, 0.25], atol=1e-12)
        first = [
            sample_piecewise(
                PiecewiseSourceSpec((comp,), (), (0,)), 5, seed
            ).symbols[0]
            for seed in range(2000)
        ]
        assert abs(np.mean(first) - 0.25) < 0.035  # ~3.5 sigma

    def test_markov_initial_law_is_not_an_argument(self):
        # The initial law is always the stationary one, so it cannot be passed.
        with pytest.raises(TypeError):
            MarkovComponent([[0.9, 0.1], [0.3, 0.7]], initial=np.array([1.0, 0.0]))
        comp = MarkovComponent([[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_allclose(comp.initial, [0.75, 0.25], atol=1e-12)

    def test_continuing_chain_keeps_state_across_boundary(self):
        # A frozen chain (identity transitions) never moves, so a continuing
        # spec keeps the initial state through both blocks.
        frozen = MarkovComponent([[1.0, 0.0], [0.0, 1.0]])
        near_frozen = MarkovComponent([[1.0, 0.0], [1e-12, 1.0 - 1e-12]])
        spec = PiecewiseSourceSpec((frozen, near_frozen), (25,), (0, 1), continuing=True)
        for seed in range(10):
            seq = sample_piecewise(spec, 50, seed).symbols
            assert len(set(seq.tolist())) == 1

    def test_continuing_vs_independent_differ(self):
        p = [[0.99, 0.01], [0.01, 0.99]]
        comps = (MarkovComponent(p), MarkovComponent([[0.8, 0.2], [0.2, 0.8]]))
        cont = PiecewiseSourceSpec(comps, (500,), (0, 1), continuing=True)
        indep = PiecewiseSourceSpec(comps, (500,), (0, 1), continuing=False)
        a = sample_piecewise(cont, 1000, 5).symbols
        b = sample_piecewise(indep, 1000, 5).symbols
        assert not np.array_equal(a, b)


class TestStationary:
    def test_known_chain(self):
        np.testing.assert_allclose(
            stationary_distribution(np.array([[0.9, 0.1], [0.3, 0.7]])),
            [0.75, 0.25],
            atol=1e-12,
        )

    def test_symmetric_chain_is_uniform(self):
        np.testing.assert_allclose(
            stationary_distribution(np.array([[0.99, 0.01], [0.01, 0.99]])),
            [0.5, 0.5],
            atol=1e-12,
        )


class TestCorrupt:
    def test_identity_channel_is_lossless(self):
        rng = np.random.default_rng(0)
        x = SymbolSequence(rng.integers(0, 2, size=500), 2)
        z = corrupt(x, identity_channel(2), 1)
        np.testing.assert_array_equal(z.symbols, x.symbols)

    def test_empirical_flip_rate(self):
        n = 10**6
        x = SymbolSequence(np.zeros(n, dtype=np.int64), 2)
        z = corrupt(x, bsc_channel(0.1), 123)
        rate = z.symbols.mean()
        assert abs(rate - 0.1) < 0.001  # ~3 sigma is 0.0009

    def test_fully_noisy_channel_is_uncorrelated(self):
        # delta = 0.5 is rank-deficient, so it enters as a bare matrix.
        rng = np.random.default_rng(1)
        n = 10**6
        x = SymbolSequence(rng.integers(0, 2, size=n), 2)
        z = corrupt(x, np.array([[0.5, 0.5], [0.5, 0.5]]), 7)
        corr = np.corrcoef(x.symbols, z.symbols)[0, 1]
        assert abs(corr) < 0.01

    def test_seeded_determinism(self):
        x = SymbolSequence(np.zeros(1000, dtype=np.int64), 2)
        ch = bsc_channel(0.2)
        np.testing.assert_array_equal(corrupt(x, ch, 9).symbols, corrupt(x, ch, 9).symbols)
        assert not np.array_equal(corrupt(x, ch, 9).symbols, corrupt(x, ch, 10).symbols)

    def test_conditional_law_matches_channel_rows(self):
        # Conditional histogram of z given x converges to the channel row.
        rng = np.random.default_rng(2)
        n = 10**6
        pi = np.array([[0.7, 0.2, 0.1], [0.05, 0.9, 0.05]])
        from sdude import build_channel

        ch = build_channel(pi)
        x = SymbolSequence(rng.integers(0, 2, size=n), 2)
        z = corrupt(x, ch, 11)
        for a in (0, 1):
            mask = x.symbols == a
            hist = np.bincount(z.symbols[mask], minlength=3) / mask.sum()
            sigma = np.sqrt(pi[a] * (1 - pi[a]) / mask.sum())
            assert (np.abs(hist - pi[a]) < 3.5 * sigma + 1e-4).all()
