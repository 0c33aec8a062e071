import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    component_sample_reference,
    continue_from_reference,
    corrupt_reference,
    sample_piecewise_reference,
)
from scipy import stats

from sdude import (
    IIDComponent,
    MarkovComponent,
    PiecewiseSourceSpec,
    SymbolSequence,
    build_channel,
    bsc_channel,
    corrupt,
    identity_channel,
    sample_piecewise,
    stationary_distribution,
)
from sdude.errors import DenoiseError, ValidationError
from sdude.sources import CHUNK


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

    @pytest.mark.parametrize(
        "times, labels", [((2.7,), (0, 1)), ((2,), (0.2, 1.9)), (("3",), (0, 1))]
    )
    def test_switch_times_and_labels_must_be_integers(self, times, labels):
        comps = (constant_component(0), constant_component(1))
        with pytest.raises(ValidationError):
            PiecewiseSourceSpec(comps, times, labels)

    def test_numpy_integer_times_and_labels_are_accepted(self):
        comps = (constant_component(0), constant_component(1))
        spec = PiecewiseSourceSpec(comps, (np.int64(2),), (np.int32(0), np.uint8(1)))
        assert spec.switch_times == (2,) and spec.block_labels == (0, 1)
        assert type(spec.switch_times[0]) is int

    def test_sequence_length_must_be_an_integer(self):
        spec = PiecewiseSourceSpec((constant_component(0),), (), (0,))
        with pytest.raises(ValidationError):
            sample_piecewise(spec, 2.5, 0)


class TestSeeds:
    SPEC = PiecewiseSourceSpec((constant_component(0), constant_component(1)), (2,), (0, 1))

    @pytest.mark.parametrize("seed", [1.5, -1, "3", None])
    def test_sample_piecewise_refuses_bad_seeds(self, seed):
        with pytest.raises(ValidationError):
            sample_piecewise(self.SPEC, 5, seed)

    @pytest.mark.parametrize("seed", [1.5, -1, "3", None])
    def test_corrupt_refuses_bad_seeds(self, seed):
        x = SymbolSequence(np.zeros(5, dtype=np.int64), 2)
        with pytest.raises(ValidationError):
            corrupt(x, bsc_channel(0.1), seed)

    def test_integer_and_seed_sequence_seeds_agree(self):
        x = SymbolSequence(np.zeros(50, dtype=np.int64), 2)
        for seed in (7, np.int64(7), np.random.SeedSequence(7)):
            np.testing.assert_array_equal(
                corrupt(x, bsc_channel(0.3), seed).symbols,
                corrupt(x, bsc_channel(0.3), 7).symbols,
            )


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
        # State 0 is absorbing in both chains and the first starts there, so a
        # continuing spec keeps that state through both blocks.
        absorbing = MarkovComponent([[1.0, 0.0], [0.5, 0.5]])
        near_frozen = MarkovComponent([[1.0, 0.0], [1e-12, 1.0 - 1e-12]])
        spec = PiecewiseSourceSpec((absorbing, near_frozen), (25,), (0, 1), continuing=True)
        for seed in range(10):
            seq = sample_piecewise(spec, 50, seed).symbols
            assert len(set(seq.tolist())) == 1

    def test_chain_with_two_closed_classes_is_refused(self):
        # The identity's stationary law is not unique; a chain that only
        # nearly splits, or whose second state drains into the first, has one.
        for transition in (np.eye(2), np.eye(3), [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0, 0, 1.0]]):
            with pytest.raises(ValidationError, match="stationary law is not unique"):
                stationary_distribution(transition)
            with pytest.raises(ValidationError, match="stationary law is not unique"):
                MarkovComponent(transition)
        near = [[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]
        np.testing.assert_allclose(stationary_distribution(near), [0.5, 0.5])
        assert stationary_distribution([[1.0, 0.0], [0.5, 0.5]]).tolist() == [1.0, 0.0]
        assert stationary_distribution([[0.0, 1.0], [1.0, 0.0]]).tolist() == [0.5, 0.5]

    def test_continuing_vs_independent_differ(self):
        p = [[0.99, 0.01], [0.01, 0.99]]
        comps = (MarkovComponent(p), MarkovComponent([[0.8, 0.2], [0.2, 0.8]]))
        cont = PiecewiseSourceSpec(comps, (500,), (0, 1), continuing=True)
        indep = PiecewiseSourceSpec(comps, (500,), (0, 1), continuing=False)
        a = sample_piecewise(cont, 1000, 5).symbols
        b = sample_piecewise(indep, 1000, 5).symbols
        assert not np.array_equal(a, b)


class ScriptedUniforms:
    """Stands in for a Generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def random(self, size=None):
        count = 1 if size is None else size
        assert self.used + count <= len(self.values), "the script ran out of uniforms"
        out = self.values[self.used : self.used + count].copy()
        self.used += count
        return float(out[0]) if size is None else out


@st.composite
def chains(draw):
    """Row-stochastic matrices: q = 1-4 with zeros placed first, in the middle or
    last, symmetric and asymmetric binary chains, and rows that sum to 1 - 1e-10."""
    kind = draw(st.sampled_from(("general", "symmetric", "asymmetric")))
    if kind == "general":
        q = draw(st.integers(1, 4))
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=q * q, max_size=q * q)))
        w = w.reshape(q, q)
        places = draw(st.lists(st.sampled_from((None, 0, q // 2, q - 1)), min_size=q, max_size=q))
        for row, place in zip(w, places):
            if place is not None and q > 1:
                row[place] = 0.0
    elif kind == "symmetric":
        flip = draw(st.floats(0.0, 1.0))
        w = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    else:
        a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        assume(a != b)
        w = np.array([[1.0 - a, a], [b, 1.0 - b]])
    p = w / w.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        p = p * (1.0 - 1e-10)
    try:
        return MarkovComponent(p)
    except ValidationError:  # reducible chains without a unique stationary law
        assume(False)


BLOCK_LENGTHS = st.one_of(st.integers(1, 3), st.integers(200, 400))


def edge_uniforms(comp, rng, count):
    """Uniforms half of which sit on, just below or just above a CDF entry of the
    chain (its rows and its stationary law), including every value past a
    short row's last entry that a uniform can take."""
    cdfs = np.concatenate([np.cumsum(comp.transition, axis=1).ravel(), np.cumsum(comp.initial)])
    edges = np.concatenate(
        [cdfs, np.nextafter(cdfs, 0.0), np.nextafter(cdfs, 1.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    return np.where(rng.random(count) < 0.5, rng.choice(edges, count), rng.random(count))


class TestDrawRuleMatchesReference:
    """The simulators equal their earlier implementations (``tests/oracles.py``)
    bit for bit: same values, int64, and the same uniforms consumed."""

    @staticmethod
    def assert_same(make_rng, run, reference):
        a, b = make_rng(), make_rng()
        got, want = run(a), reference(b)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(a.random(3), b.random(3))

    @settings(max_examples=200, deadline=None)
    @given(comp=chains(), seed=st.integers(0, 2**32 - 1), length=BLOCK_LENGTHS)
    def test_components(self, comp, seed, length):
        script = edge_uniforms(comp, np.random.default_rng(seed), length + 4)
        for make_rng in (
            lambda: ScriptedUniforms(script),
            lambda: np.random.Generator(np.random.Philox(seed)),
        ):
            self.assert_same(
                make_rng,
                lambda g: comp.sample(length, g),
                lambda g: component_sample_reference(comp, length, g),
            )
            for state in range(comp.alphabet_size):
                self.assert_same(
                    make_rng,
                    lambda g: comp.walk(state, length, g),
                    lambda g: continue_from_reference(comp, state, length, g, False),
                )
            for probs in (*comp.transition, comp.initial):
                iid = IIDComponent(probs)
                self.assert_same(
                    make_rng,
                    lambda g: iid.sample(length, g),
                    lambda g: component_sample_reference(iid, length, g),
                )

    @settings(max_examples=100, deadline=None)
    @given(
        comp=chains(),
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(BLOCK_LENGTHS, min_size=1, max_size=4),
        continuing=st.booleans(),
    )
    def test_piecewise_source_and_corruption(self, comp, seed, lengths, continuing):
        q = comp.alphabet_size
        rng = np.random.default_rng(seed)
        other = MarkovComponent(rng.dirichlet(np.ones(q), size=q))
        if continuing:
            comps, labels = (comp, other), [i % 2 for i in range(len(lengths))]
        else:
            comps = (comp, IIDComponent(rng.dirichlet(np.ones(q))), other)
            labels = [i % 3 for i in range(len(lengths))]
        spec = PiecewiseSourceSpec(comps, tuple(np.cumsum(lengths)[:-1]), labels, continuing)
        n = sum(lengths)
        x = sample_piecewise(spec, n, seed)
        want = sample_piecewise_reference(spec, n, seed)
        # q <= 4: symbols are stored in the smallest dtype, uint8.
        assert x.symbols.dtype == want.symbols.dtype == np.uint8
        np.testing.assert_array_equal(x.symbols, want.symbols)
        channels = [comp.transition]
        try:
            channels.append(build_channel(comp.transition))
        except DenoiseError:  # rank-deficient or short rows: no channel model
            pass
        for channel in channels:
            z, want = corrupt(x, channel, seed + 1), corrupt_reference(x, channel, seed + 1)
            assert z.symbols.dtype == want.symbols.dtype == np.uint8
            assert z.alphabet_size == want.alphabet_size
            np.testing.assert_array_equal(z.symbols, want.symbols)

    @pytest.mark.parametrize("p2", [0.2, 0.3])
    def test_switching_hmm_source_through_bsc(self, p2):
        # The experiments' source: a continuing symmetric chain through BSC(0.1),
        # seeded by spawned SeedSequence children as the harness seeds it.
        comps = tuple(MarkovComponent([[1 - p, p], [p, 1 - p]]) for p in (0.01, p2))
        spec = PiecewiseSourceSpec(comps, (500,), (0, 1), continuing=True)
        for seed in range(3):
            source, channel = np.random.SeedSequence(seed).spawn(2)
            ref_source, ref_channel = np.random.SeedSequence(seed).spawn(2)
            x = sample_piecewise(spec, 1000, source)
            np.testing.assert_array_equal(
                x.symbols, sample_piecewise_reference(spec, 1000, ref_source).symbols
            )
            np.testing.assert_array_equal(
                corrupt(x, bsc_channel(0.1), channel).symbols,
                corrupt_reference(x, bsc_channel(0.1), ref_channel).symbols,
            )

    @pytest.mark.parametrize("transition", [[[0.9, 0.1], [0.1, 0.9]], [[0.9, 0.1], [0.2, 0.8]]])
    @pytest.mark.parametrize("state", [-1, 2])
    def test_walk_refuses_a_state_outside_the_alphabet(self, transition, state):
        # Unchecked, the parity branch walks state 5 through 5s and 4s and -1 reads the last row.
        with pytest.raises(ValidationError):
            MarkovComponent(transition).walk(state, 4, np.random.default_rng(0))

    def test_markov_sample_of_length_zero_is_empty(self):
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        out = MarkovComponent([[0.9, 0.1], [0.3, 0.7]]).sample(np.int64(0), rng)
        assert out.shape == (0,) and out.dtype == np.int64
        # It still reads its start uniform, so the stream after it keeps its bits.
        ref.random(1)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "comp", [IIDComponent([0.3, 0.7]), MarkovComponent([[0.9, 0.1], [0.3, 0.7]])]
    )
    @pytest.mark.parametrize("length", [-3, 2.5, "3", None])
    def test_sample_refuses_a_length_that_is_not_a_non_negative_integer(self, comp, length):
        with pytest.raises(ValidationError, match="sample length"):
            comp.sample(length, np.random.default_rng(0))


SYMMETRIC = MarkovComponent([[0.9, 0.1], [0.1, 0.9]])
ASYMMETRIC = MarkovComponent([[0.95, 0.05], [0.3, 0.7]])
THREE = MarkovComponent([[0.8, 0.15, 0.05], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
# name: (components, continuing)
CHUNKED_SOURCES = {
    "continuing binary": ((SYMMETRIC, ASYMMETRIC), True),
    "restarting binary and IID": ((SYMMETRIC, IIDComponent([0.3, 0.7]), ASYMMETRIC), False),
    "continuing q=3": ((THREE, MarkovComponent(THREE.transition.T[::-1].T)), True),
    "restarting q=3 and IID": ((THREE, IIDComponent([0.2, 0.5, 0.3])), False),
}
# Alphabet size: a channel model and a bare matrix with another noisy alphabet.
CHANNELS = {
    2: (bsc_channel(0.1), np.array([[0.8, 0.15, 0.05], [0.3, 0.3, 0.4]])),
    3: (build_channel(np.full((3, 3), 0.1) + np.eye(3) * 0.7), np.array([[0.6, 0.4]] * 3)),
}


class TestChunkBoundaries:
    """Blocks and sequences that end just before, on and after a chunk edge
    draw what the whole-sequence references draw, in value and dtype."""

    @pytest.mark.parametrize("length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, 3 * CHUNK])
    @pytest.mark.parametrize("source", sorted(CHUNKED_SOURCES))
    def test_source_and_corruption_match_the_references(self, source, length):
        comps, continuing = CHUNKED_SOURCES[source]
        # Each component draws a block of ``length``, then the first draws 77
        # more symbols, so that n is no multiple of a chunk.
        labels = tuple(range(len(comps))) + (0,)
        times = tuple(length * (i + 1) for i in range(len(comps)))
        spec = PiecewiseSourceSpec(comps, times, labels, continuing)
        n = times[-1] + 77
        x, want = sample_piecewise(spec, n, 41), sample_piecewise_reference(spec, n, 41)
        assert x.symbols.dtype == want.symbols.dtype == np.uint8
        np.testing.assert_array_equal(x.symbols, want.symbols)
        for channel in CHANNELS[spec.alphabet_size]:
            z, want = corrupt(x, channel, 43), corrupt_reference(x, channel, 43)
            assert z.symbols.dtype == want.symbols.dtype == np.uint8
            assert z.alphabet_size == want.alphabet_size
            np.testing.assert_array_equal(z.symbols, want.symbols)


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
