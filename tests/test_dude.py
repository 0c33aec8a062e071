import numpy as np
import pytest

from sdude import (
    SymbolSequence,
    dude_denoise,
    hamming_loss,
    identity_channel,
    sdude_denoise,
)
from sdude.errors import SequenceTooShort


def test_balanced_counts_reproduce_the_noisy_sequence(bsc01, hamming2):
    # With near-equal symbol counts at delta=0.1 the best fixed rule is
    # say-what-you-see, so no denoising happens.
    rng = np.random.default_rng(0)
    z = SymbolSequence(rng.integers(0, 2, size=2000), 2)
    out = dude_denoise(z, 0, bsc01, hamming2)
    np.testing.assert_array_equal(out.symbols, z.symbols)


def test_lopsided_counts_give_all_zero(bsc01, hamming2):
    z = SymbolSequence(np.r_[np.zeros(900, int), np.ones(100, int)], 2)
    out = dude_denoise(z, 0, bsc01, hamming2)
    assert (out.symbols == 0).all()


def test_identity_channel_interior_equals_input(hamming2):
    ch = identity_channel(2)
    rng = np.random.default_rng(1)
    z = SymbolSequence(rng.integers(0, 2, size=200), 2)
    for k in (0, 1, 3):
        out = dude_denoise(z, k, ch, hamming2)
        np.testing.assert_array_equal(out.symbols[k : 200 - k], z.symbols[k : 200 - k])


def test_boundary_copies_noisy_symbols_by_default(bsc01, hamming2):
    z = SymbolSequence([1, 0, 0, 0, 0, 0, 1, 1], 2)
    out = dude_denoise(z, 2, bsc01, hamming2)
    np.testing.assert_array_equal(out.symbols[:2], z.symbols[:2])
    np.testing.assert_array_equal(out.symbols[-2:], z.symbols[-2:])


def test_boundary_defaults_to_zero_when_reconstruction_alphabet_is_smaller():
    # 2x3 channel (erasure-like), binary reconstruction: noisy symbol 2 has
    # no reconstruction counterpart, so boundaries emit symbol 0.
    from sdude import build_channel

    ch = build_channel([[0.8, 0.0, 0.2], [0.0, 0.8, 0.2]])
    loss = hamming_loss(2)
    z = SymbolSequence([2, 0, 1, 2, 1, 0, 2, 2], 3)
    out = dude_denoise(z, 1, ch, loss)
    assert out.symbols[0] == 0 and out.symbols[-1] == 0
    assert out.alphabet_size == 2


def test_wide_channel_end_to_end():
    # Erasure channel: symbol 2 is the erasure; the best rule per context
    # maps erasures to the majority clean symbol of that context.
    from sdude import build_channel, corrupt, cumulative_loss, sdude_denoise

    ch = build_channel([[0.8, 0.0, 0.2], [0.0, 0.8, 0.2]])
    loss = hamming_loss(2)
    rng = np.random.default_rng(21)
    x = SymbolSequence(np.r_[np.zeros(2000, int), np.ones(2000, int)], 2)
    z = corrupt(x, ch, 3)
    plain = dude_denoise(z, 1, ch, loss)
    shifted, _, _ = sdude_denoise(z, 0, 1, ch, loss)
    noisy_ber = np.mean(x.symbols != np.minimum(z.symbols, 1))
    assert cumulative_loss(x, plain, loss, 2, 3999) < noisy_ber
    assert cumulative_loss(x, shifted, loss) < 0.01


def test_sliding_window_property(bsc01, hamming2):
    # Equal windows imply equal outputs.
    rng = np.random.default_rng(2)
    z = SymbolSequence(rng.integers(0, 2, size=400), 2)
    k = 2
    out = dude_denoise(z, k, bsc01, hamming2)
    windows = {}
    for t in range(k, 400 - k):
        key = tuple(z.symbols[t - k : t + k + 1])
        if key in windows:
            assert out.symbols[t] == windows[key]
        else:
            windows[key] = out.symbols[t]


def test_too_short(bsc01, hamming2):
    with pytest.raises(SequenceTooShort):
        dude_denoise(SymbolSequence([0, 1], 2), 1, bsc01, hamming2)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_m0_switching_coincidence(k, bsc01, hamming2):
    rng = np.random.default_rng(100 + k)
    z = SymbolSequence(rng.integers(0, 2, size=1000), 2)
    dude_out = dude_denoise(z, k, bsc01, hamming2)
    sdude_out, schedule, _ = sdude_denoise(z, k, 0, bsc01, hamming2)
    np.testing.assert_array_equal(dude_out.symbols, sdude_out.symbols)
    assert schedule.total_switches == 0
