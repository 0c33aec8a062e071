"""Symbols are held in the smallest dtype of their alphabet, and never wrap.

``SymbolSequence`` stores ``uint8`` up to 256 symbols, ``uint16`` up to
65536, ``uint32`` up to 2^32 and ``int64`` beyond.  Every public producer
returns that dtype, and every place where symbols meet other integers
widens them first; the checks here compare against int64 oracles.
"""

import math

import numpy as np
import pytest

from sdude import (
    PiecewiseSourceSpec,
    SymbolSequence,
    bsc_channel,
    build_channel,
    build_loss,
    build_tables,
    corrupt,
    dude_denoise,
    fb_posteriors,
    fileio,
    identity_channel,
    map_denoise,
    sample_piecewise,
    sdude_denoise_each,
)
from sdude.core import all_denoiser_mappings, symbol_dtype
from sdude.errors import ValidationError
from sdude.evaluation import two_block_sequence
from sdude.genie import _true_loss_table, genie_min_loss
from sdude.sources import MarkovComponent
from sdude.switching import _table_sum

LADDER = [
    (1, np.uint8),
    (256, np.uint8),
    (257, np.uint16),
    (65536, np.uint16),
    (65537, np.uint32),
    (2**32, np.uint32),
    (2**32 + 1, np.int64),
    (2**63 - 1, np.int64),
]


class TestLadder:
    @pytest.mark.parametrize("size, dtype", LADDER)
    def test_smallest_dtype_holds_the_largest_symbol(self, size, dtype):
        assert symbol_dtype(size) == dtype
        top = np.array([0, size - 1], dtype=np.uint64)
        seq = SymbolSequence(top, size)
        assert seq.symbols.dtype == dtype
        assert seq.symbols.tolist() == [0, size - 1]

    @pytest.mark.parametrize("size, dtype", LADDER)
    def test_one_past_the_alphabet_is_refused_before_narrowing(self, size, dtype):
        # size itself would wrap to 0 in the narrow dtype at 256, 65536 and 2^32.
        with pytest.raises(ValidationError):
            SymbolSequence(np.array([size], dtype=np.uint64), size)

    def test_symbols_beyond_int64_are_refused(self):
        with pytest.raises(ValidationError):
            SymbolSequence(np.array([2**63], dtype=np.uint64), 2**64)

    def test_the_stored_array_is_a_read_only_copy(self):
        source = np.array([0, 1, 1], dtype=np.uint8)
        seq = SymbolSequence(source, 2)
        source[0] = 1
        assert seq.symbols.tolist() == [0, 1, 1]
        assert not seq.symbols.flags.writeable

    def test_integer_valued_floats_are_narrowed(self):
        seq = SymbolSequence(np.array([0.0, 299.0]), 300)
        assert seq.symbols.dtype == np.uint16 and seq.symbols.tolist() == [0, 299]


class TestProducers:
    def test_readers(self, tmp_path):
        raw = tmp_path / "in.raw"
        raw.write_bytes(bytes([0, 1, 1, 0]))
        assert fileio.read_raw_sequence(raw, 2).symbols.dtype == np.uint8
        assert fileio.read_raw_sequence(raw, 300).symbols.dtype == np.uint16
        text = tmp_path / "in.txt"
        text.write_text("0 1 299\n")
        assert fileio.read_text_sequence(text, 300).symbols.dtype == np.uint16
        assert fileio.read_text_sequence(text, 2**40).symbols.dtype == np.int64
        ascii_pbm, packed_pbm = tmp_path / "a.pbm", tmp_path / "p.pbm"
        ascii_pbm.write_bytes(b"P1\n3 2\n0 1 1\n1 0 0\n")
        fileio.write_pbm(packed_pbm, np.array([[0, 1, 1], [1, 0, 0]]))
        for path in (ascii_pbm, packed_pbm):
            image = fileio.read_pbm(path)
            assert image.dtype == np.uint8
            assert image.tolist() == [[0, 1, 1], [1, 0, 0]]

    def test_simulators(self):
        flips = [[0.9, 0.1], [0.1, 0.9]]
        spec = PiecewiseSourceSpec((MarkovComponent(flips),), (), (0,))
        x = sample_piecewise(spec, 500, 1)
        assert x.symbols.dtype == np.uint8
        assert corrupt(x, bsc_channel(0.1), 2).symbols.dtype == np.uint8
        wide = np.full((2, 300), 1 / 300)
        assert corrupt(x, wide, 3).symbols.dtype == np.uint16
        assert two_block_sequence(11).symbols.dtype == np.uint8

    def test_denoisers(self, bsc01, hamming2):
        z = corrupt(two_block_sequence(400), bsc01, 4)
        for out, _, _ in sdude_denoise_each(z, 2, (0, 1), bsc01, hamming2):
            assert out.symbols.dtype == np.uint8
        assert dude_denoise(z, 1, bsc01, hamming2).symbols.dtype == np.uint8
        post = fb_posteriors(z, [(1, 400, np.array([[0.9, 0.1], [0.1, 0.9]]))], bsc01)
        assert map_denoise(post, hamming2).symbols.dtype == np.uint8


class TestNoWraparound:
    def test_genie_codes_past_the_symbol_dtype(self):
        # 22 clean x 12 noisy symbols: codes reach 263, past uint8.
        rng = np.random.default_rng(5)
        n = 300
        x = SymbolSequence(rng.integers(0, 22, n), 22)
        z = SymbolSequence(rng.integers(0, 12, n), 12)
        assert x.symbols.dtype == z.symbols.dtype == np.uint8
        lam = rng.random((22, 2))
        mappings = all_denoiser_mappings(12, 2)
        codes, table = _true_loss_table(x, z, 0, lam, mappings)
        want = x.symbols.astype(np.int64) * 12 + z.symbols.astype(np.int64)
        np.testing.assert_array_equal(codes, want)
        assert codes.max() > 255 and codes.dtype == np.uint16
        # Binary codes stay one byte each, the narrowest dtype that holds 2 * 2 - 1.
        binary = SymbolSequence(rng.integers(0, 2, n), 2)
        codes, _ = _true_loss_table(binary, binary, 1, lam[:2], all_denoiser_mappings(2, 2))
        assert codes.dtype == np.uint8
        np.testing.assert_array_equal(codes, binary.symbols[1:-1].astype(np.int64) * 3)
        # The zero-shift genie at k = 0 is the best single rule over the whole sequence.
        best = np.cumsum(table[want], axis=0)[-1].min() / n
        got, _ = genie_min_loss(x, z, 0, 0, build_loss(lam))
        assert got == pytest.approx(best, rel=1e-12)

    def test_table_sum_with_256_rules(self):
        # Noisy 4 and recon 4: 4^4 = 256 rules, so codes * rules passes 255.
        rng = np.random.default_rng(6)
        table = rng.standard_normal((4, 256))
        codes = rng.integers(0, 4, 5000).astype(np.uint8)
        assignment = rng.integers(0, 256, 5000).astype(np.uint8)
        want = math.fsum(table[codes.astype(np.int64), assignment.astype(np.int64)].tolist())
        assert _table_sum(table, codes, assignment) == want

    def test_estimated_loss_with_256_rules(self):
        rng = np.random.default_rng(7)
        channel = build_channel(0.7 * np.eye(4) + 0.075)
        loss = build_loss(1.0 - np.eye(4))
        tables = build_tables(channel, loss)
        assert tables.num_rules == 256
        z = SymbolSequence(rng.integers(0, 4, 3000), 4)
        for _, schedule, estimated in sdude_denoise_each(z, 1, (0, 2), channel, loss):
            codes = z.symbols[1:-1].astype(np.int64)
            picked = tables.ell[codes, schedule.assignment.astype(np.int64)]
            assert estimated == math.fsum(picked.tolist()) / codes.size

    def test_output_symbol_past_the_noisy_dtype(self):
        # One noisy symbol, 257 reconstruction symbols: the last costs nothing.
        lam = np.ones((1, 257))
        lam[0, 256] = 0.0
        z = SymbolSequence(np.zeros(50, dtype=np.uint8), 1)
        [(out, _, _)] = sdude_denoise_each(z, 1, (0,), identity_channel(1), build_loss(lam))
        assert z.symbols.dtype == np.uint8 and out.symbols.dtype == np.uint16
        assert out.alphabet_size == 257
        # The boundary copies z; every interior position gets symbol 256.
        assert out.symbols.tolist() == [0] + [256] * 48 + [0]
