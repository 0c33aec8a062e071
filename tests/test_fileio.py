import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import save_matrix, schedule_to_json_reference
from sdude import (
    SymbolSequence,
    bsc_channel,
    build_loss,
    fileio,
    hamming_loss,
    identity_channel,
    sdude_denoise,
    sdude_denoise_each,
)
from sdude.errors import ValidationError


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        matrix = np.array([[0.9, 0.1], [0.125, 0.875]])
        save_matrix(path, matrix)
        np.testing.assert_array_equal(fileio.load_matrix(path), matrix)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0.5 0.5 0.5\n")
        with pytest.raises(ValidationError):
            fileio.load_matrix(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nfoo bar\n")
        with pytest.raises(ValidationError):
            fileio.load_matrix(path)


class TestSpecConstructors:
    def test_bsc(self):
        ch = fileio.channel_from_spec("bsc:0.25")
        np.testing.assert_allclose(ch.pi, [[0.75, 0.25], [0.25, 0.75]])

    def test_identity(self):
        ch = fileio.channel_from_spec("identity:3")
        np.testing.assert_array_equal(ch.pi, np.eye(3))
        with pytest.raises(ValidationError):
            fileio.channel_from_spec("identity")

    def test_channel_from_file(self, tmp_path):
        path = tmp_path / "ch.txt"
        save_matrix(path, np.array([[0.8, 0.2], [0.3, 0.7]]))
        ch = fileio.channel_from_spec(str(path))
        np.testing.assert_allclose(ch.pi, [[0.8, 0.2], [0.3, 0.7]])

    def test_hamming(self):
        loss = fileio.loss_from_spec("hamming", clean_size=3)
        assert loss.lam.shape == (3, 3)
        loss2 = fileio.loss_from_spec("hamming:2")
        np.testing.assert_array_equal(loss2.lam, [[0, 1], [1, 0]])


class TestSequenceFiles:
    def test_raw_round_trip(self, tmp_path):
        path = tmp_path / "seq.raw"
        seq = SymbolSequence([0, 1, 255], 256)
        fileio.write_raw_sequence(path, seq)
        back = fileio.read_raw_sequence(path, 256)
        np.testing.assert_array_equal(back.symbols, seq.symbols)

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "seq.txt"
        seq = SymbolSequence([3, 1, 4, 1, 5], 6)
        fileio.write_text_sequence(path, seq)
        back = fileio.read_text_sequence(path, 6)
        np.testing.assert_array_equal(back.symbols, seq.symbols)

    def test_text_reads_ascii_digits_with_leading_zeros(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("007\n0 \t 10\r\n")
        back = fileio.read_text_sequence(path, 11)
        np.testing.assert_array_equal(back.symbols, [7, 0, 10])

    @pytest.mark.parametrize(
        "token",
        [
            "\u0661",  # ARABIC-INDIC DIGIT ONE: int() reads it as 1
            "\uff11",  # FULLWIDTH DIGIT ONE
            "1_0",
            "+1",
            "-1",
            "1.0",
            "0x1",
            "1e0",
            str(2**63),
            "1" * 5000,
        ],
        ids=["arabic-indic", "fullwidth", "underscore", "plus", "minus", "float",
             "hex", "exponent", "2**63", "5000-digits"],
    )
    def test_text_refuses_anything_but_ascii_decimal_symbols(self, tmp_path, token):
        path = tmp_path / "seq.txt"
        path.write_text(f"0 1 {token} 1\n", encoding="utf-8")
        # 300 symbols, so that 1_0 (10), +1 and the non-ASCII ones would be in range.
        with pytest.raises(ValidationError):
            fileio.read_text_sequence(path, 300)

    @given(st.lists(st.text("0123456789", min_size=1, max_size=19), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_text_symbols_equal_int_of_each_token(self, tmp_path_factory, tokens):
        # Up to 19 digits, so some tokens pass 2**63 - 1 and must be refused.
        path = tmp_path_factory.mktemp("text") / "seq.txt"
        path.write_text(" ".join(tokens) + "\n")
        values = [int(tok) for tok in tokens]
        if values and max(values) >= 2**63 - 1:
            with pytest.raises(ValidationError):
                fileio.read_text_sequence(path, 2**63 - 1)
        else:
            back = fileio.read_text_sequence(path, 2**63 - 1)
            assert back.symbols.dtype == np.int64
            assert back.symbols.tolist() == values

    @pytest.mark.parametrize("q", [2, 10, 11, 300])
    @pytest.mark.parametrize("n", [0, 1, 2, 999])
    def test_text_bytes_equal_the_per_symbol_format(self, tmp_path, q, n):
        # Every symbol of the alphabet appears when n allows it.
        rng = np.random.default_rng(q * 1000 + n)
        symbols = rng.permutation(np.resize(np.arange(q), n)) if n else np.empty(0, dtype=np.int64)
        seq = SymbolSequence(symbols, q)
        path = tmp_path / "seq.txt"
        fileio.write_text_sequence(path, seq)
        assert path.read_bytes() == (" ".join(str(int(v)) for v in seq.symbols) + "\n").encode()


class TestPbm:
    @pytest.mark.parametrize("packed", [True, False])
    def test_round_trip(self, tmp_path, packed):
        # Bitmaps are written packed only; the ASCII (P1) file is written here.
        rng = np.random.default_rng(0)
        image = rng.integers(0, 2, size=(13, 21))
        path = tmp_path / "img.pbm"
        if packed:
            fileio.write_pbm(path, image)
        else:
            rows = "\n".join(" ".join(map(str, row)) for row in image.tolist())
            path.write_text(f"P1\n21 13\n{rows}\n")
        np.testing.assert_array_equal(fileio.read_pbm(path), image)

    def test_reads_comments_and_ascii(self, tmp_path):
        path = tmp_path / "c.pbm"
        path.write_bytes(b"P1\n# a comment\n3 2\n0 1 0\n1 1 0\n")
        np.testing.assert_array_equal(fileio.read_pbm(path), [[0, 1, 0], [1, 1, 0]])

    def test_p4_bit_packing_matches_reference_layout(self, tmp_path):
        # 9 columns: each row occupies two bytes, MSB first, zero padded.
        image = np.zeros((1, 9), dtype=np.int64)
        image[0, 0] = 1
        image[0, 8] = 1
        path = tmp_path / "p.pbm"
        fileio.write_pbm(path, image)
        data = path.read_bytes()
        assert data.startswith(b"P4\n9 1\n")
        assert data[-2:] == bytes([0b10000000, 0b10000000])

    def test_rejects_non_binary(self, tmp_path):
        with pytest.raises(ValidationError):
            fileio.write_pbm(tmp_path / "x.pbm", np.array([[0, 2]]))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_bytes(b"P4\n16 2\n\x00")
        with pytest.raises(ValidationError):
            fileio.read_pbm(path)

    @pytest.mark.parametrize("extra", [b"\x00", b"\n", b"\xff\xff\xff"])
    def test_packed_raster_rejects_trailing_bytes(self, tmp_path, extra):
        # These used to read as a valid image with the bytes after the raster ignored.
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P4\n8 1\n\xa5" + extra)
        with pytest.raises(ValidationError, match="bad.pbm"):
            fileio.read_pbm(path)
        path.write_bytes(b"P4\n8 1\n\xa5")
        np.testing.assert_array_equal(fileio.read_pbm(path), [[1, 0, 1, 0, 0, 1, 0, 1]])

    @pytest.mark.parametrize(
        "raster", [b"0 x 1 2 1 junk\n", b"0 1\n1 0 2\n", b"01\n1\x000\n", b"0 1 1\n0\n"]
    )
    def test_ascii_raster_rejects_other_bytes(self, tmp_path, raster):
        # These used to read as a valid image with the stray bytes skipped; a
        # plain PBM holds one image, so digits past width * height are stray too.
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P1\n3 1\n" + raster)
        with pytest.raises(ValidationError, match="bad.pbm"):
            fileio.read_pbm(path)

    def test_ascii_raster_whitespace_and_comments(self, tmp_path):
        path = tmp_path / "ok.pbm"
        path.write_bytes(b"P1\n3 2 # size\n0 1\t1\r\n# row two\n100\n")
        np.testing.assert_array_equal(fileio.read_pbm(path), [[0, 1, 1], [1, 0, 0]])


def _reference_bytes(schedule, estimated_loss) -> bytes:
    """The schedule file as the dict tree and ``json.dumps`` give it."""
    reference = schedule_to_json_reference(schedule, schedule.partition)
    reference["estimated_loss"] = estimated_loss
    return (json.dumps(reference, indent=2, sort_keys=True) + "\n").encode()


def _assert_writes_reference(path, schedule, estimated_loss):
    fileio.write_schedule(path, schedule, estimated_loss)
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == hashlib.sha256(_reference_bytes(schedule, estimated_loss)).hexdigest()


def _two_regime(n, seed):
    """A binary chain that flips at rate 0.02, then 0.3 from n/2, through BSC(0.1)."""
    rng = np.random.default_rng(seed)
    flips = np.r_[rng.random(n // 2) < 0.02, rng.random(n - n // 2) < 0.3]
    return SymbolSequence((np.cumsum(flips) % 2) ^ (rng.random(n) < 0.1), 2)


class TestScheduleJson:
    def test_runs_capture_switches(self, tmp_path):
        z = SymbolSequence([0, 0, 0, 1, 1, 1], 2)
        _, schedule, estimated = sdude_denoise(z, 0, 1, bsc_channel(0.1), hamming_loss(2))
        path = tmp_path / "schedule.json"
        fileio.write_schedule(path, schedule, estimated)
        payload = json.loads(path.read_text())
        assert payload["k"] == 0 and payload["m"] == 1 and payload["n"] == 6
        assert payload["estimated_loss"] == estimated
        (ctx,) = payload["contexts"]
        assert ctx["switches"] == 1 and ctx["left"] == ctx["right"] == []
        assert ctx["runs"] == [
            {"position": 1, "denoiser": 0},
            {"position": 4, "denoiser": 3},
        ]

    @pytest.mark.parametrize("k, m", [(0, 3), (2, 2), (4, 1), (7, 1)])
    def test_matches_per_position_loop(self, tmp_path, k, m):
        z = _two_regime(5000, 20 + k)
        _, schedule, estimated = sdude_denoise(z, k, m, bsc_channel(0.1), hamming_loss(2))
        assert schedule.total_switches > 0
        _assert_writes_reference(tmp_path / "schedule.json", schedule, estimated)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_ternary_contexts_match_per_position_loop(self, tmp_path, k):
        # Base-3 digits: the one-pass decode must agree with the per-context decode.
        rng = np.random.default_rng(30 + k)
        z = SymbolSequence(rng.integers(0, 3, size=3000), 3)
        _, schedule, estimated = sdude_denoise(
            z, k, 1, identity_channel(3), build_loss(1.0 - np.eye(3))
        )
        _assert_writes_reference(tmp_path / "schedule.json", schedule, estimated)

    # At k = 10 and 12 nearly every window is its own context, and the
    # reference's pure-Python json.dumps takes about 1.5 s per budget at
    # 10^5 symbols, so those two run on 10^4 (still thousands of contexts).
    @pytest.mark.parametrize(
        "k, n", [(0, 100_000), (1, 100_000), (4, 100_000), (10, 10_000), (12, 10_000)]
    )
    def test_every_budget_matches_the_reference_bytes(self, tmp_path, k, n):
        z = _two_regime(n, 40 + k)
        solved = sdude_denoise_each(z, k, range(5), bsc_channel(0.1), hamming_loss(2))
        for m, (_, schedule, estimated) in enumerate(solved):
            assert schedule.m == m
            _assert_writes_reference(tmp_path / f"schedule-{m}.json", schedule, estimated)

    @settings(
        max_examples=60,
        deadline=None,
        # One file, overwritten by every example.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        q=st.integers(2, 3),
        k=st.integers(0, 2),
        m=st.integers(0, 3),
        symbols=st.lists(st.integers(0, 2), min_size=5, max_size=40),
        estimated=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_short_inputs_match_the_reference_bytes(self, tmp_path, q, k, m, symbols, estimated):
        # k = 0 gives one context, m = 0 one run per chain, and the estimated
        # loss is written as given, negative or not.
        z = SymbolSequence([s % q for s in symbols], q)
        m = min(m, (len(symbols) - 2 * k) // 2)
        _, schedule, _ = sdude_denoise(z, k, m, identity_channel(q), hamming_loss(q))
        _assert_writes_reference(tmp_path / "schedule.json", schedule, estimated)
