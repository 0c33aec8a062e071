import hashlib
import json
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import pbm_header_reference, save_matrix, schedule_to_json_reference
from sdude import (
    ChannelModel,
    LossMatrix,
    SymbolSequence,
    bsc_channel,
    build_channel,
    build_loss,
    fileio,
    hamming_loss,
    identity_channel,
    sdude_denoise,
    sdude_denoise_each,
)
from sdude.errors import DenoiseError, ValidationError


# Pieces of PBM headers: tokens, whitespace, comments and bytes around them.
_HEADER_PIECES = [b"P1", b"P4", b"8", b"12", b"x", b" ", b"\t", b"\n", b"\r", b"\x0b", b"#", b"#c",
                  b"\xff", b"\x00"]
# Whitespace and comments between two header tokens.
_SEPARATORS = st.lists(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0c", b"#\n", b"# x 1\r", b"#P4\n"]),
    min_size=1,
    max_size=3,
).map(b"".join)
# Random bytes, and byte strings made of the pieces of every input format.
_RANDOM_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(
        st.sampled_from(
            [b"P1 3 2\n", b"P4 8 2\n", b"P1", b"P4", b"0", b"1", b"2", b"01", b"\x01", b"\xff",
             b"\x00", b" ", b"\n", b"\r", b"#", b"#c\n", b"-1", b"x", b"\xc3\xa9"]
        ),
        max_size=24,
    ).map(b"".join),
)
# Pieces of matrix files: numbers, junk and separators.
_MATRIX_PIECES = [b"2", b"1", b"0", b"0.5", b"0.9", b"0.1", b"-1", b"1e400", b"nan", b"inf", b"x",
                  b"\xff", b" ", b"\n", b"2 2\n", b"1 2\n"]


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


def _channel(spec):
    """The channel of a spec, built as ``sdude denoise`` builds it."""
    return build_channel(fileio.channel_matrix(spec))


class TestSpecConstructors:
    def test_bsc(self):
        ch = _channel("bsc:0.25")
        np.testing.assert_allclose(ch.pi, [[0.75, 0.25], [0.25, 0.75]])

    def test_identity(self):
        ch = _channel("identity:3")
        np.testing.assert_array_equal(ch.pi, np.eye(3))
        with pytest.raises(ValidationError):
            _channel("identity")

    def test_channel_from_file(self, tmp_path):
        path = tmp_path / "ch.txt"
        save_matrix(path, np.array([[0.8, 0.2], [0.3, 0.7]]))
        ch = _channel(str(path))
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

    def test_p4_comment_after_the_height_ends_at_its_newline(self, tmp_path):
        # Netpbm reads the comment, through its newline, as the byte that ends
        # the header; this used to be refused as 3 pixel bytes.
        path = tmp_path / "c.pbm"
        path.write_bytes(b"P4\n8 1#c\n\xff")
        np.testing.assert_array_equal(fileio.read_pbm(path), [[1] * 8])

    @given(st.lists(st.sampled_from(_HEADER_PIECES), max_size=12).map(b"".join))
    @settings(max_examples=300, deadline=None)
    def test_header_tokens_and_offset_match_the_reference(self, data):
        try:
            expected = pbm_header_reference(data)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                fileio._pbm_header(data)
        else:
            assert fileio._pbm_header(data) == expected

    @given(
        gaps=st.lists(_SEPARATORS, min_size=2, max_size=2),
        end=st.sampled_from([b" ", b"\t", b"\n", b"\r", b"#\n", b"# c\n", b"#\r", b"##\r"]),
        width=st.integers(1, 20),
        height=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_p4_raster_follows_one_whitespace_byte_or_a_comment_line(
        self, tmp_path_factory, gaps, end, width, height, seed
    ):
        row_bytes = (width + 7) // 8
        body = np.random.default_rng(seed).integers(0, 256, (height, row_bytes), dtype=np.uint8)
        header = b"P4" + gaps[0] + str(width).encode() + gaps[1] + str(height).encode() + end
        path = tmp_path_factory.mktemp("p4") / "img.pbm"
        path.write_bytes(header + body.tobytes())
        np.testing.assert_array_equal(
            fileio.read_pbm(path), np.unpackbits(body, axis=1, count=width)
        )
        if not end.startswith(b"#"):
            # Everywhere else the raster starts one byte after the reference's offset.
            assert pbm_header_reference(header)[1] + 1 == len(header)


class TestParsersOnlyRaiseDenoiseError:
    """Malformed input ends in a DenoiseError and nothing else."""

    @given(data=_RANDOM_BYTES, alphabet=st.sampled_from([1, 2, 3, 256]))
    @settings(max_examples=80, deadline=None)
    def test_sequence_files(self, tmp_path_factory, data, alphabet):
        path = tmp_path_factory.mktemp("seq") / "in"
        path.write_bytes(data)
        for read in (fileio.read_raw_sequence, fileio.read_text_sequence):
            try:
                seq = read(path, alphabet)
            except DenoiseError:
                continue
            assert seq.symbols.size == 0 or int(seq.symbols.max()) < alphabet

    @given(data=_RANDOM_BYTES)
    @settings(max_examples=150, deadline=None)
    def test_pbm_files(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("pbm") / "in.pbm"
        path.write_bytes(data)
        try:
            image = fileio.read_pbm(path)
        except DenoiseError:
            return
        assert image.ndim == 2 and image.size and set(np.unique(image).tolist()) <= {0, 1}

    @given(data=st.lists(st.sampled_from(_MATRIX_PIECES), max_size=12).map(b"".join))
    @settings(max_examples=100, deadline=None)
    def test_matrix_files(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("matrix") / "m.txt"
        path.write_bytes(data)
        for build in (_channel, fileio.loss_from_spec):
            try:
                build(str(path))
            except DenoiseError:
                pass

    @given(
        build=st.sampled_from(
            [
                (_channel, "bsc:"),
                (_channel, "identity:"),
                (fileio.loss_from_spec, "hamming:"),
            ]
        ),
        number=st.one_of(
            st.text(max_size=8),
            st.integers(-3, 40).map(str),
            st.integers(10**10, 10**30).map(str),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_specs(self, build, number):
        build, prefix = build
        try:
            built = build(prefix + number)
        except DenoiseError:
            return
        assert isinstance(built, (ChannelModel, LossMatrix))


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


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_file_mode_is_what_the_umask_leaves(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            fileio.atomic_write_bytes(tmp_path / "out.bin", b"abc")
            assert os.umask(umask) == umask
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_replaces_an_existing_file_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        fileio.atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_rename_removes_the_temporary(self, tmp_path):
        (tmp_path / "out.txt").mkdir()
        with pytest.raises(OSError):
            fileio.atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
