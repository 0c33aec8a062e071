import contextlib
import io
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import save_matrix
from sdude import SymbolSequence, bsc_channel, corrupt, dude_denoise, fileio, hamming_loss
from sdude.cli import main


def _patch_svd(monkeypatch, replacement):
    """Replace ``np.linalg.svd`` for the test, also where ``matrix_rank`` and ``pinv`` look it up."""
    monkeypatch.setattr(np.linalg, "svd", replacement)
    monkeypatch.setitem(np.linalg.matrix_rank.__wrapped__.__globals__, "svd", replacement)


class TestDenoiseCommand:
    def test_identity_round_trip_raw(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, size=512, dtype=np.int64)
        src = tmp_path / "in.raw"
        dst = tmp_path / "out.raw"
        fileio.write_raw_sequence(src, SymbolSequence(data, 2))
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(dst),
                "--format", "raw",
                "--channel", "identity:2",
                "--loss", "hamming",
                "--k", "1",
                "--m", "1",
            ]
        )
        assert code == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_two_block_pbm_recovers_clean_image(self, tmp_path):
        # 400x400 image: top half white, bottom half black; raster scan gives
        # the two-block sequence, and one allowed shift recovers it exactly.
        clean = np.zeros((400, 400), dtype=np.int64)
        clean[200:] = 1
        noisy_seq = corrupt(SymbolSequence(clean.reshape(-1), 2), bsc_channel(0.1), 0)
        noisy = np.asarray(noisy_seq.symbols).reshape(400, 400)
        src = tmp_path / "noisy.pbm"
        dst = tmp_path / "denoised.pbm"
        fileio.write_pbm(src, noisy)
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(dst),
                "--format", "pbm",
                "--channel", "bsc:0.1",
                "--loss", "hamming",
                "--k", "0",
                "--m", "1",
            ]
        )
        assert code == 0
        np.testing.assert_array_equal(fileio.read_pbm(dst), clean)

    def test_m0_sdude_equals_dude(self, tmp_path):
        rng = np.random.default_rng(1)
        z = SymbolSequence(rng.integers(0, 2, size=4000, dtype=np.int64), 2)
        src = tmp_path / "in.raw"
        dst = tmp_path / "out.raw"
        fileio.write_raw_sequence(src, z)
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(dst),
                "--channel", "bsc:0.1",
                "--k", "2",
                "--m", "0",
            ]
        )
        assert code == 0
        expected = dude_denoise(z, 2, bsc_channel(0.1), hamming_loss(2))
        assert dst.read_bytes() == expected.symbols.astype(np.uint8).tobytes()

    def test_emit_schedule(self, tmp_path):
        src = tmp_path / "in.txt"
        fileio.write_text_sequence(src, SymbolSequence([0, 0, 0, 1, 1, 1], 2))
        sched_path = tmp_path / "schedule.json"
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(tmp_path / "out.txt"),
                "--format", "text",
                "--channel", "bsc:0.1",
                "--k", "0",
                "--m", "1",
                "--emit-schedule", str(sched_path),
            ]
        )
        assert code == 0
        payload = json.loads(sched_path.read_text())
        assert payload["contexts"][0]["switches"] == 1

    def test_m0_emits_a_schedule_without_switches(self, tmp_path):
        src = tmp_path / "in.txt"
        fileio.write_text_sequence(src, SymbolSequence([0, 0, 0, 1, 1, 1], 2))
        sched_path = tmp_path / "schedule.json"
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(tmp_path / "out.txt"),
                "--format", "text",
                "--channel", "bsc:0.1",
                "--k", "0",
                "--emit-schedule", str(sched_path),
            ]
        )
        assert code == 0
        payload = json.loads(sched_path.read_text())
        assert payload["m"] == 0
        assert [c["switches"] for c in payload["contexts"]] == [0]

    def test_explicit_h_matrix(self, tmp_path):
        h_path = tmp_path / "h.txt"
        save_matrix(h_path, np.array([[1.125, -0.125], [-0.125, 1.125]]))
        src = tmp_path / "in.txt"
        fileio.write_text_sequence(src, SymbolSequence([0, 0, 1, 1, 0, 0], 2))
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(tmp_path / "out.txt"),
                "--format", "text",
                "--channel", "bsc:0.1",
                "--k", "0",
                "--m", "1",
                "--h-matrix", str(h_path),
            ]
        )
        assert code == 0


    def test_non_finite_h_matrix_is_an_error_without_output(self, tmp_path, capsys):
        h_path = tmp_path / "h.txt"
        h_path.write_text("2 2\nnan 0\n0 1\n")
        src = tmp_path / "in.raw"
        fileio.write_raw_sequence(src, SymbolSequence([0, 0, 1, 1, 0, 0], 2))
        out = tmp_path / "out.raw"
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(out),
                "--format", "raw",
                "--channel", "bsc:0.1",
                "--k", "0",
                "--m", "1",
                "--h-matrix", str(h_path),
            ]
        )
        assert code == 1
        assert not out.exists()
        assert "sdude: error:" in capsys.readouterr().err


def _joined(pieces):
    return st.lists(st.sampled_from(pieces), max_size=24).map(b"".join)


# (--format, file bytes): random bytes, and pieces of valid and malformed files of each format.
_INPUTS = st.one_of(
    st.tuples(st.sampled_from(["raw", "text", "pbm"]), st.binary(max_size=40)),
    st.tuples(st.just("raw"), _joined([b"\x00", b"\x01", b"\x02"])),
    st.tuples(st.just("text"), _joined([b"0", b"1", b"2", b"01", b" ", b"\n", b"x", b"\xff"])),
    st.tuples(
        st.just("pbm"),
        st.tuples(
            st.sampled_from(
                [b"P1 4 2\n", b"P1\n#c\n3 2 0 1 1 0 0", b"P4 8 2\n\xa5", b"P4\n8 1#c\n", b"P4 3"]
            ),
            _joined([b"0", b"1", b" ", b"\xff", b"\x00", b"#c\n", b"2"]),
        ).map(b"".join),
    ),
)


class TestCliBehavior:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_invalid_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["denoise", "--bogus"])
        assert excinfo.value.code != 0

    def test_missing_input_is_an_error_without_partial_output(self, tmp_path, capsys):
        out = tmp_path / "never.raw"
        code = main(
            [
                "denoise",
                "--input", str(tmp_path / "absent.raw"),
                "--output", str(out),
                "--channel", "bsc:0.1",
                "--k", "0",
            ]
        )
        assert code == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err


    def test_pbm_with_stray_raster_bytes_is_an_error_without_output(self, tmp_path, capsys):
        src = tmp_path / "bad.pbm"
        src.write_bytes(b"P1\n4 1\n0 1 x 1 0\n")
        out = tmp_path / "never.pbm"
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(out),
                "--format", "pbm",
                "--channel", "bsc:0.1",
                "--k", "0",
            ]
        )
        assert code == 1
        assert not out.exists()
        assert "bad.pbm" in capsys.readouterr().err

    def test_packed_pbm_with_trailing_bytes_is_an_error_without_output(self, tmp_path, capsys):
        src = tmp_path / "bad.pbm"
        src.write_bytes(b"P4\n8 1\n" + bytes([0b10100101, 0, 0, 0]))
        out = tmp_path / "never.pbm"
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(out),
                "--format", "pbm",
                "--channel", "bsc:0.1",
                "--k", "0",
            ]
        )
        assert code == 1
        assert not out.exists()
        assert "bad.pbm" in capsys.readouterr().err

    def test_failed_output_write_leaves_no_schedule(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        fileio.write_text_sequence(src, SymbolSequence([0, 0, 0, 1, 1, 1], 2))
        sched_path = tmp_path / "schedule.json"
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(tmp_path / "absent" / "out.txt"),
                "--format", "text",
                "--channel", "bsc:0.1",
                "--k", "0",
                "--m", "1",
                "--emit-schedule", str(sched_path),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]

    def test_too_many_rules_is_a_short_error_without_output(self, tmp_path, capsys):
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0, 1, 1, 0]))
        out = tmp_path / "never.raw"
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(out),
                "--channel", "identity:300",
                "--loss", "hamming",
                "--k", "0",
            ]
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "300^300" in err and len(err.encode()) < 200

    def test_too_many_rules_are_refused_before_any_svd(self, tmp_path, capsys, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the channel was built")

        _patch_svd(monkeypatch, no_svd)
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0, 1, 1, 0]))
        out = tmp_path / "never.raw"
        argv = ["denoise", "--input", str(src), "--output", str(out), "--k", "0"]
        assert main(argv + ["--channel", "identity:1024"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sdude: error:") and captured.err.count("\n") == 1
        assert "1024^1024" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.raw"]

    def test_a_bsc_channel_is_built_once(self, tmp_path, monkeypatch):
        # ``matrix_rank`` and ``pinv`` take one SVD each.
        calls = []
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        _patch_svd(monkeypatch, counted_svd)
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0, 1, 1, 0, 1]))
        argv = ["denoise", "--input", str(src), "--output", str(tmp_path / "out.raw")]
        assert main(argv + ["--channel", "bsc:0.1", "--k", "0"]) == 0
        assert calls == [(2, 2), (2, 2)]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--channel", "bsc:abc"], "bsc:abc"),
            (["--channel", "identity:x"], "identity:x"),
            (["--loss", "hamming:x"], "hamming:x"),
            (["--channel", "BAD"], "bad.txt"),
            (["--format", "text", "--input", "BAD"], "bad.txt"),
            (["--channel", "identity:0"], "at least 1"),
            (["--loss", "hamming:0"], "at least 1"),
            (["--channel", "identity:1025"], "1048576 entries"),
            (["--channel", "identity:99999999999"], "1048576 entries"),
            (["--loss", "hamming:99999999999"], "1048576 entries"),
        ],
        ids=["bsc", "identity", "hamming", "matrix-file", "text-input", "identity-0", "hamming-0",
             "identity-1025", "identity-huge", "hamming-huge"],
    )
    def test_malformed_spec_or_text_file_is_an_error_without_output(
        self, tmp_path, capsys, flags, named
    ):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 2\n0.9 0.1 \xff\xfe 0.9\n")
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0, 1, 1, 0]))
        out = tmp_path / "never.out"
        options = {"--input": str(src), "--channel": "bsc:0.1", "--loss": "hamming"}
        options.update(zip(flags[::2], [str(bad) if v == "BAD" else v for v in flags[1::2]]))
        argv = ["denoise", "--output", str(out), "--k", "0"]
        argv += [token for pair in options.items() for token in pair]
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("sdude: error:") and named in err

    @given(
        fmt_data=_INPUTS,
        k=st.integers(0, 2),
        m=st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_input_ends_in_an_output_or_one_error_line(self, fmt_data, k, m):
        fmt, data = fmt_data
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            src, out, schedule = tmp / "in", tmp / "out", tmp / "schedule.json"
            src.write_bytes(data)
            argv = ["denoise", "--input", str(src), "--output", str(out), "--format", fmt,
                    "--channel", "bsc:0.1", "--k", str(k), "--m", str(m),
                    "--emit-schedule", str(schedule)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                assert out.exists() and schedule.exists() and err.getvalue() == ""
            else:
                assert code == 1
                assert err.getvalue().startswith("sdude: error:") and err.getvalue().count("\n") == 1
                assert [p.name for p in tmp.iterdir()] == ["in"]

    @pytest.mark.parametrize("token", [str(2**63), "\u0661", "+1"])
    def test_text_input_outside_ascii_digits_is_an_error_without_output(
        self, tmp_path, capsys, token
    ):
        src = tmp_path / "in.txt"
        src.write_text(f"0 1 {token} 0 1\n", encoding="utf-8")
        out = tmp_path / "never.out"
        argv = ["denoise", "--format", "text", "--input", str(src), "--output", str(out),
                "--channel", "bsc:0.1", "--loss", "hamming", "--k", "0"]
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("sdude: error:") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--format", "text", "--input"], ["--channel"]])
    def test_a_long_bad_token_is_quoted_briefly(self, tmp_path, capsys, flags):
        # One 1000-character token: a raw binary file read as text, or a matrix value.
        bad = tmp_path / "bad.txt"
        raw = bytes(np.random.default_rng(3).integers(0, 2, size=1000, dtype=np.uint8))
        bad.write_bytes(raw if "--input" in flags else b"2 2\n0.9 0.1 " + b"x" * 1000 + b" 0.9\n")
        src = tmp_path / "in.raw"
        src.write_bytes(bytes([0, 1, 1, 0]))
        out = tmp_path / "never.out"
        options = {"--input": str(src), "--channel": "bsc:0.1"}
        options[flags[-1]] = str(bad)
        argv = ["denoise", "--output", str(out), "--k", "0", *flags[:-1]]
        argv += [token for pair in options.items() for token in pair]
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("sdude: error:") and "1000 characters" in err
        # The first 20 characters, escaped, take at most 4 bytes each.
        assert len(err) < len(str(bad)) + 200


class TestExperimentCommands:
    def test_two_block_writes_json_and_csv(self, tmp_path):
        base = tmp_path / "report"
        code = main(
            [
                "experiment", "two-block",
                "--n", "2000",
                "--delta", "0.1",
                "--k", "0",
                "--m", "1",
                "--trials", "2",
                "--seed", "0",
                "--out", str(base),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["experiment"] == "two-block"
        assert (tmp_path / "report.csv").read_text().startswith("name,")

    def test_report_files_get_the_mode_the_umask_leaves(self, tmp_path):
        previous = os.umask(0o022)
        try:
            code = main(["experiment", "two-block", "--n", "1000", "--trials", "1",
                         "--out", str(tmp_path / "report")])
        finally:
            os.umask(previous)
        assert code == 0
        for name in ("report.json", "report.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name

    def test_failed_csv_write_leaves_no_json(self, tmp_path, capsys):
        (tmp_path / "report.csv").mkdir()
        code = main(["experiment", "two-block", "--n", "1000", "--trials", "1",
                     "--out", str(tmp_path / "report")])
        assert code == 1
        assert capsys.readouterr().err.startswith("sdude: error:")
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
        assert list((tmp_path / "report.csv").iterdir()) == []

    def test_switching_hmm_small(self, tmp_path):
        base = tmp_path / "hmm"
        code = main(
            [
                "experiment", "switching-hmm",
                "--n", "4000",
                "--k-list", "1",
                "--m-list", "1",
                "--seed", "1",
                "--out", str(base),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "hmm.json").read_text())
        names = {r["name"] for r in payload["results"]}
        assert {"fb-genie", "dude", "sdude"} <= names

    def test_concentration_small(self, tmp_path):
        base = tmp_path / "conc"
        code = main(
            [
                "experiment", "concentration",
                "--n-list", "300", "600",
                "--trials", "2",
                "--seed", "0",
                "--out", str(base),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "conc.json").read_text())
        assert len(payload["sweep"]) == 2

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        args = [
            "experiment", "two-block",
            "--n", "1000", "--trials", "2", "--seed", "7",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("flag", ["--p1", "--p2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flip_rate_is_an_error_without_report(self, tmp_path, capsys, flag, value):
        base = tmp_path / "r"
        code = main(["experiment", "switching-hmm", "--n", "1000", flag, value, "--out", str(base)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sdude: error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["two-block", "switching-hmm", "concentration"])
    def test_negative_seed_is_an_error_without_report(self, tmp_path, capsys, command):
        code = main(["experiment", command, "--seed", "-1", "--out", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sdude: error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["two-block", "--n", "-1"], ["concentration", "--n-list", "-5"]]
    )
    def test_negative_length_is_an_error_without_report(self, tmp_path, capsys, argv):
        code = main(["experiment", *argv, "--out", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sdude: error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_switching_hmm_too_short_names_the_length(self, tmp_path, capsys, n):
        # The default switch point n // 2 is derived inside the experiment, so
        # the refusal names the length the user gave, not --switch-at.
        code = main(["experiment", "switching-hmm", "--n", n, "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sdude: error:") and err.count("\n") == 1
        assert "sequence length" in err and f"got {n}" in err and "switch times" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["two-block", "concentration"])
    def test_zero_trials_is_an_error_without_report(self, tmp_path, capsys, command):
        base = tmp_path / "report"
        code = main(["experiment", command, "--trials", "0", "--out", str(base)])
        assert code == 1
        assert "sdude: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
