import json

import numpy as np
import pytest

from sdude import SymbolSequence, bsc_channel, corrupt, fileio
from sdude.cli import main


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
        data = rng.integers(0, 2, size=4000, dtype=np.int64)
        src = tmp_path / "in.raw"
        fileio.write_raw_sequence(src, SymbolSequence(data, 2))
        outs = {}
        for algo in ("sdude", "dude"):
            dst = tmp_path / f"{algo}.raw"
            code = main(
                [
                    "denoise",
                    "--input", str(src),
                    "--output", str(dst),
                    "--channel", "bsc:0.1",
                    "--k", "2",
                    "--m", "0",
                    "--algorithm", algo,
                ]
            )
            assert code == 0
            outs[algo] = dst.read_bytes()
        assert outs["sdude"] == outs["dude"]

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

    def test_emit_schedule_rejected_for_dude(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        fileio.write_text_sequence(src, SymbolSequence([0, 1, 0], 2))
        code = main(
            [
                "denoise",
                "--input", str(src),
                "--output", str(tmp_path / "out.txt"),
                "--format", "text",
                "--channel", "bsc:0.1",
                "--k", "0",
                "--algorithm", "dude",
                "--emit-schedule", str(tmp_path / "s.json"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_explicit_h_matrix(self, tmp_path):
        h_path = tmp_path / "h.txt"
        fileio.save_matrix(h_path, np.array([[1.125, -0.125], [-0.125, 1.125]]))
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
        ],
        ids=["bsc", "identity", "hamming", "matrix-file", "text-input", "identity-0", "hamming-0"],
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

    @pytest.mark.parametrize("command", ["two-block", "concentration"])
    def test_zero_trials_is_an_error_without_report(self, tmp_path, capsys, command):
        base = tmp_path / "report"
        code = main(["experiment", command, "--trials", "0", "--out", str(base)])
        assert code == 1
        assert "sdude: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
