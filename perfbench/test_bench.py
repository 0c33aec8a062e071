"""Tiny-size self-test of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench -q

Every workload runs at a small input size, untraced and traced.  The result
line must name every metric of BENCHMARK.json with its unit, and every
operation must pass its checks; in a traced run that includes byte-identity
of the in-process outputs with the command-line outputs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_N = "20000"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def test_spec_matches_the_benchmark_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    for workload in SPEC["workloads"]:
        assert workload["why"] == run.WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--n", TINY_N
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= (3 if trace else run.MIN_OPS)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_tracer_restores_every_wrapped_name():
    sys.path.insert(0, str(run.SRC))
    import sdude.cli  # noqa: F401  (imports every layer)

    modules = [sys.modules[f"sdude.{layer}"] for layer in spans.LAYERS]
    before = [dict(vars(module)) for module in modules]
    with spans.Tracer():
        wrapped = spans.leftover_wrappers()
        expected = {"cli.sdude_denoise", "switching.build_partition", "evaluation.fb_posteriors"}
        assert expected <= set(wrapped)
        assert not {"cli.bsc_channel", "cli.main", "genie._run_fused"} & set(wrapped)
    assert spans.leftover_wrappers() == []
    for module, saved in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in saved.items()), module


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    sys.path.insert(0, str(run.SRC))
    from sdude import cli

    _, z = run.shared_input(seed=5, n=int(TINY_N))
    outputs = {}
    for traced in (False, True):
        work = tmp_path / ("traced" if traced else "untraced")
        work.mkdir()
        (work / "input.raw").write_bytes(z.astype("uint8").tobytes())
        argv = run.WORKLOADS["denoise-long-chains"].op.argv(work, 5, int(TINY_N))
        if traced:
            with spans.Tracer() as trace:
                assert cli.main(argv) == 0
            assert trace.calls["switching"] == 1 and trace.counts["fileio.bytes_written"] > 0
        else:
            assert cli.main(argv) == 0
        outputs[traced] = [(work / name).read_bytes() for name in ("output.raw", "schedule.json")]
    assert outputs[True] == outputs[False]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("--workload", "two-block-genie", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
