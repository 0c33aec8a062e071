#!/usr/bin/env python3
"""Closed-loop benchmark of the ``sdude`` command-line program.

Run from the repository root:

    python3 perfbench/run.py --workload denoise-long-chains --seed 1 --seconds 25 --trace 0

One client runs one ``sdude`` child process at a time and starts the next
command only after the previous one has exited.  Every operation's outputs
are checked; an operation fails on a non-zero exit, a timeout or a failed
check.

With ``--trace 0`` the run reports the end-to-end metrics: the median wall
time of one operation from spawn to exit, symbols processed per second, the
children's peak resident set and the set-up time.  With ``--trace 1`` it
runs the same command inside this process, alternating untraced and traced
runs (see ``spans.py``), checks that their outputs are byte-identical to the
command-line output, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance and a readable summary.  See README.md in this directory for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import TRACED_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DELTA = 0.1  # BSC crossover probability of every workload
FLIP_RATES = (0.01, 0.2)  # the two regimes of the shared Markov source, switching at n/2
MIN_OPS = 3  # operations per run, whatever --seconds says, so a median exists
SETUP_REPEATS = 15
START_REPEATS = 5
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
MIN_COVERAGE = 0.9

END_TO_END = {
    "op_s_p50": "s",
    "symbols_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.start_s": "s",
    "fileio.self_s": "s",
    "fileio.calls": "count",
    "fileio.bytes_written": "B",
    "contexts.self_s": "s",
    "contexts.calls": "count",
    "contexts.contexts": "count",
    "contexts.mean_chain": "symbols",
    "estimation.self_s": "s",
    "estimation.calls": "count",
    "switching.self_s": "s",
    "switching.calls": "count",
    "switching.dp_cells": "count",
    "switching.cells_per_s": "1/s",
    "switching.switches": "count",
    "switching.level_use": "ratio",
    "switching.ber": "ratio",
    "dude.self_s": "s",
    "dude.calls": "count",
    "genie.self_s": "s",
    "genie.calls": "count",
    "hmm.self_s": "s",
    "hmm.symbols_per_s": "1/s",
    "sources.self_s": "s",
    "sources.calls": "count",
    "sources.symbols": "count",
    "evaluation.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """An operation's outputs are not what the program must produce."""


@dataclass(frozen=True)
class Denoise:
    """``sdude denoise`` on the shared raw input."""

    k: int
    m: int
    emit_schedule: bool = False

    def argv(self, work: Path, seed: int, n: int) -> list[str]:
        argv = [
            "denoise",
            "--input", str(work / "input.raw"),
            "--output", str(work / "output.raw"),
            "--format", "raw",
            "--channel", f"bsc:{DELTA}",
            "--loss", "hamming",
            "--k", str(self.k),
            "--m", str(self.m),
        ]  # fmt: skip
        if self.emit_schedule:
            argv += ["--emit-schedule", str(work / "schedule.json")]
        return argv

    def outputs(self, work: Path) -> list[Path]:
        paths = [work / "output.raw"]
        if self.emit_schedule:
            paths.append(work / "schedule.json")
        return paths

    def symbols(self, n: int) -> int:
        return n

    def check(self, work: Path, n: int, inputs) -> float:
        """Raise CheckFailed unless the outputs are well formed; return the BER."""
        x, z = inputs
        out = np.fromfile(work / "output.raw", dtype=np.uint8)
        if out.size != n:
            raise CheckFailed(f"denoised output holds {out.size} symbols, expected {n}")
        if out.max() > 1:
            raise CheckFailed("denoised output holds symbols outside {0, 1}")
        if self.emit_schedule:
            self._check_schedule(work / "schedule.json", z)
        ber = np.count_nonzero(out != x) / n
        if not ber < DELTA:
            raise CheckFailed(f"bit error rate {ber} is no better than the channel's {DELTA}")
        return float(ber)

    def _check_schedule(self, path: Path, z: np.ndarray) -> None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            header = (payload["n"], payload["k"], payload["m"])
            contexts = payload["contexts"]
            bad = [
                c["context_id"]
                for c in contexts
                if not (0 <= c["switches"] <= self.m and 1 <= len(c["runs"]) <= self.m + 1)
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"schedule JSON is malformed: {exc!r}") from None
        if header != (z.size, self.k, self.m):
            raise CheckFailed(f"schedule header {header} does not match the run")
        expected = occurring_contexts(z, self.k)
        if len(contexts) != expected:
            raise CheckFailed(f"schedule lists {len(contexts)} contexts, {expected} occur")
        if bad:
            raise CheckFailed(f"schedule exceeds m = {self.m} shifts in contexts {bad[:5]}")


@dataclass(frozen=True)
class Experiment:
    """``sdude experiment <name>`` writing a JSON and a CSV report."""

    name: str
    flags: tuple[str, ...]
    trials: int = 1

    def argv(self, work: Path, seed: int, n: int) -> list[str]:
        return [
            "experiment", self.name,
            "--n", str(n),
            "--delta", str(DELTA),
            *self.flags,
            "--seed", str(seed),
            "--out", str(work / "report"),
        ]  # fmt: skip

    def outputs(self, work: Path) -> list[Path]:
        return [work / "report.json", work / "report.csv"]

    def symbols(self, n: int) -> int:
        return n * self.trials

    def check(self, work: Path, n: int, inputs) -> float:
        """Raise CheckFailed unless both reports parse and agree; return the mean sdude BER."""
        try:
            report = json.loads((work / "report.json").read_text(encoding="utf-8"))
            with open(work / "report.csv", newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            header = (report["experiment"], report["n"])
            bers = [r["ber"] for r in report["results"] if r["name"] == "sdude"]
            csv_names = [row["name"] for row in rows]
            json_names = [r["name"] for r in report["results"]]
        except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
            raise CheckFailed(f"experiment report is malformed: {exc!r}") from None
        if header != (self.name, n):
            raise CheckFailed(f"report header {header} does not match the run")
        if csv_names != json_names:
            raise CheckFailed("CSV and JSON reports list different denoisers")
        if not bers or not all(isinstance(b, float) and b < DELTA for b in bers):
            raise CheckFailed(f"sdude bit error rates {bers} are missing or no better than {DELTA}")
        return statistics.fmean(bers)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: Denoise | Experiment
    n: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "denoise-long-chains",
            "256 contexts with chains ~4k long: per-level DP scans, the per-position schedule "
            "JSON and the CLI's second context partition for --emit-schedule",
            Denoise(k=4, m=4, emit_schedule=True),
            10**6,
        ),
        Workload(
            "denoise-many-chains",
            "~240k contexts with chains ~4 long: per-chain overhead of the switching DP; "
            "only k differs from denoise-long-chains",
            Denoise(k=10, m=1),
            10**6,
        ),
        Workload(
            "switching-hmm",
            "the paper's switching-HMM experiment: exact smoother, sampler and corruption, "
            "both denoisers at k = 4 and 6, report writing",
            Experiment("switching-hmm", ("--k-list", "4", "6", "--m-list", "1")),
            300_000,
        ),
        Workload(
            "two-block-genie",
            "ten two-block trials: the only workload that runs the hindsight genie, with many "
            "mid-sized calls per operation",
            Experiment("two-block", ("--k", "2", "--m", "2", "--trials", "10"), trials=10),
            50_000,
        ),
    )
}


def occurring_contexts(z: np.ndarray, k: int) -> int:
    """Number of distinct two-sided binary contexts of half-width k in z."""
    n = z.size
    ids = np.zeros(n - 2 * k, dtype=np.int64)
    for off in [*range(-k, 0), *range(1, k + 1)]:
        ids = 2 * ids + z[k + off : n - k + off]
    return int(np.unique(ids).size)


def shared_input(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clean and noisy symbols of the switching-hmm source through BSC(DELTA).

    Drawn exactly as ``sdude experiment switching-hmm --seed <seed>`` draws
    its sequences, through the package's own sampler and channel.
    """
    from sdude import core, sources

    def flips(p):
        return np.array([[1.0 - p, p], [p, 1.0 - p]])

    spec = sources.PiecewiseSourceSpec(
        components=tuple(sources.MarkovComponent(flips(p)) for p in FLIP_RATES),
        switch_times=(n // 2,),
        block_labels=(0, 1),
        continuing=True,
    )
    source_seed, channel_seed = np.random.SeedSequence(seed).spawn(2)
    x = sources.sample_piecewise(spec, n, source_seed)
    z = sources.corrupt(x, core.bsc_channel(DELTA), channel_seed)
    return x.symbols, z.symbols


@dataclass(frozen=True)
class ChildRun:
    seconds: float
    rss_mb: float
    error: str | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], work: Path, timeout: float) -> ChildRun:
    """Run one child to completion; its wall time from spawn to exit and its peak RSS."""
    expired = threading.Event()
    with open(work / "stderr.txt", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )  # fmt: skip

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None
        if expired.is_set():
            error = f"timed out after {timeout:.0f} s"
        elif proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode("utf-8", "replace").strip().splitlines()[-1:]
            error = f"exit status {proc.returncode}: {' '.join(tail)}"
    return ChildRun(seconds, usage.ru_maxrss / 1024.0, error)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "sdude.cli", *args]


def set_up(workload: Workload, seed: int, n: int, work: Path):
    """Write the workload's inputs and start the CLI once so later starts are warm."""
    inputs = None
    if isinstance(workload.op, Denoise):
        x, z = shared_input(seed, n)
        (work / "input.raw").write_bytes(z.astype(np.uint8).tobytes())
        inputs = (x, z)
    warm = run_child(cli_argv(["--help"]), work, OP_TIMEOUT_S)
    if warm.error:
        raise RuntimeError(f"sdude --help failed: {warm.error}")
    return inputs


def output_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: str | None = None
        self.ber: float | None = None

    def verify(self, workload: Workload, work: Path, n: int, inputs, error: str | None) -> None:
        """Count one operation; check its outputs and that they match earlier ones."""
        self.attempted += 1
        if error is None:
            try:
                ber = workload.op.check(work, n, inputs)
                digest = output_digest(workload.op.outputs(work))
                if self.digest is None:
                    self.digest, self.ber = digest, ber
                elif digest != self.digest:
                    raise CheckFailed("outputs differ from the run's first operation")
            except CheckFailed as exc:
                error = str(exc)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def remove_outputs(workload: Workload, work: Path) -> None:
    for path in workload.op.outputs(work):
        path.unlink(missing_ok=True)


def tail_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    count = len(times)
    if count < 11:
        return f"no percentile has ten samples beyond it ({count} samples)"
    value = sorted(times)[count - 11]
    return f"p{100.0 * (count - 10) / count:.1f} {value:.4f} s ({count} samples, 10 beyond it)"


def run_untraced(workload, seed, n, seconds, work, deadline):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = set_up(workload, seed, n, work)
        setup_times.append(perf_counter() - start)
    argv = cli_argv(workload.op.argv(work, seed, n))
    tally, runs = Tally(), []
    start = perf_counter()
    while True:
        remove_outputs(workload, work)
        run = run_child(argv, work, min(OP_TIMEOUT_S, deadline - perf_counter()))
        runs.append(run)
        tally.verify(workload, work, n, inputs, run.error)
        now = perf_counter()
        typical = statistics.median(r.seconds for r in runs)
        if len(runs) >= MIN_OPS and now - start + typical > seconds:
            break
        if now + typical > deadline:
            break
    times = [r.seconds for r in runs]
    metrics = {
        "op_s_p50": statistics.median(times),
        "symbols_per_s": workload.op.symbols(n) * len(runs) / sum(times),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup_times),
    }
    summary = [
        f"op_s {tail_percentile(times)}",
        f"op_s samples {' '.join(f'{t:.4f}' for t in times)}",
        f"setup_s samples {' '.join(f'{t:.4f}' for t in setup_times)}",
    ]
    samples = {"operations": len(runs), "setups": len(setup_times)}
    return tally, metrics, summary, samples


def run_in_process(argv: list[str]) -> tuple[float, str | None]:
    from sdude import cli

    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    seconds = perf_counter() - start
    return seconds, None if code == 0 else f"in-process exit status {code}"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces, traced, untraced, setup_trace, start_s, ber) -> dict:
    """Per-layer metrics: medians of self time over the traced runs, counts of the last."""
    last = traces[-1]
    counts = last.counts + setup_trace.counts
    metrics = {"cli.start_s": start_s}
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(t.self_s[layer] for t in traces)
    metrics["sources.self_s"] += setup_trace.self_s["sources"]
    for layer in ("fileio", "contexts", "estimation", "switching", "dude", "genie", "sources"):
        metrics[f"{layer}.calls"] = last.calls[layer]
    metrics["sources.calls"] += setup_trace.calls["sources"]
    metrics["fileio.bytes_written"] = counts["fileio.bytes_written"]
    metrics["contexts.contexts"] = counts["contexts.contexts"]
    metrics["contexts.mean_chain"] = ratio(counts["contexts.interior"], counts["contexts.contexts"])
    metrics["switching.dp_cells"] = counts["switching.dp_cells"]
    metrics["switching.cells_per_s"] = ratio(counts["switching.dp_cells"], metrics["switching.self_s"])
    metrics["switching.switches"] = counts["switching.switches"]
    metrics["switching.level_use"] = ratio(counts["switching.switches"], counts["switching.level_slots"])
    metrics["switching.ber"] = ber
    metrics["hmm.symbols_per_s"] = ratio(counts["hmm.symbols"], metrics["hmm.self_s"])
    metrics["sources.symbols"] = counts["sources.symbols"]
    metrics["trace.coverage"] = statistics.median(
        sum(t.self_s.values()) / seconds for t, seconds in zip(traces, traced)
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def run_traced(workload, seed, n, seconds, work, deadline):
    with Tracer() as setup_trace:
        inputs = set_up(workload, seed, n, work)
    starts = []
    for _ in range(START_REPEATS):
        run = run_child([sys.executable, "-c", "import sdude.cli"], work, OP_TIMEOUT_S)
        if run.error:
            raise RuntimeError(f"importing sdude.cli failed: {run.error}")
        starts.append(run.seconds)
    args = workload.op.argv(work, seed, n)
    tally = Tally()
    # The command-line run's outputs are the reference every in-process run must match.
    remove_outputs(workload, work)
    run = run_child(cli_argv(args), work, min(OP_TIMEOUT_S, deadline - perf_counter()))
    tally.verify(workload, work, n, inputs, run.error)
    traces, traced, untraced = [], [], []
    start = perf_counter()
    while tally.digest is not None:
        remove_outputs(workload, work)
        seconds_untraced, error = run_in_process(args)
        untraced.append(seconds_untraced)
        tally.verify(workload, work, n, inputs, error)
        remove_outputs(workload, work)
        with Tracer() as trace:
            seconds_traced, error = run_in_process(args)
        traces.append(trace)
        traced.append(seconds_traced)
        tally.verify(workload, work, n, inputs, error)
        now = perf_counter()
        pair = seconds_untraced + seconds_traced
        if now - start + pair > seconds or now + pair > deadline:
            break
    if not traces:
        return tally, {name: 0.0 for name in PER_LAYER}, [], {"cli_runs": 1}
    metrics = layer_metrics(traces, traced, untraced, setup_trace, statistics.median(starts), tally.ber)
    op_time = statistics.median(traced)
    # Shares of the operation alone: sources.self_s also holds the traced set-up.
    shares = sorted(
        ((statistics.median(t.self_s[layer] for t in traces) / op_time, layer) for layer in TRACED_LAYERS),
        reverse=True,
    )
    summary = [
        "layer self-time shares of the traced operation: "
        + ", ".join(f"{layer} {share:.3f}" for share, layer in shares if share >= 0.001),
        f"dominant layer: {shares[0][1]}",
    ]
    if metrics["trace.coverage"] < MIN_COVERAGE:
        summary.append(
            f"warning: trace.coverage {metrics['trace.coverage']:.3f} is below {MIN_COVERAGE}"
        )
    samples = {
        "cli_runs": 1,
        "untraced_runs": len(untraced),
        "traced_runs": len(traces),
        "cli_starts": len(starts),
    }
    return tally, metrics, summary, samples


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sdude").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, n: int, samples: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": n,
        "samples": samples,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="override the workload's input length")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.n is not None and args.n < 64):
        parser.error("need --seed >= 0, --seconds > 0 and --n >= 64")
    return args


def main(argv=None) -> int:
    deadline = perf_counter() + RUN_BUDGET_S
    args = parse_args(argv)
    if not (SRC / "sdude" / "cli.py").is_file():
        print(f"perfbench: no sdude sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sdude.cli")
    if Path(cli.__file__).resolve().parent != SRC / "sdude":
        print(f"perfbench: imported sdude from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    n = args.n or workload.n
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / ".work"))
    try:
        measure = run_traced if args.trace else run_untraced
        tally, metrics, summary, samples = measure(workload, args.seed, n, args.seconds, work, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"provenance": provenance(args, n, samples)}, sort_keys=True))
    print(
        f"{workload.name} seed {args.seed} n {n}: {tally.attempted} operations, "
        f"{tally.failed} failed (fail_frac {tally.failed / tally.attempted:.4f}), ber {tally.ber}"
    )
    for line in summary + [f"failure: {error}" for error in tally.errors]:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
