"""Peak resident set of ``sdude experiment switching-hmm`` and ``sdude denoise`` above an
import of ``sdude.cli``.

Each command runs under a small intermediate interpreter that starts it and
reads its peak RSS with ``os.wait4``.  Linux counts the resident set of the
process that forks a child in the child's ``ru_maxrss``, so a child started
from pytest directly would report pytest's heap whenever that is the larger.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdude import MarkovComponent, PiecewiseSourceSpec, bsc_channel, corrupt, sample_piecewise
from sdude.fileio import write_raw_sequence

ROOT = Path(__file__).resolve().parents[1]

RUNNER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# Measured 14.0-14.1 MB above a 29.3 MB import (Python 3.11, numpy 2.4, glibc,
# x86-64 Linux), plus about 10%: numpy.random and LAPACK loaded on first use,
# the smoother's one posterior array and what the heap keeps after it.  It
# was 16.1-16.2 MB while the smoother held a segment's lock-step values and
# the partition a stable argsort's intp order; small changes elsewhere can
# shift it by up to 1.5 MB through glibc's moving mmap threshold.
SWITCHING_HMM_MB = 15.5
# Measured 19.4 MB above the import (29.5 MB while the forward pass kept
# every level's float values), plus about 10%: the 10^6-symbol input and
# output, the partition, the schedule text, and one batch's flags and
# segment buffers for the longest of the 256 chains (about 1.2 x 10^5
# occurrences) on five levels.
DENOISE_MB = 21.5


def peak_rss_mb(args, cwd):
    """Peak RSS in MB of ``python <args>``, started from the intermediate interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    status, maxrss_kib = done.stdout.split()
    assert status == "0", f"exit status {status}"
    return int(maxrss_kib) / 1024.0


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_switching_hmm_experiment_peak_rss_above_the_cli_import(tmp_path):
    base = peak_rss_mb(["-c", "import sdude.cli"], tmp_path)
    argv = ["-m", "sdude.cli", "experiment", "switching-hmm", "--n", "300000"]
    argv += ["--k-list", "4", "6", "--m-list", "1", "--out", str(tmp_path / "report.json")]
    run = peak_rss_mb(argv, tmp_path)
    assert run - base < SWITCHING_HMM_MB, f"{run - base:.2f} MB above the import ({base:.2f} MB)"


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_denoise_with_schedule_peak_rss_above_the_cli_import(tmp_path):
    # A continuing two-regime binary Markov chain (flip rates 0.01, then 0.2
    # from n/2) through BSC(0.1), denoised at k = 4 with 4 shifts per context.
    n = 10**6
    flips = [[[1 - p, p], [p, 1 - p]] for p in (0.01, 0.2)]
    spec = PiecewiseSourceSpec(tuple(map(MarkovComponent, flips)), (n // 2,), (0, 1), True)
    z = corrupt(sample_piecewise(spec, n, 531), bsc_channel(0.1), 532)
    write_raw_sequence(tmp_path / "z.raw", z)
    base = peak_rss_mb(["-c", "import sdude.cli"], tmp_path)
    argv = ["-m", "sdude.cli", "denoise", "--input", "z.raw", "--output", "out.raw"]
    argv += ["--channel", "bsc:0.1", "--k", "4", "--m", "4", "--emit-schedule", "schedule.json"]
    run = peak_rss_mb(argv, tmp_path)
    assert run - base < DENOISE_MB, f"{run - base:.2f} MB above the import ({base:.2f} MB)"
