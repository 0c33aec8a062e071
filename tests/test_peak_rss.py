"""Peak resident set of ``sdude experiment switching-hmm`` above an import of ``sdude.cli``.

Each command runs under a small intermediate interpreter that starts it and
reads its peak RSS with ``os.wait4``.  Linux counts the resident set of the
process that forks a child in the child's ``ru_maxrss``, so a child started
from pytest directly would report pytest's heap whenever that is the larger.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNNER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

# Measured 17.3-17.5 MB above a 28.9 MB import (Python 3.11, numpy 2.4, glibc,
# x86-64 Linux), plus about 10%: numpy.random and LAPACK loaded on first use,
# the smoother's one posterior array and what the heap keeps after it.  With
# glibc's mmap threshold held at 128 KiB it is 15.5 MB; left to move, small
# changes elsewhere shift it by up to 1.5 MB.
SWITCHING_HMM_MB = 19.0


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
