"""Importing sdude first leaves the environment and numpy's loading alone.

Each case runs in a fresh interpreter with ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` unset, since numpy loads OpenBLAS once per process and
sizes its thread pool then.  Threads are counted in ``/proc/self/task``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TASKS = Path("/proc/self/task")

THREADS = "len(os.listdir('/proc/self/task'))"
# OpenBLAS caps its pool at the CPUs this process may run on.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run(code):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import os\n" + code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task")
@pytest.mark.skipif(CPUS < 2, reason="with one CPU, one thread is numpy's own choice too")
def test_importing_sdude_first_changes_neither_the_environment_nor_numpy_threads():
    (numpy_only,) = _run(f"import numpy\nprint({THREADS})")
    unchanged, with_sdude = _run(
        f"before = dict(os.environ)\nimport sdude\nprint(before == dict(os.environ), {THREADS})"
    )
    assert unchanged == "True"
    assert with_sdude == numpy_only
