"""Importing sdude first loads numpy with a one-thread OpenBLAS pool.

Each case runs in a fresh interpreter, since numpy loads OpenBLAS once per
process.  Threads are counted in ``/proc/self/task``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TASKS = Path("/proc/self/task")

pytestmark = pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task")

THREADS = "len(os.listdir('/proc/self/task'))"
# OpenBLAS caps its pool at the CPUs this process may run on.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run(code, **env_vars):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, "-c", "import os\n" + code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_first_import_starts_one_thread_and_leaves_the_environment_alone():
    unchanged, threads = _run(
        f"before = dict(os.environ)\nimport sdude\nprint(before == dict(os.environ), {THREADS})"
    )
    assert unchanged == "True"
    assert threads == "1"


@pytest.mark.skipif(CPUS < 2, reason="needs two usable CPUs")
def test_a_set_thread_count_is_kept():
    (threads,) = _run(f"import sdude\nprint({THREADS})", OPENBLAS_NUM_THREADS="2")
    assert threads == "2"


def test_a_process_that_imported_numpy_first_is_left_alone():
    numpy_only, with_sdude, unchanged = _run(
        "import numpy\n"
        f"threads = {THREADS}\n"
        "before = dict(os.environ)\n"
        "import sdude\n"
        f"print(threads, {THREADS}, before == dict(os.environ))"
    )
    assert with_sdude == numpy_only
    assert unchanged == "True"
