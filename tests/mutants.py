"""Mutation check of the kernels' bit-identity gates.

Run from anywhere with ``python3 tests/mutants.py [name ...]``; pytest does
not collect this file.  Each mutant is one exact text replacement in one
source file.  The repository is copied once into a temporary directory; each
mutant is applied to the copy, its pytest selection runs there with ``-x``,
and the file is restored.  Every selection first runs unmutated and must
pass.  A mutant is caught when its selection fails.  A mutant marked
equivalent changes no output, so it is expected to survive, and its reason
says why.  The exit status is 1 when a mutant that is not marked equivalent
survives, an equivalent one is caught, a run errs, or a mutant's old text no
longer occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selection: tuple[str, ...]
    equivalent: str = ""  # why the mutant changes no output, if it does not


HMM = "src/sdude/hmm.py"
CONTEXTS = "src/sdude/contexts.py"
SMOOTHER_TESTS = ("tests/test_hmm.py", "tests/test_output_digests.py")
SORT_TESTS = ("tests/test_contexts.py",)
SWITCHING = "src/sdude/switching.py"
SOLVER_TESTS = ("tests/test_switching.py", "tests/test_kernel.py", "tests/test_output_digests.py")

MUTANTS = [
    Mutant(
        "contexts: dropped offset carry (free[digits] += runs removed)",
        CONTEXTS,
        "        free[digits] += runs\n",
        "",
        SORT_TESTS,
    ),
    Mutant(
        "contexts: unstable chunk sort (argsort default kind)",
        CONTEXTS,
        'perm = np.argsort(keys, kind="stable")',
        "perm = np.argsort(keys)",
        SORT_TESTS,
    ),
    Mutant(
        "contexts: dropped group carry across chunks (first[0] = True)",
        CONTEXTS,
        "at = _run_starts(keys, last is None or keys[0] != last)",
        "at = _run_starts(keys, True)",
        SORT_TESTS,
    ),
    Mutant(
        "contexts: digit counts narrower than the order (int16)",
        CONTEXTS,
        "counts = counts.astype(dest.dtype)",
        "counts = counts.astype(np.int16)",
        SORT_TESTS,
    ),
    Mutant(
        "hmm: backward pass 3 multiplies every block, exact or not",
        HMM,
        "    state = np.empty((q, exact))\n",
        "    exact = blocks\n    state = np.empty((q, exact))\n",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: backward pass 1 multiplies its states into the result before exactness is known",
        HMM,
        "            dest[...] = src\n    ends",
        "            dest[...] = src\n"
        "        else:\n"
        "            dest, src = _blockwise(out[j : j + t], tile[:t])\n"
        "            dest *= src\n"
        "    ends",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: pass-1 replay started from the pass-2 starts (both directions share it)",
        HMM,
        "    pair[:, 1].T[...] = start\n",
        "    pair[:, 1] = state\n",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: forward pass 2 does not write its states",
        HMM,
        "        if forward:\n            dest[...] = new[:, 0]\n",
        "",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: forward pass 2 writes the replayed pass-1 state",
        HMM,
        "dest[...] = new[:, 0]",
        "dest[...] = new[:, 1]",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: only the first normalizer chunk checked",
        HMM,
        "        if not (norm.min() > 0.0",
        "        if lo == 0 and not (norm.min() > 0.0",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: normalizer chunk offset dropped",
        HMM,
        "cols = f[:, lo : lo + CHUNK]",
        "cols = f[:, :CHUNK]",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: tile remainder dropped (t = TILE)",
        HMM,
        "t = min(TILE, len(by_step) - j)",
        "t = TILE",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: the lock-step trusts a block after 60 steps of pass 2",
        HMM,
        "    for row, dest in zip(by_step, values):\n",
        "    for i, (row, dest) in enumerate(zip(by_step, values)):\n"
        "        if i == 60:\n"
        "            return None\n",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: the lock-step trusts one block too many",
        HMM,
        "else 2 + int(np.argmin(same.all(axis=0)))",
        "else min(blocks, 3 + int(np.argmin(same.all(axis=0))))",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "hmm: the step loop sums its states in reverse",
        HMM,
        "            s = b[0]\n            for y in ys:\n",
        "            s = b[-1]\n            for y in reversed(range(q - 1)):\n",
        SMOOTHER_TESTS,
    ),
    Mutant(
        "switching: the walk prefers a shift on a tie",
        SWITCHING,
        "np.less(best, M, out=shifts[i - 1, :, :, a : a + n])",
        "np.less_equal(best, M, out=shifts[i - 1, :, :, a : a + n])",
        SOLVER_TESTS,
    ),
    Mutant(
        "switching: the chain minima summed pairwise",
        SWITCHING,
        "math.fsum(mins[lv].tolist())",
        "float(np.sum(mins[lv]))",
        SOLVER_TESTS,
    ),
    Mutant(
        "switching: no rounding guard in _kept_rules",
        SWITCHING,
        "    bound = _GUARD * (np.finfo(np.float64).eps / 2)",
        "    bound = 0 * (np.finfo(np.float64).eps / 2)",
        SOLVER_TESTS,
    ),
    Mutant(
        "switching: the top level's value read at the segment's end, padding included",
        SWITCHING,
        "top[:, ends] = M[:, ends, last[ends] - a]",
        "top[:, ends] = M[:, ends, -1]",
        SOLVER_TESTS,
    ),
    Mutant(
        "switching: the walk takes its new rule from the wrong occurrence",
        SWITCHING,
        "q[active] = argmins[r][active, p - 1]",
        "q[active] = argmins[r][active, p]",
        SOLVER_TESTS,
    ),
    Mutant(
        "switching: _index_sum drops a pick",
        SWITCHING,
        "picked = np.flatnonzero(uses)",
        "picked = np.flatnonzero(uses)[1:]",
        SOLVER_TESTS,
    ),
    Mutant(
        "sources: corrupt's chunk offset dropped",
        "src/sdude/sources.py",
        "clean = x.symbols[lo : lo + CHUNK]",
        "clean = x.symbols[:CHUNK]",
        ("tests/test_sources.py",),
    ),
    Mutant(
        "genie: the codes are not widened past the symbol dtype",
        "src/sdude/genie.py",
        "codes = x.symbols[k : n - k].astype(np.min_scalar_type("
        "max(lam.shape[0] * noisy - 1, noisy)))",
        "codes = x.symbols[k : n - k].copy()",
        ("tests/test_genie.py", "tests/test_symbol_dtype.py"),
    ),
    Mutant(
        "switching: the walk's cols < upper becomes <=",
        SWITCHING,
        "hits &= cols < upper[active, None]",
        "hits &= cols <= upper[active, None]",
        SOLVER_TESTS,
        equivalent=(
            "at index upper the current rule's value is that level's minimum, and the level "
            "below's best is never under it, since IEEE rounding is monotone"
        ),
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work")
    for name in ("src", "tests", "perfbench", "pyproject.toml"):
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run(copy: Path, mutant: Mutant) -> str:
    """'caught', 'survived', 'error' or 'stale' (the old text does not occur exactly once)."""
    path = copy / mutant.path
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "stale"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        return OUTCOMES.get(_pytest(copy, mutant.selection), "error")
    finally:
        path.write_text(original)


# pytest's exit status: 0 all passed, 1 some test failed; any other is an
# error of the run itself (collection, usage, no tests).
OUTCOMES = {0: "survived", 1: "caught"}


def _pytest(copy: Path, selection) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or any(name in m.name for name in names)]
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="sdude-mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        # A selection that fails unmutated would count every mutant as caught.
        for selection in dict.fromkeys(m.selection for m in chosen):
            if _pytest(copy, selection):
                print(f"unmutated selection fails: {' '.join(selection)}")
                return 1
        for mutant in chosen:
            start = time.perf_counter()
            outcome = _run(copy, mutant)
            expected = "survived" if mutant.equivalent else "caught"
            unexpected += outcome != expected
            note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
            elapsed = time.perf_counter() - start
            print(f"{outcome:8}  {elapsed:5.1f} s  {mutant.name}{note}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
