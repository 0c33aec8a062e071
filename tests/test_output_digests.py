"""Every program output of a fixed run set keeps its bytes.

The set is 24 files: the clean and noisy symbols of the benchmark's shared
input (seed 531, 10^6 symbols), built by ``perfbench/run.py``'s own
``shared_input``; ``sdude denoise`` output and ``--emit-schedule`` on that
input at (k, m) = (4, 4) and (0, 3); and the two-block, switching-hmm and
concentration (``--trials 10``) reports, JSON and CSV, for seeds 1-3 at
their default sizes.  All of it is made once, by ``cli.main``, and each
file's sha256 is checked against ``DIGESTS`` in its own test, so a failure
names the file.

A change that alters outputs on purpose updates the digests of the files it
changes.  The digests were taken under numpy 2.4 and Python 3.11; a
different numpy may round differently, so a failure prints both versions.
"""

import hashlib
import importlib.util
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from sdude.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (1, 2, 3)
DENOISE = ((4, 4), (0, 3))
EXPERIMENTS = {
    "two-block": [],
    "switching-hmm": [],
    "concentration": ["--trials", "10"],
}

DIGESTS = {
    "concentration_seed1.csv": "3e1c6350e6609118b4f87b6b763cabe15c145bea0f2e55a5a291b82c3f32f94e",
    "concentration_seed1.json": "86beb6a6a6a456da07c827f0302fa62ba0199ae751099047ae9cce4e0036c0ae",
    "concentration_seed2.csv": "a8bad08ee1743dd909eee30af0d679cb21346a6999555eb14bf1cef4a62c4751",
    "concentration_seed2.json": "6ba33398e34486585a7bd98f6c30355c5d1701d7d7950e5a4f7b8ca9695c6d13",
    "concentration_seed3.csv": "38985b1d1efcfff38192528bcd7695921afc1402d6c5772f1cb2609a55ef3e74",
    "concentration_seed3.json": "345061156e2dd4c6f419e6df564c37a0bd4ae0a71efc43d66c11e873ef40851f",
    "denoise_k0_m3.raw": "d688efdb3ddc5188a5a8a83f12479d76de13d696ab87b09cb23d3649fe8fa62f",
    "denoise_k4_m4.raw": "98ccb75786b4f932bcd3b4563ff9b6b4a31f69a7e3870509af7b23a81890ddf9",
    "schedule_k0_m3.json": "7452a6b1171573f5aae4b23243519c40b244521425ace77353d67e3a3a710126",
    "schedule_k4_m4.json": "cf706f4e022bc2eae107bcb2714c27433a6a26d56d58a4a12cf084c21990568c",
    "switching-hmm_seed1.csv": "31f00e71232e507cc23db255b5364da5bacf09e3f02500dace3667064acd7e61",
    "switching-hmm_seed1.json": "621480a62c5509ccfab94d3ded4b559eb75105da9c00c3807894a1e2bb520d94",
    "switching-hmm_seed2.csv": "647ecd7a99e4418a2a3b69f768092856785de2826be213fc84e602ea01c5833f",
    "switching-hmm_seed2.json": "0d3ea25b344e527b473a0b54d3269940ca498250d917384da3229d99da801bd3",
    "switching-hmm_seed3.csv": "4df07c114dda93ebb0b074d6313486cc4d6f4422459b3f509efcc4cce261cd8d",
    "switching-hmm_seed3.json": "151e5ae4878e906bc327eca02b4c62c4006bacd875ebd6749ee75276ae030ebf",
    "two-block_seed1.csv": "12366047328743d4850c78e7149438a1aff782bb0d0b89efd6a449cbff93481b",
    "two-block_seed1.json": "4a2bfa3907100ade5033e1219b57a42cc106867fce236c11e24d514a83df7fdb",
    "two-block_seed2.csv": "f8d2aa9b0665d9dcd3523579ae9637f424737cecfb6bf7efd10cf2aeadc68c0c",
    "two-block_seed2.json": "9790ad1bbf167c6188e43c151d25f1cd50b41c0f15c23d09ed3fcd9dc250d17a",
    "two-block_seed3.csv": "31bd777339aec3fd60feef2bf830fddcddb4feaac9c20252ff20b3bb6911baff",
    "two-block_seed3.json": "00753a1788658daeb01d848b8f7acdad2a823c68fbbf97f1502efe5eaee296ab",
    "x.raw": "78784031ebeb9e7f3cade23d34c6e2a812ce33e6e244b61eaee157402ea8a4b6",
    "z.raw": "356a850dc2353bf4e8c1621e701639f7bffbdd04144bd0f7171a3ae3da58bfbc",
}


def _shared_input():
    """``perfbench/run.py``'s ``shared_input``; that script imports ``spans`` from its folder."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        # Its dataclasses look their module up while the class is built.
        patch.setitem(sys.modules, spec.name, run)
        spec.loader.exec_module(run)
    return run.shared_input(531, 10**6)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    x, z = _shared_input()
    (out / "x.raw").write_bytes(x.astype(np.uint8).tobytes())
    (out / "z.raw").write_bytes(z.astype(np.uint8).tobytes())
    for k, m in DENOISE:
        argv = ["denoise", "--input", str(out / "z.raw"), "--channel", "bsc:0.1"]
        argv += ["--k", str(k), "--m", str(m), "--output", str(out / f"denoise_k{k}_m{m}.raw")]
        assert main(argv + ["--emit-schedule", str(out / f"schedule_k{k}_m{m}.json")]) == 0
    for name, flags in EXPERIMENTS.items():
        for seed in SEEDS:
            argv = ["experiment", name, *flags, "--seed", str(seed)]
            assert main(argv + ["--out", str(out / f"{name}_seed{seed}")]) == 0
    return out


def test_the_set_is_every_output(outputs):
    assert sorted(p.name for p in outputs.iterdir()) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[name], (
        f"{name} changed (numpy {np.__version__}, Python {platform.python_version()})"
    )
