"""The package names that the benchmark's layer tracer relies on still exist.

``perfbench/spans.py`` finds its counters by name: a ``LAYERS`` entry that no
longer names a package module, a ``HOOKS`` key that no longer names a package
function, or a traced entry point that is gone, makes a per-layer counter
read 0 without an error.  These checks read
``perfbench/spans.py`` and ``perfbench/test_bench.py`` as they are, so a
change to the package that drops one of those names fails here.  The
byte counter reads ``len(data)`` of ``fileio.atomic_write_bytes``, so every
file the command line writes must reach disk through that one call, and
the switching counter binds ``sdude_denoise``'s arguments by name.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import sdude.cli  # imports every layer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected_wrapped() -> set:
    """The ``expected`` set of wrapped names in ``perfbench/test_bench.py``."""
    tree = ast.parse((PERFBENCH / "test_bench.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "expected" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/test_bench.py no longer names the wrapped functions")


def test_every_hook_names_a_public_function_of_its_module():
    spans = _spans()
    assert spans.HOOKS
    for key in spans.HOOKS:
        layer, name = key.split(".")
        assert layer in spans.TRACED_LAYERS, key
        module = importlib.import_module(f"sdude.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn) and not name.startswith("_"), key
        # The tracer looks hooks up by the defining module and the function's own name.
        assert (fn.__module__, fn.__name__) == (module.__name__, name), key


def test_every_layer_names_a_package_module():
    # A layer whose module is renamed would have no spans, and its per-layer
    # metrics would read 0 without an error.
    spans = _spans()
    assert spans.LAYERS and spans.PACKAGE == "sdude"
    for layer in spans.LAYERS:
        importlib.import_module(f"sdude.{layer}")


def test_the_names_the_benchmark_expects_wrapped_are_wrapped():
    spans = _spans()
    expected = _expected_wrapped()
    assert len(expected) == 3
    with spans.Tracer():
        assert expected <= set(spans.leftover_wrappers())
    assert spans.leftover_wrappers() == []


def test_bytes_written_counts_the_output_and_the_schedule(tmp_path):
    spans = _spans()
    src, out, schedule = tmp_path / "in.raw", tmp_path / "out.raw", tmp_path / "schedule.json"
    rng = np.random.default_rng(5)
    (rng.random(3000) < 0.2).astype(np.uint8).tofile(src)
    argv = ["denoise", "--input", str(src), "--output", str(out), "--channel", "bsc:0.1"]
    argv += ["--k", "2", "--m", "1", "--emit-schedule", str(schedule)]
    with spans.Tracer() as tracer:
        assert sdude.cli.main(argv) == 0
    written = out.stat().st_size + schedule.stat().st_size
    assert schedule.stat().st_size > out.stat().st_size > 0
    assert tracer.counts["fileio.bytes_written"] == written
    # The switching counter binds sdude_denoise's arguments by name: 4 binary
    # rules on each of the m + 1 levels at every interior position.
    n, k, m = 3000, 2, 1
    assert tracer.counts["switching.dp_cells"] == (n - 2 * k) * (m + 1) * 4, (
        "perfbench's switching hook no longer binds sdude_denoise's z, k, m, "
        "tables, channel and loss"
    )
