"""Layer spans around calls into the sdude package, recorded from outside it.

A ``Tracer`` replaces, for as long as it is installed, every public function
that a package module holds -- its own functions and the ones it imported
from sibling modules -- with a wrapper that opens a span named after the
module that defines the function (its layer).  A layer's self time is the
time its spans last minus the time their child spans cover.  A call from a
layer into itself stays inside the open span, so ``calls`` counts entries
into a layer from outside it.

Functions defined in ``core`` and ``errors`` are left alone: they do no
timed work of their own, and their validation cost lands in their callers.
Functions defined in ``cli`` are left alone too: the caller times the whole
command, and whatever no layer span covers is the command-line glue.
Private names (a leading underscore) are never wrapped, so a layer that
borrows a sibling's private kernel -- ``genie`` running the switching DP
through ``_run_fused`` -- is charged for that work itself.

Nothing under the package's source tree is edited; ``restore`` puts every
original function back and checks that no wrapper is left behind.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "sdude"
LAYERS = (
    "cli",
    "fileio",
    "contexts",
    "estimation",
    "switching",
    "dude",
    "genie",
    "hmm",
    "sources",
    "evaluation",
)
TRACED_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")
_MARK = "__perfbench_span__"


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_partition(counts, fn, args, kwargs, result) -> None:
    counts["contexts.contexts"] += int(result.occurring_contexts().size)
    counts["contexts.interior"] += int(result.num_interior)


def _count_bytes_written(counts, fn, args, kwargs, result) -> None:
    counts["fileio.bytes_written"] += len(_arguments(fn, args, kwargs)["data"])


def _count_switching(counts, fn, args, kwargs, result) -> None:
    a = _arguments(fn, args, kwargs)
    n, k, m = len(a["z"]), int(a["k"]), int(a["m"])
    if a["tables"] is not None:
        rules = a["tables"].num_rules
    else:
        rules = a["loss"].recon_size ** a["channel"].noisy_size
    schedule = result[1]
    counts["switching.dp_cells"] += (n - 2 * k) * (m + 1) * rules
    counts["switching.switches"] += schedule.total_switches
    counts["switching.level_slots"] += len(schedule.per_context_switches) * m


def _count_smoothed(counts, fn, args, kwargs, result) -> None:
    counts["hmm.symbols"] += len(_arguments(fn, args, kwargs)["z"])


def _count_sampled(counts, fn, args, kwargs, result) -> None:
    counts["sources.symbols"] += len(result)


# Counters recorded where the work happens, keyed by "<layer>.<function>".
HOOKS = {
    "contexts.build_partition": _count_partition,
    "fileio.atomic_write_bytes": _count_bytes_written,
    "switching.sdude_denoise": _count_switching,
    "hmm.fb_posteriors": _count_smoothed,
    "sources.sample_piecewise": _count_sampled,
    "sources.corrupt": _count_sampled,
}


class _Frame:
    __slots__ = ("layer", "covered")

    def __init__(self, layer):
        self.layer = layer
        self.covered = 0.0


class Tracer:
    """Per-layer self time, call counts and work counters for one traced region.

    Use as a context manager: entering wraps the package's functions,
    leaving restores them.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = [_Frame(None)]
        self._patched = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, value in list(vars(module).items()):
                target = _layer_of(name, value)
                if target is None:
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    hook = HOOKS.get(f"{target}.{value.__name__}")
                    wrapper = wrappers[id(value)] = self._wrap(value, target, hook)
                self._patched.append((module, name, value))
                setattr(module, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"wrapped names survived restore: {left}")

    def _wrap(self, fn, layer, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1].layer == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self.counts, fn, args, kwargs, result)
                return result
            frame = _Frame(layer)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[layer] += end - start - frame.covered
                self.calls[layer] += 1
                stack[-1].covered += end - start
            if hook is not None:
                hook(self.counts, fn, args, kwargs, result)
                # Counting is tracing cost: keep it out of the caller's self time.
                stack[-1].covered += perf_counter() - end
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper


def _layer_of(name: str, value) -> str | None:
    """The layer a module attribute belongs to, if the tracer wraps it."""
    if name.startswith("_") or not inspect.isfunction(value):
        return None
    owner, _, layer = value.__module__.partition(".")
    if owner != PACKAGE or layer not in TRACED_LAYERS:
        return None
    return layer


def leftover_wrappers() -> list[str]:
    """Qualified names of package attributes that are still span wrappers."""
    left = []
    for layer in LAYERS:
        module = sys.modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            continue
        for name, value in vars(module).items():
            if hasattr(value, _MARK):
                left.append(f"{layer}.{name}")
    return left
