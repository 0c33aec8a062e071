"""Stochastic simulators: piecewise stationary sources and memoryless corruption.

A piecewise source concatenates blocks, each drawn from one of a finite set
of component processes (i.i.d. or first-order Markov started from its
stationary law).  Block boundaries are the deterministic switch times; each
block is a fresh independent realization of its component, so two blocks
with the same label are conditionally independent.  A ``continuing`` spec
instead keeps one Markov chain running and only swaps its transition matrix
at the boundaries (the step into a new block already uses the new matrix).

All randomness comes from the counter-based Philox generator seeded through
``numpy.random.SeedSequence``; per-block streams are spawned children of the
top seed, so every sample is reproducible bit for bit from (spec, n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ChannelModel, SymbolSequence
from .errors import ValidationError


def _rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def is_stochastic(p: np.ndarray) -> bool:
    """True when every entry is finite and non-negative and each row sums to 1 (to 1e-9)."""
    return bool(
        np.isfinite(p).all() and p.min() >= 0 and np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-9
    )


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic matrix via its unit left eigenvector."""
    transition = np.asarray(transition, dtype=np.float64)
    eigvals, eigvecs = np.linalg.eig(transition.T)
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    if abs(eigvals[idx] - 1.0) > 1e-8:
        raise ValidationError("transition matrix has no unit eigenvalue")
    vec = np.real(eigvecs[:, idx])
    vec = np.where(np.abs(vec) < 1e-12, 0.0, vec)
    if vec.min() < 0 <= -vec.max():
        vec = -vec
    if vec.min() < -1e-10 or vec.sum() <= 0:
        raise ValidationError("stationary eigenvector is not a distribution")
    vec = np.clip(vec, 0.0, None)
    return vec / vec.sum()


@dataclass(frozen=True, eq=False)
class IIDComponent:
    """Memoryless component with a fixed marginal over the clean alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1 or not is_stochastic(p):
            raise ValidationError("component probabilities must form a distribution")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def alphabet_size(self) -> int:
        return self.probs.shape[0]

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        cdf = np.cumsum(self.probs)
        u = rng.random(length)
        return np.minimum((u[:, None] >= cdf[None, :-1]).sum(axis=1), self.alphabet_size - 1)


@dataclass(frozen=True, eq=False)
class MarkovComponent:
    """First-order stationary Markov component.

    The initial state is always drawn from the stationary distribution of
    the transition matrix, computed at construction time.
    """

    transition: np.ndarray
    initial: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValidationError("transition matrix must be square")
        if not is_stochastic(p):
            raise ValidationError("transition matrix rows must be distributions")
        p.flags.writeable = False
        object.__setattr__(self, "transition", p)
        init = stationary_distribution(p)
        init.flags.writeable = False
        object.__setattr__(self, "initial", init)

    @property
    def alphabet_size(self) -> int:
        return self.transition.shape[0]

    def _draw_initial(self, rng: np.random.Generator) -> int:
        cdf = np.cumsum(self.initial)
        return int(np.searchsorted(cdf, rng.random(), side="right").clip(0, self.alphabet_size - 1))

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        state = self._draw_initial(rng)
        return self.continue_from(state, length, rng, include_start=True)

    def continue_from(
        self, state: int, length: int, rng: np.random.Generator, include_start: bool
    ) -> np.ndarray:
        """Run the chain for ``length`` outputs, optionally emitting ``state`` first."""
        q = self.alphabet_size
        out = np.empty(length, dtype=np.int64)
        if length == 0:
            return out
        pos = 0
        if include_start:
            out[0] = state
            pos = 1
        steps = length - pos
        if steps <= 0:
            return out
        p = self.transition
        if q == 2 and p[0, 0] == p[1, 1] and p[0, 1] == p[1, 0]:
            # Symmetric binary chain: flips are i.i.d., so the path is a prefix parity.
            flips = rng.random(steps) < p[0, 1]
            out[pos:] = state ^ np.cumsum(flips).astype(np.int64) % 2
        else:
            cdf = np.cumsum(p, axis=1)
            u = rng.random(steps)
            s = state
            for i in range(steps):
                s = int(np.searchsorted(cdf[s], u[i], side="right"))
                if s >= q:
                    s = q - 1
                out[pos + i] = s
        return out


@dataclass(frozen=True, eq=False)
class PiecewiseSourceSpec:
    """Components plus a deterministic switching schedule.

    ``switch_times`` are the 1-based last positions of all blocks but the
    final one; ``block_labels`` picks a component per block and adjacent
    labels must differ.  With ``continuing`` set (Markov components only) the
    chain state carries across block boundaries instead of restarting.
    """

    components: tuple
    switch_times: tuple[int, ...]
    block_labels: tuple[int, ...]
    continuing: bool = False

    def __post_init__(self):
        comps = tuple(self.components)
        times = tuple(int(t) for t in self.switch_times)
        labels = tuple(int(b) for b in self.block_labels)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "switch_times", times)
        object.__setattr__(self, "block_labels", labels)
        if not comps:
            raise ValidationError("at least one component process is required")
        sizes = {c.alphabet_size for c in comps}
        if len(sizes) != 1:
            raise ValidationError("all components must share one alphabet")
        if len(labels) != len(times) + 1:
            raise ValidationError("need exactly one block label per block")
        if any(not 0 <= b < len(comps) for b in labels):
            raise ValidationError("block labels must index the component list")
        if any(b == a for a, b in zip(labels, labels[1:])):
            raise ValidationError("adjacent block labels must differ")
        if any(t < 1 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("switch times must be strictly increasing and >= 1")
        if self.continuing and not all(isinstance(c, MarkovComponent) for c in comps):
            raise ValidationError("a continuing spec requires Markov components")

    @property
    def alphabet_size(self) -> int:
        return self.components[0].alphabet_size

    def block_bounds(self, n: int) -> list[tuple[int, int]]:
        """Half-open 0-based (start, end) per block for a length-n sample."""
        if self.switch_times and self.switch_times[-1] >= n:
            raise ValidationError("switch times must lie strictly before n")
        edges = (0,) + self.switch_times + (n,)
        return [(edges[i], edges[i + 1]) for i in range(len(self.block_labels))]


def sample_piecewise(spec: PiecewiseSourceSpec, n: int, seed) -> SymbolSequence:
    """Draw one length-n realization of the piecewise source."""
    if n < 1:
        raise ValidationError("sequence length must be positive")
    bounds = spec.block_bounds(n)
    out = np.empty(n, dtype=np.int64)
    if spec.continuing:
        rng = _rng(seed)
        state = None
        for (start, end), label in zip(bounds, spec.block_labels):
            comp = spec.components[label]
            if state is None:
                block = comp.sample(end - start, rng)
            else:
                block = comp.continue_from(state, end - start, rng, include_start=False)
            out[start:end] = block
            state = int(block[-1]) if block.size else state
    else:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        children = seed.spawn(len(bounds))
        for (start, end), label, child in zip(bounds, spec.block_labels, children):
            out[start:end] = spec.components[label].sample(end - start, _rng(child))
    return SymbolSequence(out, spec.alphabet_size)


def corrupt(x: SymbolSequence, channel, seed) -> SymbolSequence:
    """Pass a clean sequence through the memoryless channel, one draw per symbol.

    ``channel`` is a ChannelModel or a bare row-stochastic matrix; corruption
    only needs the transition probabilities, so rank-deficient matrices (for
    which no denoiser channel model exists) are still valid here.
    """
    if isinstance(channel, ChannelModel):
        pi = channel.pi
    else:
        pi = np.asarray(channel, dtype=np.float64)
        if pi.ndim != 2 or not is_stochastic(pi):
            raise ValidationError("channel must be a row-stochastic matrix")
    if x.alphabet_size > pi.shape[0]:
        raise ValidationError("sequence alphabet exceeds the channel's clean alphabet")
    noisy = pi.shape[1]
    rng = _rng(seed)
    cdf = np.cumsum(pi, axis=1)
    u = rng.random(len(x))
    z = (u[:, None] >= cdf[x.symbols][:, :-1]).sum(axis=1)
    return SymbolSequence(np.minimum(z, noisy - 1), noisy)
