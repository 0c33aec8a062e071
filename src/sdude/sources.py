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
A draw from a CDF row ``c`` with a uniform ``u`` is the number of entries of
``c[:-1]`` at or below ``u``: so are i.i.d. symbols, a Markov chain's first
state, each step of a Markov walk and each corrupted symbol, with one
exception.  A symmetric binary chain's walk flips the state when
``u < p01``.  From state 1 that is the draw rule's event; from state 0 it is
not (the rule moves to 1 when ``u >= p00``).  A Markov walk reads exactly
one uniform per step, in order: a rewrite that keeps these rules keeps every
stream.

``sample_piecewise`` and ``corrupt`` draw ``core.CHUNK`` uniforms at a time and
write each chunk's symbols into the output in its narrow dtype, so beside the
output they hold O(CHUNK).  A Generator's ``random(a)`` then ``random(b)``
gives the doubles of ``random(a + b)``, and a walk resumes from the last
symbol of the chunk before, so the chunked draws are the whole-sequence ones.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import ATOL, CHUNK, ChannelModel, SymbolSequence, _check_size, symbol_dtype
from .errors import ValidationError


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` itself if it is a SeedSequence, else the SeedSequence of a non-negative integer."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(int(seed))


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def _length(length) -> int:
    """``length`` as an int, if it is a non-negative integer."""
    if not isinstance(length, (int, np.integer)) or length < 0:
        raise ValidationError(f"sample length must be a non-negative integer, got {length!r}")
    return int(length)


def _draw(heads: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The draw rule; ``heads`` is ``c[:-1]`` of one CDF row ``c``, or of one row per uniform."""
    return (u[:, None] >= heads).sum(axis=1)


def is_stochastic(p: np.ndarray) -> bool:
    """True when every entry is finite and non-negative and each row sums to 1 (to ``ATOL``)."""
    return bool(
        np.isfinite(p).all() and p.min() >= 0 and np.max(np.abs(p.sum(axis=-1) - 1.0)) <= ATOL
    )


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic matrix via its unit left eigenvector.

    The law is unique exactly when the eigenvalue 1 is simple, that is when
    some state can be reached from every state (the chain has one closed
    class).  That is decided on the matrix's nonzero pattern, so a chain
    that only nearly splits (flip rates of 1e-12) is still accepted; a
    chain with two closed classes, such as the identity, is refused.
    """
    transition = np.asarray(transition, dtype=np.float64)
    reach = (transition > 0) | np.eye(len(transition), dtype=bool)
    for _ in range(max(len(transition) - 1, 1).bit_length()):
        reach = (reach.astype(np.float64) @ reach) > 0
    if not reach.all(axis=0).any():
        raise ValidationError(
            "transition matrix has a repeated unit eigenvalue: its stationary law is not unique"
        )
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
        return _draw(np.cumsum(self.probs)[:-1], rng.random(_length(length)))


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

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        length = _length(length)
        start = int(_draw(np.cumsum(self.initial)[:-1], rng.random(1))[0])
        return self._path(start, max(length - 1, 0), rng)[:length]

    def walk(self, state: int, steps: int, rng: np.random.Generator) -> np.ndarray:
        """The ``steps`` states after ``state``, one uniform ``u`` per step.

        A symmetric binary chain flips its state when ``u < p01``; any other
        chain moves by the draw rule on its current state's CDF row.
        """
        if not 0 <= state < self.alphabet_size:
            raise ValidationError(f"state {state!r} is outside the chain's alphabet")
        return self._path(state, steps, rng)[1:]

    def _path(self, state: int, steps: int, rng: np.random.Generator) -> np.ndarray:
        """``state`` followed by the ``walk`` of ``steps`` states after it, in one int64 array."""
        p = self.transition
        if self.alphabet_size == 2 and p[0, 0] == p[1, 1] and p[0, 1] == p[1, 0]:
            # Symmetric binary chain: flips are i.i.d., so the path is a prefix
            # parity, formed in place on one bool per step.
            flips = np.empty(steps + 1, dtype=bool)
            flips[0] = False
            np.less(rng.random(steps), p[0, 1], out=flips[1:])
            np.logical_xor.accumulate(flips, out=flips)
            return np.bitwise_xor(flips, state, dtype=np.int64)
        rows = np.cumsum(p, axis=1)[:, :-1].tolist()
        u = rng.random(steps).tolist()
        path = [state] + [state := bisect_right(rows[state], v) for v in u]
        return np.array(path, dtype=np.int64)


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
        times, labels = tuple(self.switch_times), tuple(self.block_labels)
        if not all(isinstance(v, (int, np.integer)) for v in times + labels):
            raise ValidationError(f"switch times and labels must be integers, got {times + labels}")
        times, labels = tuple(map(int, times)), tuple(map(int, labels))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "switch_times", times)
        object.__setattr__(self, "block_labels", labels)
        if not comps:
            raise ValidationError("at least one component process is required")
        if len({c.alphabet_size for c in comps}) != 1:
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
    """Draw one length-n realization of the piecewise source.

    Each block is drawn ``CHUNK`` symbols at a time into the narrow output: a
    Markov block's later chunks, and every block after the first of a
    continuing spec, walk on from the symbol before them.
    """
    _check_size("sequence length", n)
    bounds = spec.block_bounds(n)
    seed = _seed_sequence(seed)
    rngs = repeat(_rng(seed)) if spec.continuing else map(_rng, seed.spawn(len(bounds)))
    out = np.empty(n, dtype=symbol_dtype(spec.alphabet_size))
    for (start, end), label, rng in zip(bounds, spec.block_labels, rngs):
        comp = spec.components[label]
        walks_in = spec.continuing and start > 0
        for lo in range(start, end, CHUNK):
            hi = min(lo + CHUNK, end)
            if isinstance(comp, MarkovComponent) and (walks_in or lo > start):
                out[lo:hi] = comp.walk(int(out[lo - 1]), hi - lo, rng)
            else:
                out[lo:hi] = comp.sample(hi - lo, rng)
    return SymbolSequence(out, spec.alphabet_size)


def corrupt(x: SymbolSequence, channel, seed) -> SymbolSequence:
    """Pass a clean sequence through the memoryless channel, one draw per symbol.

    The uniforms are drawn, and the symbols mapped, ``CHUNK`` at a time.

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
    rng, heads = _rng(seed), np.cumsum(pi, axis=1)[:, :-1]
    out = np.empty(len(x), dtype=symbol_dtype(pi.shape[1]))
    for lo in range(0, len(x), CHUNK):
        clean = x.symbols[lo : lo + CHUNK]
        out[lo : lo + CHUNK] = _draw(heads[clean], rng.random(clean.size))
    return SymbolSequence(out, pi.shape[1])
