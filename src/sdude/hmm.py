"""Exact smoothing posteriors for a Markov chain with known parameter switches.

Given the noisy sequence, a tiling of 1..n into segments each carrying its
own transition matrix, and the channel, the normalized forward and backward
recursions produce the exact per-position posterior of the hidden state
given the whole observation.  The chain is initialized from the first
segment's stationary law; the transition used for the step t -> t+1 is the
matrix of the segment containing t+1, so a new segment's dynamics apply
already on the step entering it.  Per-step renormalization keeps the
recursions stable for sequences of millions of symbols.

Two hidden states (the binary experiments) take a lock-step path.  A
normalized two-state filter forgets where it started: run from different
states, its float64 values become equal bit for bit within a few dozen to a
hundred steps.  So each segment's steps are cut into blocks of ``BLOCK``
steps, and numpy steps every block at once: pass 1 runs each block from
the state before the segment, pass 2 reruns each block from its
predecessor's pass-1 end until its values equal pass 1's.  Block 0 starts
exact, so a block is exact once every block before it has coalesced with
its pass-1 run; this is the coupling check of Propp and Wilson's exact
sampling ("Exact sampling with coupled Markov chains", 1996).  Each ufunc
call is one IEEE operation of the scalar recursion, in its order, so the
posteriors equal the plain two-state recursion bit for bit.  A scalar loop
on Python floats runs what the blocks leave: a segment's tail shorter than
a block, and the rest of a segment after a block that never coalesced (a
filter that never forgets, such as an identity transition).  Larger clean
alphabets take a vectorized per-step path.  Both raise ``ValidationError``
when the observation has zero probability under the model, instead of
returning NaN rows.
"""

from __future__ import annotations

from array import array

import numpy as np

from .core import ChannelModel, LossMatrix, SymbolSequence
from .errors import ValidationError
from .sources import is_stochastic, stationary_distribution

_IMPOSSIBLE = "observation has zero probability under the model"


def _validate_segments(segments, n: int, num_states: int) -> list[tuple[int, int, np.ndarray]]:
    cleaned = []
    expected_start = 1
    for start, end, transition in segments:
        start, end = int(start), int(end)
        p = np.asarray(transition, dtype=np.float64)
        if start != expected_start or end < start:
            raise ValidationError("segments must tile 1..n in order without gaps")
        if p.shape != (num_states, num_states):
            raise ValidationError("each transition matrix must be square over the clean alphabet")
        if not is_stochastic(p):
            raise ValidationError("transition matrix rows must be distributions")
        cleaned.append((start, end, p))
        expected_start = end + 1
    if expected_start != n + 1:
        raise ValidationError(f"segments must tile 1..{n} exactly")
    return cleaned


# Steps per lock-step block.  A block must be long enough for the filter to
# forget its start (on 3*10^5-step chains with flip rates 0.001-0.4 through
# BSC(0.1), every block coalesced within 20-53 steps of pass 2) and short
# enough that the blocks are many.
BLOCK = 256


def _step(state, emit, out, work, forward):
    """One recursion step for every column of ``state`` (2, blocks), into ``out``.

    ``emit`` holds each column's two emission probabilities.  Each product,
    sum and quotient is its own ufunc call, in the order of the scalar
    loop's expression, so each column gets the bits a scalar run from its
    state would get.  ``work`` holds the transition columns and scratch
    buffers.
    """
    pa, pb, u, v, w, s = work
    if forward:
        # b_x = (a0 * p0x + a1 * p1x) * e_x
        np.multiply(state[0], pa, out=u)
        np.multiply(state[1], pb, out=v)
        np.add(u, v, out=u)
        np.multiply(u, emit, out=u)
    else:
        # c_x = px0 * (e0 * b0) + px1 * (e1 * b1)
        np.multiply(emit, state, out=w)
        np.multiply(w[0], pa, out=u)
        np.multiply(w[1], pb, out=v)
        np.add(u, v, out=u)
    np.add(u[0], u[1], out=s)
    np.divide(u, s, out=out)


def _work(cols, blocks):
    """``_step``'s transition columns and scratch buffers for ``blocks`` columns."""
    return (*cols, *(np.empty((2, blocks)) for _ in range(3)), np.empty(blocks))


def _lockstep(symbols, start, pi, cols, forward):
    """States after every step of whole blocks, and how many blocks are exact.

    ``symbols`` (blocks, BLOCK) holds the emitting symbol of each step in
    step order and ``start`` the exact state before the first step.  Returns
    ``(values, exact)``: ``values[j, :, b]`` is the state after step j of
    block b, equal to the exact run's for every block below ``exact``.
    """
    blocks = symbols.shape[0]
    emit = np.empty((2, BLOCK, blocks))
    for x in range(2):
        emit[x] = pi[x][symbols.T]
    values = np.empty((BLOCK, 2, blocks))
    # Pass 1: every block from the state before the segment.  Block 0 starts
    # there for real, so its values are exact; the others start from a guess.
    state = np.empty((2, blocks))
    state[0], state[1] = start
    work = _work(cols, blocks)
    for j in range(BLOCK):
        _step(state, emit[:, j], values[j], work, forward)
        state = values[j]
    # Pass 2: block b again, from block b-1's pass-1 end, overwriting until
    # its values equal pass 1's; from that step on they stay equal.  Block b
    # thus starts exact when every block before it has coalesced, so blocks
    # are exact up to the first one that has not by its last step, and that
    # one too, having been rerun from an exact start all the way.  With one
    # block there is nothing to rerun, and the first check returns.
    later = values[:, :, 1:]
    state = values[-1, :, :-1].copy()
    new = np.empty((2, blocks - 1))
    same = np.empty((2, blocks - 1), dtype=bool)
    work = _work(cols, blocks - 1)
    for j in range(BLOCK):
        _step(state, emit[:, j, 1:], new, work, forward)
        np.equal(new, later[j], out=same)
        np.copyto(later[j], new)
        if same.all():
            return values, blocks
        state = later[j]
    return values, 2 + int(np.argmin(same.all(axis=0)))


def _pass(state, z, lo, hi, p, pi, out, forward):
    """Advance the exact state over steps lo..hi of one segment, storing each.

    The forward pass visits lo, ..., hi and emits ``z[t]`` at step t; the
    backward pass visits hi, ..., lo and emits ``z[t + 1]``.  Whole blocks
    go through ``_lockstep``; the scalar loop takes the steps after its
    exact blocks, that is, a tail shorter than a block or everything after
    a block that never coalesced.  Returns the state after the last step.
    """
    done = 0
    blocks = (hi - lo + 1) // BLOCK
    if blocks:
        size = blocks * BLOCK
        if forward:
            symbols = z[lo : lo + size].reshape(blocks, BLOCK)
            cols = (p[0][:, None], p[1][:, None])
        else:
            symbols = z[hi + 2 - size : hi + 2].reshape(blocks, BLOCK)[::-1, ::-1]
            cols = (p[:, :1], p[:, 1:])
        with np.errstate(all="ignore"):
            values, exact = _lockstep(symbols, state, pi, cols, forward)
        done = exact * BLOCK
        for x, buf in enumerate(out):
            dest = np.frombuffer(buf)
            if forward:
                dest = dest[lo : lo + done].reshape(exact, BLOCK)
            else:
                dest = dest[hi + 1 - done : hi + 1].reshape(exact, BLOCK)[::-1, ::-1]
            dest[...] = values[:, x, :exact].T
        state = values[-1, :, exact - 1].tolist()
        if state[0] != state[0]:
            # A zero normalizer in the exact run left NaN, which persists.
            raise ValidationError(_IMPOSSIBLE)
    a0, a1 = state
    c0, c1 = out
    e0 = tuple(pi[0].tolist())
    e1 = tuple(pi[1].tolist())
    p00, p01, p10, p11 = p.ravel().tolist()
    if forward:
        for t, zt in enumerate(z[lo + done : hi + 1].tolist(), lo + done):
            b0 = (a0 * p00 + a1 * p10) * e0[zt]
            b1 = (a0 * p01 + a1 * p11) * e1[zt]
            s = b0 + b1
            a0 = b0 / s
            a1 = b1 / s
            c0[t] = a0
            c1[t] = a1
    else:
        steps = range(hi - done, lo - 1, -1)
        for t, zt in zip(steps, z[lo + 1 : hi + 2 - done][::-1].tolist()):
            w0 = e0[zt] * a0
            w1 = e1[zt] * a1
            b0 = p00 * w0 + p01 * w1
            b1 = p10 * w0 + p11 * w1
            s = b0 + b1
            a0 = b0 / s
            a1 = b1 / s
            c0[t] = a0
            c1[t] = a1
    return a0, a1


def _binary_posteriors(z, segments, pi, initial):
    """Scaled forward-backward for two hidden states, bit for bit the scalar loop's.

    Each segment's forward steps, then each segment's backward steps from
    the last, go through ``_pass``: whole blocks in lock-step, the rest on
    Python floats stored in flat ``array('d')`` buffers.  A zero normalizer
    (the observation is impossible, or underflowed) surfaces as NaN in the
    lock-step run or as ZeroDivisionError in the scalar loop; either raises
    ``ValidationError``.
    """
    n = len(z)
    f0, f1, g0, g1 = (array("d", [0.0]) * n for _ in range(4))
    i0, i1 = initial.tolist()
    e0, e1 = pi[:, z[0]].tolist()
    try:
        a0 = i0 * e0
        a1 = i1 * e1
        s = a0 + a1
        f0[0] = a0 = a0 / s
        f1[0] = a1 = a1 / s
        # Both passes give the step between positions t and t+1 (0-based)
        # the matrix of the segment holding t+1.
        state = (a0, a1)
        for start, end, p in segments:
            state = _pass(state, z, max(start - 1, 1), end - 1, p, pi, (f0, f1), True)
        g0[n - 1] = g1[n - 1] = 1.0
        state = (1.0, 1.0)
        for start, end, p in reversed(segments):
            state = _pass(state, z, max(start - 2, 0), end - 2, p, pi, (g0, g1), False)
    except ZeroDivisionError:
        raise ValidationError(_IMPOSSIBLE) from None
    post = np.empty((n, 2))
    np.multiply(np.frombuffer(f0), np.frombuffer(g0), out=post[:, 0])
    np.multiply(np.frombuffer(f1), np.frombuffer(g1), out=post[:, 1])
    # The sum of a two-entry row is the one addition post.sum(axis=1) does.
    return _normalized(post, np.add(post[:, 0], post[:, 1]))


def fb_posteriors(z: SymbolSequence, segments, channel: ChannelModel) -> np.ndarray:
    """Posterior P(X_t = x | z) for every position, shape (n, clean_size).

    ``segments`` is a list of (start, end, transition_matrix) with 1-based
    inclusive bounds tiling 1..n.
    """
    n = len(z)
    if z.alphabet_size != channel.noisy_size:
        raise ValidationError("sequence alphabet does not match the channel's noisy alphabet")
    num_states = channel.clean_size
    segs = _validate_segments(segments, n, num_states)
    initial = stationary_distribution(segs[0][2])
    zs = z.symbols
    if num_states == 2:
        return _binary_posteriors(zs, segs, channel.pi, initial)
    return _generic_posteriors(zs, segs, channel.pi, initial)


def _generic_posteriors(z, segments, pi, initial):
    n = z.shape[0]
    num_states = pi.shape[0]
    emissions = pi[:, z].T  # (n, states)
    alpha = np.empty((n, num_states))
    a = initial * emissions[0]
    s = a.sum()
    if s <= 0.0:
        raise ValidationError(_IMPOSSIBLE)
    alpha[0] = a / s
    si = 0
    for t in range(1, n):
        while t + 1 > segments[si][1]:
            si += 1
        a = (alpha[t - 1] @ segments[si][2]) * emissions[t]
        s = a.sum()
        if s <= 0.0:
            raise ValidationError(_IMPOSSIBLE)
        alpha[t] = a / s
    beta = np.empty((n, num_states))
    beta[n - 1] = 1.0
    si = len(segments) - 1
    for t in range(n - 2, -1, -1):
        while t + 2 < segments[si][0]:
            si -= 1
        b = segments[si][2] @ (emissions[t + 1] * beta[t + 1])
        s = b.sum()
        if s <= 0.0:
            raise ValidationError(_IMPOSSIBLE)
        beta[t] = b / s
    post = alpha * beta
    return _normalized(post, post.sum(axis=1))


def _normalized(post, norm):
    """Divide each row of the unnormalized posteriors by its sum ``norm``, in place.

    A row whose sum is zero or not finite would come out as NaN; such an
    observation is impossible under the model (or underflowed), so it is
    rejected once here, on the vector of normalizers, before the divide.
    (``min`` is NaN when any sum is.)
    """
    if not (norm.min() > 0.0 and norm.max() < np.inf):
        raise ValidationError(_IMPOSSIBLE)
    post /= norm[:, None]
    return post


def map_denoise(posteriors: np.ndarray, loss: LossMatrix) -> SymbolSequence:
    """Loss-minimizing reconstruction per position, ties to the smallest symbol."""
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2 or posteriors.shape[1] != loss.clean_size:
        raise ValidationError("posteriors must have one row per position over the clean alphabet")
    costs = posteriors @ loss.lam
    return SymbolSequence(np.argmin(costs, axis=1), loss.recon_size)
