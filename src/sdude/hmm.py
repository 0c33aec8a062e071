"""Exact smoothing posteriors for a Markov chain with known parameter switches.

Given the noisy sequence, a tiling of 1..n into segments each carrying its
own transition matrix, and the channel, the normalized forward and backward
recursions produce the exact per-position posterior of the hidden state
given the whole observation.  The chain is initialized from the first
segment's stationary law; the transition used for the step t -> t+1 is the
matrix of the segment containing t+1, so a new segment's dynamics apply
already on the step entering it.  Per-step renormalization keeps the
recursions stable for sequences of millions of symbols.  One (n, q) array
holds the result: the forward pass writes its messages into it, and the
backward pass multiplies each of its messages into the same position as it
goes, so no backward array is kept; each position is then divided by the
sum of its q products, added in state order, ``core.CHUNK`` positions at
a time.  Beside the result, the smoother holds a few states per block and
buffers of a fixed number of steps.

Every clean alphabet takes one lock-step path.  A normalized filter forgets
where it started: run from different states, its float64 values become equal
bit for bit within a few dozen to a hundred steps.  So each segment's steps
are cut into blocks of ``BLOCK`` steps, and numpy steps every block at once:
pass 1 runs each block from the state before the segment, pass 2 reruns each
block from its predecessor's pass-1 end until its values equal pass 1's.
Block 0 starts exact, so a block is exact once every block before it has
coalesced with its pass-1 run; this is the coupling check of Propp and
Wilson's exact sampling ("Exact sampling with coupled Markov chains", 1996).
Both directions run the same two passes: pass 1 keeps each block's end
state, and pass 2 (``_rerun``) replays pass 1 beside itself from the
segment's start instead of reading its values back.  They differ only in
what becomes of the states.  The forward pass 1 makes ``TILE`` steps of
every block in a buffer and copies them into the result, and pass 2
overwrites them there until its blocks coalesce.  The backward pass may only
multiply an exact message into the result, and exactness is known only after
pass 2, so pass 3 runs the exact blocks again from their exact starts,
multiplying each message in.  Each ufunc call is one IEEE operation of the
scalar recursion, in its order, so two-state posteriors equal the plain
two-state recursion bit for bit.  What the blocks leave, position 0, a
segment's tail shorter than a block and the rest of a segment after a block
that never coalesced (a filter that never forgets, such as an identity
transition), runs in one step loop on Python floats that does the same
operations in the same order, for any number of states, and reads the
symbols a chunk at a time.  An observation of zero probability under the
model raises ``ValidationError`` instead of returning NaN rows; so does one
whose scaled messages underflow to zero.

``map_denoise`` scores a chunk of positions at a time without BLAS, so its
decisions depend on neither the BLAS library nor its threads.
"""

from __future__ import annotations

import numpy as np

from .core import CHUNK, ChannelModel, LossMatrix, SymbolSequence, symbol_dtype
from .errors import ValidationError
from .sources import is_stochastic, stationary_distribution

_IMPOSSIBLE = "observation has zero probability under the model, or its probability underflowed"


def _validate_segments(segments, n: int, num_states: int) -> list[tuple[int, int, np.ndarray]]:
    if n < 1:
        raise ValidationError("cannot smooth an empty sequence")
    cleaned = []
    expected_start = 1
    for start, end, transition in segments:
        if not all(isinstance(bound, (int, np.integer)) for bound in (start, end)):
            raise ValidationError(f"segment bounds must be integers, got ({start!r}, {end!r})")
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
    """One recursion step for every column of ``state`` (q, blocks), into ``out``.

    ``emit`` holds each column's q emission probabilities.  Each product,
    sum and quotient is its own ufunc call, in the order of the scalar
    loop's expression, so each column gets the bits a scalar run from its
    state would get.  ``work`` holds the transition columns and scratch
    buffers.
    """
    cols, u, v, w, s = work
    if forward:
        # b_x = ((a0 * p0x + a1 * p1x) + ...) * e_x
        terms = state
    else:
        # c_x = (px0 * (e0 * b0) + px1 * (e1 * b1)) + ...
        terms = np.multiply(emit, state, out=w)
    np.multiply(terms[0], cols[0], out=u)
    for y in range(1, len(cols)):
        np.multiply(terms[y], cols[y], out=v)
        np.add(u, v, out=u)
    if forward:
        np.multiply(u, emit, out=u)
    # The rows add in order, as in the step loop; one state adds 0.0, which is exact.
    np.add(u[0], u[1] if len(u) > 1 else 0.0, out=s)
    for y in range(2, len(u)):
        np.add(s, u[y], out=s)
    np.divide(u, s, out=out)


def _work(cols, blocks):
    """``_step``'s transition columns and scratch buffers for ``blocks`` columns."""
    shape = (len(cols), blocks)
    return cols, np.empty(shape), np.empty(shape), np.empty(shape), np.empty(blocks)


# Steps whose states are made in one contiguous buffer and then copied into
# the result together: a step's states are a block apart there, and touching
# each block once per step instead of once per tile made the smoother about
# twice as slow.
TILE = 16


def _run(state, by_step, pi, work, forward, tile):
    """Step the columns of ``state`` (q, c) through every row of ``by_step`` (steps, c).

    The states after steps j..j+t-1 fill ``tile[:t]`` (TILE, q, c), and then
    ``(j, t)`` is yielded; the last state is left in ``tile[t - 1]``.
    """
    emits = np.empty((len(state), TILE, state.shape[1]))
    for j in range(0, len(by_step), TILE):
        t = min(TILE, len(by_step) - j)
        np.take(pi, by_step[j : j + t], axis=1, out=emits[:, :t])
        for i in range(t):
            _step(state, emits[:, i], tile[i], work, forward)
            state = tile[i]
        yield j, t


def _blockwise(dest, tile):
    """``dest`` and ``tile`` (t, q, c) as (c, t, q) views along which ``dest`` ascends in memory.

    Walking ``dest`` a block at a time reads each block's part of the result
    once.  numpy walks an operand with a negative stride several times more
    slowly, so the axes that run backwards in ``dest`` (the backward pass's
    steps and blocks) are flipped in both, and the flipped tile is copied.
    """
    flip = tuple(slice(None, None, -1 if stride < 0 else 1) for stride in dest.strides)
    src = tile[flip]
    if src.strides != tile.strides:
        src = src.copy()
    return dest[flip].transpose(2, 0, 1), src.transpose(2, 0, 1)


def _lockstep(symbols, start, pi, cols, forward, out):
    """Run equal blocks of steps into ``out``; returns (exact end state, exact blocks).

    ``symbols`` (blocks, steps) holds the emitting symbol of each step in
    step order and ``start`` the exact state before the first step.
    ``out[j, :, b]`` (steps, q, blocks) is where step j of block b goes: the
    forward pass writes its states there, the backward pass multiplies them
    in.  Blocks below the returned count are exact; beyond them ``out``
    holds guesses when forward and is left as it was when backward.  Apart
    from ``out``, only a few states per block are held.
    """
    blocks, steps = symbols.shape
    q = len(cols)
    by_step = symbols.T
    tile = np.empty((TILE, q, blocks))
    # Pass 1: every block from the state before the segment.  Block 0 starts
    # there for real, so its values are exact; the others start from a guess.
    state = np.empty((q, blocks))
    state.T[...] = start
    for j, t in _run(state, by_step, pi, _work(cols, blocks), forward, tile):
        if forward:
            dest, src = _blockwise(out[j : j + t], tile[:t])
            dest[...] = src
    ends = tile[t - 1].copy()
    # Pass 2: block b again, from block b-1's pass-1 end, until its values
    # equal pass 1's; from that step on they stay equal.  Block b thus starts
    # exact when every block before it has coalesced, so blocks are exact up
    # to the first one that has not by its last step, and that one too,
    # having been rerun from an exact start all the way.  With one block
    # there is nothing to rerun, and the first check returns.  Forward, the
    # rerun states replace pass 1's guesses in ``out`` as they are made.
    same = _rerun(ends[:, :-1], start, by_step[:, 1:], pi, cols, forward, out[:, :, 1:])
    exact = blocks if same is None else 2 + int(np.argmin(same.all(axis=0)))
    if forward:
        return out[-1, :, exact - 1], exact
    # Pass 3: the exact blocks once more, from their exact starts, each state
    # multiplied into ``out``.
    state = np.empty((q, exact))
    state.T[0] = start
    state[:, 1:] = ends[:, : exact - 1]
    tile = tile[:, :, :exact]
    for j, t in _run(state, by_step[:, :exact], pi, _work(cols, exact), False, tile):
        dest, src = _blockwise(out[j : j + t, :, :exact], tile[:t])
        dest *= src
    return tile[t - 1, :, exact - 1], exact


def _rerun(state, start, by_step, pi, cols, forward, values):
    """Pass 2: step the columns of ``state`` (q, c) beside pass 1, replayed from ``start``.

    Returns None once every column equals its replay, else the last step's
    per-state comparison.  Pass 1's states are not read back: pass 1 runs
    again in the second half of each step's columns.  Forward, each pass-2
    state overwrites pass 1's guess in ``values`` (steps, q, c) until then.
    """
    q, c = state.shape
    pair, new = np.empty((q, 2, c)), np.empty((q, 2, c))
    pair[:, 0] = state
    pair[:, 1].T[...] = start
    same = np.empty((q, c), dtype=bool)
    emit, work = np.empty((q, 2, c)), _work(cols, 2 * c)
    for row, dest in zip(by_step, values):
        np.take(pi, row, axis=1, out=emit[:, 0])
        emit[:, 1] = emit[:, 0]
        _step(pair.reshape(q, -1), emit.reshape(q, -1), new.reshape(q, -1), work, forward)
        if forward:
            dest[...] = new[:, 0]
        np.equal(new[:, 0], new[:, 1], out=same)
        if same.all():
            return None
        pair, new = new, pair
    return same


def _pass(state, z, lo, hi, p, pi, out, forward):
    """Advance the exact state over steps lo..hi of one segment, into ``out``.

    The forward pass visits lo, ..., hi, emits ``z[t]`` at step t and stores
    each state in ``out[:, t]``; the backward pass visits hi, ..., lo, emits
    ``z[t + 1]`` and multiplies each state into ``out[:, t]``, which holds
    the forward message there.  Both read the symbols and ``out`` (q, n)
    once, in step order.  Whole blocks go through ``_lockstep``; what
    follows its exact blocks (a tail shorter than a block, or everything
    after a block that never coalesced) runs in one step loop on Python
    floats, doing ``_step``'s IEEE operations in its order.  Returns the
    state after the last step, as a list.
    """
    q = len(state)
    steps = range(lo, hi + 1)
    symbols = z[lo : hi + 1]
    dest = out[:, lo : hi + 1]
    # weights[y, x] weighs term y of state x's sum.
    weights = p
    if not forward:
        steps = steps[::-1]
        symbols = z[lo + 1 : hi + 2][::-1]
        dest = dest[:, ::-1]
        weights = p.T
    done = 0
    blocks = len(symbols) // BLOCK
    if blocks:
        whole = symbols[: blocks * BLOCK].reshape(blocks, BLOCK)
        # Splitting the step axis into (block, step) is always a view of ``out``.
        blocked = dest[:, : blocks * BLOCK].reshape(q, blocks, BLOCK).transpose(2, 0, 1)
        with np.errstate(all="ignore"):
            end, exact = _lockstep(whole, state, pi, tuple(weights[:, :, None]), forward, blocked)
        done = exact * BLOCK
        state = end.tolist()
        if state[0] != state[0]:
            # A zero normalizer in the exact run left NaN, which persists.
            raise ValidationError(_IMPOSSIBLE)
    # The forward step weighs the sum by the emissions after it, the
    # backward step weighs each term before it; the other side multiplies
    # by 1.0, which is exact, so one loop serves both.
    emits = [tuple(col) for col in pi.T.tolist()]
    ones = [(1.0,) * q] * len(emits)
    before, after = (ones, emits) if forward else (emits, ones)
    cols = weights.T.tolist()
    rows = [memoryview(row) for row in out]
    a, w, b = list(state), list(state), list(state)
    xs, ys = range(q), range(1, q)
    # A chunk at a time, so a segment that never coalesces holds no list of all its symbols.
    for lo in range(done, len(symbols), CHUNK):
        for t, zt in zip(steps[lo : lo + CHUNK], symbols[lo : lo + CHUNK].tolist()):
            eb, ea = before[zt], after[zt]
            for y in xs:
                w[y] = eb[y] * a[y]
            for x in xs:
                col = cols[x]
                acc = w[0] * col[0]
                for y in ys:
                    acc += w[y] * col[y]
                b[x] = acc * ea[x]
            s = b[0]
            for y in ys:
                s += b[y]
            for x in xs:
                a[x] = v = b[x] / s
                rows[x][t] = v if forward else rows[x][t] * v
    return a


def _posteriors(z, segments, pi, initial):
    """Scaled forward-backward; with two states, bit for bit the plain recursion's.

    One (n, q) array holds the result.  Position 0 is a forward step from
    ``initial`` through the identity matrix, whose sums ``a_x * 1 + 0 + ...``
    are ``a_x`` exactly.  Then each segment's forward steps go through
    ``_pass`` into the array's transpose, and each segment's backward steps,
    from the last, multiply into it; position n - 1's backward message is 1,
    which leaves its forward one as it is.  Each position is then divided by
    the sum of its q products, added in state order.  A zero normalizer (the
    observation is impossible, or underflowed) surfaces as NaN in a
    lock-step run or as ZeroDivisionError in the step loop; either raises
    ``ValidationError``.
    """
    n = len(z)
    q = len(initial)
    post = np.empty((n, q))
    f = post.T
    try:
        state = _pass(initial.tolist(), z, 0, 0, np.eye(q), pi, f, True)
        # Both passes give the step between positions t and t+1 (0-based)
        # the matrix of the segment holding t+1.
        for start, end, p in segments:
            state = _pass(state, z, max(start - 1, 1), end - 1, p, pi, f, True)
        state = [1.0] * q
        for start, end, p in reversed(segments):
            state = _pass(state, z, max(start - 2, 0), end - 2, p, pi, f, False)
    except ZeroDivisionError:
        raise ValidationError(_IMPOSSIBLE) from None
    _normalize(f)
    return post


def _normalize(f):
    """Divide each column of ``f`` (q, n) by its sum, added in state order, a chunk at a time.

    A position whose sum is zero or not finite would come out as NaN; such an
    observation is impossible under the model (or underflowed), so it is
    rejected before its chunk is divided.  (``min`` is NaN when any sum is.)
    """
    q, n = f.shape
    buffer = np.empty(min(n, CHUNK))
    for lo in range(0, n, CHUNK):
        cols = f[:, lo : lo + CHUNK]
        # ``np.add.reduce`` along a row of more than 8 states would sum pairwise.
        norm = buffer[: cols.shape[1]]
        np.copyto(norm, cols[0])
        for y in range(1, q):
            norm += cols[y]
        if not (norm.min() > 0.0 and norm.max() < np.inf):
            raise ValidationError(_IMPOSSIBLE)
        cols /= norm


def fb_posteriors(z: SymbolSequence, segments, channel: ChannelModel) -> np.ndarray:
    """Posterior P(X_t = x | z) for every position, shape (n, clean_size).

    ``segments`` is a list of (start, end, transition_matrix) with 1-based
    inclusive bounds tiling 1..n.
    """
    if z.alphabet_size != channel.noisy_size:
        raise ValidationError("sequence alphabet does not match the channel's noisy alphabet")
    segs = _validate_segments(segments, len(z), channel.clean_size)
    return _posteriors(z.symbols, segs, channel.pi, stationary_distribution(segs[0][2]))


def map_denoise(posteriors: np.ndarray, loss: LossMatrix) -> SymbolSequence:
    """Loss-minimizing reconstruction per position, ties to the smallest symbol.

    Symbol r costs ``post[t, 0] * lam[0, r] + post[t, 1] * lam[1, r] + ...``, summed in state
    order; a decision moves up to r only where r costs strictly less than every symbol below it.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2 or posteriors.shape[1] != loss.clean_size:
        raise ValidationError("posteriors must have one row per position over the clean alphabet")
    out = np.zeros(len(posteriors), dtype=symbol_dtype(loss.recon_size))
    rows = np.empty((3, min(len(out), CHUNK)))
    for lo in range(0, len(out), CHUNK):
        cols, dest = posteriors[lo : lo + CHUNK].T, out[lo : lo + CHUNK]
        best, cost, term = rows[:, : len(dest)]
        for r, weights in enumerate(loss.lam.T):
            acc = np.multiply(cols[0], weights[0], out=cost if r else best)
            for x in range(1, len(cols)):
                np.add(acc, np.multiply(cols[x], weights[x], out=term), out=acc)
            if r:
                np.maximum(dest, np.less(acc, best) * dest.dtype.type(r), out=dest)
                np.minimum(best, acc, out=best)
    return SymbolSequence(out, loss.recon_size)
