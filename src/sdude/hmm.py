"""Exact smoothing posteriors for a Markov chain with known parameter switches.

Given the noisy sequence, a tiling of 1..n into segments each carrying its
own transition matrix, and the channel, the normalized forward and backward
recursions produce the exact per-position posterior of the hidden state
given the whole observation.  The chain is initialized from the first
segment's stationary law; the transition used for the step t -> t+1 is the
matrix of the segment containing t+1, so a new segment's dynamics apply
already on the step entering it.  Per-step renormalization keeps the
recursions stable for sequences of millions of symbols.

Two hidden states (the binary experiments) take a scalar path: a two-state
step is too small for numpy to pay off, so that loop runs on Python floats
and ``array('d')`` buffers, which is several times faster than numpy
scalars and gives bit-identical posteriors to the plain two-state
recursion.  Larger clean alphabets take a vectorized per-step path.  Both
raise ``ValidationError`` when the observation has zero probability under
the model, instead of returning NaN rows.
"""

from __future__ import annotations

from array import array

import numpy as np

from .core import ChannelModel, LossMatrix, SymbolSequence
from .errors import ValidationError
from .sources import stationary_distribution


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
        if p.min() < 0 or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
            raise ValidationError("transition matrix rows must be distributions")
        cleaned.append((start, end, p))
        expected_start = end + 1
    if expected_start != n + 1:
        raise ValidationError(f"segments must tile 1..{n} exactly")
    return cleaned


def _binary_posteriors(z, segments, pi, initial):
    """Scaled forward-backward for two hidden states, on Python floats.

    Each step is a handful of scalar products, so the cost is interpreter
    overhead, not arithmetic.  The loops therefore work on Python floats
    (unpacked once per segment, emissions looked up in 2-tuples by symbol)
    and store messages in flat ``array('d')`` buffers, so no numpy scalar
    or numpy item access happens inside the loop.  A Python float operation is
    the same IEEE double operation as the numpy float64 one, and the
    operations run in the same order as the plain two-state recursion, so
    the posteriors equal that recursion's bit for bit.  A zero normalizer
    (the observation is impossible, or underflowed) surfaces as the
    division's ZeroDivisionError.
    """
    n = len(z)
    zl = z.tolist()
    e0 = tuple(pi[0].tolist())
    e1 = tuple(pi[1].tolist())
    f0, f1, g0, g1 = (array("d", [0.0]) * n for _ in range(4))
    i0, i1 = initial.tolist()
    try:
        a0 = i0 * e0[zl[0]]
        a1 = i1 * e1[zl[0]]
        s = a0 + a1
        a0 /= s
        a1 /= s
        f0[0] = a0
        f1[0] = a1
        # Both passes give the step between positions t and t+1 (0-based)
        # the matrix of the segment holding t+1.
        for start, end, p in segments:
            p00, p01, p10, p11 = p.ravel().tolist()
            for t in range(max(start - 1, 1), end):
                zt = zl[t]
                b0 = (a0 * p00 + a1 * p10) * e0[zt]
                b1 = (a0 * p01 + a1 * p11) * e1[zt]
                s = b0 + b1
                a0 = b0 / s
                a1 = b1 / s
                f0[t] = a0
                f1[t] = a1
        b0 = b1 = 1.0
        g0[n - 1] = g1[n - 1] = 1.0
        for start, end, p in reversed(segments):
            p00, p01, p10, p11 = p.ravel().tolist()
            for t in range(end - 2, max(start - 2, 0) - 1, -1):
                zt = zl[t + 1]
                w0 = e0[zt] * b0
                w1 = e1[zt] * b1
                c0 = p00 * w0 + p01 * w1
                c1 = p10 * w0 + p11 * w1
                s = c0 + c1
                b0 = c0 / s
                b1 = c1 / s
                g0[t] = b0
                g1[t] = b1
    except ZeroDivisionError:
        raise ValidationError("observation has zero probability under the model") from None
    post = np.empty((n, 2))
    np.multiply(np.frombuffer(f0), np.frombuffer(g0), out=post[:, 0])
    np.multiply(np.frombuffer(f1), np.frombuffer(g1), out=post[:, 1])
    return _normalized(post)


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
        raise ValidationError("observation has zero probability under the model")
    alpha[0] = a / s
    si = 0
    for t in range(1, n):
        while t + 1 > segments[si][1]:
            si += 1
        a = (alpha[t - 1] @ segments[si][2]) * emissions[t]
        s = a.sum()
        if s <= 0.0:
            raise ValidationError("observation has zero probability under the model")
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
            raise ValidationError("observation has zero probability under the model")
        beta[t] = b / s
    return _normalized(alpha * beta)


def _normalized(post):
    """Divide each row of the unnormalized posteriors by its sum, in place.

    A row whose sum is zero or not finite would come out as NaN; such an
    observation is impossible under the model (or underflowed), so it is
    rejected once here, on the vector of normalizers, before the divide.
    """
    norm = post.sum(axis=1, keepdims=True)
    if not np.all((norm > 0.0) & np.isfinite(norm)):
        raise ValidationError("observation has zero probability under the model")
    post /= norm
    return post


def map_denoise(posteriors: np.ndarray, loss: LossMatrix) -> SymbolSequence:
    """Loss-minimizing reconstruction per position, ties to the smallest symbol."""
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2 or posteriors.shape[1] != loss.clean_size:
        raise ValidationError("posteriors must have one row per position over the clean alphabet")
    costs = posteriors @ loss.lam
    return SymbolSequence(np.argmin(costs, axis=1), loss.recon_size)
