"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes results from first principles (full enumeration,
direct linear solves) without touching the library's dynamic programs, so a
shared bug between implementation and test is structurally impossible.  The
one exception is ``binary_posteriors_reference``: a frozen copy of the plain
two-state forward-backward loop, kept so that the optimized smoother can be
required to match it bit for bit.
"""

from itertools import product

import numpy as np

from sdude.errors import ValidationError


def schedule_min_by_product(loss_rows, context_ids, m):
    """Exact minimum total loss over all rule schedules with <= min(n(c), m)
    switches inside each context chain, by full product enumeration.

    loss_rows: (n_int, N) per-position losses; context_ids: (n_int,) ints.
    Only usable for tiny chains (N**L candidates per context).
    """
    total = 0.0
    for cid in np.unique(context_ids):
        idx = np.nonzero(context_ids == cid)[0]
        w = loss_rows[idx]
        length, num_rules = w.shape
        budget = min(length, m)
        best = np.inf
        for assign in product(range(num_rules), repeat=length):
            switches = sum(a != b for a, b in zip(assign, assign[1:]))
            if switches > budget:
                continue
            cost = sum(w[p, assign[p]] for p in range(length))
            if cost < best:
                best = cost
        total += best
    return total


def hmm_posteriors_by_enumeration(z, transitions_per_step, initial, pi):
    """Smoothing posteriors by summation over all hidden state paths.

    transitions_per_step[t] is the matrix governing the step t -> t+1
    (0-based), so its length is n-1.  Only usable for n <= ~12.
    """
    n = len(z)
    num_states = pi.shape[0]
    post = np.zeros((n, num_states))
    total = 0.0
    for path in product(range(num_states), repeat=n):
        p = initial[path[0]] * pi[path[0], z[0]]
        for t in range(1, n):
            p *= transitions_per_step[t - 1][path[t - 1], path[t]] * pi[path[t], z[t]]
        total += p
        for t in range(n):
            post[t, path[t]] += p
    return post / total


def solve_right_inverse_2x2(pi):
    """H = pi^T (pi pi^T)^{-1} for a 2x2 channel via the explicit adjugate."""
    a, b = pi[0]
    c, d = pi[1]
    det = a * d - b * c
    inv = np.array([[d, -b], [-c, a]]) / det
    return inv


def binary_posteriors_reference(z, segments, pi, initial):
    """Scalar-arithmetic forward-backward for two hidden states."""
    n = z.shape[0]
    e0 = pi[0, z].tolist()
    e1 = pi[1, z].tolist()
    alpha = np.empty((n, 2))
    a0 = initial[0] * e0[0]
    a1 = initial[1] * e1[0]
    s = a0 + a1
    if s <= 0.0:
        raise ValidationError("observation has zero probability under the model")
    a0 /= s
    a1 /= s
    alpha[0, 0] = a0
    alpha[0, 1] = a1
    seg_iter = [(start, end, p) for start, end, p in segments]
    si = 0
    for t in range(1, n):
        while t + 1 > seg_iter[si][1]:
            si += 1
        p = seg_iter[si][2]
        b0 = (a0 * p[0, 0] + a1 * p[1, 0]) * e0[t]
        b1 = (a0 * p[0, 1] + a1 * p[1, 1]) * e1[t]
        s = b0 + b1
        if s <= 0.0:
            raise ValidationError("observation has zero probability under the model")
        a0, a1 = b0 / s, b1 / s
        alpha[t, 0] = a0
        alpha[t, 1] = a1
    beta = np.empty((n, 2))
    b0 = b1 = 1.0
    beta[n - 1, 0] = beta[n - 1, 1] = 1.0
    si = len(seg_iter) - 1
    for t in range(n - 2, -1, -1):
        while t + 2 < seg_iter[si][0]:
            si -= 1
        p = seg_iter[si][2]
        w0 = e0[t + 1] * b0
        w1 = e1[t + 1] * b1
        c0 = p[0, 0] * w0 + p[0, 1] * w1
        c1 = p[1, 0] * w0 + p[1, 1] * w1
        s = c0 + c1
        b0, b1 = c0 / s, c1 / s
        beta[t, 0] = b0
        beta[t, 1] = b1
    post = alpha * beta
    post /= post.sum(axis=1, keepdims=True)
    return post
