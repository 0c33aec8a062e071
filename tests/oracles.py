"""Independent brute-force oracles used to pin expected values in tests.

Everything here recomputes results from first principles (full enumeration,
direct linear solves) without touching the library's dynamic programs, so a
shared bug between implementation and test is structurally impossible.  The
exceptions are frozen copies of earlier, plainer implementations, kept so
that the optimized ones can be required to match them bit for bit:
``binary_posteriors_reference`` (the two-state forward-backward loop),
``generic_posteriors_reference`` (the per-step numpy forward-backward),
``fused_reference`` (the switching DP run one context chain at a time),
``backward_batch_reference`` (the batched walk that summed int16 rule
changes along each chain), ``cumulative_loss_reference`` (the pairwise
float sum of the picked losses),
``schedule_to_json_reference`` (the per-position schedule dump),
``partition_reference`` (the int64 argsort build of a context partition),
``pbm_header_reference`` (the byte-by-byte PBM header tokenizer),
``context_of`` / ``occurrences`` / ``context_symbols`` (a partition's
per-position id, occurrence list and window decode, as the partition once
offered them), ``save_matrix`` (the matrix-file writer),
``count_vector`` (per-context symbol counts) and ``b_h_rule`` /
``b_h_mapping`` (the count-based decision rule, computed per symbol), and
``sample_piecewise_reference`` / ``corrupt_reference`` (the simulators with
their three inverse-CDF draws, clamps and per-symbol ``np.searchsorted``
chain loop as they were before ``MarkovComponent.walk``).
``brute_force_min`` enumerates the schedule class itself, so it checks the
estimated-loss dynamic program and the genie alike.

``forward_pass`` and ``DPState`` are not oracles: they run the library's
single-budget solve and keep its inputs, so tests can read the minimum,
recompute one chain's matrices (``matrix_at``) and look up a position's rule
(``denoiser_at``).
"""

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from sdude import (
    ChannelModel,
    ContextPartition,
    EstimatedLossTable,
    LossMatrix,
    MarkovComponent,
    SwitchingSchedule,
    SymbolSequence,
    build_partition,
)
from sdude.errors import RangeError, TooLarge, ValidationError
from sdude.genie import _true_loss_table
from sdude.hmm import _IMPOSSIBLE
from sdude.switching import _solve_chains

BRUTE_FORCE_BUDGET = 10**6


def partition_reference(z, k):
    """(order, unique_ids, starts, counts) of the int64 stable-argsort build.

    The frozen plain build of ``ContextPartition``: context ids packed into
    int64, one stable ``argsort`` and ``np.unique`` over the sorted ids.  The
    order is returned as ``int32``, the dtype the partition keeps it in for
    sequences shorter than 2^31.
    """
    arr = np.asarray(z.symbols, dtype=np.int64)
    n = arr.shape[0]
    ids = np.zeros(n - 2 * k, dtype=np.int64)
    for off in list(range(-k, 0)) + list(range(1, k + 1)):
        ids *= z.alphabet_size
        ids += arr[k + off : n - k + off]
    order = np.argsort(ids, kind="stable")
    unique_ids, starts, counts = np.unique(ids[order], return_index=True, return_counts=True)
    return order.astype(np.int32), unique_ids, starts, counts


def context_of(partition: ContextPartition, t: int) -> int:
    """Context id at 1-based interior position t, packed from its windows."""
    k, n = partition.k, partition.n
    if not k + 1 <= t <= n - k:
        raise RangeError(f"position {t} outside interior {k + 1}..{n - k}")
    arr = partition.z.symbols
    cid = 0
    for s in (*arr[t - k - 1 : t - 1].tolist(), *arr[t : t + k].tolist()):
        cid = cid * partition.noisy_size + s
    return cid


def occurrences(partition: ContextPartition, context_id: int) -> np.ndarray:
    """1-based positions where the context occurs, strictly increasing."""
    cid = int(context_id)
    i = int(np.searchsorted(partition._unique_ids, cid))
    if i == partition._unique_ids.size or int(partition._unique_ids[i]) != cid:
        return np.empty(0, dtype=np.int64)
    s = partition._starts[i]
    return partition._order[s : s + partition._counts[i]] + partition.k + 1


def context_symbols(partition: ContextPartition, context_id: int):
    """Decode a context id into its (left window, right window) symbols."""
    digits = []
    cid = int(context_id)
    for _ in range(2 * partition.k):
        digits.append(cid % partition.noisy_size)
        cid //= partition.noisy_size
    if cid != 0:
        raise RangeError(f"context id {context_id} out of range for k={partition.k}")
    digits.reverse()
    return tuple(digits[: partition.k]), tuple(digits[partition.k :])


def save_matrix(path, matrix) -> None:
    """Write a matrix file: a "rows cols" line, then one line of decimals per row."""
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def count_vector(partition: ContextPartition, z: SymbolSequence, context_id: int) -> np.ndarray:
    """Symbol counts within one context: counts[b] = #{t in occurrences: z_t = b}.

    ``z`` must be ``partition.z``, the sequence the partition was built from.
    A context that never occurs yields the all-zero vector.
    """
    if z is not partition.z:
        raise ValidationError("count_vector takes only the sequence the partition was built from")
    positions = occurrences(partition, context_id)
    return np.bincount(z.symbols[positions - 1], minlength=partition.noisy_size).astype(np.int64)


def b_h_rule(xi, z: int, channel: ChannelModel, loss: LossMatrix) -> int:
    """Reconstruction minimizing xi . H . (lam_col * pi_col(z)); smallest index wins.

    Applied to a vector of per-symbol counts within a context, this is the
    count-based sliding-window decision rule; as a function of z it coincides
    with the best single-symbol rule under the estimated loss for weights xi.
    """
    if not 0 <= z < channel.noisy_size:
        raise RangeError(f"noisy symbol {z} out of range 0..{channel.noisy_size - 1}")
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != (channel.noisy_size,):
        raise ValidationError(f"xi must have shape ({channel.noisy_size},)")
    weights = xi @ channel.h_matrix                       # (clean,)
    costs = weights @ (loss.lam * channel.pi[:, z][:, None])
    return int(np.argmin(costs))


def b_h_mapping(xi, channel: ChannelModel, loss: LossMatrix) -> np.ndarray:
    """The full induced mapping z -> b_h_rule(xi, z)."""
    return np.array(
        [b_h_rule(xi, z, channel, loss) for z in range(channel.noisy_size)],
        dtype=np.int64,
    )


@dataclass(eq=False)
class DPState:
    """Forward-pass output: the solved DP of every context chain.

    ``schedule`` is the optimal schedule and ``forward_min`` the
    unnormalized minimum cumulative estimated loss it attains.  No
    per-position matrix is stored: ``matrix_at(t)`` recomputes the one chain
    that holds t.
    """

    schedule: SwitchingSchedule
    codes: np.ndarray
    ell: np.ndarray
    forward_min: float

    @property
    def partition(self) -> ContextPartition:
        return self.schedule.partition

    def matrix_at(self, t: int) -> np.ndarray:
        """M_t (rows: allowed shifts + 1; last column: row argmin as a float).

        Recomputed by ``_forward_chain`` from the occurrences of t's context
        up to and including t: the library kernel keeps no DP values.
        """
        chain = occurrences(self.partition, context_of(self.partition, t))
        idx = chain[: np.searchsorted(chain, t) + 1] - self.schedule.k - 1
        M, argm = _forward_chain(self.ell[self.codes[idx]], self.schedule.m + 1)
        return np.column_stack((M[:, -1], argm[:, -1]))


def forward_pass(z: SymbolSequence, k: int, m: int, tables: EstimatedLossTable) -> DPState:
    """Solve every context chain's DP for the estimated loss, schedule included.

    A budget outside 0..num_interior // 2 raises ``RangeError``, as in the denoiser.
    """
    partition = build_partition(z, k)
    if not 0 <= m <= partition.num_interior // 2:
        raise RangeError(f"shift budget m must satisfy 0 <= m <= {partition.num_interior // 2}")
    codes = z.symbols[k : len(z) - k]
    [(schedule, forward_min)] = _solve_chains(partition, codes, tables.ell, (m,))
    return DPState(schedule=schedule, codes=codes, ell=tables.ell, forward_min=forward_min)


def denoiser_at(schedule: SwitchingSchedule, t: int) -> int:
    """Rule index of ``schedule`` at 1-based interior position t."""
    k, n = schedule.k, schedule.n
    if not k + 1 <= t <= n - k:
        raise RangeError(f"position {t} outside interior {k + 1}..{n - k}")
    return int(schedule.assignment[t - k - 1])


def context_groups(partition):
    """Yield (context_id, 0-based interior indices in chronological order)."""
    for i, cid in enumerate(partition._unique_ids):
        s = partition._starts[i]
        yield int(cid), partition._order[s : s + partition._counts[i]]


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


def generic_posteriors_reference(z, segments, pi, initial):
    """Scaled forward-backward for any number of hidden states, one numpy step at a time.

    The smoother's former path for clean alphabets other than two, kept as
    the q > 2 reference at lengths that enumeration cannot reach.
    """
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
    norm = post.sum(axis=1)
    if not (norm.min() > 0.0 and norm.max() < np.inf):
        raise ValidationError(_IMPOSSIBLE)
    post /= norm[:, None]
    return post


def _forward_chain(w, levels):
    """DP values along one context chain.

    w holds the per-occurrence loss rows (length L, one entry per rule).
    Returns (M, argm) with M of shape (levels, L, N) and argm the per-row
    argmin indices.  Row i of M allows at most i shifts.  The recursion per
    level i >= 1 is, at a repeat occurrence,
        M[i, p] = w[p] + min(M[i, p-1], min_j M[i-1, p-1, j])
    and M[i, 0] = w[0]; it is evaluated through cumulative sums S and the
    shifted running minimum of min_j M[i-1] - S, which reproduces the
    recursion while keeping every chain pass a vectorized scan.
    """
    L = w.shape[0]
    S = np.cumsum(w, axis=0)
    M = np.empty((levels,) + w.shape, dtype=np.float64)
    M[0] = S
    if levels > 1:
        best_prev = M[0].min(axis=1)
        for i in range(1, levels):
            level = M[i]
            level[0] = w[0]
            if L > 1:
                floor = np.minimum.accumulate(best_prev[: L - 1, None] - S[: L - 1], axis=0)
                level[1:] = S[1:] + np.minimum(0.0, floor)
            best_prev = level.min(axis=1)
    return M, M.argmin(axis=2)


def _backward_chain(M, argm):
    """Recover one chain's optimal rule run from its forward values.

    Walking from the last occurrence toward the first with current row r and
    rule q, a shift is recorded at occurrence p exactly when the forward
    recursion's shift branch was strictly better there:
    M[r-1, p-1, best] < M[r, p-1, q].  Ties keep the current rule.
    """
    levels, L, _ = M.shape
    assign = np.empty(L, dtype=np.int64)
    r = levels - 1
    q = int(argm[r, L - 1])
    upper = L - 1
    switches = 0
    while upper > 0 and r > 0:
        switch_branch = M[r - 1, :upper, :].min(axis=1)
        stay_branch = M[r, :upper, q]
        hits = np.nonzero(switch_branch < stay_branch)[0]
        if hits.size == 0:
            break
        p = int(hits[-1]) + 1
        assign[p : upper + 1] = q
        r -= 1
        q = int(argm[r, p - 1])
        upper = p - 1
        switches += 1
    assign[: upper + 1] = q
    return assign, switches


def fused_reference(partition, loss_rows, m, levels=None):
    """Both switching-DP passes, one context chain at a time.

    The library's former production implementation, kept without its
    memory-budget check.  loss_rows: (n_int, N) per-position losses.
    Returns (assignment, switches per context in the partition's group
    order, unnormalized minimum).
    """
    n_int, num_rules = loss_rows.shape
    if levels is None:
        levels = m + 1
    assignment = np.empty(n_int, dtype=np.int64)
    per_context = []
    mins = []
    for _, idx in context_groups(partition):
        M, argm = _forward_chain(loss_rows[idx], levels)
        mins.append(float(M[-1, -1].min()))
        assign, switches = _backward_chain(M, argm)
        assignment[idx] = assign
        per_context.append(switches)
    return assignment, np.array(per_context, dtype=np.int64), math.fsum(mins)


def backward_batch_reference(
    M: np.ndarray, best: np.ndarray, last: np.ndarray, q: np.ndarray, row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover every chain's optimal rule runs from its forward values.

    ``last[c]`` is the final occurrence of chain c.  The walk starts at
    level r = len(best) in rule q[c] (the argmin at that occurrence), whose
    values along the chain are row[c]; M and best hold the levels below r.
    Walking from the last occurrence toward the first with current level r
    and rule q, a shift is recorded at occurrence p exactly when the forward
    recursion's shift branch was strictly better there:
    best[r-1, p-1] < M[r, q, p-1].  Both quantities are stored forward
    values, so the test reproduces the forward decisions bit for bit (a
    subtraction of the current loss would reintroduce rounding and could
    turn exact ties into spurious shifts).  Ties keep the current rule, so
    the schedule uses as few shifts as possible.  Every step lowers r by
    one, so the walk is one vector step per level for the whole batch; the
    new rule is an argmin over the rules at the chosen occurrence only.
    Returns the (chains, L) rule assignment, whose slots past a chain's end
    repeat the rule of its last run, and the shifts used per chain.
    """
    chains, L = row.shape
    cols = np.arange(L)
    top = r = best.shape[0]
    q = q.copy()
    upper = last.copy()
    switches = np.zeros(chains, dtype=np.int64)
    # The rule change at each run start; its running sum along a chain is
    # the rule at every occurrence.  Rule indices are below core.MAX_RULES
    # (4096), so every change fits int16.
    change = np.zeros((chains, L), dtype=np.int16)
    active = np.flatnonzero(upper > 0)
    while r > 0 and active.size:
        stay = row[active] if r == top else M[r][q[active], active]
        hits = np.less(best[r - 1, active], stay)
        hits &= cols < upper[active, None]
        last_hit = L - 1 - np.argmax(hits[:, ::-1], axis=1)
        found = hits[np.arange(active.size), last_hit]
        active = active[found]
        p = last_hit[found] + 1
        r -= 1
        run_rule = q[active]
        q[active] = M[r][:, active, p - 1].argmin(axis=0)
        change[active, p] = run_rule - q[active]
        upper[active] = p - 1
        switches[active] += 1
        active = active[p > 1]
    change[:, 0] = q
    return np.cumsum(change, axis=1, out=change), switches


def cumulative_loss_reference(x, xhat, loss, start=1, end=None):
    """Normalized loss over 1-based positions start..end as numpy's pairwise sum gives it."""
    if end is None:
        end = len(x)
    seg = loss.lam[x.symbols[start - 1 : end], xhat.symbols[start - 1 : end]]
    return float(seg.sum() / (end - start + 1))


def schedule_to_json_reference(schedule, partition):
    """Schedule as per-context runs, found by a per-position comparison loop."""
    contexts = []
    for group, (cid, idx) in enumerate(context_groups(partition)):
        assigned = schedule.assignment[idx]
        runs = [{"position": int(idx[0]) + partition.k + 1, "denoiser": int(assigned[0])}]
        for i in range(1, assigned.shape[0]):
            if assigned[i] != assigned[i - 1]:
                runs.append(
                    {"position": int(idx[i]) + partition.k + 1, "denoiser": int(assigned[i])}
                )
        left, right = context_symbols(partition, cid)
        contexts.append(
            {
                "context_id": int(cid),
                "left": list(left),
                "right": list(right),
                "switches": int(schedule.per_context_switches[group]),
                "runs": runs,
            }
        )
    return {
        "n": schedule.n,
        "k": schedule.k,
        "m": schedule.m,
        "contexts": contexts,
    }


def pbm_header_reference(data: bytes):
    """Yield header tokens, skipping '#' comments; return (tokens, body offset)."""
    tokens = []
    i = 0
    while len(tokens) < 3:
        if i >= len(data):
            raise ValidationError("truncated PBM header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


def _enumeration_size(length: int, budget: int, num_rules: int) -> int:
    cap = min(budget, length - 1)
    return sum(
        math.comb(length - 1, j) * num_rules * (num_rules - 1) ** j for j in range(cap + 1)
    )


def _min_over_runs(seg_sums: np.ndarray) -> float:
    """Exhaustive minimum over rule runs with distinct adjacent rules."""
    num_segments, num_rules = seg_sums.shape
    best = math.inf
    stack = [(0, j, float(seg_sums[0, j])) for j in range(num_rules)]
    while stack:
        seg, rule, total = stack.pop()
        if seg == num_segments - 1:
            if total < best:
                best = total
            continue
        for nxt in range(num_rules):
            if nxt != rule:
                stack.append((seg + 1, nxt, total + float(seg_sums[seg + 1, nxt])))
    return best


def brute_force_min(z, k, m, tables, mode="estimated", x=None):
    """Exact unnormalized minimum over the schedule class by enumeration.

    mode "estimated" scores with the observable estimated loss; mode "true"
    requires the clean sequence and scores with the actual loss.  Every
    placement of up to min(n(c), m) shifts within each context chain is
    enumerated, with runs of identical adjacent rules collapsed; the
    per-context enumeration is refused above BRUTE_FORCE_BUDGET candidates.
    """
    if mode not in ("estimated", "true"):
        raise ValidationError(f"mode must be 'estimated' or 'true', got {mode!r}")
    if mode == "true":
        if x is None:
            raise ValidationError("mode 'true' requires the clean sequence")
        if len(x) != len(z):
            raise ValidationError(f"clean and noisy lengths differ ({len(x)} != {len(z)})")
    partition = build_partition(z, k)
    if mode == "estimated":
        loss_rows = tables.ell[z.symbols[k : len(z) - k]]
    else:
        codes, table = _true_loss_table(x, z, k, tables.loss.lam, tables.mappings)
        loss_rows = table[codes]
    num_rules = loss_rows.shape[1]
    totals = []
    for _, idx in context_groups(partition):
        w = loss_rows[idx]
        length = w.shape[0]
        budget = min(length, int(m))
        if _enumeration_size(length, budget, num_rules) > BRUTE_FORCE_BUDGET:
            raise TooLarge("per-context schedule enumeration exceeds the budget")
        prefix = np.vstack([np.zeros((1, num_rules)), np.cumsum(w, axis=0)])
        best = float(prefix[length].min())  # zero shifts
        for j in range(1, min(budget, length - 1) + 1):
            for cuts in combinations(range(1, length), j):
                bounds = (0,) + cuts + (length,)
                seg_sums = np.array(
                    [prefix[bounds[i + 1]] - prefix[bounds[i]] for i in range(j + 1)]
                )
                candidate = _min_over_runs(seg_sums)
                if candidate < best:
                    best = candidate
        totals.append(best)
    return math.fsum(totals)


def _rng_reference(seed):
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def iid_sample_reference(component, length, rng):
    cdf = np.cumsum(component.probs)
    u = rng.random(length)
    return np.minimum((u[:, None] >= cdf[None, :-1]).sum(axis=1), component.alphabet_size - 1)


def _draw_initial_reference(component, rng):
    cdf = np.cumsum(component.initial)
    return int(np.searchsorted(cdf, rng.random(), side="right").clip(0, component.alphabet_size - 1))


def markov_sample_reference(component, length, rng):
    state = _draw_initial_reference(component, rng)
    return continue_from_reference(component, state, length, rng, include_start=True)


def continue_from_reference(component, state, length, rng, include_start):
    """Run the chain for ``length`` outputs, optionally emitting ``state`` first."""
    q = component.alphabet_size
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
    p = component.transition
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


def component_sample_reference(component, length, rng):
    if isinstance(component, MarkovComponent):
        return markov_sample_reference(component, length, rng)
    return iid_sample_reference(component, length, rng)


def sample_piecewise_reference(spec, n, seed):
    """The two block loops: one generator for a continuing spec, spawned children otherwise."""
    if n < 1:
        raise ValidationError("sequence length must be positive")
    bounds = spec.block_bounds(n)
    out = np.empty(n, dtype=np.int64)
    if spec.continuing:
        rng = _rng_reference(seed)
        state = None
        for (start, end), label in zip(bounds, spec.block_labels):
            comp = spec.components[label]
            if state is None:
                block = markov_sample_reference(comp, end - start, rng)
            else:
                block = continue_from_reference(comp, state, end - start, rng, include_start=False)
            out[start:end] = block
            state = int(block[-1]) if block.size else state
    else:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        children = seed.spawn(len(bounds))
        for (start, end), label, child in zip(bounds, spec.block_labels, children):
            comp = spec.components[label]
            out[start:end] = component_sample_reference(comp, end - start, _rng_reference(child))
    return SymbolSequence(out, spec.alphabet_size)


def corrupt_reference(x, channel, seed):
    """The clamped compare-and-sum corruption, one draw per symbol."""
    pi = channel.pi if isinstance(channel, ChannelModel) else np.asarray(channel, dtype=np.float64)
    noisy = pi.shape[1]
    rng = _rng_reference(seed)
    cdf = np.cumsum(pi, axis=1)
    u = rng.random(len(x))
    z = (u[:, None] >= cdf[x.symbols][:, :-1]).sum(axis=1)
    return SymbolSequence(np.minimum(z, noisy - 1), noisy)
