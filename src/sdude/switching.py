"""Two-pass switching denoiser: per-context dynamic program over rule schedules.

The schedule class allows, within the occurrence subsequence of each context
c, at most min(n(c), m) shifts between single-symbol rules.  The forward pass
computes, per level i <= m, rule j and occurrence p of a context chain, the
value M[i, j, p]: the minimum unnormalized cumulative estimated loss over the
chain's occurrences up to and including p, using at most i shifts and
currently applying rule j.  The backward pass walks each chain from its last
occurrence to its first, following the forward decisions to recover an optimal
schedule, preferring fewer shifts on exact ties.

Chains for distinct contexts are independent, so one kernel, ``_solve_chains``,
runs both passes for many chains at once and returns the finished
``SwitchingSchedule``.  It groups the chains into batches of similar length
(power-of-two buckets, each batch padded after the chains' ends to its
longest member) and lays each batch out rules-major as (rules, chains, L).
The forward pass is a few whole-batch scans along the chain axis per level;
the backward walk takes one step per level for the whole batch.  Padding
never enters a scan of a real occurrence and the cumulative sums keep each
chain's summation order, so every value equals the chain-at-a-time recursion
bit for bit.  The kernel keeps only what the walk reads:

- Rules that another rule beats at every noisy symbol by more than a
  rounding bound on the longest chain, 16 u A L^2 (u = 2^-53, A the largest
  loss magnitude, L the longest chain), are never optimal and are left out
  (``_kept_rules``); for a binary symmetric channel with Hamming loss, 3 of
  the 4 rules remain.
- Of each level above the bottom it keeps one byte per kept rule and
  occurrence, whether the walk shifts there (the best value of the level
  below is strictly less than the rule's own), and one byte per occurrence
  for the level below, its argmin rule.  Of the values themselves it keeps
  only each level's minimum at each chain's last occurrence.  The values of
  a batch are scanned in occurrence segments of one transient buffer each,
  and each segment's scans continue from the previous segment's last sum
  and running minimum, so segmenting changes no bit.

Level i of the forward pass depends only on the levels below it, so one
solve serves every shift budget: each batch is scanned once to the deepest
budget's level, and every budget walks back from its own top level (never
more levels than the longest chain has occurrences), giving the same bits as
a solve of that budget alone.  ``sdude_denoise_each`` maps one solve to one
output per budget; its boundary positions copy z, or emit 0 when the
reconstruction alphabet is the smaller.  Each budget forms one flat index
per interior symbol, code * rules + rule, in the narrowest unsigned dtype
(``uint8`` for binary data): ``np.take`` of the rule table maps it into
the output ``core.CHUNK`` symbols at a time, so the intp copy that
``np.take`` makes of its index stays one chunk long (mode "clip" needs no
further buffer; every index is in range), and one count of the same index
gives the correctly rounded estimated loss, as ``evaluation.cumulative_loss`` gives the true one.  Each
schedule carries the partition, for the genie to reuse, and its shifts per
context as an array in the partition's group order.  ``sdude_denoise``
solves a single budget.  The plain sliding-window denoiser is the m = 0
budget, and the genie runs the kernel on the true loss.  Time is
O(m * n); memory is what one batch keeps, 10 + m' * (rules + 1) bytes per
occurrence with m' = min(m, L - 1) for a batch of chains of at most L
occurrences, plus two segment buffers of ``_BATCH_FLOATS / 4`` floats or
fewer (a batch's flags are freed before the next batch's are built), plus
one compact assignment per budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contexts import ContextPartition, _check_k, build_partition
from .core import CHUNK, ChannelModel, LossMatrix, SymbolSequence, symbol_dtype
from .errors import RangeError, TooLarge, ValidationError
from .estimation import EstimatedLossTable, build_tables

# Hard cap on the bytes one batch holds for the longest context chain (~2 GB),
# outside its segment buffers.
MAX_CHAIN_BYTES = 2 * 10**9
# DP entries (level x rule x chain x padded occurrence) one batch spans (~2 MB
# of float64): large enough that short chains share one set of numpy calls;
# larger batches ran no faster and raised the peak resident set.  Each of the
# forward pass's two segment buffers holds a quarter as many floats (rule x
# chain x occurrence), which scanned no slower than whole batches.
_BATCH_FLOATS = 1 << 18
# The dominated-rule guard of ``_kept_rules``, in units of u * A * L^2.
_GUARD = 16


@dataclass(frozen=True, eq=False)
class SwitchingSchedule:
    """Per-position rule assignment with per-context shift counts.

    ``assignment[p]`` is the rule index applied at interior position
    t = p + k + 1 (1-based).  ``per_context_switches[i]`` is the number of
    shifts used by the context ``partition.occurring_contexts()[i]``.  Both
    arrays are read-only; ``n`` and ``k`` are the partition's.
    """

    m: int
    assignment: np.ndarray
    per_context_switches: np.ndarray = field(repr=False)
    # The partition the schedule was solved on, kept so callers need not rebuild it.
    partition: ContextPartition = field(repr=False)

    def __post_init__(self):
        self.assignment.flags.writeable = False
        self.per_context_switches.flags.writeable = False

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def total_switches(self) -> int:
        return int(self.per_context_switches.sum())


def _batches(partition: ContextPartition, levels: int, num_rules: int):
    """Yield (chains, lengths, pos) for batches of context chains.

    ``chains`` indexes the partition's occurring contexts, ``lengths`` holds
    their chain lengths (ascending) and ``pos[c, p + 1]`` is the 0-based
    interior index of occurrence p of chain c; ``pos[c, 0]`` repeats the
    first, a slot for the forward pass's carried sums.  Each batch comes
    from one power-of-two length bucket, is padded to its longest member by
    repeating each chain's last occurrence, and spans at most
    ``_BATCH_FLOATS`` DP entries unless a single chain needs more.
    """
    counts = partition._counts
    by_length = np.argsort(counts, kind="stable")
    sorted_counts = counts[by_length]
    lo, width = 0, 1
    while lo < by_length.size:
        hi = int(np.searchsorted(sorted_counts, width, side="right"))
        cap = max(1, _BATCH_FLOATS // (levels * num_rules * width))
        for s in range(lo, hi, cap):
            chains = by_length[s : min(s + cap, hi)]
            lengths = counts[chains]
            steps = np.clip(np.arange(-1, lengths[-1]), 0, lengths[:, None] - 1)
            # As intp: numpy would cast the int32 order on each use as an index.
            pos = partition._order[partition._starts[chains, None] + steps].astype(np.intp)
            del steps  # not held while the caller solves the batch
            yield chains, lengths, pos
        lo, width = hi, 2 * width


def _kept_rules(table: np.ndarray, longest: int) -> np.ndarray:
    """Indices, ascending, of the rules the DP is solved on.

    Rule j is dropped when some rule j' beats it at every row by more than
    the rounding guard: ``table[b, j] - table[b, j'] > 16 u A L^2`` for all
    b, with u = 2^-53, A = max |table| and L = ``longest``.  In exact
    arithmetic on the same inputs, swapping a schedule's final run of j for
    j' keeps its shifts and lowers its cost by at least that margin, so
    every DP value of j lies above j''s by more.  Every computed DP value is
    within 6.1 u A L^2 of the exact one: the cumulative sums add at most
    u A L (L + 1) / 2 along a schedule, whose runs cover disjoint
    occurrences, and each of at most L - 1 levels adds one subtraction and
    one addition, under 5.01 u A L together.  So a dropped rule's computed
    value is never the minimum nor tied with it, and the kept rules' values,
    minima and argmins keep their bits.  A dropped rule always has a kept
    one beating it by more than the guard: of the rules that do, the one
    with the least row sum is beaten by none.
    """
    rows, num_rules = table.shape
    bound = _GUARD * (np.finfo(np.float64).eps / 2) * float(np.abs(table).max()) * longest**2
    dropped = np.empty(num_rules, dtype=bool)
    step = max(1, _BATCH_FLOATS // (rows * num_rules))
    for lo in range(0, num_rules, step):
        margin = np.min(table[:, lo : lo + step, None] - table[:, None, :], axis=0)
        dropped[lo : lo + step] = (margin > bound).any(axis=1)
    return np.flatnonzero(~dropped)


def _level(S: np.ndarray, V: np.ndarray, below: np.ndarray, carry: np.ndarray, first: bool):
    """One level's values over a segment, M[p] = S[p] + min over p' < p of (below - S)[p'].

    S[..., 1:] holds the segment's cumulative sums, ``below`` the minimum of
    the level below at the segment's occurrences, and ``carry`` the running
    minimum up to the previous occurrence (+inf before a chain's first,
    where M = S).  The running minimum is scanned in place in V, starting
    from ``carry`` in V[..., 0]; ``carry`` takes its value at the segment's
    last occurrence, and V[..., :-1] then holds M, which is returned.
    """
    V[..., 0] = carry
    np.subtract(below, S[..., 1:], out=V[..., 1:])
    np.fmin.accumulate(V, axis=-1, out=V)
    carry[...] = V[..., -1]
    M = V[..., :-1]
    np.add(S[..., 1:], M, out=M)
    if first:
        M[..., 0] = S[..., 1]
    return M


def _forward_batch(rules_major: np.ndarray, chain_codes: np.ndarray, levels: int, last: np.ndarray):
    """The forward pass over a batch of chains, keeping what the walks read.

    ``rules_major[j, code]`` is rule j's loss at a code and
    ``chain_codes[c, p + 1]`` the code at occurrence p of chain c, whose
    final occurrence is ``last[c]`` (``chain_codes[c, 0]`` is any code: its
    slot receives the carried sum).  Level i of chain c at occurrence p
    allows at most i shifts.  The recursion per level i >= 1 is, at a repeat
    occurrence,
        M[i, :, p] = w[:, p] + min(M[i, :, p-1], best[i-1, p-1])
    with best[i] = min_j M[i, j], and M[i, :, 0] = w[:, 0]; it is evaluated
    through cumulative sums S and the shifted running minimum of
    best[i-1] - S (``_level``), which reproduces the recursion while keeping
    every pass a whole-batch scan along the occurrence axis.  That running
    minimum starts at best[i-1, 0] - S[:, 0] <= 0, so it never exceeds the
    stay branch's offset 0 and needs no clamping.  On finite values ``fmin``
    finds it as ``minimum`` does, differing only in which zero of a +-0 tie
    it keeps.  No comparison sees that, and no sum S + floor shows it: where
    S[j, p] is -0, every w[j, :p+1] is -0 and every zero the scan meets is
    +0.

    The batch is scanned in occurrence segments of ``_BATCH_FLOATS / 4``
    floats or fewer per buffer, every level of a segment before the next.
    Each rule's running sum (-0.0, which adds exactly, before the first
    occurrence) and each level's running minimum enter the next segment's
    scan as its first element, so every value comes from the same IEEE
    operations in the same order as one scan of the whole chain.  The loss
    rows are gathered straight into the sums' buffer, and every level's
    values live in one more buffer of that size.

    Returns (shifts, argmins, mins, top), keeping of each level i >= 1 only
    what the walks read: ``shifts[i - 1, j, c, p]`` is the shift test
    best[i-1, c, p] < M[i, j, c, p], and for the levels i below the top,
    ``argmins[i, c, p]`` is the first rule attaining best[i, c, p] and
    ``mins[i, c]`` is best[i, c, last[c]].  ``top[j, c]`` is the top
    level's value of rule j at ``last[c]``.  Values at padded occurrences
    are never read back into a real one.
    """
    num_rules, chains, L = rules_major.shape[0], chain_codes.shape[0], chain_codes.shape[1] - 1
    below = levels - 1
    shifts = np.empty((below, num_rules, chains, L), dtype=bool)
    argmins = np.empty((below, chains, L), dtype=np.min_scalar_type(num_rules - 1))
    mins = np.empty((below, chains))
    top = np.empty((num_rules, chains))
    sum_carry = np.full((num_rules, chains), -0.0)
    floor_carry = np.full((below, num_rules, chains), np.inf)
    step = min(L, max(1, _BATCH_FLOATS // (4 * num_rules * chains)))
    buffers = np.empty((2, num_rules * chains * (step + 1)))
    best_at = np.empty((chains, step))
    above = np.empty((2, chains, step), dtype=bool)
    for a in range(0, L, step):
        n = min(step, L - a)
        size = num_rules * chains * (n + 1)
        S, V = (buf[:size].reshape(num_rules, chains, n + 1) for buf in buffers)
        np.take(rules_major, chain_codes[:, a : a + n + 1], axis=1, out=S, mode="clip")
        S[..., 0] = sum_carry
        np.cumsum(S, axis=-1, out=S)
        sum_carry[...] = S[..., -1]
        ends = np.flatnonzero((a <= last) & (last < a + n))
        for i in range(levels):
            if i:
                M = _level(S, V, best, floor_carry[i - 1], a == 0)
                np.less(best, M, out=shifts[i - 1, :, :, a : a + n])
            else:
                M = S[..., 1:]
            if i == below:
                top[:, ends] = M[:, ends, last[ends] - a]
                break
            best = np.minimum.reduce(M, axis=0, out=best_at[:, :n])
            # The first rule attaining the minimum, as argmin picks it: the
            # count of the leading rules above the minimum.
            argmin, lead = argmins[i, :, a : a + n], np.not_equal(M[0], best, out=above[0, :, :n])
            np.copyto(argmin, lead)
            for j in range(1, num_rules - 1):
                lead &= np.not_equal(M[j], best, out=above[1, :, :n])
                argmin += lead
            mins[i, ends] = best[ends, last[ends] - a]
    return shifts, argmins, mins, top


def _backward_batch(
    shifts: np.ndarray, argmins: np.ndarray, last: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover every chain's optimal rule runs from the forward pass's flags.

    ``last[c]`` is the final occurrence of chain c.  The walk starts at
    level r = len(argmins) in rule q[c] (the argmin at that occurrence);
    ``shifts[i - 1]`` holds the shift flags of level i, every rule, and
    ``argmins`` the argmin rules of levels 0..r-1.  Walking from the last
    occurrence toward the first with current level r and rule q, a shift is
    recorded at occurrence p exactly when the forward recursion's shift
    branch was strictly better there: best[r-1, p-1] < M[r, q, p-1], the
    flag the forward pass computed from its own values, so the walk
    reproduces the forward decisions bit for bit.  Ties keep the current
    rule, so the schedule uses as few shifts as possible.  Every step lowers
    r by one, so the walk is one vector step per level for the whole batch;
    the new rule is the stored argmin at the chosen occurrence.  Each shift
    records the run it ends (chain, start, rule), and one ``np.repeat`` of
    the runs, sorted by chain and start, lays out the (chains, L) rule
    assignment, whose slots past a chain's end repeat the rule of its last
    run.  With one level (``argmins`` empty) nothing is walked.  Returns the
    assignment and the shifts used per chain.
    """
    r = argmins.shape[0]
    chains, L = argmins.shape[1:]
    cols = np.arange(L)
    q = q.copy()
    upper = last.copy()
    switches = np.zeros(chains, dtype=np.int64)
    # The start (chain * L + occurrence) and rule of each run; a run lasts until the next.
    starts, rules = [], []
    active = np.flatnonzero(upper > 0)
    while r > 0 and active.size:
        hits = shifts[r - 1][q[active], active]
        hits &= cols < upper[active, None]
        last_hit = L - 1 - np.argmax(hits[:, ::-1], axis=1)
        found = hits[np.arange(active.size), last_hit]
        active = active[found]
        p = last_hit[found] + 1
        r -= 1
        starts.append(active * L + p)
        rules.append(q[active])
        q[active] = argmins[r][active, p - 1]
        upper[active] = p - 1
        switches[active] += 1
        active = active[p > 1]
    starts = np.concatenate([*starts, np.arange(chains) * L])
    order = np.argsort(starts)
    lengths = np.diff(starts[order], append=chains * L)
    return np.repeat(np.concatenate([*rules, q])[order], lengths).reshape(chains, L), switches


def _solve_chains(
    partition: ContextPartition, codes: np.ndarray, table: np.ndarray, budgets
) -> list[tuple[SwitchingSchedule, float]]:
    """Both passes for every context chain of the partition, for every budget.

    The loss row at 0-based interior index t is ``table[codes[t]]`` (one
    entry per rule, all finite); level i of the DP allows at most i shifts.
    A chain of L occurrences reads only levels below L, whose values are the
    same at every level >= L, so budget m is solved on min(m, longest - 1)
    + 1 levels with the same bits as on m + 1.  Each batch runs its forward
    pass once, on the most levels any budget needs and the rules
    ``_kept_rules`` keeps, and walks back once per distinct level count from
    that count's top level.  Levels 0..lv-1 of the deeper pass come from the
    same operations on the same inputs as a pass of lv levels, so each
    budget's result equals its own solve bit for bit, and kept rules keep
    their order, so each assignment maps back through ``keep`` to the rule
    a solve on every rule picks.  Returns one (schedule, unnormalized
    minimum cumulative loss) per budget, in order; shifts per context follow
    the partition's groups (ascending context id), and assignments use the
    smallest unsigned dtype that holds every rule index.
    """
    num_rules = table.shape[1]
    longest = int(partition._counts.max())
    dtype = np.min_scalar_type(num_rules - 1)
    keep = _kept_rules(table, longest).astype(dtype)
    rules_major = np.ascontiguousarray(table[:, keep].T)
    levels = [min(int(m), longest - 1) + 1 for m in budgets]
    tops = sorted(set(levels))
    # The longest chain's batch holds per occurrence its intp position and
    # its code (counted as 2 B), and at each level above the bottom one shift
    # flag per kept rule and the argmin rule of the level below.
    argmin_bytes = np.min_scalar_type(keep.size - 1).itemsize
    if longest * (10 + (tops[-1] - 1) * (keep.size + argmin_bytes)) > MAX_CHAIN_BYTES:
        raise TooLarge("DP state of the longest context chain exceeds the memory budget")
    assignments = {lv: np.empty(partition.num_interior, dtype=dtype) for lv in tops}
    switches = {lv: np.zeros(partition._counts.size, dtype=np.int64) for lv in tops}
    mins = {lv: np.empty(partition._counts.size) for lv in tops}
    for chains, lengths, pos in _batches(partition, tops[-1], num_rules):
        last = lengths - 1
        chain_codes = np.take(codes, pos)
        cols = np.arange(chains.size)
        shifts, argmins, at_last, top = _forward_batch(rules_major, chain_codes, tops[-1], last)
        for lv in tops:
            if lv == tops[-1]:
                q = top.argmin(axis=0)
                mins[lv][chains] = np.minimum.reduce(top, axis=0)
            else:
                q = argmins[lv - 1, cols, last]
                mins[lv][chains] = at_last[lv - 1]
            assign, switches[lv][chains] = _backward_batch(shifts, argmins[: lv - 1], last, q)
            # A padded slot repeats its chain's last position and carries the
            # rule of the last run, so writing it again stores the same value.
            assignments[lv][pos[:, 1:]] = np.take(keep, assign)
        del shifts, argmins, assign
    # fsum rounds the exact sum once, so the chains' order does not matter.
    return [
        (
            SwitchingSchedule(
                m=int(m),
                assignment=assignments[lv],
                per_context_switches=switches[lv],
                partition=partition,
            ),
            math.fsum(mins[lv].tolist()),
        )
        for m, lv in zip(budgets, levels)
    ]


def _flat_index(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Where table[rows[t], cols[t]] is in ``table.ravel()``, in the narrowest dtype that fits.

    The dtype also holds the row width, which multiplies the rows in place.
    """
    index = rows.astype(np.min_scalar_type(max(table.size - 1, table.shape[1])))
    return np.add(np.multiply(index, table.shape[1], out=index), cols, out=index, casting="unsafe")


def _index_sum(table: np.ndarray, index: np.ndarray) -> float:
    """Correctly rounded sum of ``table.ravel()[index]``, equal to math.fsum's.

    ``np.add.at`` counts each entry's picks from the narrow index as it is
    (``np.bincount`` would copy it to intp first); each count times its
    entry is added exactly as an integer multiple of a common power-of-two
    unit, and the sum rounded once.
    """
    uses = np.zeros(table.size, dtype=np.intp)
    np.add.at(uses, index, 1)
    picked = np.flatnonzero(uses)
    ratios = [value.as_integer_ratio() for value in table.ravel()[picked].tolist()]
    unit = max(den for _, den in ratios)
    counts = uses[picked].tolist()
    return sum(num * (unit // den) * c for (num, den), c in zip(ratios, counts)) / unit


def _table_sum(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Correctly rounded sum of table[rows[t], cols[t]] over all t."""
    return _index_sum(table, _flat_index(table, rows, cols))


def _check_budgets(n: int, k, base: int, budgets) -> tuple:
    """The shift budgets as a tuple, once k and each budget are valid for n symbols."""
    budgets = tuple(budgets)
    if not budgets:
        raise ValidationError("need at least one shift budget")
    most = (n - 2 * _check_k(k, n, base)) // 2
    for m in budgets:
        if not isinstance(m, (int, np.integer)) or not 0 <= m <= most:
            raise RangeError(f"shift budget m must satisfy 0 <= m <= {most}, got {m!r}")
    return budgets


def sdude_denoise_each(
    z: SymbolSequence,
    k: int,
    budgets,
    channel: ChannelModel,
    loss: LossMatrix,
    tables: EstimatedLossTable | None = None,
) -> list[tuple[SymbolSequence, SwitchingSchedule, float]]:
    """``sdude_denoise`` for each shift budget in ``budgets``, from one solve.

    One forward pass over z's context chains serves every budget, and a
    budget's result is the same bits as its own ``sdude_denoise`` call.
    Every schedule holds the one partition of z, ``schedule.partition``.
    ``tables``, if given, must be built for ``channel`` and ``loss``.
    """
    if z.alphabet_size != channel.noisy_size:
        raise ValidationError("sequence alphabet does not match the channel's noisy alphabet")
    if tables is None:
        tables = build_tables(channel, loss)
    elif not (
        np.array_equal(tables.channel.pi, channel.pi)
        and np.array_equal(tables.channel.h_matrix, channel.h_matrix)
        and np.array_equal(tables.loss.lam, loss.lam)
    ):
        raise ValidationError("tables were built for another channel or loss")
    budgets = _check_budgets(len(z), k, z.alphabet_size, budgets)
    partition = build_partition(z, k)
    n, recon = len(z), tables.loss.recon_size
    # The interior noisy symbols are the rows of ``tables.ell`` that score each position.
    codes = z.symbols[k : n - k]
    # Boundary positions copy z when every noisy symbol is a reconstruction
    # symbol, else emit 0; in the reconstruction alphabet's dtype, which may
    # be wider than z's.
    dtype = symbol_dtype(recon)
    copy = recon >= tables.channel.noisy_size
    maps = np.ascontiguousarray(tables.mappings.T, dtype=dtype)
    results = []
    for schedule, _ in _solve_chains(partition, codes, tables.ell, budgets):
        out = z.symbols.astype(dtype) if copy else np.zeros(n, dtype=dtype)
        index = _flat_index(tables.ell, codes, schedule.assignment)
        interior = out[k : n - k]
        # ``np.take`` widens its index to intp, so it gets one chunk at a time.
        for lo in range(0, index.size, CHUNK):
            chunk = slice(lo, lo + CHUNK)
            np.take(maps, index[chunk], out=interior[chunk], mode="clip")
        estimated = _index_sum(tables.ell, index) / codes.size
        results.append((SymbolSequence(out, recon), schedule, estimated))
    return results


def sdude_denoise(
    z: SymbolSequence,
    k: int,
    m: int,
    channel: ChannelModel,
    loss: LossMatrix,
    tables: EstimatedLossTable | None = None,
) -> tuple[SymbolSequence, SwitchingSchedule, float]:
    """Denoise with the best context-wise schedule of at most m shifts.

    Returns the reconstruction, the schedule, and the normalized minimum
    cumulative estimated loss it attains (which may be negative).  With
    m = 0 this is the non-shifting sliding-window denoiser.

    Boundary positions (t <= k and t > n-k) copy the noisy symbol when the
    reconstruction alphabet is at least as large as the noisy one, else emit
    symbol 0.
    """
    return sdude_denoise_each(z, k, (m,), channel, loss, tables)[0]
