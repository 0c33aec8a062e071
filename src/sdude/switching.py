"""Two-pass switching denoiser: per-context dynamic program over rule schedules.

The schedule class allows, within the occurrence subsequence of each context
c, at most min(n(c), m) shifts between single-symbol rules.  The forward pass
maintains, per interior position t, a matrix M_t of shape (m+1) x (N+1):
M_t(i, j) for j <= N is the minimum unnormalized cumulative estimated loss
over the occurrences of t's context up to and including t, using at most i-1
shifts and currently applying rule j; column N+1 stores the row argmin.  The
backward pass walks each context chain from its last occurrence to its first,
following the chain's forward matrices to recover an optimal schedule,
preferring fewer shifts on exact ties.

Chains for distinct contexts are independent, so one kernel, ``_solve_chains``,
runs both passes for many chains at once and returns the finished
``SwitchingSchedule``.  It groups the chains into batches of similar length
(power-of-two buckets, each batch padded after the chains' ends to its
longest member) and lays each batch out rules-major as (rules, chains, L).
The forward pass is a few whole-batch scans along the chain axis per level;
the backward walk takes one step per level for the whole batch.  Padding
never enters a scan of a real occurrence and the cumulative sums keep each
chain's summation order, so every value equals the chain-at-a-time recursion
bit for bit.  Level i of the forward pass depends only on the levels below
it, so one solve serves every shift budget: each batch is scanned once to
the deepest budget's level, and every budget walks back from its own top
level (never more levels than the longest chain has occurrences), giving the
same bits as a solve of that budget alone.  ``sdude_denoise_each`` maps one
solve to one output per budget and fills in the boundary; each schedule
carries the partition, for the genie to reuse.  ``sdude_denoise`` and
``forward_pass`` solve a single budget.  The plain sliding-window denoiser is
the m = 0 budget, and the genie runs the kernel on the true loss.  Time is
O(m * n); memory is one batch of DP values, at most about ``_BATCH_FLOATS``
floats unless a single chain is longer, plus one compact assignment per budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contexts import ContextPartition, build_partition
from .core import ChannelModel, LossMatrix, SymbolSequence
from .errors import RangeError, TooLarge, ValidationError
from .estimation import EstimatedLossTable, build_tables

# Hard cap on the DP values of the longest context chain (float64 entries,
# ~2 GB): its level x rule x occurrence values are held at once.
MAX_CHAIN_ENTRIES = 250_000_000
# DP entries (level x rule x chain x padded occurrence) one batch of chains
# holds (~2 MB): large enough that short chains share one set of numpy calls;
# larger batches ran no faster and raised the peak resident set.
_BATCH_FLOATS = 1 << 18


@dataclass(frozen=True)
class SwitchingSchedule:
    """Per-position rule assignment with per-context shift counts.

    ``assignment[p]`` is the rule index applied at interior position
    t = p + k + 1 (1-based).
    """

    n: int
    k: int
    m: int
    assignment: np.ndarray
    per_context_switches: dict[int, int] = field(repr=False)
    # The partition the schedule was solved on, kept so callers need not rebuild it.
    partition: ContextPartition = field(repr=False, compare=False)

    def __post_init__(self):
        self.assignment.flags.writeable = False

    def denoiser_at(self, t: int) -> int:
        """Rule index at 1-based interior position t."""
        if not self.k + 1 <= t <= self.n - self.k:
            raise RangeError(f"position {t} outside interior {self.k + 1}..{self.n - self.k}")
        return int(self.assignment[t - self.k - 1])

    @property
    def total_switches(self) -> int:
        return sum(self.per_context_switches.values())


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

        Recomputed from the occurrences of t's context up to and including t.
        """
        chain = self.partition.occurrences(self.partition.context_of(t))
        idx = chain[: np.searchsorted(chain, t) + 1] - self.schedule.k - 1
        M, _ = _forward_batch(self.ell.T[:, self.codes[idx]][:, None], self.schedule.m + 1)
        values = M[:, :, 0, -1]
        return np.column_stack((values, values.argmin(axis=1)))


def _batches(partition: ContextPartition, levels: int, num_rules: int):
    """Yield (chains, lengths, pos) for batches of context chains.

    ``chains`` indexes the partition's occurring contexts, ``lengths`` holds
    their chain lengths (ascending) and ``pos[c, p]`` is the 0-based interior
    index of occurrence p of chain c.  Each batch comes from one power-of-two
    length bucket, is padded to its longest member by repeating each chain's
    last occurrence, and holds at most ``_BATCH_FLOATS`` DP entries unless a
    single chain needs more.
    """
    counts = partition._counts
    if levels * num_rules * int(counts.max()) > MAX_CHAIN_ENTRIES:
        raise TooLarge("DP state of the longest context chain exceeds the memory budget")
    by_length = np.argsort(counts, kind="stable")
    sorted_counts = counts[by_length]
    lo, width = 0, 1
    while lo < by_length.size:
        hi = int(np.searchsorted(sorted_counts, width, side="right"))
        cap = max(1, _BATCH_FLOATS // (levels * num_rules * width))
        for s in range(lo, hi, cap):
            chains = by_length[s : min(s + cap, hi)]
            lengths = counts[chains]
            steps = np.minimum(np.arange(lengths[-1]), lengths[:, None] - 1)
            yield chains, lengths, partition._order[partition._starts[chains, None] + steps]
        lo, width = hi, 2 * width


def _forward_batch(w: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """DP values of a batch of chains laid out rules-major.

    w has shape (N, chains, L): w[j, c, p] is the loss of rule j at
    occurrence p of chain c.  Returns (M, best) with M of shape
    (levels, N, chains, L) and best[i] = min_j M[i, j], so that level i of
    chain c at occurrence p allows at most i shifts.  The recursion per level
    i >= 1 is, at a repeat occurrence,
        M[i, :, p] = w[:, p] + min(M[i, :, p-1], best[i-1, p-1])
    and M[i, :, 0] = w[:, 0]; it is evaluated through cumulative sums S and
    the shifted running minimum of best[i-1] - S, which reproduces the
    recursion while keeping every pass a whole-batch scan along the
    occurrence axis.  That running minimum starts at best[i-1, 0] - S[:, 0]
    <= 0, so it never exceeds the stay branch's offset 0 and needs no
    clamping.  Values at padded occurrences are never read back into a real
    one.
    """
    num_rules, chains, L = w.shape
    M = np.empty((levels, num_rules, chains, L))
    best = np.empty((levels, chains, L))
    S = np.cumsum(w, axis=2, out=M[0])
    np.minimum.reduce(S, axis=0, out=best[0])
    floor = np.empty((num_rules, chains, L - 1))
    for i in range(1, levels):
        level = M[i]
        level[:, :, 0] = w[:, :, 0]
        if L > 1:
            np.subtract(best[i - 1, None, :, : L - 1], S[:, :, : L - 1], out=floor)
            np.minimum.accumulate(floor, axis=2, out=floor)
            np.add(S[:, :, 1:], floor, out=level[:, :, 1:])
        np.minimum.reduce(level, axis=0, out=best[i])
    return M, best


def _backward_batch(
    M: np.ndarray, best: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover every chain's optimal rule runs from its forward values.

    ``last[c]`` is the final occurrence of chain c.  Walking from the last
    occurrence toward the first with current level r and rule q, a shift is
    recorded at occurrence p exactly when the forward recursion's shift
    branch was strictly better there: best[r-1, p-1] < M[r, q, p-1].  Both
    quantities are stored forward values, so the test reproduces the forward
    decisions bit for bit (a subtraction of the current loss would
    reintroduce rounding and could turn exact ties into spurious shifts).
    Ties keep the current rule, so the schedule uses as few shifts as
    possible.  Every step lowers r by one, so the walk is one vector step per
    level for the whole batch; the new rule is an argmin over the rules at
    the chosen occurrence only.  Returns the (chains, L) rule assignment,
    whose slots past a chain's end repeat the rule of its last run, and the
    shifts used per chain.
    """
    levels, _, chains, L = M.shape
    cols = np.arange(L)
    rows = np.arange(chains)
    r = levels - 1
    q = M[r][:, rows, last].argmin(axis=0)
    upper = last.copy()
    switches = np.zeros(chains, dtype=np.int64)
    run_start = np.zeros((chains, L), dtype=bool)
    run_rule = np.empty((chains, L), dtype=np.int64)
    active = np.flatnonzero(upper > 0)
    while r > 0 and active.size:
        stay = M[r][q[active], active]
        hits = (best[r - 1, active] < stay) & (cols < upper[active, None])
        found = hits.any(axis=1)
        active = active[found]
        p = L - np.argmax(hits[found, ::-1], axis=1)
        run_start[active, p] = True
        run_rule[active, p] = q[active]
        r -= 1
        q[active] = M[r][:, active, p - 1].argmin(axis=0)
        upper[active] = p - 1
        switches[active] += 1
        active = active[p > 1]
    run_start[:, 0] = True
    run_rule[:, 0] = q
    run_of = np.where(run_start, cols, 0)
    np.maximum.accumulate(run_of, axis=1, out=run_of)
    return np.take_along_axis(run_rule, run_of, axis=1), switches


def _solve_chains(
    partition: ContextPartition, codes: np.ndarray, table: np.ndarray, budgets
) -> list[tuple[SwitchingSchedule, float]]:
    """Both passes for every context chain of the partition, for every budget.

    The loss row at 0-based interior index t is ``table[codes[t]]`` (one
    entry per rule); level i of the DP allows at most i shifts.  A chain of
    L occurrences reads only levels below L, whose values are the same at
    every level >= L, so budget m is solved on min(m, longest - 1) + 1
    levels with the same bits as on m + 1.  Each batch runs its forward pass
    once, on the most levels any budget needs, and walks back once per
    distinct level count from that count's top level.  Levels 0..lv-1 of the
    deeper pass come from the same operations on the same inputs as a pass
    of lv levels, so each budget's result equals its own solve bit for bit.
    Returns one (schedule, unnormalized minimum cumulative loss) per budget,
    in order; shifts per context are listed in ascending context id, and
    assignments use the smallest unsigned dtype that holds every rule index.
    """
    num_rules = table.shape[1]
    rules_major = np.ascontiguousarray(table.T)
    longest = int(partition._counts.max())
    levels = [min(int(m), longest - 1) + 1 for m in budgets]
    tops = sorted(set(levels))
    assignments = {
        lv: np.empty(partition.num_interior, dtype=np.min_scalar_type(num_rules - 1))
        for lv in tops
    }
    switches = {lv: np.zeros(partition._counts.size, dtype=np.int64) for lv in tops}
    mins = {lv: [] for lv in tops}
    for chains, lengths, pos in _batches(partition, tops[-1], num_rules):
        M, best = _forward_batch(rules_major[:, codes[pos]], tops[-1])
        last = lengths - 1
        rows = np.arange(chains.size)
        for lv in tops:
            mins[lv].extend(best[lv - 1, rows, last].tolist())
            assign, switches[lv][chains] = _backward_batch(M[:lv], best[:lv], last)
            # A padded slot repeats its chain's last position and carries the
            # rule of the last run, so writing it again stores the same value.
            assignments[lv][pos] = assign
    ids = partition._unique_ids.tolist()
    per_context = {lv: dict(zip(ids, switches[lv].tolist())) for lv in tops}
    return [
        (
            SwitchingSchedule(
                n=partition.n,
                k=partition.k,
                m=int(m),
                assignment=assignments[lv],
                per_context_switches=per_context[lv],
                partition=partition,
            ),
            math.fsum(mins[lv]),
        )
        for m, lv in zip(budgets, levels)
    ]


def _estimated_problem(
    z: SymbolSequence, k: int, budgets: tuple, tables: EstimatedLossTable
) -> tuple[ContextPartition, np.ndarray]:
    """z's order-k partition and interior codes, once the budgets and alphabet are checked."""
    if not budgets:
        raise ValidationError("need at least one shift budget")
    partition = build_partition(z, k)
    for m in budgets:
        if not isinstance(m, (int, np.integer)) or not 0 <= m <= partition.num_interior // 2:
            raise RangeError(
                f"shift budget m must satisfy 0 <= m <= {partition.num_interior // 2}, got {m!r}"
            )
    if z.alphabet_size != tables.channel.noisy_size:
        raise ValidationError("sequence alphabet does not match the channel's noisy alphabet")
    # The interior noisy symbols are the rows of ``tables.ell`` that score each position.
    return partition, z.symbols[k : len(z) - k]


def forward_pass(z: SymbolSequence, k: int, m: int, tables: EstimatedLossTable) -> DPState:
    """Solve every context chain's DP for the estimated loss, schedule included."""
    partition, codes = _estimated_problem(z, k, (m,), tables)
    [(schedule, forward_min)] = _solve_chains(partition, codes, tables.ell, (m,))
    return DPState(schedule=schedule, codes=codes, ell=tables.ell, forward_min=forward_min)


def _table_sum(table: np.ndarray, codes: np.ndarray, assignment: np.ndarray) -> float:
    """Correctly rounded sum of table[codes[t], assignment[t]] over all t.

    Equal to math.fsum over the picked entries, since both round the exact
    sum once; it counts how often each table entry is picked instead of
    visiting every position, and adds the counted entries exactly as
    integer multiples of a common power-of-two unit.
    """
    uses = np.bincount(codes * table.shape[1] + assignment, minlength=table.size)
    picked = np.flatnonzero(uses)
    ratios = [value.as_integer_ratio() for value in table.ravel()[picked].tolist()]
    unit = max(den for _, den in ratios)
    counts = uses[picked].tolist()
    return sum(num * (unit // den) * c for (num, den), c in zip(ratios, counts)) / unit


def sdude_denoise_each(
    z: SymbolSequence,
    k: int,
    budgets,
    channel: ChannelModel,
    loss: LossMatrix,
    boundary: int | None = None,
    tables: EstimatedLossTable | None = None,
) -> list[tuple[SymbolSequence, SwitchingSchedule, float]]:
    """``sdude_denoise`` for each shift budget in ``budgets``, from one solve.

    One forward pass over z's context chains serves every budget, and a
    budget's result is the same bits as its own ``sdude_denoise`` call.
    Every schedule holds the one partition of z, ``schedule.partition``.
    """
    if tables is None:
        tables = build_tables(channel, loss)
    budgets = tuple(budgets)
    partition, codes = _estimated_problem(z, k, budgets, tables)
    n, recon = len(z), tables.loss.recon_size
    if k > 0 and boundary is not None:
        if not isinstance(boundary, (int, np.integer)) or not 0 <= boundary < recon:
            raise RangeError(f"boundary symbol {boundary!r} outside the reconstruction alphabet")
        fill = boundary
    elif recon >= tables.channel.noisy_size:
        fill = None
    else:
        fill = 0
    results = []
    for schedule, _ in _solve_chains(partition, codes, tables.ell, budgets):
        out = z.symbols.copy() if fill is None else np.full(n, fill, dtype=np.int64)
        out[k : n - k] = tables.mappings[schedule.assignment, codes]
        estimated = _table_sum(tables.ell, codes, schedule.assignment) / codes.size
        results.append((SymbolSequence(out, recon), schedule, estimated))
    return results


def sdude_denoise(
    z: SymbolSequence,
    k: int,
    m: int,
    channel: ChannelModel,
    loss: LossMatrix,
    boundary: int | None = None,
    tables: EstimatedLossTable | None = None,
) -> tuple[SymbolSequence, SwitchingSchedule, float]:
    """Denoise with the best context-wise schedule of at most m shifts.

    Returns the reconstruction, the schedule, and the normalized minimum
    cumulative estimated loss it attains (which may be negative).  With
    m = 0 this is the non-shifting sliding-window denoiser.

    Boundary positions (t <= k and t > n-k) copy the noisy symbol when the
    reconstruction alphabet is at least as large as the noisy one, else emit
    symbol 0; an explicit ``boundary`` symbol overrides that when k > 0.
    """
    return sdude_denoise_each(z, k, (m,), channel, loss, boundary, tables)[0]
