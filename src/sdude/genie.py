"""Hindsight targets: the best schedule loss given the clean sequence.

The genie runs the same per-context switching dynamic program as the
denoiser but scores each position with the true loss lam(x_t, s(z_t))
instead of the observable estimate, yielding the minimum normalized
cumulative loss over the schedule class (with m = 0, the best non-shifting
sliding-window performance).  A separate exhaustive enumerator over the
schedule class serves as an independent test oracle for both dynamic
programs.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .contexts import build_partition
from .core import Alphabets, LossMatrix, SymbolSequence, all_denoiser_mappings
from .errors import TooLarge, ValidationError
from .estimation import EstimatedLossTable
from .switching import SwitchingSchedule, _solve_chains

BRUTE_FORCE_BUDGET = 10**6


def _true_loss_table(
    x: SymbolSequence, z: SymbolSequence, k: int, lam: np.ndarray, mappings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table) with table[codes[t], j] = lam[x_t, mappings[j, z_t]] at interior t."""
    n = len(z)
    noisy = mappings.shape[1]
    codes = x.symbols[k : n - k] * noisy + z.symbols[k : n - k]
    table = lam[:, mappings.T].reshape(lam.shape[0] * noisy, mappings.shape[0])
    return codes, table


def genie_min_loss(
    x: SymbolSequence,
    z: SymbolSequence,
    k: int,
    m: int,
    loss: LossMatrix,
) -> tuple[float, SwitchingSchedule]:
    """Best normalized cumulative true loss over schedules with <= m shifts per context.

    Unlike the denoiser, any m >= 0 is accepted; budgets beyond the longest
    context chain cannot change the optimum.
    """
    if len(x) != len(z):
        raise ValidationError(f"clean and noisy lengths differ ({len(x)} != {len(z)})")
    lam = loss.lam
    if x.alphabet_size > lam.shape[0]:
        raise ValidationError("clean alphabet exceeds the loss matrix rows")
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValidationError(f"shift budget m must be a nonnegative integer, got {m!r}")
    partition = build_partition(z, k)
    mappings = all_denoiser_mappings(Alphabets(lam.shape[0], z.alphabet_size, lam.shape[1]))
    codes, table = _true_loss_table(x, z, k, lam, mappings)
    longest = int(partition._counts.max())
    levels = min(int(m), longest - 1) + 1
    assignment, per_context, forward_min = _solve_chains(partition, codes, table, levels)
    schedule = SwitchingSchedule(
        n=len(z),
        k=int(k),
        m=int(m),
        assignment=assignment,
        per_context_switches=per_context,
        partition=partition,
    )
    return forward_min / partition.num_interior, schedule


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


def brute_force_min(
    z: SymbolSequence,
    k: int,
    m: int,
    tables: EstimatedLossTable,
    mode: str = "estimated",
    x: SymbolSequence | None = None,
) -> float:
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
    for _, idx in partition._groups():
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
