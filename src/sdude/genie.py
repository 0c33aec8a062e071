"""Hindsight targets: the best schedule loss given the clean sequence.

The genie runs the same per-context switching dynamic program as the
denoiser but scores each position with the true loss lam(x_t, s(z_t))
instead of the observable estimate, yielding the minimum normalized
cumulative loss over the schedule class (with m = 0, the best non-shifting
sliding-window performance).
"""

from __future__ import annotations

import numpy as np

from .contexts import build_partition
from .core import Alphabets, LossMatrix, SymbolSequence, all_denoiser_mappings
from .errors import ValidationError
from .switching import SwitchingSchedule, _solve_chains


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
    schedule, forward_min = _solve_chains(partition, codes, table, m, levels)
    return forward_min / partition.num_interior, schedule
