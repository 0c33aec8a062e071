"""Hindsight targets: the best schedule loss given the clean sequence.

The genie runs the same per-context switching dynamic program as the
denoiser but scores each position with the true loss lam(x_t, s(z_t))
instead of the observable estimate, yielding the minimum normalized
cumulative loss over the schedule class (with m = 0, the best non-shifting
sliding-window performance).  ``genie_min_losses`` takes a context partition
of z, typically the denoiser's own ``schedule.partition``, and reads z and k
from it, so the target competes on exactly the denoiser's contexts.  One
solve serves every budget: the forward pass runs once to the deepest
budget's level, and each budget walks back from its own, giving the same
bits as a solve of that budget alone.
"""

from __future__ import annotations

import numpy as np

from .contexts import ContextPartition, build_partition
from .core import LossMatrix, SymbolSequence, all_denoiser_mappings
from .errors import ValidationError
from .switching import SwitchingSchedule, _solve_chains


def _true_loss_table(
    x: SymbolSequence, z: SymbolSequence, k: int, lam: np.ndarray, mappings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table) with table[codes[t], j] = lam[x_t, mappings[j, z_t]] at interior t."""
    n = len(z)
    noisy = mappings.shape[1]
    # Every code x * noisy + z is below clean * noisy, so the narrowest dtype
    # that holds that bound (and noisy, for a one-symbol clean alphabet)
    # computes them without wrapping: uint8 for binary data.
    codes = x.symbols[k : n - k].astype(np.min_scalar_type(max(lam.shape[0] * noisy - 1, noisy)))
    codes *= noisy
    codes += z.symbols[k : n - k]
    table = lam[:, mappings.T].reshape(lam.shape[0] * noisy, mappings.shape[0])
    return codes, table


def genie_min_losses(
    x: SymbolSequence,
    partition: ContextPartition,
    budgets,
    loss: LossMatrix,
) -> list[tuple[float, SwitchingSchedule]]:
    """``genie_min_loss`` for each shift budget in ``budgets``, from one solve.

    The noisy sequence and k are the ones ``partition`` was built from.
    """
    z, k = partition.z, partition.k
    if len(x) != len(z):
        raise ValidationError(f"clean and noisy lengths differ ({len(x)} != {len(z)})")
    lam = loss.lam
    if x.alphabet_size > lam.shape[0]:
        raise ValidationError("clean alphabet exceeds the loss matrix rows")
    budgets = tuple(budgets)
    if not budgets:
        raise ValidationError("need at least one shift budget")
    for m in budgets:
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise ValidationError(f"shift budget m must be a nonnegative integer, got {m!r}")
    mappings = all_denoiser_mappings(z.alphabet_size, lam.shape[1])
    codes, table = _true_loss_table(x, z, k, lam, mappings)
    solved = _solve_chains(partition, codes, table, budgets)
    return [(forward_min / partition.num_interior, schedule) for schedule, forward_min in solved]


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
    return genie_min_losses(x, build_partition(z, k), (m,), loss)[0]
