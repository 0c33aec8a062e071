"""Baseline non-shifting sliding-window denoiser.

For each occurring context the rule applied at all of its occurrences is the
one minimizing the accumulated estimated loss of the context's subsequence,
with ties going to the smallest rule index.  This equals the count-based
decision rule applied per position, and is position-invariant within a
context: equal windows always produce equal reconstructions.

The decision is the switching kernel's one-level call (no shifts allowed):
the per-context cost is accumulated in occurrence order exactly as the
switching denoiser accumulates it, so the zero-shift switching denoiser
reproduces this output bit for bit by construction.
"""

from __future__ import annotations

import numpy as np

from .contexts import build_partition
from .core import ChannelModel, LossMatrix, SymbolSequence
from .estimation import EstimatedLossTable, build_tables
from .switching import _fill_boundary, _interior_codes, _solve_chains


def dude_denoise(
    z: SymbolSequence,
    k: int,
    channel: ChannelModel,
    loss: LossMatrix,
    boundary: int | None = None,
    tables: EstimatedLossTable | None = None,
) -> SymbolSequence:
    """Denoise with the best time-invariant rule per order-k context.

    Boundary positions (t <= k and t > n-k) copy the noisy symbol when the
    reconstruction alphabet is at least as large as the noisy one, else emit
    symbol 0; pass ``boundary`` to override.
    """
    if tables is None:
        tables = build_tables(channel, loss)
    partition = build_partition(z, k)
    z_int = _interior_codes(z, k, tables)
    assignment, _, _ = _solve_chains(partition, z_int, tables.ell, 1)
    n = len(z)
    out = np.empty(n, dtype=np.int64)
    out[k : n - k] = tables.mappings[assignment, z_int]
    _fill_boundary(out, z.symbols, k, tables.channel.noisy_size, tables.loss.recon_size, boundary)
    return SymbolSequence(out, tables.loss.recon_size)
