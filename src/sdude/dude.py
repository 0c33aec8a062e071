"""Baseline non-shifting sliding-window denoiser.

For each occurring context the rule applied at all of its occurrences is the
one minimizing the accumulated estimated loss of the context's subsequence,
with ties going to the smallest rule index.  This equals the count-based
decision rule applied per position, and is position-invariant within a
context: equal windows always produce equal reconstructions.

It is the switching denoiser with a budget of zero shifts, so the zero-shift
switching denoiser reproduces this output bit for bit by identity, boundary
positions included: they copy the noisy symbol, or emit 0 when the
reconstruction alphabet is smaller than the noisy one.
"""

from __future__ import annotations

from .core import ChannelModel, LossMatrix, SymbolSequence
from .estimation import EstimatedLossTable
from .switching import sdude_denoise


def dude_denoise(
    z: SymbolSequence,
    k: int,
    channel: ChannelModel,
    loss: LossMatrix,
    tables: EstimatedLossTable | None = None,
) -> SymbolSequence:
    """Denoise with the best time-invariant rule per order-k context.

    Boundary positions (t <= k and t > n-k) copy the noisy symbol when the
    reconstruction alphabet is at least as large as the noisy one, else emit
    symbol 0.
    """
    return sdude_denoise(z, k, 0, channel, loss, tables)[0]
