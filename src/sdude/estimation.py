"""Observable estimated-loss machinery built on the channel's right inverse.

For a rule s the vector rho(s) collects the expected true loss per clean
symbol, rho[x, s] = sum_z lam(x, s(z)) pi(x, z).  The estimated loss
ell(z, s) = h(z) . rho(s) is observable (it depends on the noisy symbol only)
and unbiased: sum_z pi(x, z) ell(z, s) = rho[x, s].  Estimated losses may be
negative; they are never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, LossMatrix, all_denoiser_mappings
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class EstimatedLossTable:
    """Per-rule loss tables for one (channel, loss) pair.

    mappings[j, z] is rule j applied to symbol z; rho has shape
    (clean, num_rules); ell has shape (noisy, num_rules).
    """

    channel: ChannelModel
    loss: LossMatrix
    mappings: np.ndarray
    rho: np.ndarray
    ell: np.ndarray

    @property
    def num_rules(self) -> int:
        return self.ell.shape[1]


def build_tables(channel: ChannelModel, loss: LossMatrix) -> EstimatedLossTable:
    """Tabulate rho and ell for every single-symbol rule."""
    if loss.clean_size != channel.clean_size:
        raise ValidationError(
            "loss matrix rows must match the channel's clean alphabet "
            f"({loss.clean_size} != {channel.clean_size})"
        )
    mappings = all_denoiser_mappings(channel.noisy_size, loss.recon_size)
    # rho[x, j] = sum_z lam[x, mappings[j, z]] * pi[x, z]
    per_symbol = loss.lam[:, mappings]            # (clean, rules, noisy)
    rho = np.einsum("xjz,xz->xj", per_symbol, channel.pi)
    ell = channel.h_matrix @ rho                  # (noisy, rules)
    if not np.all(np.isfinite(ell)):
        raise ValidationError("estimated losses are not finite")
    rho.flags.writeable = False
    ell.flags.writeable = False
    return EstimatedLossTable(
        channel=channel,
        loss=loss,
        mappings=mappings,
        rho=rho,
        ell=ell,
    )
