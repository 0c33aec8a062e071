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

from .core import Alphabets, ChannelModel, LossMatrix, all_denoiser_mappings
from .errors import RangeError, TooLarge, ValidationError

# Enumerating all recon**noisy single-symbol rules is only sensible for
# small alphabets; refuse silly table sizes outright.
MAX_RULES = 4096


@dataclass(frozen=True, eq=False)
class EstimatedLossTable:
    """Per-rule loss tables for one (channel, loss) pair.

    mappings[j, z] is rule j applied to symbol z; rho has shape
    (clean, num_rules); ell has shape (noisy, num_rules).  ell_max is the
    spread (max minus min) of the estimated losses.
    """

    channel: ChannelModel
    loss: LossMatrix
    mappings: np.ndarray
    rho: np.ndarray
    ell: np.ndarray
    ell_max: float

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
    alphabets = Alphabets(channel.clean_size, channel.noisy_size, loss.recon_size)
    if alphabets.num_denoisers > MAX_RULES:
        raise TooLarge(
            f"{alphabets.recon_size}^{alphabets.noisy_size} single-symbol rules exceed the "
            f"table budget of {MAX_RULES}"
        )
    mappings = all_denoiser_mappings(alphabets)
    # rho[x, j] = sum_z lam[x, mappings[j, z]] * pi[x, z]
    per_symbol = loss.lam[:, mappings]            # (clean, rules, noisy)
    rho = np.einsum("xjz,xz->xj", per_symbol, channel.pi)
    ell = channel.h_matrix @ rho                  # (noisy, rules)
    rho.flags.writeable = False
    ell.flags.writeable = False
    return EstimatedLossTable(
        channel=channel,
        loss=loss,
        mappings=mappings,
        rho=rho,
        ell=ell,
        ell_max=float(ell.max() - ell.min()),
    )


def bayes_response(zeta, loss_cols) -> int:
    """Index of the action minimizing zeta . column; ties go to the smallest index.

    zeta need not be a probability vector, and the argmin is invariant under
    positive scaling of zeta in exact arithmetic.  In floating point a
    subnormal entry can underflow to zero once scaled, which can change the
    argmin: ``[0, 5e-324]`` gives 1, but the same vector scaled by 0.5 gives 0.
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    loss_cols = np.asarray(loss_cols, dtype=np.float64)
    return int(np.argmin(zeta @ loss_cols))


def bayes_envelope(zeta, loss_cols) -> float:
    """Minimum of zeta . column over actions."""
    zeta = np.asarray(zeta, dtype=np.float64)
    loss_cols = np.asarray(loss_cols, dtype=np.float64)
    return float(np.min(zeta @ loss_cols))


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
