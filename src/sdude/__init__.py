"""Sliding-window and switching discrete denoising for DMC-corrupted data.

The package provides the count-based sliding-window denoiser, its shifting
generalization driven by a two-pass dynamic program over switching rule
schedules, hindsight (genie) targets solved by the same dynamic program,
stochastic source and channel simulators, an exact smoothing baseline for
switching hidden Markov processes, and reproducible experiment harnesses.
Importing it changes neither the environment nor how numpy loads.
"""

from .contexts import ContextPartition, build_partition
from .core import (
    ChannelModel,
    LossMatrix,
    SymbolSequence,
    all_denoiser_mappings,
    bsc_channel,
    build_channel,
    build_loss,
    hamming_loss,
    identity_channel,
)
from .dude import dude_denoise
from .errors import (
    DenoiseError,
    RangeError,
    RankError,
    SequenceTooShort,
    TooLarge,
    ValidationError,
)
from .estimation import EstimatedLossTable, build_tables
from .evaluation import (
    DenoiserResult,
    EvalReport,
    concentration_sweep,
    cumulative_loss,
    run_switching_hmm_experiment,
    run_two_block_experiment,
    two_block_sequence,
)
from .genie import genie_min_loss, genie_min_losses
from .hmm import fb_posteriors, map_denoise
from .sources import (
    IIDComponent,
    MarkovComponent,
    PiecewiseSourceSpec,
    corrupt,
    sample_piecewise,
    stationary_distribution,
)
from .switching import SwitchingSchedule, sdude_denoise, sdude_denoise_each

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "ContextPartition",
    "DenoiseError",
    "DenoiserResult",
    "EstimatedLossTable",
    "EvalReport",
    "IIDComponent",
    "LossMatrix",
    "MarkovComponent",
    "PiecewiseSourceSpec",
    "RangeError",
    "RankError",
    "SequenceTooShort",
    "SwitchingSchedule",
    "SymbolSequence",
    "TooLarge",
    "ValidationError",
    "all_denoiser_mappings",
    "bsc_channel",
    "build_channel",
    "build_loss",
    "build_partition",
    "build_tables",
    "concentration_sweep",
    "corrupt",
    "cumulative_loss",
    "dude_denoise",
    "fb_posteriors",
    "genie_min_loss",
    "genie_min_losses",
    "hamming_loss",
    "identity_channel",
    "map_denoise",
    "run_switching_hmm_experiment",
    "run_two_block_experiment",
    "sample_piecewise",
    "sdude_denoise",
    "sdude_denoise_each",
    "stationary_distribution",
    "two_block_sequence",
]
