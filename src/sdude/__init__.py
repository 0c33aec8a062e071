"""Sliding-window and switching discrete denoising for DMC-corrupted data.

The package provides the count-based sliding-window denoiser, its shifting
generalization driven by a two-pass dynamic program over switching rule
schedules, hindsight (genie) targets solved by the same dynamic program,
stochastic source and channel simulators, an exact smoothing baseline for
switching hidden Markov processes, and reproducible experiment harnesses.

If sdude is the first to import numpy and neither ``OPENBLAS_NUM_THREADS``
nor ``OMP_NUM_THREADS`` is set, numpy is loaded with a one-thread OpenBLAS
pool: sdude's only large BLAS call, ``map_denoise``'s ``(n, 2) @ (2, 2)``, is
memory-bound, and a second thread only adds start-up time and stalls.  The
pool is process-wide and fixed once numpy is loaded: every later BLAS call
of the importing application, not only sdude's (``np.linalg``, large
matrix products), then runs on one thread for the life of the process.
The variable is set for that import alone, so child processes inherit
nothing.  Set either variable, or import numpy first, to keep OpenBLAS's
own choice.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not (
    {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys()
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
