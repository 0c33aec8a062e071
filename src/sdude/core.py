"""Alphabets, symbol sequences, channel/loss matrices, and single-symbol rules.

Symbols of a finite alphabet of size q are the integers 0..q-1.  A channel is
a row-stochastic matrix ``pi`` of shape (clean, noisy) together with a right
inverse ``h_matrix`` satisfying ``pi @ h_matrix == I``; by default the
Moore-Penrose choice ``pi.T @ inv(pi @ pi.T)`` is used so that results are
reproducible.  A single-symbol rule is a mapping from the noisy alphabet into
the reconstruction alphabet; the family of all such rules has size
``recon_size ** noisy_size`` and is enumerated by the digit encoding
``index = sum(mapping[z] * recon_size**z)``.

Everything here is immutable after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError, ValidationError

# Tolerance for the stochastic and right-inverse identities.
ATOL = 1e-9


@dataclass(frozen=True)
class Alphabets:
    """Sizes of the clean, noisy, and reconstruction alphabets."""

    clean_size: int
    noisy_size: int
    recon_size: int

    def __post_init__(self):
        for name in ("clean_size", "noisy_size", "recon_size"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")

    @property
    def num_denoisers(self) -> int:
        """Number of single-symbol rules: recon_size ** noisy_size."""
        return self.recon_size ** self.noisy_size


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """An immutable integer sequence with symbols in 0..alphabet_size-1."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        arr = np.asarray(self.symbols)
        if arr.ndim != 1:
            raise ValidationError(f"sequence must be one-dimensional, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            if arr.size and not np.array_equal(arr, arr.astype(np.int64)):
                raise ValidationError("sequence symbols must be integers")
            arr = arr.astype(np.int64)
        else:
            arr = arr.astype(np.int64, copy=True)
        if not isinstance(self.alphabet_size, (int, np.integer)) or self.alphabet_size < 1:
            raise ValidationError(
                f"alphabet_size must be a positive integer, got {self.alphabet_size!r}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet_size):
            raise ValidationError(
                f"symbols must lie in 0..{self.alphabet_size - 1}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return int(self.symbols.shape[0])


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Channel matrix ``pi`` with a validated right inverse ``h_matrix``."""

    pi: np.ndarray        # (clean, noisy), row-stochastic, full row rank
    h_matrix: np.ndarray  # (noisy, clean), pi @ h_matrix == I

    @property
    def clean_size(self) -> int:
        return self.pi.shape[0]

    @property
    def noisy_size(self) -> int:
        return self.pi.shape[1]


def build_channel(pi, h_matrix=None) -> ChannelModel:
    """Validate a channel matrix and attach its canonical right inverse.

    The default inverse is the Moore-Penrose choice pi.T @ inv(pi @ pi.T);
    for a square invertible matrix this is the ordinary inverse.  An explicit
    ``h_matrix`` may be supplied instead (it is validated, not recomputed).
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 2:
        raise ValidationError(f"channel matrix must be 2-D, got shape {pi.shape}")
    if not np.all(np.isfinite(pi)):
        raise ValidationError("channel matrix has non-finite entries")
    if pi.min() < 0.0 or pi.max() > 1.0:
        raise ValidationError("channel probabilities must lie in [0, 1]")
    row_sums = pi.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > ATOL:
        raise ValidationError("channel rows must sum to 1 (no silent renormalization)")
    clean, noisy = pi.shape
    if noisy < clean or np.linalg.matrix_rank(pi) < clean:
        raise RankError("channel matrix must have full row rank")
    if h_matrix is None:
        # Moore-Penrose inverse pi^T (pi pi^T)^{-1}, computed through the SVD.
        h_matrix = np.linalg.pinv(pi)
        if np.max(np.abs(pi @ h_matrix - np.eye(clean))) > ATOL:
            raise RankError(
                "channel matrix is too ill-conditioned for a right inverse "
                f"accurate to {ATOL}"
            )
    else:
        h_matrix = np.asarray(h_matrix, dtype=np.float64)
        if h_matrix.shape != (noisy, clean):
            raise ValidationError(
                f"h_matrix must have shape {(noisy, clean)}, got {h_matrix.shape}"
            )
        if np.max(np.abs(pi @ h_matrix - np.eye(clean))) > ATOL:
            raise ValidationError("pi @ h_matrix deviates from the identity")
    pi.flags.writeable = False
    h_matrix.flags.writeable = False
    return ChannelModel(pi=pi, h_matrix=h_matrix)


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """Nonnegative single-letter loss of shape (clean, recon)."""

    lam: np.ndarray

    @property
    def clean_size(self) -> int:
        return self.lam.shape[0]

    @property
    def recon_size(self) -> int:
        return self.lam.shape[1]

    @property
    def lambda_max(self) -> float:
        """Largest single-letter loss."""
        return float(self.lam.max())


def build_loss(lam) -> LossMatrix:
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 2:
        raise ValidationError(f"loss matrix must be 2-D, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)) or lam.min() < 0.0:
        raise ValidationError("loss entries must be finite and nonnegative")
    lam.flags.writeable = False
    return LossMatrix(lam=lam)


def all_denoiser_mappings(alphabets: Alphabets) -> np.ndarray:
    """Table of every rule's mapping, shape (num_denoisers, noisy_size).

    Row j is the mapping of the rule with index j, so the table realizes the
    digit encoding in bulk.
    """
    recon = alphabets.recon_size
    idx = np.arange(alphabets.num_denoisers, dtype=np.int64)[:, None]
    powers = recon ** np.arange(alphabets.noisy_size, dtype=np.int64)[None, :]
    table = (idx // powers) % recon
    table.flags.writeable = False
    return table


def bsc_channel(delta: float) -> ChannelModel:
    """Binary symmetric channel with crossover probability delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError("crossover probability must lie in [0, 1]")
    return build_channel([[1.0 - delta, delta], [delta, 1.0 - delta]])


def identity_channel(size: int) -> ChannelModel:
    """Noiseless channel on an alphabet of the given size."""
    if int(size) < 1:
        raise ValidationError(f"alphabet size must be at least 1, got {size}")
    return build_channel(np.eye(int(size)))


def hamming_loss(clean_size: int, recon_size: int | None = None) -> LossMatrix:
    """0/1 loss: zero on the diagonal, one elsewhere."""
    if recon_size is None:
        recon_size = clean_size
    if min(int(clean_size), int(recon_size)) < 1:
        raise ValidationError(f"alphabet sizes must be at least 1, got {clean_size}, {recon_size}")
    lam = np.ones((int(clean_size), int(recon_size)))
    np.fill_diagonal(lam, 0.0)
    return build_loss(lam)
