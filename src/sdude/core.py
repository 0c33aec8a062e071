"""Symbol sequences, channel/loss matrices, and single-symbol rules.

Symbols of a finite alphabet of size q are the integers 0..q-1.  A
``SymbolSequence`` holds them in ``symbol_dtype(q)``, the smallest dtype
that fits: ``uint8`` up to 256 symbols, ``uint16`` up to 65536, ``uint32``
up to 2^32, ``int64`` beyond.  A channel is a row-stochastic matrix ``pi``
of shape (clean, noisy) together with a right inverse ``h_matrix``
satisfying ``pi @ h_matrix == I``; by default the Moore-Penrose choice
``pi.T @ inv(pi @ pi.T)`` is used so that results are reproducible.  A
single-symbol rule is a mapping from the noisy alphabet into the
reconstruction alphabet; the family of all such rules has size
``recon_size ** noisy_size`` and is enumerated by the digit encoding
``index = sum(mapping[z] * recon_size**z)``.

Everything here is immutable after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError, TooLarge, ValidationError

# Tolerance for the stochastic and right-inverse identities.
ATOL = 1e-9

# Enumerating all recon**noisy single-symbol rules is only sensible for
# small alphabets; refuse silly table sizes outright.
MAX_RULES = 4096

# Square matrices built from a size alone hold at most this many entries (8 MiB of float64).
MAX_MATRIX_ENTRIES = 2**20


def symbol_dtype(alphabet_size: int) -> np.dtype:
    """The smallest dtype that holds every symbol of an alphabet of this size.

    ``uint8``, ``uint16`` or ``uint32`` when the symbols fit, else ``int64``:
    the top rung stays signed because numpy combines uint64 with int64 into
    float64.
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if alphabet_size <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """An immutable integer sequence with symbols in 0..alphabet_size-1.

    ``symbols`` is a read-only copy of the input in
    ``symbol_dtype(alphabet_size)``; code that combines symbols with other
    integers widens them first.
    """

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        arr = np.asarray(self.symbols)
        if arr.ndim != 1:
            raise ValidationError(f"sequence must be one-dimensional, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            if arr.size and not np.array_equal(arr, arr.astype(np.int64)):
                raise ValidationError("sequence symbols must be integers")
        if not isinstance(self.alphabet_size, (int, np.integer)) or self.alphabet_size < 1:
            raise ValidationError(
                f"alphabet_size must be a positive integer, got {self.alphabet_size!r}"
            )
        size = int(self.alphabet_size)
        # The range is checked on the input, before the cast could wrap it.
        if arr.size and (arr.min() < 0 or arr.max() >= min(size, 2**63)):
            raise ValidationError(f"symbols must lie in 0..{min(size, 2**63) - 1}")
        arr = arr.astype(symbol_dtype(size), copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "alphabet_size", size)

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
        if not np.all(np.isfinite(h_matrix)):
            raise ValidationError("h_matrix has non-finite entries")
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


def build_loss(lam) -> LossMatrix:
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 2:
        raise ValidationError(f"loss matrix must be 2-D, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)) or lam.min() < 0.0:
        raise ValidationError("loss entries must be finite and nonnegative")
    lam.flags.writeable = False
    return LossMatrix(lam=lam)


def _check_size(name: str, v) -> None:
    if not isinstance(v, (int, np.integer)) or v < 1:
        raise ValidationError(f"{name} must be a positive integer (at least 1), got {v!r}")


def _rule_count(noisy_size: int, recon_size: int) -> int:
    """The number of rules, recon_size ** noisy_size; over ``MAX_RULES`` raises ``TooLarge``."""
    _check_size("noisy_size", noisy_size)
    _check_size("recon_size", recon_size)
    # Python ints, so that the rule count never wraps.
    noisy, recon = int(noisy_size), int(recon_size)
    num_rules = recon**noisy
    if num_rules > MAX_RULES:
        raise TooLarge(
            f"{recon}^{noisy} single-symbol rules exceed the table budget of {MAX_RULES}"
        )
    return num_rules


def all_denoiser_mappings(noisy_size: int, recon_size: int) -> np.ndarray:
    """Table of every rule's mapping, shape (recon_size ** noisy_size, noisy_size).

    Row j is the mapping of the rule with index j, so the table realizes the
    digit encoding in bulk.  More than ``MAX_RULES`` rules raise ``TooLarge``.
    """
    num_rules = _rule_count(noisy_size, recon_size)
    noisy, recon = int(noisy_size), int(recon_size)
    idx = np.arange(num_rules, dtype=np.int64)[:, None]
    powers = recon ** np.arange(noisy, dtype=np.int64)[None, :]
    table = (idx // powers) % recon
    table.flags.writeable = False
    return table


def _bsc_matrix(delta: float) -> np.ndarray:
    """The matrix of the binary symmetric channel with crossover probability delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError("crossover probability must lie in [0, 1]")
    return np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])


def bsc_channel(delta: float) -> ChannelModel:
    """Binary symmetric channel with crossover probability delta."""
    return build_channel(_bsc_matrix(delta))


def _square_side(size) -> int:
    """``size`` as the side of a square matrix within ``MAX_MATRIX_ENTRIES``."""
    _check_size("alphabet size", size)
    if int(size) ** 2 > MAX_MATRIX_ENTRIES:
        raise TooLarge(f"a {size}x{size} matrix exceeds the budget of {MAX_MATRIX_ENTRIES} entries")
    return int(size)


def identity_channel(size: int) -> ChannelModel:
    """Noiseless channel on an alphabet of the given size."""
    return build_channel(np.eye(_square_side(size)))


def hamming_loss(clean_size: int) -> LossMatrix:
    """0/1 loss: zero on the diagonal, one elsewhere."""
    return build_loss(1.0 - np.eye(_square_side(clean_size)))
