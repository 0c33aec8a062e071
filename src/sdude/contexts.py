"""Two-sided contexts: per-position context ids, occurrence lists, count vectors.

The context of position t (1-based, k+1 <= t <= n-k) is the 2k-tuple of
noisy symbols flanking it, packed into one integer by base-q digits in
reading order (left window first, then right window).  Only contexts that
actually occur are materialized, so memory stays O(n) for any k.

All position arguments and results on the public surface are 1-based;
0-based arrays are internal.
"""

from __future__ import annotations

import numpy as np

from .core import SymbolSequence
from .errors import RangeError, SequenceTooShort, TooLarge, ValidationError


class ContextPartition:
    """Partition of the interior positions of a sequence by two-sided context."""

    def __init__(self, z: SymbolSequence, k: int):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise RangeError(f"context half-width k must be a nonnegative integer, got {k!r}")
        n = len(z)
        if n <= 2 * k:
            raise SequenceTooShort(f"need n > 2k, got n={n}, k={k}")
        base = z.alphabet_size
        if base ** (2 * k) > 2**62:
            raise TooLarge(f"context ids for |Z|={base}, k={k} overflow 64-bit packing")
        self.k = int(k)
        self.n = n
        self.noisy_size = base
        arr = z.symbols
        n_int = n - 2 * k
        ids = np.zeros(n_int, dtype=np.int64)
        for off in list(range(-k, 0)) + list(range(1, k + 1)):
            ids *= base
            ids += arr[k + off : n - k + off]
        self._ids = ids
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        unique_ids, starts, counts = np.unique(
            sorted_ids, return_index=True, return_counts=True
        )
        self._order = order
        self._unique_ids = unique_ids
        self._starts = starts
        self._counts = counts

    @property
    def num_interior(self) -> int:
        return self.n - 2 * self.k

    def occurring_contexts(self) -> np.ndarray:
        """Ids of contexts that occur at least once, ascending."""
        return self._unique_ids.copy()

    def context_of(self, t: int) -> int:
        """Context id at 1-based interior position t."""
        if not self.k + 1 <= t <= self.n - self.k:
            raise RangeError(f"position {t} outside interior {self.k + 1}..{self.n - self.k}")
        return int(self._ids[t - self.k - 1])

    def occurrences(self, context_id: int) -> np.ndarray:
        """1-based positions where the context occurs, strictly increasing."""
        cid = int(context_id)
        i = int(np.searchsorted(self._unique_ids, cid))
        if i == self._unique_ids.size or int(self._unique_ids[i]) != cid:
            return np.empty(0, dtype=np.int64)
        s = self._starts[i]
        idx = self._order[s : s + self._counts[i]]
        return idx + self.k + 1

    def context_symbols(self, context_id: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Decode a context id into its (left window, right window) symbols."""
        digits = []
        cid = int(context_id)
        for _ in range(2 * self.k):
            digits.append(cid % self.noisy_size)
            cid //= self.noisy_size
        if cid != 0:
            raise RangeError(f"context id {context_id} out of range for k={self.k}")
        digits.reverse()
        return tuple(digits[: self.k]), tuple(digits[self.k :])


def build_partition(z: SymbolSequence, k: int) -> ContextPartition:
    """Group the interior positions of z by their two-sided order-k context."""
    return ContextPartition(z, k)


def count_vector(partition: ContextPartition, z: SymbolSequence, context_id: int) -> np.ndarray:
    """Symbol counts within one context: counts[b] = #{t in occurrences: z_t = b}.

    A context that never occurs yields the all-zero vector.
    """
    if z.alphabet_size != partition.noisy_size or len(z) != partition.n:
        raise ValidationError("sequence does not match the partition it is counted against")
    positions = partition.occurrences(context_id)
    return np.bincount(z.symbols[positions - 1], minlength=partition.noisy_size).astype(np.int64)
