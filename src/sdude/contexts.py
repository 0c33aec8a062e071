"""Two-sided contexts: occurrence lists and context ids.

The context of position t (1-based, k+1 <= t <= n-k) is the 2k-tuple of
noisy symbols flanking it, packed into one integer by base-q digits in
reading order (left window first, then right window).  The ids are held in
the smallest unsigned dtype that fits q^(2k) - 1 (``uint8`` for binary data
up to k = 4, ``uint16`` up to k = 8) and grouped by an LSD radix sort: one
stable argsort per 16-bit digit.  Only contexts that actually occur are
materialized, so memory stays O(n) for any k.  The partition keeps the
grouped order of the interior positions as ``int32`` when every 1-based
position of the sequence fits (n < 2^31), else as ``intp``.  A
partition owns the sequence it was built from, ``partition.z``; that is the
only sequence it can be combined with.
"""

from __future__ import annotations

import numpy as np

from .core import SymbolSequence
from .errors import RangeError, SequenceTooShort, TooLarge


class ContextPartition:
    """Partition of the interior positions of a sequence by two-sided context."""

    def __init__(self, z: SymbolSequence, k: int):
        n, base = len(z), z.alphabet_size
        k = _check_k(k, n, base)
        num_ids = base ** (2 * k)
        self.z = z
        self.k = k
        self.n = n
        self.noisy_size = base
        n_int = n - 2 * k
        ids = np.zeros(n_int, dtype=np.min_scalar_type(num_ids - 1))
        if k:
            arr = z.symbols.astype(ids.dtype, copy=False)
            for off in list(range(-k, 0)) + list(range(1, k + 1)):
                ids *= base
                ids += arr[k + off : n - k + off]
        order, sorted_ids = _radix_sort(ids, (num_ids - 1).bit_length())
        # Every 1-based position fits int32 below 2^31 symbols.  The order is
        # narrowed before the group bounds are found, so the intp one is freed
        # first; sorting and gathering stay on numpy's faster intp indices.
        order = order.astype(np.int32) if n < 2**31 else order
        new_group = np.empty(n_int, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new_group[1:])
        starts = np.flatnonzero(new_group)
        counts = np.diff(starts, append=n_int)
        unique_ids = sorted_ids[starts].astype(np.int64)
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


def _check_k(k, n: int, base: int) -> int:
    """k as an int, once it is a valid half-width for n symbols of an alphabet of ``base``."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise RangeError(f"context half-width k must be a nonnegative integer, got {k!r}")
    k = int(k)
    if n <= 2 * k:
        raise SequenceTooShort(f"need n > 2k, got n={n}, k={k}")
    if base ** (2 * k) > 2**62:
        raise TooLarge(f"context ids for |Z|={base}, k={k} overflow 64-bit packing")
    return k


def _radix_sort(ids: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of unsigned ids below 2**bits: (order, ids[order]).

    One stable argsort per 16-bit digit, least significant first, each
    carried through the previous digit's order; numpy's stable sort of a
    16-bit or narrower integer array is a counting (radix) sort.
    """
    if ids.dtype.itemsize <= 2:
        order = np.argsort(ids, kind="stable")
        return order, ids[order]
    order = None
    keys = ids
    for shift in range(0, bits, 16):
        # The cast keeps the low 16 bits of the shifted key: that digit.
        perm = np.argsort((keys >> shift).astype(np.uint16), kind="stable")
        order = perm if order is None else order[perm]
        keys = keys[perm]
    return order, keys


def build_partition(z: SymbolSequence, k: int) -> ContextPartition:
    """Group the interior positions of z by their two-sided order-k context."""
    return ContextPartition(z, k)
