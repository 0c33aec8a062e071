"""Two-sided contexts: occurrence lists and context ids.

The context of position t (1-based, k+1 <= t <= n-k) is the 2k-tuple of
noisy symbols flanking it, packed into one integer by base-q digits in
reading order (left window first, then right window).  The ids are held in
the smallest unsigned dtype that fits q^(2k) - 1 (``uint8`` for binary data
up to k = 4, ``uint16`` up to k = 8) and grouped by an LSD radix sort: one
stable counting sort per 16-bit digit (distribution counting, Knuth, TAOCP
vol. 3, section 5.2).  Each counts its digit's values a chunk at a time,
then sorts each chunk stably by digit and scatters its positions straight
into the grouped order, so beside the ids and that order only one chunk's
temporaries and the counts are held.  With ids of 16 bits or fewer the one
digit is the id, and its counts give the groups; wider ids are compared in
sorted order, a chunk at a time.  Only contexts that actually occur are
materialized, so memory stays O(n) for any k.  The partition keeps the
grouped order of the interior positions as ``int32`` when every 1-based
position of the sequence fits (n < 2^31), else as ``intp``.  A partition
owns the sequence it was built from, ``partition.z``; that is the only
sequence it can be combined with.
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
        self.z = z
        self.k = k
        self.n = n
        self.noisy_size = base
        ids = _context_ids(z, k)
        bits = (base ** (2 * k) - 1).bit_length()
        # Every 1-based position fits int32 below 2^31 symbols.
        order = np.empty(len(ids), dtype=np.int32 if n < 2**31 else np.intp)
        # Least significant digit first; each pass reads the previous one's order.
        src = None
        for shift in range(0, max(bits, 1), 16):
            counts = _sort_digit(ids, shift, 1 << min(16, bits - shift), src, order)
            if shift + 16 < bits:
                src, order = order, (np.empty_like(order) if src is None else src)
        if bits <= 16:
            # One digit: the ids are the digits, and its counts bound the groups.
            unique_ids = np.flatnonzero(counts)
            counts = counts[unique_ids]
            starts = np.cumsum(counts) - counts
        else:
            del src
            unique_ids, starts = _groups(ids, order)
            counts = np.diff(starts, append=len(ids))
        self._order = order
        self._unique_ids = unique_ids.astype(np.int64)
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


def _context_ids(z: SymbolSequence, k: int) -> np.ndarray:
    """Context id of every interior position, in the smallest unsigned dtype that holds them."""
    n, base = len(z), z.alphabet_size
    ids = np.zeros(n - 2 * k, dtype=np.min_scalar_type(base ** (2 * k) - 1))
    if k:
        arr = z.symbols.astype(ids.dtype, copy=False)
        for off in list(range(-k, 0)) + list(range(1, k + 1)):
            ids *= base
            ids += arr[k + off : n - k + off]
    return ids


SORT_CHUNK = 2**14  # positions that the counting sort orders and scatters at a time


def _digit(keys: np.ndarray, shift: int) -> np.ndarray:
    """Bits shift..shift+15 of ``keys``; ids of 16 bits or fewer are their own digit."""
    if keys.dtype.itemsize <= 2:
        return keys
    # The cast keeps the low 16 bits of the shifted key: that digit.
    return (keys >> shift).astype(np.uint16)


def _sort_digit(ids, shift: int, bins: int, src, dest) -> np.ndarray:
    """Scatter positions into ``dest``, stably by one digit of their ids; returns the digit counts.

    The positions come in the order of ``src``, or ascending when it is None.
    A first pass counts each of the ``bins`` digit values, which fixes where
    each digit's positions begin in ``dest``.  The second takes a chunk at a
    time, sorts it stably by digit, and writes each digit's run of positions
    at that digit's next free slot, which then moves past the run.
    """
    n = len(dest)
    counts = np.zeros(bins, dtype=np.intp)
    for lo in range(0, n, SORT_CHUNK):
        counts += np.bincount(_digit(ids[lo : lo + SORT_CHUNK], shift), minlength=bins)
    free = np.cumsum(counts)
    free -= counts
    steps = np.arange(min(n, SORT_CHUNK))
    for lo in range(0, n, SORT_CHUNK):
        pos = None if src is None else src[lo : lo + SORT_CHUNK]
        keys = _digit(ids[lo : lo + SORT_CHUNK] if pos is None else ids[pos], shift)
        perm = np.argsort(keys, kind="stable")
        keys = keys[perm]
        at = _run_starts(keys, True)
        digits, runs = keys[at], np.diff(at, append=len(keys))
        # The i-th position of the sorted chunk goes to its digit's free slot
        # plus its rank in the digit's run.
        slots = np.repeat(free[digits] - at, runs)
        slots += steps[: len(keys)]
        if pos is None:
            perm += lo
            dest[slots] = perm
        else:
            dest[slots] = pos[perm]
        free[digits] += runs
    return counts


def _run_starts(keys: np.ndarray, first: bool) -> np.ndarray:
    """Where the runs of equal values in ``keys`` begin; index 0 is one when ``first``."""
    new = np.empty(len(keys), dtype=bool)
    new[0] = first
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _groups(ids, order) -> tuple[np.ndarray, np.ndarray]:
    """(unique ids, group starts) of ``ids`` in ``order``, comparing a chunk at a time."""
    unique, starts = [], []
    last = None
    for lo in range(0, len(order), SORT_CHUNK):
        keys = ids[order[lo : lo + SORT_CHUNK]]
        at = _run_starts(keys, last is None or keys[0] != last)
        unique.append(keys[at])
        starts.append(at + lo)
        last = keys[-1]
    return np.concatenate(unique), np.concatenate(starts)


def build_partition(z: SymbolSequence, k: int) -> ContextPartition:
    """Group the interior positions of z by their two-sided order-k context."""
    return ContextPartition(z, k)
