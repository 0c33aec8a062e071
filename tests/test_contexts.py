import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    context_of,
    context_symbols,
    count_vector,
    occurrences,
    partition_reference,
)
from sdude import SymbolSequence, build_partition, contexts
from sdude.errors import RangeError, SequenceTooShort, TooLarge, ValidationError


def test_alternating_sequence_k1():
    # z = 0,1,0,1,0: interior positions 2,3,4 with contexts (0,0),(1,1),(0,0).
    z = SymbolSequence([0, 1, 0, 1, 0], 2)
    part = build_partition(z, 1)
    assert part.num_interior == 3
    id_00 = context_of(part, 2)
    id_11 = context_of(part, 3)
    assert context_of(part, 4) == id_00
    assert context_symbols(part, id_00) == ((0,), (0,))
    assert context_symbols(part, id_11) == ((1,), (1,))
    np.testing.assert_array_equal(occurrences(part, id_00), [2, 4])
    np.testing.assert_array_equal(occurrences(part, id_11), [3])
    # Symbols at positions 2 and 4 are both 1, so counts are (0, 2).
    np.testing.assert_array_equal(count_vector(part, z, id_00), [0, 2])


def test_k0_single_context_all_positions():
    z = SymbolSequence([0, 0, 1], 2)
    part = build_partition(z, 0)
    assert list(part.occurring_contexts()) == [0]
    np.testing.assert_array_equal(occurrences(part, 0), [1, 2, 3])
    np.testing.assert_array_equal(count_vector(part, z, 0), [2, 1])


def test_minimal_interior():
    z = SymbolSequence([1, 0, 1], 2)
    part = build_partition(z, 1)
    assert part.num_interior == 1
    np.testing.assert_array_equal(occurrences(part, context_of(part, 2)), [2])


def test_unknown_context_counts_zero():
    z = SymbolSequence([0, 0, 0], 2)
    part = build_partition(z, 0)
    np.testing.assert_array_equal(count_vector(part, z, 99), [0, 0])


@pytest.mark.parametrize("context_id", [-1, 1, 2, 4, 2**70])
def test_absent_or_out_of_range_context_has_no_occurrences(context_id):
    # Only the ids 0 (window 0,0) and 3 (window 1,1) occur.
    part = build_partition(SymbolSequence([0, 1, 0, 1, 0], 2), 1)
    occ = occurrences(part, context_id)
    assert occ.size == 0 and occ.dtype == np.int64


def test_too_short_rejected():
    with pytest.raises(SequenceTooShort):
        build_partition(SymbolSequence([0, 1], 2), 1)
    with pytest.raises(SequenceTooShort):
        build_partition(SymbolSequence([0, 1, 0, 1], 2), 2)


def test_position_out_of_interior_rejected():
    part = build_partition(SymbolSequence([0, 1, 0, 1, 0], 2), 1)
    with pytest.raises(RangeError):
        context_of(part, 1)
    with pytest.raises(RangeError):
        context_of(part, 5)


def test_count_requires_matching_sequence():
    z = SymbolSequence([0, 1, 0, 1, 0], 2)
    part = build_partition(z, 1)
    with pytest.raises(ValidationError):
        count_vector(part, SymbolSequence([0, 1, 0], 2), 0)


def test_count_refuses_another_sequence_of_the_same_length_and_alphabet():
    z1 = SymbolSequence([0, 1, 0, 1, 0], 2)
    z2 = SymbolSequence([1, 1, 0, 0, 1], 2)
    part = build_partition(z1, 1)
    cid = context_of(part, 2)
    with pytest.raises(ValidationError):
        count_vector(part, z2, cid)
    assert part.z is z1
    np.testing.assert_array_equal(count_vector(part, part.z, cid), [0, 2])


def test_counts_sum_to_occurrences_and_rebuild_is_identical():
    rng = np.random.default_rng(11)
    z = SymbolSequence(rng.integers(0, 3, size=500), 3)
    for k in (0, 1, 2):
        part = build_partition(z, k)
        again = build_partition(z, k)
        total = 0
        for cid in part.occurring_contexts():
            occ = occurrences(part, cid)
            assert (np.diff(occ) > 0).all()
            np.testing.assert_array_equal(occ, occurrences(again, cid))
            counts = count_vector(part, z, cid)
            assert counts.sum() == occ.shape[0]
            total += occ.shape[0]
        assert total == part.num_interior


def test_context_id_packs_windows_in_reading_order():
    # Window (left=(0,1), right=(1,0)) over a ternary alphabet.
    z = SymbolSequence([0, 1, 2, 1, 0], 3)
    part = build_partition(z, 2)
    cid = context_of(part, 3)
    assert context_symbols(part, cid) == ((0, 1), (1, 0))
    assert cid == ((0 * 3 + 1) * 3 + 1) * 3 + 0


def _max_k(q):
    """Largest k whose q**(2k) ids fit the 64-bit packing (k <= 20 for q = 1)."""
    k = 0
    while k < 20 and q ** (2 * (k + 1)) <= 2**62:
        k += 1
    return k


def _assert_matches_reference(z, k):
    part = build_partition(z, k)
    got = (part._order, part._unique_ids, part._starts, part._counts)
    for name, a, b in zip(("order", "unique_ids", "starts", "counts"), got,
                          partition_reference(z, k)):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def _sequences(draw):
    """(z, k): a short repeating pattern with sparse edits, so that long
    contexts recur and tie on their low digits."""
    q = draw(st.integers(1, 5))
    k = draw(st.integers(0, _max_k(q)))
    n = 2 * k + 1 + draw(st.sampled_from([0, 0, 1, 5, 40, 300]))
    pattern = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6))
    symbols = np.resize(np.array(pattern), n)
    edits = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, q - 1)), max_size=8))
    for i, v in edits:
        symbols[i] = v
    return SymbolSequence(symbols, q), k


@settings(max_examples=200, deadline=None)
@given(case=_sequences())
def test_partition_equals_the_int64_argsort_build(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize(
    "q, k, digits",
    [
        (2, 0, 1),
        (2, 4, 1),   # uint8 ids
        (2, 8, 1),   # uint16
        (2, 12, 2),  # uint32
        (2, 16, 2),
        (2, 20, 3),  # uint64
        (3, 15, 3),
        (2, 31, 4),
        (3, 19, 4),
        (5, 13, 4),
        (1, 20, 1),
    ],
)
@pytest.mark.parametrize("extra", [0, 1, 2000])
def test_partition_equals_reference_for_every_digit_count(q, k, digits, extra):
    assert max(1, -(-(q ** (2 * k) - 1).bit_length() // 16)) == digits
    rng = np.random.default_rng(q * 100 + k)
    n = 2 * k + 1 + extra
    symbols = np.resize(rng.integers(0, q, size=11), n)
    symbols[rng.random(n) < 0.02] = q - 1
    _assert_matches_reference(SymbolSequence(symbols, q), k)


def test_numpy_k_is_checked_with_python_ints():
    # 2 ** (2 * np.int64(40)) wraps to 0 in int64; the guard must still fire.
    z = SymbolSequence(np.zeros(100, dtype=np.int64), 2)
    with pytest.raises(TooLarge):
        build_partition(z, np.int64(40))
    with pytest.raises(TooLarge):
        build_partition(SymbolSequence(np.zeros(100, dtype=np.int64), np.int64(3)), np.uint8(20))
    part = build_partition(z, np.int64(31))
    assert type(part.k) is int
    assert part._unique_ids.tolist() == [0]



def _recurring(q, n, seed):
    """A period-11 pattern over q symbols with 2% of positions set to q - 1:
    long contexts recur, so equal ids lie on both sides of every chunk edge."""
    rng = np.random.default_rng(seed)
    symbols = np.resize(rng.integers(0, q, size=11), n)
    symbols[rng.random(n) < 0.02] = q - 1
    return SymbolSequence(symbols, q)


# (q, k) for context ids of 0, 8, 16, 24 and 32 bits.
_ID_WIDTHS = {0: (2, 0), 8: (2, 4), 16: (4, 4), 24: (8, 4), 32: (4, 8)}


@pytest.mark.parametrize("bits", sorted(_ID_WIDTHS))
@pytest.mark.parametrize("edge", [-1, 0, 1])
@pytest.mark.parametrize("pattern", ["recurring", "random"])
def test_partition_equals_reference_around_a_sort_chunk(bits, edge, pattern):
    q, k = _ID_WIDTHS[bits]
    assert (q ** (2 * k) - 1).bit_length() == bits
    n = contexts.SORT_CHUNK + edge + 2 * k
    if pattern == "recurring":
        z = _recurring(q, n, bits)
    else:
        z = SymbolSequence(np.random.default_rng(bits).integers(0, q, size=n), q)
    _assert_matches_reference(z, k)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("q, k", [(2, 0), (2, 3), (3, 5), (2, 10), (2, 20)])
def test_partition_equals_reference_over_many_sort_chunks(monkeypatch, chunk, q, k):
    # Ids of 0 to 40 bits (one to three digits) over a few hundred positions,
    # sorted and grouped in chunks that end at every offset.
    monkeypatch.setattr(contexts, "SORT_CHUNK", chunk)
    for extra in range(chunk, chunk + min(chunk, 8)):
        _assert_matches_reference(_recurring(q, 2 * k + 300 + extra, chunk + extra), k)
