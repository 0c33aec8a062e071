import numpy as np
import pytest

from sdude import SymbolSequence, build_partition, count_vector
from sdude.errors import RangeError, SequenceTooShort, ValidationError


def test_alternating_sequence_k1():
    # z = 0,1,0,1,0: interior positions 2,3,4 with contexts (0,0),(1,1),(0,0).
    z = SymbolSequence([0, 1, 0, 1, 0], 2)
    part = build_partition(z, 1)
    assert part.num_interior == 3
    id_00 = part.context_of(2)
    id_11 = part.context_of(3)
    assert part.context_of(4) == id_00
    assert part.context_symbols(id_00) == ((0,), (0,))
    assert part.context_symbols(id_11) == ((1,), (1,))
    np.testing.assert_array_equal(part.occurrences(id_00), [2, 4])
    np.testing.assert_array_equal(part.occurrences(id_11), [3])
    # Symbols at positions 2 and 4 are both 1, so counts are (0, 2).
    np.testing.assert_array_equal(count_vector(part, z, id_00), [0, 2])


def test_k0_single_context_all_positions():
    z = SymbolSequence([0, 0, 1], 2)
    part = build_partition(z, 0)
    assert list(part.occurring_contexts()) == [0]
    np.testing.assert_array_equal(part.occurrences(0), [1, 2, 3])
    np.testing.assert_array_equal(count_vector(part, z, 0), [2, 1])


def test_minimal_interior():
    z = SymbolSequence([1, 0, 1], 2)
    part = build_partition(z, 1)
    assert part.num_interior == 1
    np.testing.assert_array_equal(part.occurrences(part.context_of(2)), [2])


def test_unknown_context_counts_zero():
    z = SymbolSequence([0, 0, 0], 2)
    part = build_partition(z, 0)
    np.testing.assert_array_equal(count_vector(part, z, 99), [0, 0])


@pytest.mark.parametrize("context_id", [-1, 1, 2, 4, 2**70])
def test_absent_or_out_of_range_context_has_no_occurrences(context_id):
    # Only the ids 0 (window 0,0) and 3 (window 1,1) occur.
    part = build_partition(SymbolSequence([0, 1, 0, 1, 0], 2), 1)
    occurrences = part.occurrences(context_id)
    assert occurrences.size == 0 and occurrences.dtype == np.int64


def test_too_short_rejected():
    with pytest.raises(SequenceTooShort):
        build_partition(SymbolSequence([0, 1], 2), 1)
    with pytest.raises(SequenceTooShort):
        build_partition(SymbolSequence([0, 1, 0, 1], 2), 2)


def test_position_out_of_interior_rejected():
    part = build_partition(SymbolSequence([0, 1, 0, 1, 0], 2), 1)
    with pytest.raises(RangeError):
        part.context_of(1)
    with pytest.raises(RangeError):
        part.context_of(5)


def test_count_requires_matching_sequence():
    z = SymbolSequence([0, 1, 0, 1, 0], 2)
    part = build_partition(z, 1)
    with pytest.raises(ValidationError):
        count_vector(part, SymbolSequence([0, 1, 0], 2), 0)


def test_count_refuses_another_sequence_of_the_same_length_and_alphabet():
    z1 = SymbolSequence([0, 1, 0, 1, 0], 2)
    z2 = SymbolSequence([1, 1, 0, 0, 1], 2)
    part = build_partition(z1, 1)
    cid = part.context_of(2)
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
            occ = part.occurrences(cid)
            assert (np.diff(occ) > 0).all()
            np.testing.assert_array_equal(occ, again.occurrences(cid))
            counts = count_vector(part, z, cid)
            assert counts.sum() == occ.shape[0]
            total += occ.shape[0]
        assert total == part.num_interior


def test_context_id_packs_windows_in_reading_order():
    # Window (left=(0,1), right=(1,0)) over a ternary alphabet.
    z = SymbolSequence([0, 1, 2, 1, 0], 3)
    part = build_partition(z, 2)
    cid = part.context_of(3)
    assert part.context_symbols(cid) == ((0, 1), (1, 0))
    assert cid == ((0 * 3 + 1) * 3 + 1) * 3 + 0
