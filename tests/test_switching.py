import math

import numpy as np
import pytest

import sdude.switching as switching
from oracles import (
    context_of,
    denoiser_at,
    forward_pass,
    occurrences,
    schedule_min_by_product,
)
from sdude import (
    SymbolSequence,
    bsc_channel,
    build_loss,
    build_partition,
    build_tables,
    dude_denoise,
    genie_min_loss,
    identity_channel,
    sdude_denoise,
    sdude_denoise_each,
)
from sdude.errors import RangeError, SequenceTooShort, ValidationError

ALWAYS0, FLIP, SAY, ALWAYS1 = 0, 1, 2, 3


class TestForwardPass:
    def test_three_zeros_row_two_minimum(self, tables01):
        # Hand-rolled: three steps of -0.125 for always-say-0.
        z = SymbolSequence([0, 0, 0], 2)
        state = forward_pass(z, 0, 1, tables01)
        matrix = state.matrix_at(3)
        assert matrix[1, :4].min() == pytest.approx(-0.375, abs=1e-12)
        assert matrix[1, 4] == ALWAYS0

    def test_switch_example_minimum(self, tables01):
        # 64-candidate enumeration gives -0.75 (always-0 then always-1).
        z = SymbolSequence([0, 0, 0, 1, 1, 1], 2)
        state = forward_pass(z, 0, 1, tables01)
        assert state.forward_min == pytest.approx(-0.75, abs=1e-12)

    def test_m0_reduces_to_per_context_argmin(self, tables01):
        rng = np.random.default_rng(5)
        z = SymbolSequence(rng.integers(0, 2, size=60), 2)
        state = forward_pass(z, 0, 0, tables01)
        column_sums = tables01.ell[z.symbols].sum(axis=0)
        assert state.forward_min == pytest.approx(column_sums.min(), abs=1e-12)

    def test_first_occurrence_rows_equal_loss_row(self, tables01):
        z = SymbolSequence([0, 1, 1], 2)
        state = forward_pass(z, 0, 1, tables01)
        matrix = state.matrix_at(1)
        np.testing.assert_array_equal(matrix[0, :4], tables01.ell[0])
        np.testing.assert_array_equal(matrix[1, :4], tables01.ell[0])

    def test_rows_monotone_in_switch_budget(self, tables01):
        rng = np.random.default_rng(6)
        z = SymbolSequence(rng.integers(0, 2, size=80), 2)
        state = forward_pass(z, 1, 3, tables01)
        for t in range(2, 80):
            matrix = state.matrix_at(t)
            mins = matrix[:, :4].min(axis=1)
            assert (np.diff(mins) <= 0).all()

    def test_m_out_of_range(self, tables01):
        z = SymbolSequence([0, 1, 0, 1], 2)
        with pytest.raises(RangeError):
            forward_pass(z, 0, 3, tables01)
        with pytest.raises(RangeError):
            forward_pass(z, 0, -1, tables01)


class TestBackwardPass:
    def test_switch_example_schedule(self, tables01):
        z = SymbolSequence([0, 0, 0, 1, 1, 1], 2)
        schedule = forward_pass(z, 0, 1, tables01).schedule
        np.testing.assert_array_equal(
            schedule.assignment, [ALWAYS0] * 3 + [ALWAYS1] * 3
        )
        assert schedule.partition.occurring_contexts().tolist() == [0]
        assert schedule.per_context_switches.tolist() == [1]
        assert denoiser_at(schedule, 1) == ALWAYS0
        assert denoiser_at(schedule, 6) == ALWAYS1
        with pytest.raises(RangeError):
            denoiser_at(schedule, 7)

    def test_matrix_accessor_bounds(self, tables01):
        z = SymbolSequence([0, 1, 0, 1, 0], 2)
        state = forward_pass(z, 1, 1, tables01)
        assert state.matrix_at(2).shape == (2, 5)
        with pytest.raises(RangeError):
            state.matrix_at(1)
        with pytest.raises(RangeError):
            state.matrix_at(5)

    def test_constant_sequence_never_switches(self, tables01):
        z = SymbolSequence([1] * 12, 2)
        for m in (0, 1, 2, 3):
            schedule = forward_pass(z, 0, m, tables01).schedule
            assert schedule.total_switches == 0
            assert len(set(schedule.assignment.tolist())) == 1

    def test_schedule_loss_matches_forward_minimum(self, tables01):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(10, 200))
            k = int(rng.integers(0, 2))
            if n <= 2 * k:
                continue
            m = int(rng.integers(0, min(4, (n - 2 * k) // 2) + 1))
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            state = forward_pass(z, k, m, tables01)
            schedule = state.schedule
            loss_rows = tables01.ell[state.codes]
            realized = math.fsum(
                loss_rows[np.arange(state.partition.num_interior), schedule.assignment]
            )
            assert abs(realized - state.forward_min) < 1e-9

    def test_schedule_respects_per_context_budget(self, tables01):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(12, 120))
            k = int(rng.integers(0, 3))
            m = int(rng.integers(0, 3))
            if n <= 2 * k or m > (n - 2 * k) // 2:
                continue
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            state = forward_pass(z, k, m, tables01)
            schedule = state.schedule
            part = state.partition
            for group, cid in enumerate(part.occurring_contexts()):
                occ = occurrences(part, cid) - (k + 1)
                assigned = schedule.assignment[occ]
                switches = int((assigned[1:] != assigned[:-1]).sum())
                assert switches == schedule.per_context_switches[group]
                assert switches <= min(occ.shape[0], m)


class TestSchedule:
    def test_per_context_switches_is_a_read_only_int64_array(self, bsc01, hamming2):
        rng = np.random.default_rng(13)
        x = SymbolSequence(rng.integers(0, 2, size=400), 2)
        z = SymbolSequence(rng.integers(0, 2, size=400), 2)
        _, schedule, _ = sdude_denoise(z, 2, 3, bsc01, hamming2)
        _, genie = genie_min_loss(x, z, 2, 3, hamming2)
        for s in (schedule, genie):
            switches = s.per_context_switches
            assert switches.dtype == np.int64 and switches.ndim == 1
            assert switches.size == s.partition.occurring_contexts().size
            assert not switches.flags.writeable
            with pytest.raises(ValueError):
                switches[0] = 1
            assert type(s.total_switches) is int
            assert s.total_switches == int(switches.sum()) > 0

    def test_schedules_compare_by_identity(self, bsc01, hamming2):
        z = SymbolSequence(np.random.default_rng(14).integers(0, 2, size=200), 2)
        _, first, _ = sdude_denoise(z, 1, 2, bsc01, hamming2)
        _, second, _ = sdude_denoise(z, 1, 2, bsc01, hamming2)
        assert first == first
        assert first != second
        assert np.array_equal(first.assignment, second.assignment)


class TestTablesMustMatch:
    @pytest.mark.parametrize(
        "denoise",
        [
            lambda z, ch, loss, tables: sdude_denoise(z, 1, 1, ch, loss, tables=tables)[0],
            lambda z, ch, loss, tables: sdude_denoise_each(z, 1, (0, 1), ch, loss, tables=tables)[1][0],
            lambda z, ch, loss, tables: dude_denoise(z, 1, ch, loss, tables=tables),
        ],
        ids=["sdude_denoise", "sdude_denoise_each", "dude_denoise"],
    )
    def test_tables_for_another_channel_or_loss_are_refused(self, denoise, bsc01, hamming2):
        z = SymbolSequence(np.random.default_rng(15).integers(0, 2, size=200), 2)
        for tables in (
            build_tables(bsc_channel(0.3), hamming2),
            build_tables(bsc01, build_loss([[0.0, 2.0], [1.0, 0.0]])),
        ):
            with pytest.raises(ValidationError):
                denoise(z, bsc01, hamming2, tables)
        # Tables equal by value, built from other objects, are accepted.
        same = build_tables(bsc_channel(0.1), build_loss(hamming2.lam.copy()))
        assert same.channel is not bsc01 and same.loss is not hamming2
        got = denoise(z, bsc01, hamming2, same)
        assert np.array_equal(got.symbols, denoise(z, bsc01, hamming2, None).symbols)


class TestAgainstProductEnumeration:
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("k", [0, 1])
    def test_forward_minimum_is_exact(self, k, m, tables01):
        # Oracle: full product enumeration over all rule assignments.
        rng = np.random.default_rng(40 + 10 * k + m)
        for trial in range(25):
            n = int(rng.integers(2 * k + 1, 9))
            if m > (n - 2 * k) // 2:
                continue
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            part = build_partition(z, k)
            loss_rows = tables01.ell[z.symbols[k : n - k]]
            ids = np.array([context_of(part, t) for t in range(k + 1, n - k + 1)])
            expected = schedule_min_by_product(loss_rows, ids, m)
            state = forward_pass(z, k, m, tables01)
            assert state.forward_min == pytest.approx(expected, abs=1e-12)


class TestMixedAlphabets:
    def test_dp_exact_on_random_channels_and_losses(self):
        # Ternary noisy/reconstruction alphabets and non-square losses,
        # against the full product-enumeration oracle.
        from sdude import build_channel, build_loss
        from sdude.errors import RankError

        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            clean = int(rng.integers(2, 4))
            noisy = int(rng.integers(clean, 4))
            recon = int(rng.integers(2, 4))
            try:
                ch = build_channel(rng.dirichlet(np.ones(noisy) * 2, size=clean))
            except RankError:
                continue
            loss = build_loss(rng.uniform(0, 1.5, size=(clean, recon)))
            tables = build_tables(ch, loss)
            n = int(rng.integers(3, 8))
            k = int(rng.integers(0, 2))
            m = int(rng.integers(0, 3))
            if n <= 2 * k or m > (n - 2 * k) // 2:
                continue
            z = SymbolSequence(rng.integers(0, noisy, size=n), noisy)
            part = build_partition(z, k)
            if (recon**noisy) ** int(part._counts.max()) > 500_000:
                continue
            ids = np.array([context_of(part, t) for t in range(k + 1, n - k + 1)])
            w = tables.ell[z.symbols[k : n - k]]
            expected = schedule_min_by_product(w, ids, m)
            state = forward_pass(z, k, m, tables)
            assert state.forward_min == pytest.approx(expected, abs=1e-12)
            schedule = state.schedule
            realized = math.fsum(w[np.arange(n - 2 * k), schedule.assignment])
            assert abs(realized - state.forward_min) < 1e-9
            checked += 1


class TestSdudeDenoise:
    def test_switch_example_output_and_loss(self, bsc01, hamming2):
        z = SymbolSequence([0, 0, 0, 1, 1, 1], 2)
        out, schedule, estimated = sdude_denoise(z, 0, 1, bsc01, hamming2)
        np.testing.assert_array_equal(out.symbols, [0, 0, 0, 1, 1, 1])
        assert estimated == pytest.approx(-0.125, abs=1e-12)
        assert schedule.total_switches == 1

    def test_identity_channel_zero_loss(self, hamming2):
        ch = identity_channel(2)
        rng = np.random.default_rng(9)
        z = SymbolSequence(rng.integers(0, 2, size=100), 2)
        for k, m in ((0, 0), (0, 2), (1, 1), (2, 3)):
            out, _, estimated = sdude_denoise(z, k, m, ch, hamming2)
            np.testing.assert_array_equal(out.symbols[k : 100 - k], z.symbols[k : 100 - k])
            assert estimated == pytest.approx(0.0, abs=1e-12)

    def test_loss_monotone_in_switch_budget(self, bsc01, hamming2):
        rng = np.random.default_rng(10)
        z = SymbolSequence(rng.integers(0, 2, size=300), 2)
        tables = build_tables(bsc01, hamming2)
        previous = np.inf
        for m in (0, 1, 2, 4, 8):
            _, _, estimated = sdude_denoise(z, 1, m, bsc01, hamming2, tables=tables)
            assert estimated <= previous + 1e-12
            previous = estimated

    def test_errors(self, bsc01, hamming2):
        with pytest.raises(SequenceTooShort):
            sdude_denoise(SymbolSequence([0, 1], 2), 1, 0, bsc01, hamming2)
        with pytest.raises(RangeError):
            sdude_denoise(SymbolSequence([0, 1, 0, 1], 2), 0, 5, bsc01, hamming2)

    def test_matches_staged_two_pass_bitwise(self, bsc01, hamming2, tables01):
        # sdude_denoise and the forward pass it runs through must agree
        # exactly: same schedule, same minimum.
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = int(rng.integers(20, 300))
            k = int(rng.integers(0, 3))
            if n <= 2 * k:
                continue
            m = int(rng.integers(0, min(3, (n - 2 * k) // 2) + 1))
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            state = forward_pass(z, k, m, tables01)
            staged = state.schedule
            _, fused, estimated = sdude_denoise(z, k, m, bsc01, hamming2, tables=tables01)
            np.testing.assert_array_equal(staged.assignment, fused.assignment)
            assert np.array_equal(staged.per_context_switches, fused.per_context_switches)
            assert estimated == pytest.approx(
                state.forward_min / state.partition.num_interior, abs=1e-9
            )

    def test_seedless_determinism(self, bsc01, hamming2):
        rng = np.random.default_rng(11)
        z = SymbolSequence(rng.integers(0, 2, size=500), 2)
        out1, sched1, est1 = sdude_denoise(z, 2, 2, bsc01, hamming2)
        out2, sched2, est2 = sdude_denoise(z, 2, 2, bsc01, hamming2)
        np.testing.assert_array_equal(out1.symbols, out2.symbols)
        np.testing.assert_array_equal(sched1.assignment, sched2.assignment)
        assert est1 == est2
