"""The batched switching kernel against the chain-at-a-time reference.

``fused_reference`` in oracles.py is the earlier implementation that ran the
forward and backward passes one context chain at a time.  The batched kernel
must reproduce it bit for bit: the same assignment, the same switches per
context and the same minimum, on every tiling of positions into chains.  A
call for several shift budgets must give each budget exactly what a call for
that budget alone gives.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdude.switching as switching
from conftest import random_full_rank_channel
from oracles import _forward_chain, brute_force_min, context_groups, fused_reference
from sdude import (
    MarkovComponent,
    PiecewiseSourceSpec,
    SymbolSequence,
    Alphabets,
    all_denoiser_mappings,
    bsc_channel,
    build_loss,
    build_partition,
    build_tables,
    corrupt,
    dude_denoise,
    forward_pass,
    genie_min_loss,
    genie_min_losses,
    hamming_loss,
    sample_piecewise,
    sdude_denoise_each,
)
from sdude.errors import RangeError, TooLarge, ValidationError
from sdude.switching import _solve_chains


def assert_matches_reference(partition, codes, table, levels):
    [(schedule, forward_min)] = _solve_chains(partition, codes, table, (levels - 1,))
    want = fused_reference(partition, table[codes], levels - 1)
    assert np.array_equal(schedule.assignment, want[0])
    assert schedule.per_context_switches == want[1]
    assert forward_min == want[2]


def random_table(rng, rows, num_rules, style):
    values = rng.standard_normal((rows, num_rules))
    if style == "rounded":  # many exact ties between rules and between paths
        return np.round(values)
    if style == "sevenths":  # non-dyadic: every partial sum rounds
        return np.round(values * 4) / 7
    return values


class TestAgainstChainReference:
    @pytest.mark.parametrize("style", ["normal", "rounded", "sevenths"])
    def test_random_tilings(self, style):
        rng = np.random.default_rng({"normal": 1, "rounded": 2, "sevenths": 3}[style])
        for _ in range(150):
            noisy = int(rng.integers(2, 4))
            recon = int(rng.integers(2, 4))
            n = int(rng.integers(1, 160))
            k = int(rng.integers(0, 4))
            if n <= 2 * k:
                continue
            z = SymbolSequence(rng.integers(0, noisy, size=n), noisy)
            partition = build_partition(z, k)
            table = random_table(rng, noisy, recon**noisy, style)
            levels = int(rng.integers(1, int(partition._counts.max()) + 2))
            assert_matches_reference(partition, z.symbols[k : n - k], table, levels)

    def test_length_one_chains_and_full_budget(self):
        # k = 3 on 40 ternary symbols: nearly every context occurs once.
        rng = np.random.default_rng(4)
        z = SymbolSequence(rng.integers(0, 3, size=40), 3)
        partition = build_partition(z, 3)
        assert (partition._counts == 1).any()
        table = random_table(rng, 3, 27, "rounded")
        for levels in (1, 2, int(partition._counts.max()) + 1):
            assert_matches_reference(partition, z.symbols[3:37], table, levels)

    def test_many_batches(self, monkeypatch):
        # A tiny batch budget forces one chain per batch and many batches per bucket.
        monkeypatch.setattr(switching, "_BATCH_FLOATS", 64)
        rng = np.random.default_rng(5)
        z = SymbolSequence(rng.integers(0, 2, size=3000), 2)
        partition = build_partition(z, 3)
        table = random_table(rng, 2, 4, "sevenths")
        assert_matches_reference(partition, z.symbols[3:2997], table, 4)

    def test_genie_codes(self):
        # The genie's table: row x * |Z| + z holds lam[x, mappings[:, z]].
        rng = np.random.default_rng(6)
        lam = np.round(rng.uniform(0, 3, size=(3, 2)))
        mappings = all_denoiser_mappings(Alphabets(3, 3, 2))
        table = lam[:, mappings.T].reshape(9, mappings.shape[0])
        x = rng.integers(0, 3, size=500)
        z = SymbolSequence(rng.integers(0, 3, size=500), 3)
        partition = build_partition(z, 1)
        codes = x[1:499] * 3 + z.symbols[1:499]
        for levels in (1, 3):
            assert_matches_reference(partition, codes, table, levels)

    @pytest.mark.parametrize("k", [4, 6])
    def test_switching_hmm_input(self, k):
        # run_switching_hmm_experiment's own draws for seed 1, at the
        # benchmark's size, in the denoiser's, the plain denoiser's and the
        # genie's shapes.
        n, switch_at = 300000, 150000
        spec = PiecewiseSourceSpec(
            components=(
                MarkovComponent([[0.99, 0.01], [0.01, 0.99]]),
                MarkovComponent([[0.8, 0.2], [0.2, 0.8]]),
            ),
            switch_times=(switch_at,),
            block_labels=(0, 1),
            continuing=True,
        )
        source_seed, channel_seed = np.random.SeedSequence(1).spawn(2)
        channel, loss = bsc_channel(0.1), hamming_loss(2)
        x = sample_piecewise(spec, n, source_seed)
        z = corrupt(x, channel, channel_seed)
        tables = build_tables(channel, loss)
        partition = build_partition(z, k)
        z_int = z.symbols[k : n - k]
        assert_matches_reference(partition, z_int, tables.ell, 2)
        assert_matches_reference(partition, z_int, tables.ell, 1)
        genie_table = loss.lam[:, tables.mappings.T].reshape(4, 4)
        assert_matches_reference(partition, x.symbols[k : n - k] * 2 + z_int, genie_table, 2)


class TestWrappers:
    def test_dude_is_the_one_level_call(self, bsc01, hamming2, tables01):
        rng = np.random.default_rng(7)
        z = SymbolSequence(rng.integers(0, 2, size=4000), 2)
        for k in (0, 2, 5):
            partition = build_partition(z, k)
            assignment, _, _ = fused_reference(partition, tables01.ell[z.symbols[k : 4000 - k]], 0)
            out = dude_denoise(z, k, bsc01, hamming2)
            expected = tables01.mappings[assignment, z.symbols[k : 4000 - k]]
            assert np.array_equal(out.symbols[k : 4000 - k], expected)

    def test_matrix_at_matches_chain_reference(self, tables01):
        rng = np.random.default_rng(8)
        z = SymbolSequence(rng.integers(0, 2, size=400), 2)
        state = forward_pass(z, 2, 3, tables01)
        loss_rows = tables01.ell[state.codes]
        for _, idx in context_groups(state.partition):
            M, argm = _forward_chain(loss_rows[idx], 4)
            for p, i in enumerate(idx.tolist()):
                matrix = state.matrix_at(i + 3)
                assert np.array_equal(matrix[:, :4], M[:, p])
                assert np.array_equal(matrix[:, 4], argm[:, p])


class TestEveryBudget:
    def test_sdude_denoise_each_equals_one_budget_calls(self, bsc01, hamming2, tables01):
        rng = np.random.default_rng(11)
        z = SymbolSequence(rng.integers(0, 2, size=3000), 2)
        budgets = (3, 0, 3, 1)
        for k, boundary in ((0, None), (2, None), (3, 1)):
            for kwargs in ({}, {"tables": tables01}):
                each = sdude_denoise_each(z, k, budgets, bsc01, hamming2, boundary, **kwargs)
                assert len(each) == len(budgets)
                for m, (out, schedule, estimated) in zip(budgets, each):
                    want_out, want, want_estimated = switching.sdude_denoise(
                        z, k, m, bsc01, hamming2, boundary
                    )
                    assert np.array_equal(out.symbols, want_out.symbols)
                    assert np.array_equal(schedule.assignment, want.assignment)
                    assert schedule.per_context_switches == want.per_context_switches
                    assert schedule.m == m and estimated == want_estimated
            plain = dude_denoise(z, k, bsc01, hamming2, boundary)
            assert np.array_equal(each[1][0].symbols, plain.symbols)

    def test_genie_min_losses_equals_one_budget_calls(self, hamming2):
        rng = np.random.default_rng(12)
        x = SymbolSequence(rng.integers(0, 2, size=600), 2)
        z = SymbolSequence(rng.integers(0, 2, size=600), 2)
        budgets = (7, 0, 2, 10**6, 2)
        for k in (0, 1, 4):
            partition = build_partition(z, k)
            each = genie_min_losses(x, partition, budgets, hamming2)
            for m, (value, schedule) in zip(budgets, each):
                want_value, want = genie_min_loss(x, z, k, m, hamming2)
                assert value == want_value and schedule.m == m
                assert schedule.partition is partition
                assert np.array_equal(schedule.assignment, want.assignment)
                assert schedule.per_context_switches == want.per_context_switches

    def test_every_budget_and_the_partition_are_checked(self, bsc01, hamming2):
        z = SymbolSequence(np.tile([0, 1, 1], 10), 2)
        x = SymbolSequence(np.zeros(30, dtype=np.int64), 2)
        for budgets in ((0, -1), (1, 15), (0, 1.5)):
            with pytest.raises(RangeError):
                sdude_denoise_each(z, 1, budgets, bsc01, hamming2)
        partition = build_partition(z, 1)
        for budgets in ((0, -1), (2, 1.5)):
            with pytest.raises(ValidationError):
                genie_min_losses(x, partition, budgets, hamming2)
        with pytest.raises(ValidationError):
            sdude_denoise_each(z, 1, (), bsc01, hamming2)
        with pytest.raises(ValidationError):
            genie_min_losses(x, partition, (), hamming2)
        # The clean sequence must match the sequence the partition was built from.
        with pytest.raises(ValidationError):
            genie_min_losses(SymbolSequence(x.symbols[:-1], 2), partition, (1,), hamming2)

    @pytest.mark.parametrize("num_rules, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_assignment_dtype_is_the_smallest_that_holds_every_rule(self, num_rules, dtype):
        rng = np.random.default_rng(13)
        z = SymbolSequence(rng.integers(0, 2, size=60), 2)
        table = rng.standard_normal((2, num_rules))
        solved = _solve_chains(build_partition(z, 1), z.symbols[1:59], table, (0, 2))
        for schedule, _ in solved:
            assert schedule.assignment.dtype == dtype
            assert int(schedule.assignment.max()) < num_rules


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    noisy=st.integers(2, 3),
    recon=st.integers(2, 3),
    n=st.integers(1, 90),
    k=st.integers(0, 3),
    budgets=st.lists(st.integers(0, 8), min_size=1, max_size=4),
    true_loss=st.booleans(),
    style=st.sampled_from(["normal", "rounded", "sevenths"]),
    tiny_batches=st.booleans(),
)
def test_every_budget_equals_its_own_solve(
    seed, noisy, recon, n, k, budgets, true_loss, style, tiny_batches
):
    # Budgets may repeat, come in any order and exceed the longest chain, in
    # the genie's true-loss shape and in the denoiser's.  The kernel solves a
    # budget m on min(m, longest - 1) + 1 levels; the reference runs the
    # unclamped m + 1.
    if n <= 2 * k:
        return
    rng = np.random.default_rng(seed)
    z = SymbolSequence(rng.integers(0, noisy, size=n), noisy)
    partition = build_partition(z, k)
    z_int = z.symbols[k : n - k]
    if true_loss:
        lam = random_table(rng, noisy, recon, style)
        mappings = all_denoiser_mappings(Alphabets(noisy, noisy, recon))
        table = lam[:, mappings.T].reshape(noisy * noisy, mappings.shape[0])
        codes = rng.integers(0, noisy, size=z_int.size) * noisy + z_int
    else:
        table = random_table(rng, noisy, recon**noisy, style)
        codes = z_int
    batch = 64 if tiny_batches else switching._BATCH_FLOATS
    with mock.patch.object(switching, "_BATCH_FLOATS", batch):
        together = _solve_chains(partition, codes, table, budgets)
        alone = [_solve_chains(partition, codes, table, (r,))[0] for r in budgets]
    assert len(together) == len(budgets)
    for r, (schedule, forward_min), (own, own_min) in zip(budgets, together, alone):
        assignment, switches, minimum = fused_reference(partition, table[codes], r)
        assert schedule.m == own.m == r
        assert np.array_equal(schedule.assignment, own.assignment)
        assert np.array_equal(schedule.assignment, assignment)
        assert schedule.per_context_switches == own.per_context_switches == switches
        assert forward_min == own_min == minimum


class TestMemoryBudget:
    def test_budget_is_per_chain(self, monkeypatch, tables01):
        # 2000 interior positions over 16 contexts hold 2000 * 2 * 4 DP values
        # in all, but no chain holds more than 600 * 2 * 4.
        rng = np.random.default_rng(9)
        z = SymbolSequence(rng.integers(0, 2, size=2004), 2)
        partition = build_partition(z, 2)
        assert int(partition._counts.max()) * 8 < 5000 < 2000 * 8
        monkeypatch.setattr(switching, "MAX_CHAIN_ENTRIES", 5000)
        assert_matches_reference(partition, z.symbols[2:2002], tables01.ell, 2)

    def test_forward_pass_needs_only_the_chain_budget(self, monkeypatch, tables01):
        # The limit lies between the longest chain's 600 * 2 * 4 DP values and
        # the 2000 * 2 * 5 a whole-sequence matrix store would take.
        rng = np.random.default_rng(9)
        z = SymbolSequence(rng.integers(0, 2, size=2004), 2)
        monkeypatch.setattr(switching, "MAX_CHAIN_ENTRIES", 5000)
        state = forward_pass(z, 2, 1, tables01)
        schedule = state.schedule
        want = fused_reference(state.partition, tables01.ell[state.codes], 1)
        assert np.array_equal(schedule.assignment, want[0])
        assert schedule.per_context_switches == want[1]
        assert state.forward_min == want[2]

    def test_budget_past_the_longest_chain_needs_only_its_levels(self, monkeypatch, tables01):
        # m = 300 shifts on 16 chains of at most about 150 occurrences: the
        # longest chain holds longest * 4 * longest DP values, not
        # (m + 1) * 4 * longest, and the result is the unclamped solve's.
        rng = np.random.default_rng(9)
        z = SymbolSequence(rng.integers(0, 2, size=2004), 2)
        longest = int(build_partition(z, 2)._counts.max())
        m = 300
        assert longest < m
        monkeypatch.setattr(switching, "MAX_CHAIN_ENTRIES", longest * 4 * longest)
        state = forward_pass(z, 2, m, tables01)
        want = fused_reference(state.partition, tables01.ell[state.codes], m)
        assert np.array_equal(state.schedule.assignment, want[0])
        assert state.schedule.per_context_switches == want[1]
        assert state.forward_min == want[2]
        monkeypatch.setattr(switching, "MAX_CHAIN_ENTRIES", longest * 4 * longest - 1)
        with pytest.raises(TooLarge):
            forward_pass(z, 2, m, tables01)

    def test_over_budget_chain_refused(self, monkeypatch, bsc01, hamming2):
        z = SymbolSequence(np.zeros(1000, dtype=np.int64), 2)
        monkeypatch.setattr(switching, "MAX_CHAIN_ENTRIES", 1000 * 2 * 4 - 1)
        with pytest.raises(TooLarge):
            switching.sdude_denoise(z, 0, 1, bsc01, hamming2)
        monkeypatch.setattr(switching, "MAX_CHAIN_ENTRIES", 1000 * 2 * 4)
        switching.sdude_denoise(z, 0, 1, bsc01, hamming2)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    clean=st.integers(2, 3),
    extra=st.integers(0, 1),
    recon=st.integers(2, 3),
    n=st.integers(1, 14),
    k=st.integers(0, 2),
    m=st.integers(0, 3),
)
def test_dp_equals_brute_force(seed, clean, extra, recon, n, k, m):
    # Estimated mode through the forward pass and the denoiser, true mode
    # through the genie; both against exhaustive enumeration.
    if n <= 2 * k or m > (n - 2 * k) // 2:
        return
    rng = np.random.default_rng(seed)
    channel = random_full_rank_channel(rng, clean, clean + extra)
    loss = build_loss(rng.uniform(0.0, 2.0, size=(clean, recon)))
    tables = build_tables(channel, loss)
    noisy = channel.noisy_size
    x = SymbolSequence(rng.integers(0, clean, size=n), clean)
    z = SymbolSequence(rng.integers(0, noisy, size=n), noisy)
    n_int = n - 2 * k
    try:
        estimated = brute_force_min(z, k, m, tables)
        true = brute_force_min(z, k, m, tables, mode="true", x=x)
    except TooLarge:
        return
    assert forward_pass(z, k, m, tables).forward_min == pytest.approx(estimated, abs=1e-9)
    _, _, normalized = switching.sdude_denoise(z, k, m, channel, loss, tables=tables)
    assert normalized * n_int == pytest.approx(estimated, abs=1e-9)
    genie, _ = genie_min_loss(x, z, k, m, loss)
    assert genie * n_int == pytest.approx(true, abs=1e-9)


def test_table_sum_equals_fsum():
    rng = np.random.default_rng(10)
    for _ in range(200):
        rows, num_rules, n = (int(v) for v in rng.integers(1, 9, size=3) * (1, 1, 400))
        table = rng.standard_normal((rows, num_rules)) * 10.0 ** rng.integers(-8, 9)
        table[rng.random(table.shape) < 0.2] /= 3.0
        codes = rng.integers(0, rows, size=n)
        assignment = rng.integers(0, num_rules, size=n)
        expected = math.fsum(table[codes, assignment].tolist())
        assert switching._table_sum(table, codes, assignment) == expected
