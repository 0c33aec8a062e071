"""The batched switching kernel against the chain-at-a-time reference.

``fused_reference`` in oracles.py is the earlier implementation that ran the
forward and backward passes one context chain at a time, on every rule and
every level in full.  The batched kernel must reproduce it bit for bit: the
same assignment, the same switches per context and the same minimum, on
every tiling of positions into chains, although it drops dominated rules,
keeps one byte per DP decision instead of the values and scans long chains
in segments.  A call for several shift budgets must give each budget
exactly what a call for that budget alone gives.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdude.switching as switching
from conftest import random_full_rank_channel
from oracles import (
    _backward_chain,
    _forward_chain,
    backward_batch_reference,
    brute_force_min,
    context_groups,
    forward_pass,
    fused_reference,
)
from sdude import (
    MarkovComponent,
    PiecewiseSourceSpec,
    SymbolSequence,
    all_denoiser_mappings,
    bsc_channel,
    build_loss,
    build_partition,
    build_tables,
    corrupt,
    dude_denoise,
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
    assert np.array_equal(schedule.per_context_switches, want[1])
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
        mappings = all_denoiser_mappings(3, 2)
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
        for k in (0, 2, 3):
            for kwargs in ({}, {"tables": tables01}):
                each = sdude_denoise_each(z, k, budgets, bsc01, hamming2, **kwargs)
                assert len(each) == len(budgets)
                for m, (out, schedule, estimated) in zip(budgets, each):
                    want_out, want, want_estimated = switching.sdude_denoise(
                        z, k, m, bsc01, hamming2
                    )
                    assert np.array_equal(out.symbols, want_out.symbols)
                    assert np.array_equal(schedule.assignment, want.assignment)
                    assert np.array_equal(
                        schedule.per_context_switches, want.per_context_switches
                    )
                    assert schedule.m == m and estimated == want_estimated
            plain = dude_denoise(z, k, bsc01, hamming2)
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
                assert np.array_equal(schedule.per_context_switches, want.per_context_switches)

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


# Losses with exact ties, ties broken by one unit in the last place, and both zeros.
NEAR_TIES = [0.0, -0.0, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, -1.0, 0.5, 3.0]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 300), min_size=1, max_size=6),
    levels=st.integers(1, 6),
    num_rules=st.integers(1, 4),
    values=st.lists(st.sampled_from(NEAR_TIES), min_size=12, max_size=12),
)
def test_walk_equals_the_summed_changes_reference(seed, lengths, levels, num_rules, values):
    # Every level count's walk of one padded batch gives the reference's
    # assignment, padding included, and its shifts per chain.  The reference
    # walks the values of the oracle's own recursion, run on each padded
    # chain; the kernel walks its shift flags and argmin rules.
    table = np.array(values[: 3 * num_rules]).reshape(3, num_rules)
    lengths = np.array(lengths)
    codes = padded_batch(np.random.default_rng(seed), table, lengths)
    last, cols = lengths - 1, np.arange(lengths.size)
    deepest = min(levels, int(lengths.max()))
    shifts, argmins, _, top = forward_one_batch(table, codes, deepest, last)
    M, best = oracle_batch(table, codes, deepest)
    for lv in range(1, deepest + 1):
        q = M[lv - 1][:, cols, last].argmin(axis=0)
        kept_q = top.argmin(axis=0) if lv == deepest else argmins[lv - 1, cols, last]
        assert np.array_equal(kept_q, q)
        row = M[lv - 1][q, cols]
        want, want_switches = backward_batch_reference(M[: lv - 1], best[: lv - 1], last, q, row)
        assign, switches = switching._backward_batch(shifts, argmins[: lv - 1], last, q)
        assert np.array_equal(assign, want)
        assert np.array_equal(switches, want_switches)


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
        mappings = all_denoiser_mappings(noisy, recon)
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
        assert np.array_equal(schedule.per_context_switches, own.per_context_switches)
        assert np.array_equal(schedule.per_context_switches, switches)
        assert forward_min == own_min == minimum


def guard_bound(table, longest):
    """The rounding guard ``_kept_rules`` states: 16 u A L^2."""
    return 16 * 2.0**-53 * float(np.abs(table).max()) * longest**2


def kept_by_definition(table, longest):
    """Rules that no rule beats at every row by more than the guard, by a plain loop."""
    bound = guard_bound(table, longest)
    rows, num_rules = table.shape
    return [
        j
        for j in range(num_rules)
        if not any(
            all(table[b, j] - table[b, i] > bound for b in range(rows))
            for i in range(num_rules)
        )
    ]


def forward_one_batch(table, codes, levels, last):
    """``_forward_batch`` on every rule of a handmade (chains, L) batch of codes."""
    chain_codes = np.column_stack((codes[:, :1], codes))
    return switching._forward_batch(np.ascontiguousarray(table.T), chain_codes, levels, last)


def oracle_batch(table, codes, levels):
    """M (levels, N, chains, L) and best (levels, chains, L) of a padded batch,
    each padded chain run through the oracle's recursion."""
    M = np.stack([_forward_chain(table[row], levels)[0] for row in codes], axis=1)
    M = np.transpose(M, (0, 3, 1, 2))
    return M, M.min(axis=1)


def solve_one_batch(table, codes, lengths, levels):
    """_solve_chains's steps on one handmade batch: (minima, assignment, switches)."""
    last = lengths - 1
    shifts, argmins, _, top = forward_one_batch(table, codes, levels, last)
    assign, switches = switching._backward_batch(shifts, argmins, last, top.argmin(axis=0))
    return np.minimum.reduce(top, axis=0), assign, switches


def padded_batch(rng, table, lengths):
    """(chains, L) codes of random chains, each padded by repeating its last occurrence."""
    L = int(lengths.max())
    codes = rng.integers(0, table.shape[0], size=(lengths.size, L))
    return np.take_along_axis(codes, np.minimum(np.arange(L), lengths[:, None] - 1), axis=1)


class TestOnlyWhatTheWalkReads:
    def test_bsc_hamming_solves_three_of_four_rules(self, tables01):
        # Flip (rule 1) costs 0.8 more than say-z (rule 2) at both noisy symbols.
        assert switching._kept_rules(tables01.ell, 10**6).tolist() == [0, 2, 3]
        # Past about 2.5e7 occurrences the guard exceeds the 0.8 margin.
        assert switching._kept_rules(tables01.ell, 3 * 10**7).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("length, kept", [(10, False), (100, True)])
    def test_margin_below_the_guard_keeps_the_rule(self, length, kept):
        # Rule 1 is rule 0 plus 2^-40 everywhere; the guard is 2^-49 L^2
        # (A = 1), below the margin at L = 10 and above it at L = 100.
        rng = np.random.default_rng(21)
        table = np.array([[1.0, 1.0 + 2.0**-40, -1.0], [-0.5, -0.5 + 2.0**-40, 0.75]])
        z = SymbolSequence(rng.integers(0, 2, size=length), 2)
        partition = build_partition(z, 0)
        assert (1 in switching._kept_rules(table, length)) is kept
        for levels in (1, 2, 4):
            assert_matches_reference(partition, z.symbols, table, levels)

    def test_tables_with_signed_zeros(self):
        # -0.0 and +0.0 in the table: every kept shift flag and argmin rule
        # equals the oracle's, and every level's minimum at each chain's end,
        # the top level at each chain's end and forward_min keep the
        # reference's sign of zero.
        rng = np.random.default_rng(22)
        for _ in range(40):
            table = rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5], size=(2, 4))
            lengths = rng.integers(1, 9, size=6)
            codes = padded_batch(rng, table, lengths)
            levels = int(rng.integers(2, 6))
            shifts, argmins, mins, top = forward_one_batch(table, codes, levels, lengths - 1)
            for c, length in enumerate(lengths.tolist()):
                want, argm = _forward_chain(table[codes[c, :length]], levels)
                best = want.min(axis=2)
                flags = np.moveaxis(best[:-1, :, None] < want[1:], 2, 1)
                assert np.array_equal(shifts[:, :, c, :length], flags)
                assert np.array_equal(argmins[:, c, :length], argm[:-1])
                assert np.array_equal(np.signbit(mins[:, c]), np.signbit(best[:-1, -1]))
                assert np.array_equal(mins[:, c], best[:-1, -1])
                assert np.array_equal(np.signbit(top[:, c]), np.signbit(want[-1, -1]))
                assert np.array_equal(top[:, c], want[-1, -1])
            z = SymbolSequence(rng.integers(0, 2, size=60), 2)
            partition, codes = build_partition(z, 1), z.symbols[1:59]
            for m in (0, 1, 5):
                [(schedule, forward_min)] = _solve_chains(partition, codes, table, (m,))
                assignment, switches, minimum = fused_reference(partition, table[codes], m)
                assert np.array_equal(schedule.assignment, assignment)
                assert np.array_equal(schedule.per_context_switches, switches)
                assert forward_min == minimum
                assert math.copysign(1.0, forward_min) == math.copysign(1.0, minimum)

    @pytest.mark.parametrize("style", ["normal", "rounded", "sevenths"])
    def test_short_chains_in_padded_mixed_batches(self, style):
        # Chains of 1 and 2 occurrences share a batch with longer ones.
        rng = np.random.default_rng({"normal": 23, "rounded": 24, "sevenths": 25}[style])
        for _ in range(30):
            table = random_table(rng, 3, 4, style)
            lengths = rng.permutation(np.r_[1, 2, rng.integers(1, 12, size=4)])
            codes = padded_batch(rng, table, lengths)
            for levels in (1, 2, int(lengths.max()) + 1):
                minima, assign, switches = solve_one_batch(table, codes, lengths, levels)
                for c, length in enumerate(lengths.tolist()):
                    M, argm = _forward_chain(table[codes[c, :length]], levels)
                    want, want_switches = _backward_chain(M, argm)
                    assert minima[c] == M[-1, -1].min()
                    assert np.array_equal(assign[c, :length], want)
                    assert switches[c] == want_switches

    def test_short_chains_with_tiny_batches(self, monkeypatch):
        # k = 3 on 300 ternary symbols: chains of 1 and 2 occurrences beside
        # longer ones, one chain per batch, budgets 0, 1 and past the longest.
        monkeypatch.setattr(switching, "_BATCH_FLOATS", 64)
        rng = np.random.default_rng(26)
        z = SymbolSequence(rng.integers(0, 3, size=300), 3)
        partition = build_partition(z, 2)
        counts = partition._counts
        assert (counts == 1).any() and (counts == 2).any() and counts.max() > 2
        for style in ("normal", "rounded", "sevenths"):
            table = random_table(rng, 3, 27, style)
            for levels in (1, 2, int(counts.max()) + 1):
                assert_matches_reference(partition, z.symbols[2:298], table, levels)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    noisy=st.integers(2, 3),
    n=st.integers(1, 160),
    k=st.integers(0, 2),
    budgets=st.lists(st.integers(0, 39), min_size=1, max_size=4),
    values=st.lists(st.sampled_from(NEAR_TIES), min_size=12, max_size=12),
    batch=st.sampled_from([1, 40, 100, 300]),
)
def test_segment_edges_inside_chains(seed, noisy, n, k, budgets, values, batch):
    # With ``_BATCH_FLOATS`` at a few hundred floats or fewer, every chain is
    # scanned in segments of 1 to 18 occurrences, so each rule's running sum
    # and each level's running minimum cross many segment edges: up to 40
    # levels on near-tied losses and signed zeros, several budgets in one call.
    if n <= 2 * k:
        return
    rng = np.random.default_rng(seed)
    z = SymbolSequence(rng.integers(0, noisy, size=n), noisy)
    partition = build_partition(z, k)
    table = np.array(values[: noisy * 4]).reshape(noisy, 4)
    codes = z.symbols[k : n - k]
    with mock.patch.object(switching, "_BATCH_FLOATS", batch):
        solved = _solve_chains(partition, codes, table, budgets)
    for m, (schedule, forward_min) in zip(budgets, solved):
        assignment, switches, minimum = fused_reference(partition, table[codes], m)
        assert np.array_equal(schedule.assignment, assignment)
        assert np.array_equal(schedule.per_context_switches, switches)
        assert forward_min == minimum
        assert math.copysign(1.0, forward_min) == math.copysign(1.0, minimum)


@pytest.mark.parametrize("batch", [5, switching._BATCH_FLOATS])
def test_forty_levels_with_near_ties(batch, monkeypatch):
    # Chains of 30 to 100 occurrences on 40 levels, with losses one unit in
    # the last place apart, scanned whole or one occurrence at a time.
    monkeypatch.setattr(switching, "_BATCH_FLOATS", batch)
    rng = np.random.default_rng(27)
    for _ in range(6):
        z = SymbolSequence(rng.integers(0, 3, size=600), 3)
        partition = build_partition(z, 1)
        table = rng.choice(NEAR_TIES, size=(3, 5))
        codes = z.symbols[1:599]
        budgets = (39, 0, 12, 39)
        solved = _solve_chains(partition, codes, table, budgets)
        for m, (schedule, forward_min) in zip(budgets, solved):
            assignment, switches, minimum = fused_reference(partition, table[codes], m)
            assert np.array_equal(schedule.assignment, assignment)
            assert np.array_equal(schedule.per_context_switches, switches)
            assert forward_min == minimum
        assert int(partition._counts.max()) > 40


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    noisy=st.integers(2, 3),
    num_rules=st.integers(2, 6),
    n=st.integers(1, 120),
    k=st.integers(0, 2),
    budgets=st.lists(st.integers(0, 8), min_size=1, max_size=3),
    margin=st.one_of(st.just(0.0), st.floats(1e-16, 1e-11), st.floats(0.0, 1.0)),
    style=st.sampled_from(["normal", "rounded", "sevenths"]),
    tiny_batches=st.booleans(),
)
def test_planted_dominated_rule(
    seed, noisy, num_rules, n, k, budgets, margin, style, tiny_batches
):
    # Rule j is rule i plus a margin (and a nonnegative extra) at every row:
    # dropped exactly when some rule beats it by more than the guard, and
    # the solve equals the reference on every rule either way.
    if n <= 2 * k:
        return
    rng = np.random.default_rng(seed)
    z = SymbolSequence(rng.integers(0, noisy, size=n), noisy)
    partition = build_partition(z, k)
    longest = int(partition._counts.max())
    table = random_table(rng, noisy, num_rules, style)
    i, j = rng.choice(num_rules, size=2, replace=False)
    table[:, j] = table[:, i] + margin + rng.choice([0.0, 0.5], size=noisy)
    # Tiny batches also split _kept_rules's margins into chunks of a few rules.
    batch = 64 if tiny_batches else switching._BATCH_FLOATS
    codes = z.symbols[k : n - k]
    with mock.patch.object(switching, "_BATCH_FLOATS", batch):
        keep = switching._kept_rules(table, longest)
        solved = _solve_chains(partition, codes, table, budgets)
    assert keep.tolist() == kept_by_definition(table, longest)
    beats_j = [np.min(table[:, j] - table[:, r]) for r in range(num_rules) if r != j]
    if max(beats_j) <= guard_bound(table, longest):
        # i beats j by the planted margin, and no rule by more than the guard.
        assert j in keep
    for r, (schedule, forward_min) in zip(budgets, solved):
        assignment, switches, minimum = fused_reference(partition, table[codes], r)
        assert np.array_equal(schedule.assignment, assignment)
        assert np.array_equal(schedule.per_context_switches, switches)
        assert forward_min == minimum


class TestMemoryBudget:
    # A chain of L occurrences on lv levels and R kept rules holds
    # L * (10 + (lv - 1) * (R + 1)) bytes; BSC(0.1) with Hamming loss keeps 3
    # rules, so one shift level costs 14 B per occurrence.
    def test_budget_is_per_chain(self, monkeypatch, tables01):
        # 2000 interior positions over 16 contexts hold 2000 * 14 bytes in
        # all, but no chain holds more than 146 * 14.
        rng = np.random.default_rng(9)
        z = SymbolSequence(rng.integers(0, 2, size=2004), 2)
        partition = build_partition(z, 2)
        assert int(partition._counts.max()) * 14 < 5000 < 2000 * 14
        monkeypatch.setattr(switching, "MAX_CHAIN_BYTES", 5000)
        assert_matches_reference(partition, z.symbols[2:2002], tables01.ell, 2)

    def test_forward_pass_needs_only_the_chain_budget(self, monkeypatch, tables01):
        # The limit lies between the longest chain's 146 * 14 bytes and the
        # 2000 * 14 a whole-sequence store would take.
        rng = np.random.default_rng(9)
        z = SymbolSequence(rng.integers(0, 2, size=2004), 2)
        monkeypatch.setattr(switching, "MAX_CHAIN_BYTES", 5000)
        state = forward_pass(z, 2, 1, tables01)
        schedule = state.schedule
        want = fused_reference(state.partition, tables01.ell[state.codes], 1)
        assert np.array_equal(schedule.assignment, want[0])
        assert np.array_equal(schedule.per_context_switches, want[1])
        assert state.forward_min == want[2]

    def test_budget_past_the_longest_chain_needs_only_its_levels(self, monkeypatch, tables01):
        # m = 300 shifts on 16 chains of at most 146 occurrences: the longest
        # chain holds its bytes on 146 levels, not on m + 1, and the result is
        # the unclamped solve's.
        rng = np.random.default_rng(9)
        z = SymbolSequence(rng.integers(0, 2, size=2004), 2)
        longest = int(build_partition(z, 2)._counts.max())
        m = 300
        assert longest < m
        held = longest * (10 + (longest - 1) * 4)
        monkeypatch.setattr(switching, "MAX_CHAIN_BYTES", held)
        state = forward_pass(z, 2, m, tables01)
        want = fused_reference(state.partition, tables01.ell[state.codes], m)
        assert np.array_equal(state.schedule.assignment, want[0])
        assert np.array_equal(state.schedule.per_context_switches, want[1])
        assert state.forward_min == want[2]
        monkeypatch.setattr(switching, "MAX_CHAIN_BYTES", held - 1)
        with pytest.raises(TooLarge):
            forward_pass(z, 2, m, tables01)

    def test_over_budget_chain_refused(self, monkeypatch, bsc01, hamming2):
        # One chain of 1000 occurrences on two levels and 3 kept rules.
        z = SymbolSequence(np.zeros(1000, dtype=np.int64), 2)
        monkeypatch.setattr(switching, "MAX_CHAIN_BYTES", 1000 * 14 - 1)
        with pytest.raises(TooLarge):
            switching.sdude_denoise(z, 0, 1, bsc01, hamming2)
        monkeypatch.setattr(switching, "MAX_CHAIN_BYTES", 1000 * 14)
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
