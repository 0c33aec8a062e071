import math

import numpy as np
import pytest

from oracles import brute_force_min, occurrences, schedule_min_by_product
from sdude import (
    SymbolSequence,
    build_partition,
    cumulative_loss,
    genie_min_loss,
    sdude_denoise,
)
from sdude.errors import TooLarge, ValidationError

ALWAYS0, FLIP, SAY, ALWAYS1 = 0, 1, 2, 3


class TestGenieMinLoss:
    def test_clean_equals_noisy_gives_zero(self, hamming2):
        rng = np.random.default_rng(0)
        x = SymbolSequence(rng.integers(0, 2, size=50), 2)
        for k, m in ((0, 0), (1, 1), (2, 3)):
            value, schedule = genie_min_loss(x, x, k, m, hamming2)
            assert value == 0.0
            assert (schedule.assignment >= 0).all()

    def test_alternating_noise_with_one_switch(self, hamming2):
        # x = 000111 against z = 010101: always-0 then always-1 is perfect.
        x = SymbolSequence([0, 0, 0, 1, 1, 1], 2)
        z = SymbolSequence([0, 1, 0, 1, 0, 1], 2)
        value, schedule = genie_min_loss(x, z, 0, 1, hamming2)
        assert value == 0.0
        np.testing.assert_array_equal(schedule.assignment, [ALWAYS0] * 3 + [ALWAYS1] * 3)

    def test_two_block_target_is_zero(self, bsc01, hamming2):
        from sdude import corrupt, two_block_sequence

        x = two_block_sequence(400)
        z = corrupt(x, bsc01, 7)
        value, _ = genie_min_loss(x, z, 0, 1, hamming2)
        assert value == 0.0

    def test_length_mismatch(self, hamming2):
        with pytest.raises(ValidationError):
            genie_min_loss(
                SymbolSequence([0, 1], 2), SymbolSequence([0, 1, 0], 2), 0, 0, hamming2
            )

    def test_too_many_rules_is_refused(self):
        # 20^20 rules: refused by the rule-count cap, not by numpy's size limit.
        from sdude import hamming_loss

        x = SymbolSequence(np.arange(20), 20)
        with pytest.raises(TooLarge, match="rules exceed"):
            genie_min_loss(x, x, 0, 1, hamming_loss(20))

    def test_m0_recovers_fixed_rule_target(self, hamming2):
        # With m=0 the target is the best single fixed rule per context.
        rng = np.random.default_rng(1)
        x = SymbolSequence(rng.integers(0, 2, size=40), 2)
        z = SymbolSequence(rng.integers(0, 2, size=40), 2)
        value, _ = genie_min_loss(x, z, 0, 0, hamming2)
        mappings = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        best = min(
            np.not_equal(x.symbols, mp[z.symbols]).sum() for mp in mappings
        )
        assert value == pytest.approx(best / 40, abs=1e-12)

    def test_large_m_decouples(self, hamming2):
        # Unbounded switching: per-position best rule.
        rng = np.random.default_rng(2)
        x = SymbolSequence(rng.integers(0, 2, size=30), 2)
        z = SymbolSequence(rng.integers(0, 2, size=30), 2)
        value, _ = genie_min_loss(x, z, 0, 30, hamming2)
        assert value == 0.0  # binary rules always contain a perfect per-symbol answer


class TestBruteForce:
    def test_switch_example(self, tables01):
        z = SymbolSequence([0, 0, 0, 1, 1, 1], 2)
        assert brute_force_min(z, 0, 1, tables01) == pytest.approx(-0.75, abs=1e-12)

    def test_m0_is_column_minimum(self, tables01):
        rng = np.random.default_rng(3)
        z = SymbolSequence(rng.integers(0, 2, size=25), 2)
        expected = tables01.ell[z.symbols].sum(axis=0).min()
        assert brute_force_min(z, 0, 0, tables01) == pytest.approx(expected, abs=1e-12)

    def test_true_mode_unbounded_decouples(self, tables01):
        rng = np.random.default_rng(4)
        x = SymbolSequence(rng.integers(0, 2, size=8), 2)
        z = SymbolSequence(rng.integers(0, 2, size=8), 2)
        value = brute_force_min(z, 0, 8, tables01, mode="true", x=x)
        per_position = [
            min(tables01.loss.lam[x.symbols[t], mp[z.symbols[t]]] for mp in tables01.mappings)
            for t in range(8)
        ]
        assert value == pytest.approx(math.fsum(per_position), abs=1e-12)

    def test_matches_product_oracle(self, tables01):
        rng = np.random.default_rng(5)
        for trial in range(15):
            n = int(rng.integers(3, 8))
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            m = int(rng.integers(0, 3))
            loss_rows = tables01.ell[z.symbols]
            expected = schedule_min_by_product(loss_rows, np.zeros(n, dtype=int), m)
            assert brute_force_min(z, 0, m, tables01) == pytest.approx(expected, abs=1e-12)

    def test_budget_guard(self, tables01):
        z = SymbolSequence(np.zeros(4000, dtype=int), 2)
        with pytest.raises(TooLarge):
            brute_force_min(z, 0, 3, tables01)

    def test_true_mode_requires_clean(self, tables01):
        with pytest.raises(ValidationError):
            brute_force_min(SymbolSequence([0, 1], 2), 0, 0, tables01, mode="true")

    def test_bad_mode(self, tables01):
        with pytest.raises(ValidationError):
            brute_force_min(SymbolSequence([0, 1], 2), 0, 0, tables01, mode="underside")


class TestSandwichAndNesting:
    def test_true_loss_dominates_genie(self, bsc01, hamming2):
        from sdude import corrupt

        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(30, 120))
            x = SymbolSequence(rng.integers(0, 2, size=n), 2)
            z = corrupt(x, bsc01, trial)
            k = int(rng.integers(0, 2))
            m = int(rng.integers(0, 3))
            if m > (n - 2 * k) // 2:
                continue
            out, _, _ = sdude_denoise(z, k, m, bsc01, hamming2)
            achieved = cumulative_loss(x, out, hamming2, k + 1, n - k)
            target, _ = genie_min_loss(x, z, k, m, hamming2)
            assert achieved >= target - 1e-12

    def test_monotone_in_m(self, bsc01, hamming2):
        from sdude import corrupt

        rng = np.random.default_rng(7)
        x = SymbolSequence(rng.integers(0, 2, size=200), 2)
        z = corrupt(x, bsc01, 0)
        previous = np.inf
        for m in (0, 1, 2, 4):
            value, _ = genie_min_loss(x, z, 0, m, hamming2)
            assert value <= previous + 1e-12
            previous = value

    def test_order_zero_dominates_on_common_interior(self, bsc01, hamming2):
        from sdude import corrupt

        rng = np.random.default_rng(8)
        for trial in range(5):
            n = 150
            x = SymbolSequence(rng.integers(0, 2, size=n), 2)
            z = corrupt(x, bsc01, 100 + trial)
            k, m = 2, 1
            d_km, _ = genie_min_loss(x, z, k, m, hamming2)
            x_int = SymbolSequence(x.symbols[k : n - k], 2)
            z_int = SymbolSequence(z.symbols[k : n - k], 2)
            d_0m, _ = genie_min_loss(x_int, z_int, 0, m, hamming2)
            assert d_0m >= d_km - 1e-12

    def test_genie_dp_equals_brute_force_true_mode(self, tables01, hamming2):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(5, 12))
            k = int(rng.integers(0, 2))
            m = int(rng.integers(0, 3))
            if n <= 2 * k:
                continue
            x = SymbolSequence(rng.integers(0, 2, size=n), 2)
            z = SymbolSequence(rng.integers(0, 2, size=n), 2)
            value, schedule = genie_min_loss(x, z, k, m, hamming2)
            expected = brute_force_min(z, k, m, tables01, mode="true", x=x)
            assert value * (n - 2 * k) == pytest.approx(expected, abs=1e-12)
            part = build_partition(z, k)
            for cid in part.occurring_contexts():
                occ = occurrences(part, cid) - (k + 1)
                assigned = schedule.assignment[occ]
                switches = int((assigned[1:] != assigned[:-1]).sum())
                assert switches <= min(occ.shape[0], m)
