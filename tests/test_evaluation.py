import json
import math
import sys

import numpy as np
import pytest

import sdude
from oracles import cumulative_loss_reference
from sdude import (
    SymbolSequence,
    bsc_channel,
    build_loss,
    concentration_sweep,
    cumulative_loss,
    hamming_loss,
    identity_channel,
    run_switching_hmm_experiment,
    run_two_block_experiment,
    two_block_sequence,
)
from sdude import evaluation
from sdude.errors import RangeError, SequenceTooShort, ValidationError


class TestCumulativeLoss:
    def test_equal_sequences_zero(self, hamming2):
        x = SymbolSequence([0, 1, 0], 2)
        assert cumulative_loss(x, x, hamming2) == 0.0

    def test_counts_mismatches(self, hamming2):
        x = SymbolSequence([0, 0, 0], 2)
        y = SymbolSequence([0, 1, 0], 2)
        assert cumulative_loss(x, y, hamming2) == pytest.approx(1 / 3)

    def test_subrange(self, hamming2):
        x = SymbolSequence([0, 0, 1, 1], 2)
        y = SymbolSequence([0, 1, 0, 1], 2)
        assert cumulative_loss(x, y, hamming2, 2, 3) == 1.0

    def test_range_validation(self, hamming2):
        x = SymbolSequence([0, 0], 2)
        with pytest.raises(RangeError):
            cumulative_loss(x, x, hamming2, 0, 2)
        with pytest.raises(RangeError):
            cumulative_loss(x, x, hamming2, 2, 1)
        with pytest.raises(ValidationError):
            cumulative_loss(x, SymbolSequence([0], 2), hamming2)

    @pytest.mark.parametrize("start, end", [(1.5, 3), (2, 3.0), (1, "5"), ("1", None), (1.0, 4)])
    def test_non_integer_bounds_are_refused(self, hamming2, start, end):
        # These used to raise TypeError from the slicing or the comparison.
        x = SymbolSequence([0, 1, 1, 0], 2)
        with pytest.raises(RangeError):
            cumulative_loss(x, x, hamming2, start, end)
        assert cumulative_loss(x, x, hamming2, np.int64(2), np.uint8(4)) == 0.0

    def test_alphabets_beyond_the_loss_are_refused(self, hamming2):
        # Symbol 2 used to index past the 2 x 2 loss and raise IndexError.
        three, two = SymbolSequence([0, 1, 2], 3), SymbolSequence([0, 1, 1], 2)
        for x, xhat in ((two, three), (three, two)):
            with pytest.raises(ValidationError, match="exceed"):
                cumulative_loss(x, xhat, hamming2)


def random_pair_and_span(rng, clean, recon):
    """Random sequences over the clean and reconstruction alphabets, and a 1-based span."""
    n = int(rng.integers(1, 3000))
    x = SymbolSequence(rng.integers(0, clean, size=n), clean)
    xhat = SymbolSequence(rng.integers(0, recon, size=n), recon)
    start, end = sorted(int(v) for v in rng.integers(1, n + 1, size=2))
    return x, xhat, start, end


class TestCumulativeLossSum:
    """The counted, correctly rounded sum against numpy's pairwise sum and math.fsum."""

    def test_hamming_and_dyadic_losses_equal_the_pairwise_sum(self):
        rng = np.random.default_rng(41)
        for trial in range(200):
            clean, recon = (int(v) for v in rng.integers(1, 6, size=2))
            if trial % 2:
                loss = build_loss(rng.integers(0, 64, size=(clean, recon)) / 8.0)
            else:
                loss = hamming_loss(clean)
                recon = clean
            x, xhat, start, end = random_pair_and_span(rng, clean, recon)
            want = cumulative_loss_reference(x, xhat, loss, start, end)
            assert cumulative_loss(x, xhat, loss, start, end) == want
            assert cumulative_loss(x, xhat, loss) == cumulative_loss_reference(x, xhat, loss)

    def test_other_losses_are_the_correctly_rounded_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            clean, recon = (int(v) for v in rng.integers(1, 6, size=2))
            loss = build_loss(rng.random((clean, recon)) * 10.0 ** rng.integers(-3, 4))
            x, xhat, start, end = random_pair_and_span(rng, clean, recon)
            span = slice(start - 1, end)
            picked = loss.lam[x.symbols[span], xhat.symbols[span]]
            want = math.fsum(picked.tolist()) / (end - start + 1)
            assert cumulative_loss(x, xhat, loss, start, end) == want


@pytest.fixture
def partitions_built(monkeypatch):
    """Counts build_partition calls made through any sdude module."""
    calls = []
    original = sdude.build_partition

    def counted(z, k):
        calls.append(k)
        return original(z, k)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sdude" and getattr(module, "build_partition", None) is original:
            monkeypatch.setattr(module, "build_partition", counted)
    return calls


class TestSharedPartitions:
    @pytest.mark.parametrize("k, per_seed", [(2, 2), (0, 1)])
    def test_two_block_partitions_each_seed_once_plus_the_zero_order_genie(
        self, partitions_built, k, per_seed
    ):
        run_two_block_experiment(3000, 0.1, k, 2, seeds=(4, 5, 6))
        assert len(partitions_built) == 3 * per_seed

    def test_switching_hmm_partitions_once_per_k(self, partitions_built):
        run_switching_hmm_experiment(4000, 0.1, 0.01, 0.2, 2000, k_list=(1, 3), m_list=(0, 1, 2))
        assert partitions_built == [1, 3]

    def test_concentration_partitions_once_per_trial(self, partitions_built):
        concentration_sweep(
            two_block_sequence, bsc_channel(0.1), 1, 1, n_list=(200, 400), trials=3
        )
        assert len(partitions_built) == 6


class TestTwoBlockExperiment:
    def test_shifting_denoiser_is_near_perfect(self):
        report = run_two_block_experiment(20000, 0.1, 0, 1, seeds=(0, 1))
        for seed in (0, 1):
            sd = report.result("sdude", seed=seed)
            assert sd.ber <= 1e-3
            assert sd.genie_loss == 0.0
            dd = report.result("dude", seed=seed)
            assert abs(dd.ber - 0.1) < 0.02
        assert report.result("sdude", seed=None).ber <= 1e-3

    def test_noiseless_channel_gives_zero_bers(self):
        report = run_two_block_experiment(2000, 0.0, 0, 1, seeds=(0,))
        for row in report.results:
            if row.ber is not None:
                assert row.ber == 0.0

    def test_m0_matches_plain_denoiser(self):
        report = run_two_block_experiment(5000, 0.1, 0, 0, seeds=(3,))
        assert report.result("sdude", seed=3).ber == report.result("dude", seed=3).ber

    def test_true_loss_never_beats_the_genie(self):
        report = run_two_block_experiment(4000, 0.1, 1, 2, seeds=(0, 1, 2))
        for seed in (0, 1, 2):
            row = report.result("sdude", seed=seed)
            assert row.interior_loss >= row.genie_loss - 1e-12

    def test_reports_reproducible(self):
        a = run_two_block_experiment(3000, 0.1, 0, 1, seeds=(5, 6))
        b = run_two_block_experiment(3000, 0.1, 0, 1, seeds=(5, 6))
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_json_round_trips(self):
        report = run_two_block_experiment(1000, 0.1, 0, 1, seeds=(0,))
        payload = json.loads(report.to_json())
        assert payload["experiment"] == "two-block"
        assert payload["n"] == 1000
        assert len(payload["results"]) == len(report.results)


class TestSwitchingHmmExperiment:
    def test_small_run_has_expected_rows(self):
        report = run_switching_hmm_experiment(
            4000, 0.1, 0.01, 0.2, 2000, k_list=(1, 2), m_list=(1,), seed=0
        )
        names = {(r.name, r.k, r.m) for r in report.results}
        assert ("fb-genie", None, None) in names
        assert ("dude", 1, 0) in names and ("dude", 2, 0) in names
        assert ("sdude", 1, 1) in names and ("sdude", 2, 1) in names
        fb = report.result("fb-genie")
        assert 0.0 < fb.ber < 0.1

    def test_equal_parameters_degenerate_switch(self):
        # p1 == p2: the shifting denoiser gains nothing real over the plain
        # one; their BERs agree within sampling noise.
        report = run_switching_hmm_experiment(
            30000, 0.1, 0.1, 0.1, 15000, k_list=(2,), m_list=(1,), seed=1
        )
        dude = report.result("dude", k=2)
        sdude = report.result("sdude", k=2)
        assert abs(dude.ber - sdude.ber) < 0.01

    def test_zero_noise_gives_zero_ratios(self):
        report = run_switching_hmm_experiment(
            2000, 0.0, 0.01, 0.2, 1000, k_list=(1,), m_list=(1,), seed=2
        )
        for row in report.results:
            assert row.ber == 0.0

    def test_switch_defaults_to_half_the_length(self):
        default = run_switching_hmm_experiment(2001, 0.1, 0.01, 0.2, k_list=(1,), seed=3)
        explicit = run_switching_hmm_experiment(2001, 0.1, 0.01, 0.2, 1000, k_list=(1,), seed=3)
        assert default.to_json() == explicit.to_json()
        assert default.sweep[0]["switch_at"] == 1000

    @pytest.mark.parametrize("n", [0, 1, 2.0])
    def test_refuses_a_length_without_room_for_the_switch(self, n):
        with pytest.raises(ValidationError, match="sequence length"):
            run_switching_hmm_experiment(n, 0.1, 0.01, 0.2, k_list=(0,))


class TestHarnessSeeds:
    # Seeds were truncated with int(): 1.5 and 1.7 silently ran seed 1.
    def test_two_block_refuses_a_fractional_seed(self):
        with pytest.raises(ValidationError):
            run_two_block_experiment(1000, 0.1, 0, 1, seeds=(1.5,))

    def test_switching_hmm_refuses_a_fractional_seed(self):
        with pytest.raises(ValidationError):
            run_switching_hmm_experiment(1000, 0.1, 0.01, 0.2, 500, k_list=(1,), seed=1.7)

    def test_concentration_refuses_a_negative_seed(self, bsc01):
        with pytest.raises(ValidationError):
            concentration_sweep(
                two_block_sequence, bsc01, 0, 1, n_list=(100,), trials=1, seed=-1
            )

    def test_numpy_integer_seeds_report_as_ints(self):
        report = run_two_block_experiment(1000, 0.1, 0, 1, seeds=(np.int64(3),))
        assert report.to_json() == run_two_block_experiment(1000, 0.1, 0, 1, seeds=(3,)).to_json()


class TestHarnessArguments:
    # Each value used to run truncated by int(), or to raise TypeError.
    def test_concentration_refuses_fractional_trials(self, bsc01):
        with pytest.raises(ValidationError, match="trials"):
            concentration_sweep(two_block_sequence, bsc01, 0, 1, n_list=(100,), trials=1.5)

    def test_concentration_refuses_a_fractional_length(self, bsc01):
        with pytest.raises(ValidationError, match="sequence length"):
            concentration_sweep(two_block_sequence, bsc01, 0, 1, n_list=(100.7,), trials=1)

    def test_switching_hmm_refuses_a_fractional_switch(self):
        with pytest.raises(ValidationError, match="switch times"):
            run_switching_hmm_experiment(100, 0.1, 0.01, 0.2, 50.5, k_list=(1,))

    def test_switching_hmm_refuses_a_fractional_k(self):
        with pytest.raises(RangeError, match="context half-width"):
            run_switching_hmm_experiment(100, 0.1, 0.01, 0.2, 50, k_list=(4.5,))

    def test_switching_hmm_refuses_a_fractional_budget(self):
        with pytest.raises(RangeError, match="shift budget"):
            run_switching_hmm_experiment(100, 0.1, 0.01, 0.2, 50, k_list=(1,), m_list=(1.5,))

    @pytest.mark.parametrize(
        "k_list, m_list, error",
        [
            ((1,), (0.0,), RangeError),
            ((1,), (1.5,), RangeError),
            ((1,), (50,), RangeError),
            ((-1,), (1,), RangeError),
            ((1, 50), (1,), SequenceTooShort),
        ],
        ids=["m-0.0", "m-1.5", "m-over-budget", "k-negative", "k-too-long"],
    )
    def test_switching_hmm_checks_k_and_m_before_sampling(self, monkeypatch, k_list, m_list, error):
        def never(*args, **kwargs):
            raise AssertionError("sampled before the checks")

        monkeypatch.setattr(evaluation, "sample_piecewise", never)
        monkeypatch.setattr(evaluation, "fb_posteriors", never)
        with pytest.raises(error):
            run_switching_hmm_experiment(100, 0.1, 0.01, 0.2, 50, k_list=k_list, m_list=m_list)

    def test_numpy_integer_arguments_report_as_ints(self, bsc01):
        args = (100, 0.1, 0.01, 0.2)
        report = run_switching_hmm_experiment(
            *args, np.int64(50), k_list=(np.int64(1),), m_list=(np.int8(1),)
        )
        assert report.to_json() == run_switching_hmm_experiment(*args, 50, k_list=(1,)).to_json()
        sweep = concentration_sweep(
            two_block_sequence, bsc01, 0, 1, n_list=(np.int64(100),), trials=np.int64(2)
        )
        assert sweep.to_json() == concentration_sweep(
            two_block_sequence, bsc01, 0, 1, n_list=(100,), trials=2
        ).to_json()


class TestConcentrationSweep:
    def test_identity_channel_zero_gaps(self, hamming2):
        report = concentration_sweep(
            two_block_sequence, identity_channel(2), 0, 1, n_list=(200, 400), trials=3, seed=0
        )
        for row in report.sweep:
            assert row["mean_gap"] == 0.0
            assert row["max_gap"] == 0.0

    def test_gaps_are_nonnegative_and_shrink(self):
        report = concentration_sweep(
            two_block_sequence, bsc_channel(0.1), 0, 1, n_list=(500, 5000), trials=5, seed=0
        )
        gaps = [row["mean_gap"] for row in report.sweep]
        assert all(g >= 0.0 for g in gaps)
        assert gaps[1] <= gaps[0]

    def test_large_switch_budget_gap_stays_nonnegative(self):
        # Even with the maximal budget the true loss cannot beat hindsight.
        report = concentration_sweep(
            two_block_sequence, bsc_channel(0.1), 0, 150, n_list=(300,), trials=5, seed=1
        )
        assert report.sweep[0]["mean_gap"] >= 0.0

    def test_custom_provider(self):
        calls = []

        def provider(n):
            calls.append(n)
            return two_block_sequence(n)

        concentration_sweep(provider, bsc_channel(0.1), 0, 1, n_list=(300,), trials=2, seed=0)
        assert calls == [300]

    def test_empty_n_list_is_refused(self):
        with pytest.raises(ValidationError, match="at least one n"):
            concentration_sweep(two_block_sequence, bsc_channel(0.1), 0, 1, n_list=(), trials=2)

    def test_provider_must_be_callable(self):
        # The clean sequence comes only from a callable n -> SymbolSequence.
        with pytest.raises(ValidationError, match="callable"):
            concentration_sweep("two-block", bsc_channel(0.1), 0, 1, n_list=(300,), trials=2)

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_two_block_sequence_refuses_a_length_that_is_not_positive(self, n):
        with pytest.raises(ValidationError, match="positive integer"):
            two_block_sequence(n)

    def test_csv_has_sweep_columns(self):
        report = concentration_sweep(
            two_block_sequence, bsc_channel(0.1), 0, 1, n_list=(300,), trials=2, seed=0
        )
        header = report.to_csv().splitlines()[0]
        assert set(header.split(",")) == {"n", "trials", "mean_gap", "max_gap"}
