"""Loss accounting, experiment reports, and reproducible experiment harnesses.

Reports carry, per denoiser, the normalized true loss over the full sequence
and over the interior positions, the estimated loss where one exists, the
hindsight target, and the bit error rate as a ratio to the channel parameter
where applicable.  Given identical seeds a harness produces byte-identical
reports.  Each harness partitions a noisy sequence once per k and solves it
once per loss: the plain and the shifting denoiser are budgets 0 and m of one
estimated-loss solve, and their hindsight targets budgets 0 and m of one
true-loss solve on the denoiser's own ``schedule.partition``; nothing of one
k's solve is held while the next k's runs.  The concentration sweep draws its
clean sequence from a callable n -> SymbolSequence (the command line passes
``two_block_sequence``) and scores Hamming loss on the channel's clean
alphabet.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelModel, LossMatrix, SymbolSequence, _check_size, bsc_channel, hamming_loss, symbol_dtype
)
from .errors import RangeError, ValidationError
from .genie import genie_min_loss, genie_min_losses
from .hmm import fb_posteriors, map_denoise
from .sources import MarkovComponent, PiecewiseSourceSpec, _seed_sequence, corrupt, sample_piecewise
from .switching import _check_budgets, _table_sum, sdude_denoise_each


def cumulative_loss(
    x: SymbolSequence, xhat: SymbolSequence, loss: LossMatrix, start: int = 1, end: int | None = None
) -> float:
    """Normalized loss between 1-based positions start and end, inclusive.

    The sum of the picked loss entries is correctly rounded (math.fsum's)
    before the division by the span.  numpy's pairwise sum gives the same
    bits whenever it is exact, as for every integer-valued loss such as
    Hamming's; for other losses the two may differ in the last bit.
    """
    n = len(x)
    if len(xhat) != n:
        raise ValidationError(f"sequence lengths differ ({n} != {len(xhat)})")
    if x.alphabet_size > loss.clean_size or xhat.alphabet_size > loss.recon_size:
        raise ValidationError(
            f"alphabets {x.alphabet_size}, {xhat.alphabet_size} exceed the {loss.lam.shape} loss"
        )
    if end is None:
        end = n
    if not 1 <= start <= end <= n:
        raise RangeError(f"need 1 <= start <= end <= {n}, got [{start}, {end}]")
    span = slice(start - 1, end)
    return _table_sum(loss.lam, x.symbols[span], xhat.symbols[span]) / (end - start + 1)


@dataclass(frozen=True)
class DenoiserResult:
    """One denoiser's scores within a report."""

    name: str
    k: int | None = None
    m: int | None = None
    seed: int | None = None
    full_loss: float | None = None
    interior_loss: float | None = None
    estimated_loss: float | None = None
    genie_loss: float | None = None
    ber: float | None = None
    ratio_to_delta: float | None = None


@dataclass(frozen=True)
class EvalReport:
    """Parameters plus per-denoiser results; serializes to JSON and CSV."""

    experiment: str
    n: int
    channel: str
    loss: str
    seeds: tuple[int, ...]
    delta: float | None = None
    k: int | None = None
    m: int | None = None
    results: tuple[DenoiserResult, ...] = ()
    sweep: tuple[dict, ...] = ()

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """Per-denoiser rows; sweep-style reports tabulate their sweep instead."""
        out = io.StringIO()
        if self.results:
            fields = [f.name for f in dataclasses.fields(DenoiserResult)]
            writer = csv.DictWriter(out, fieldnames=fields)
            writer.writeheader()
            for result in self.results:
                writer.writerow(dataclasses.asdict(result))
        else:
            fields = sorted({key for row in self.sweep for key in row})
            writer = csv.DictWriter(out, fieldnames=fields)
            writer.writeheader()
            for row in self.sweep:
                writer.writerow(row)
        return out.getvalue()

    def result(self, name: str, **filters) -> DenoiserResult:
        """The unique result with the given name and field values."""
        matches = [
            r
            for r in self.results
            if r.name == name and all(getattr(r, key) == val for key, val in filters.items())
        ]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} results match name={name!r} {filters}")
        return matches[0]


def _ratio(ber: float, delta: float) -> float:
    """Bit error rate as a ratio to the channel parameter, 0 for a noiseless channel."""
    return round(ber / delta, 4) if delta > 0 else 0.0


def _scored(name, x, out, loss, delta, k, m, seed, **extra) -> DenoiserResult:
    """One denoiser's row; with k 0 or None the interior is the whole sequence."""
    full = cumulative_loss(x, out, loss)
    interior = full if not k else cumulative_loss(x, out, loss, k + 1, len(x) - k)
    return DenoiserResult(
        name=name,
        k=k,
        m=m,
        seed=seed,
        full_loss=full,
        interior_loss=interior,
        ber=full,
        ratio_to_delta=_ratio(full, delta),
        **extra,
    )


def two_block_sequence(n: int) -> SymbolSequence:
    """The piecewise-constant sequence: n//2 zeros followed by ones."""
    _check_size("sequence length", n)
    x = np.zeros(n, dtype=symbol_dtype(2))
    x[n // 2 :] = 1
    return SymbolSequence(x, 2)


def run_two_block_experiment(
    n: int, delta: float, k: int, m: int, seeds=(0,)
) -> EvalReport:
    """Corrupt the two-block sequence and score the non-shifting and shifting denoisers.

    One result row per (denoiser, seed) plus mean rows with seed None.
    """
    channel = bsc_channel(delta)
    loss = hamming_loss(2)
    x = two_block_sequence(n)
    seeds = tuple(_seed_sequence(s).entropy for s in seeds)
    if not seeds:
        raise ValidationError("the two-block experiment needs at least one seed")
    results = []
    headline = []
    for seed in seeds:
        z = corrupt(x, channel, seed)
        (dude_out, schedule, _), (sdude_out, _, estimated) = sdude_denoise_each(
            z, k, (0, m), channel, loss
        )
        (dude_target, _), (sdude_target, _) = genie_min_losses(
            x, schedule.partition, (0, m), loss
        )
        targets = {"dude": dude_target, "sdude": sdude_target}
        # Best zero-order shifting performance on the shared interior.
        d_0m = targets["sdude"] if k == 0 else genie_min_loss(
            SymbolSequence(x.symbols[k : n - k], 2),
            SymbolSequence(z.symbols[k : n - k], 2),
            0,
            m,
            loss,
        )[0]
        headline.append({"seed": seed, "zero_order_genie": d_0m})
        for name, out, est in (("dude", dude_out, None), ("sdude", sdude_out, estimated)):
            results.append(
                _scored(
                    name, x, out, loss, delta, k, 0 if name == "dude" else m, seed,
                    estimated_loss=est, genie_loss=targets[name],
                )
            )
    for name in ("dude", "sdude"):
        mean_ber = math.fsum(r.ber for r in results if r.name == name) / len(seeds)
        results.append(
            DenoiserResult(
                name=name,
                k=k,
                m=0 if name == "dude" else m,
                seed=None,
                ber=mean_ber,
                ratio_to_delta=_ratio(mean_ber, delta),
            )
        )
    return EvalReport(
        experiment="two-block",
        n=int(n),
        channel=f"bsc:{delta}",
        loss="hamming",
        seeds=seeds,
        delta=float(delta),
        k=int(k),
        m=int(m),
        results=tuple(results),
        sweep=tuple(headline),
    )


def run_switching_hmm_experiment(
    n: int,
    delta: float,
    p1: float,
    p2: float,
    switch_at: int | None = None,
    k_list=(4, 6),
    m_list=(1,),
    seed: int = 0,
) -> EvalReport:
    """State estimation for a binary Markov chain whose flip rate changes once.

    The clean chain keeps its state across the change point (only the
    transition probability switches, after ``switch_at`` symbols, by default
    ``n // 2``); the exact smoothing posteriors with the change point known
    give the reference bit error rate.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"switching-hmm needs a sequence length of at least 2, got {n!r}")
    # Every k and budget is checked as the denoisers check them, before anything is sampled.
    k_list, budgets = tuple(k_list), (0, *m_list)
    for k in k_list:
        _check_budgets(n, k, 2, budgets)
    budgets = (0, *(m for m in budgets if m != 0))
    trans1 = np.array([[1.0 - p1, p1], [p1, 1.0 - p1]])
    trans2 = np.array([[1.0 - p2, p2], [p2, 1.0 - p2]])
    spec = PiecewiseSourceSpec(
        components=(MarkovComponent(trans1), MarkovComponent(trans2)),
        switch_times=(n // 2 if switch_at is None else switch_at,),
        block_labels=(0, 1),
        continuing=True,
    )
    # The spec refuses a switch time that is not an integer, and holds it as an int.
    [switch_at] = spec.switch_times
    ss = _seed_sequence(seed)
    seed = ss.entropy
    source_seed, channel_seed = ss.spawn(2)
    x = sample_piecewise(spec, n, source_seed)
    channel = bsc_channel(delta)
    loss = hamming_loss(2)
    z = corrupt(x, channel, channel_seed)
    segments = [(1, switch_at, trans1), (switch_at + 1, n, trans2)]
    # The posteriors and their MAP output are freed before the denoisers run.
    fb_out = map_denoise(fb_posteriors(z, segments, channel), loss)
    results = [_scored("fb-genie", x, fb_out, loss, delta, None, None, seed)]
    del fb_out
    for k in k_list:
        # One k's outputs and schedules, with the partition they share, go
        # out of scope with this comprehension, before the next k's solve.
        results += [
            _scored(
                "sdude" if m else "dude", x, out, loss, delta, int(k), int(m), seed,
                estimated_loss=estimated if m else None,
            )
            for m, (out, _, estimated) in zip(
                budgets, sdude_denoise_each(z, k, budgets, channel, loss)
            )
        ]
    return EvalReport(
        experiment="switching-hmm",
        n=int(n),
        channel=f"bsc:{delta}",
        loss="hamming",
        seeds=(seed,),
        delta=float(delta),
        results=tuple(results),
        sweep=(
            {
                "p1": float(p1),
                "p2": float(p2),
                "switch_at": switch_at,
            },
        ),
    )


def concentration_sweep(
    x_provider,
    channel: ChannelModel,
    k: int,
    m: int,
    n_list=(10**3, 10**4, 10**5),
    trials: int = 50,
    seed: int = 0,
) -> EvalReport:
    """Monte Carlo gap between the shifting denoiser's true loss and the hindsight target.

    For each n the fixed clean sequence ``x_provider(n)`` is corrupted
    ``trials`` times; the sweep rows report the mean and max of the interior
    true-loss gap, under Hamming loss on the channel's clean alphabet.
    """
    _check_size("trials", trials)
    if not n_list:
        raise ValidationError("the concentration sweep needs at least one n")
    for n in n_list:
        _check_size("sequence length", n)
    if not callable(x_provider):
        raise ValidationError("x_provider must be a callable n -> SymbolSequence")
    loss = hamming_loss(channel.clean_size)
    seed = _seed_sequence(seed).entropy
    rows = []
    for ni, n in enumerate(n_list):
        x = x_provider(int(n))
        gaps = []
        for trial in range(trials):
            z = corrupt(x, channel, np.random.SeedSequence((seed, ni, trial)))
            [(out, schedule, _)] = sdude_denoise_each(z, k, (m,), channel, loss)
            true_loss = cumulative_loss(x, out, loss, k + 1, len(x) - k)
            [(genie_val, _)] = genie_min_losses(x, schedule.partition, (m,), loss)
            gaps.append(true_loss - genie_val)
        rows.append(
            {
                "n": int(n),
                "trials": int(trials),
                "mean_gap": math.fsum(gaps) / trials,
                "max_gap": max(gaps),
            }
        )
    return EvalReport(
        experiment="concentration",
        n=int(max(n_list)),
        channel="custom",
        loss="custom",
        seeds=(seed,),
        k=int(k),
        m=int(m),
        sweep=tuple(rows),
    )
