"""Loss accounting, experiment reports, and reproducible experiment harnesses.

Reports carry, per denoiser, the normalized true loss over the full sequence
and over the interior positions, the estimated loss where one exists, the
hindsight target, and the bit error rate as a ratio to the channel parameter
where applicable.  Given identical seeds a harness produces byte-identical
reports.  Each harness partitions a noisy sequence once per k and solves it
once per loss: the plain and the shifting denoiser are budgets 0 and m of one
estimated-loss solve, and their hindsight targets budgets 0 and m of one
true-loss solve on the denoiser's own ``schedule.partition``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, LossMatrix, SymbolSequence, bsc_channel, hamming_loss
from .errors import RangeError, ValidationError
from .estimation import build_tables
from .genie import genie_min_loss, genie_min_losses
from .hmm import fb_posteriors, map_denoise
from .sources import MarkovComponent, PiecewiseSourceSpec, corrupt, sample_piecewise
from .switching import sdude_denoise_each


def cumulative_loss(
    x: SymbolSequence, xhat: SymbolSequence, loss: LossMatrix, start: int = 1, end: int | None = None
) -> float:
    """Normalized loss between 1-based positions start and end, inclusive."""
    n = len(x)
    if len(xhat) != n:
        raise ValidationError(f"sequence lengths differ ({n} != {len(xhat)})")
    if end is None:
        end = n
    if not 1 <= start <= end <= n:
        raise RangeError(f"need 1 <= start <= end <= {n}, got [{start}, {end}]")
    seg = loss.lam[x.symbols[start - 1 : end], xhat.symbols[start - 1 : end]]
    return float(seg.sum() / (end - start + 1))


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
    x = np.zeros(n, dtype=np.int64)
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
    tables = build_tables(channel, loss)
    x = two_block_sequence(n)
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValidationError("the two-block experiment needs at least one seed")
    results = []
    headline = []
    for seed in seeds:
        z = corrupt(x, channel, seed)
        (dude_out, schedule, _), (sdude_out, _, estimated) = sdude_denoise_each(
            z, k, (0, m), channel, loss, tables=tables
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
    switch_at: int,
    k_list=(4, 6),
    m_list=(1,),
    seed: int = 0,
) -> EvalReport:
    """State estimation for a binary Markov chain whose flip rate changes once.

    The clean chain keeps its state across the change point (only the
    transition probability switches); the exact smoothing posteriors with
    the change point known give the reference bit error rate.
    """
    trans1 = np.array([[1.0 - p1, p1], [p1, 1.0 - p1]])
    trans2 = np.array([[1.0 - p2, p2], [p2, 1.0 - p2]])
    spec = PiecewiseSourceSpec(
        components=(MarkovComponent(trans1), MarkovComponent(trans2)),
        switch_times=(int(switch_at),),
        block_labels=(0, 1),
        continuing=True,
    )
    seed = int(seed)
    ss = np.random.SeedSequence(seed)
    source_seed, channel_seed = ss.spawn(2)
    x = sample_piecewise(spec, n, source_seed)
    channel = bsc_channel(delta)
    loss = hamming_loss(2)
    tables = build_tables(channel, loss)
    z = corrupt(x, channel, channel_seed)
    segments = [(1, int(switch_at), trans1), (int(switch_at) + 1, n, trans2)]
    posteriors = fb_posteriors(z, segments, channel)
    results = [_scored("fb-genie", x, map_denoise(posteriors, loss), loss, delta, None, None, seed)]
    budgets = [m for m in map(int, m_list) if m != 0]
    for k in map(int, k_list):
        (out, _, _), *shifting = sdude_denoise_each(
            z, k, (0, *budgets), channel, loss, tables=tables
        )
        results.append(_scored("dude", x, out, loss, delta, k, 0, seed))
        for m, (out, _, estimated) in zip(budgets, shifting):
            results.append(
                _scored("sdude", x, out, loss, delta, k, m, seed, estimated_loss=estimated)
            )
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
                "switch_at": int(switch_at),
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
    loss: LossMatrix | None = None,
) -> EvalReport:
    """Monte Carlo gap between the shifting denoiser's true loss and the hindsight target.

    For each n the fixed clean sequence is corrupted ``trials`` times; the
    sweep rows report the mean and max of the interior true-loss gap.
    ``x_provider`` is "two-block" or a callable n -> SymbolSequence.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial per n, got {trials}")
    if loss is None:
        loss = hamming_loss(channel.clean_size)
    if x_provider == "two-block":
        provider = two_block_sequence
    elif callable(x_provider):
        provider = x_provider
    else:
        raise ValidationError("x_provider must be 'two-block' or a callable")
    tables = build_tables(channel, loss)
    rows = []
    for ni, n in enumerate(n_list):
        x = provider(int(n))
        gaps = []
        for trial in range(trials):
            z = corrupt(x, channel, np.random.SeedSequence((int(seed), ni, trial)))
            [(out, schedule, _)] = sdude_denoise_each(z, k, (m,), channel, loss, tables=tables)
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
        seeds=(int(seed),),
        k=int(k),
        m=int(m),
        sweep=tuple(rows),
    )
