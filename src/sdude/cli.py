"""Command-line front end: denoise files and run the experiment harnesses.

Images are raster-scanned row-major into a one-dimensional sequence,
denoised, and written back with their original dimensions.  Experiment
reports are written as <out>.json and <out>.csv.  All commands are
deterministic given their flags and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import evaluation, fileio
from .core import SymbolSequence, _rule_count, bsc_channel, build_channel
from .errors import DenoiseError
from .switching import sdude_denoise


def _read_input(path, fmt, noisy_size):
    if fmt == "raw":
        return fileio.read_raw_sequence(path, noisy_size), None
    if fmt == "text":
        return fileio.read_text_sequence(path, noisy_size), None
    image = fileio.read_pbm(path)
    return SymbolSequence(image.reshape(-1), noisy_size), image.shape


def _write_output(path, fmt, seq, shape):
    if fmt == "raw":
        fileio.write_raw_sequence(path, seq)
    elif fmt == "text":
        fileio.write_text_sequence(path, seq)
    else:
        fileio.write_pbm(path, np.asarray(seq.symbols).reshape(shape))


def _cmd_denoise(args) -> int:
    size_hint = 2 if args.format == "pbm" else None
    pi = fileio.channel_matrix(args.channel, size=size_hint)
    loss = fileio.loss_from_spec(args.loss, clean_size=pi.shape[0])
    # The rule budget is checked before the channel's SVDs, which are cubic in its size.
    _rule_count(pi.shape[1], loss.recon_size)
    h_matrix = fileio.load_matrix(args.h_matrix) if args.h_matrix else None
    channel = build_channel(pi, h_matrix=h_matrix)
    seq, shape = _read_input(args.input, args.format, channel.noisy_size)
    out, schedule, estimated = sdude_denoise(seq, args.k, args.m, channel, loss)
    if args.emit_schedule:
        fileio.write_schedule(args.emit_schedule, schedule, estimated)
    try:
        _write_output(args.output, args.format, out, shape)
    except BaseException:
        # No partial output: the schedule goes when the output cannot be written.
        if args.emit_schedule:
            os.remove(args.emit_schedule)
        raise
    return 0


def _write_report(report, out_base) -> None:
    base = os.fspath(out_base)
    if base.endswith(".json"):
        base = base[: -len(".json")]
    fileio.atomic_write_text(base + ".json", report.to_json())
    try:
        fileio.atomic_write_text(base + ".csv", report.to_csv())
    except BaseException:
        # No partial report: the JSON goes when the CSV cannot be written.
        os.remove(base + ".json")
        raise


def _cmd_two_block(args) -> int:
    seeds = range(args.seed, args.seed + args.trials)
    report = evaluation.run_two_block_experiment(
        args.n, args.delta, args.k, args.m, seeds=tuple(seeds)
    )
    _write_report(report, args.out)
    return 0


def _cmd_switching_hmm(args) -> int:
    report = evaluation.run_switching_hmm_experiment(
        args.n,
        args.delta,
        args.p1,
        args.p2,
        args.switch_at,
        k_list=tuple(args.k_list),
        m_list=tuple(args.m_list),
        seed=args.seed,
    )
    _write_report(report, args.out)
    return 0


def _cmd_concentration(args) -> int:
    report = evaluation.concentration_sweep(
        evaluation.two_block_sequence,
        bsc_channel(args.delta),
        args.k,
        args.m,
        n_list=tuple(args.n_list),
        trials=args.trials,
        seed=args.seed,
    )
    _write_report(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdude",
        description="Sliding-window and switching discrete denoising for noisy finite-alphabet data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    den = sub.add_parser("denoise", help="denoise a sequence or bitmap file")
    den.add_argument("--input", required=True)
    den.add_argument("--output", required=True)
    den.add_argument("--format", choices=("raw", "text", "pbm"), default="raw")
    den.add_argument("--channel", required=True, help="bsc:<delta>, identity:<n>, or a matrix file")
    den.add_argument("--loss", default="hamming", help="hamming[:<n>] or a matrix file")
    den.add_argument("--k", type=int, required=True, help="context half-width")
    den.add_argument("--m", type=int, default=0, help="shift budget per context; 0 is plain DUDE")
    den.add_argument("--emit-schedule", metavar="PATH", help="dump the chosen schedule as JSON")
    den.add_argument("--h-matrix", metavar="PATH", help="explicit channel right inverse")
    den.set_defaults(func=_cmd_denoise)

    exp = sub.add_parser("experiment", help="run a reproducible experiment")
    expsub = exp.add_subparsers(dest="experiment", required=True)

    two = expsub.add_parser("two-block", help="piecewise-constant source through a BSC")
    two.add_argument("--n", type=int, default=160000)
    two.add_argument("--delta", type=float, default=0.1)
    two.add_argument("--k", type=int, default=0)
    two.add_argument("--m", type=int, default=1)
    two.add_argument("--trials", type=int, default=10)
    two.add_argument("--seed", type=int, default=0)
    two.add_argument("--out", required=True)
    two.set_defaults(func=_cmd_two_block)

    hmm = expsub.add_parser("switching-hmm", help="switching hidden Markov state estimation")
    hmm.add_argument("--n", type=int, default=10**6)
    hmm.add_argument("--delta", type=float, default=0.1)
    hmm.add_argument("--p1", type=float, default=0.01)
    hmm.add_argument("--p2", type=float, default=0.2)
    hmm.add_argument("--switch-at", type=int, default=None)
    hmm.add_argument("--k-list", type=int, nargs="+", default=[4, 6])
    hmm.add_argument("--m-list", type=int, nargs="+", default=[1])
    hmm.add_argument("--seed", type=int, default=0)
    hmm.add_argument("--out", required=True)
    hmm.set_defaults(func=_cmd_switching_hmm)

    conc = expsub.add_parser("concentration", help="loss gap to the hindsight target vs n")
    conc.add_argument("--delta", type=float, default=0.1)
    conc.add_argument("--k", type=int, default=0)
    conc.add_argument("--m", type=int, default=1)
    conc.add_argument("--n-list", type=int, nargs="+", default=[10**3, 10**4, 10**5])
    conc.add_argument("--trials", type=int, default=50)
    conc.add_argument("--seed", type=int, default=0)
    conc.add_argument("--out", required=True)
    conc.set_defaults(func=_cmd_concentration)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DenoiseError, OSError) as exc:
        print(f"sdude: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
