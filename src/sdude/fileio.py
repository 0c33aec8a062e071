"""On-disk formats: matrices, symbol sequences, PBM bitmaps, schedule dumps.

Matrix files are plain text: a first line "rows cols" followed by row-major
whitespace-separated decimals.  Sequences are stored either raw (one symbol
per byte, alphabets up to 256) or as whitespace-separated integers.  PBM
bitmaps (0 = white, 1 = black) are read in the ASCII (P1) and packed (P4)
variants and written packed.  All writes go through a temporary file and an
atomic rename.  A schedule (``write_schedule``) is ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline, for ``doc = {"contexts": [{"context_id", "left",
"right", "runs": [{"denoiser", "position"}], "switches"}], "estimated_loss", "k", "m", "n"}``.
"""

from __future__ import annotations

import itertools
import json
import os
import re

import numpy as np

from .core import (
    LossMatrix,
    SymbolSequence,
    _bsc_matrix,
    _square_side,
    build_loss,
    hamming_loss,
)
from .errors import ValidationError
from .switching import SwitchingSchedule


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file beside it and a rename.

    The temporary file is opened with mode 0o666, so the kernel gives it the
    permissions the umask leaves, as ``open(path, "wb")`` would.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _read_tokens(path, what: str) -> list[str]:
    """Whitespace-separated tokens of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().split()
    except UnicodeDecodeError:
        raise ValidationError(f"{what} {path} is not UTF-8 text") from None


def _quote(token: str) -> str:
    """``token`` for an error message: its first 20 characters and, when longer, its length."""
    if len(token) <= 20:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def _spec_number(spec: str, parse):
    """The number after the colon of a "<name>:<number>" spec."""
    try:
        return parse(spec.split(":", 1)[1])
    except ValueError:
        raise ValidationError(f"bad number in {spec!r}") from None


def _matrix_number(path, parse, token: str):
    try:
        return parse(token)
    except ValueError:
        raise ValidationError(f"matrix file {path} holds {_quote(token)}, not a number") from None


def load_matrix(path) -> np.ndarray:
    tokens = _read_tokens(path, "matrix file")
    if len(tokens) < 2:
        raise ValidationError(f"matrix file {path} is missing its 'rows cols' header")
    rows, cols = (_matrix_number(path, int, tok) for tok in tokens[:2])
    values = [_matrix_number(path, float, tok) for tok in tokens[2:]]
    if rows < 1 or cols < 1 or len(values) != rows * cols:
        raise ValidationError(
            f"matrix file {path} declares {rows}x{cols} but holds {len(values)} values"
        )
    return np.array(values).reshape(rows, cols)


def _spec_size(spec: str, name: str, size: int | None, kind: str) -> int | None:
    """The size of a "<name>[:<size>]" spec, ``size`` when it names none; None for other specs."""
    if spec != name and not spec.startswith(name + ":"):
        return None
    if ":" in spec:
        size = _spec_number(spec, int)
    if size is None:
        raise ValidationError(f"{name} {kind} needs a size ({name}:<n>)")
    return size


def channel_matrix(spec: str, size: int | None = None) -> np.ndarray:
    """The matrix of "bsc:<delta>", "identity[:<size>]", or a matrix file path.

    Only a bsc spec's crossover is checked here; ``build_channel`` checks the rest.
    """
    if spec.startswith("bsc:"):
        return _bsc_matrix(_spec_number(spec, float))
    size = _spec_size(spec, "identity", size, "channel")
    return load_matrix(spec) if size is None else np.eye(_square_side(size))


def loss_from_spec(spec: str, clean_size: int | None = None) -> LossMatrix:
    """Build a loss from "hamming[:<size>]" or a matrix file path."""
    size = _spec_size(spec, "hamming", clean_size, "loss")
    return build_loss(load_matrix(spec)) if size is None else hamming_loss(size)


def read_raw_sequence(path, alphabet_size: int) -> SymbolSequence:
    with open(path, "rb") as handle:
        data = np.frombuffer(handle.read(), dtype=np.uint8)
    return SymbolSequence(data, alphabet_size)


def write_raw_sequence(path, seq: SymbolSequence) -> None:
    if seq.alphabet_size > 256:
        raise ValidationError("raw format supports alphabets up to 256 symbols")
    # Symbols of up to 256 values are stored as uint8 already, so this is no copy.
    atomic_write_bytes(path, seq.symbols.astype(np.uint8, copy=False).tobytes())


def read_text_sequence(path, alphabet_size: int) -> SymbolSequence:
    """Symbols written as ASCII decimal digits, separated by whitespace."""
    tokens = _read_tokens(path, "sequence file")
    joined = "".join(tokens)
    if tokens and not (joined.isascii() and joined.isdigit()):
        bad = next(tok for tok in tokens if not (tok.isascii() and tok.isdigit()))
        raise ValidationError(f"sequence file {path} holds {_quote(bad)}, not a decimal symbol")
    try:
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        # Past 2**63 - 1 the conversion overflows; past 4300 digits int() refuses.
        raise ValidationError(
            f"sequence file {path} holds a symbol outside 0..{alphabet_size - 1}"
        ) from None
    return SymbolSequence(values, alphabet_size)


def write_text_sequence(path, seq: SymbolSequence) -> None:
    """Symbols as space-separated decimals and a final newline."""
    atomic_write_text(path, " ".join(map(str, seq.symbols.tolist())) + "\n")


# A header token, or a comment that runs to the end of its line.
_PBM_HEADER = re.compile(rb"#[^\r\n]*|[^\s#]+")


def _pbm_header(data: bytes):
    """The magic, width and height tokens, skipping '#' comments, and the offset after them."""
    words = (m for m in _PBM_HEADER.finditer(data) if m[0][:1] != b"#")
    header = list(itertools.islice(words, 3))
    if len(header) < 3:
        raise ValidationError("truncated PBM header")
    return [m[0] for m in header], header[-1].end()


def read_pbm(path) -> np.ndarray:
    """Read a P1 or P4 bitmap as a (height, width) uint8 array of 0/1 (1 = black)."""
    with open(path, "rb") as handle:
        data = handle.read()
    (magic, width, height), offset = _pbm_header(data)
    try:
        width, height = int(width), int(height)
    except ValueError:
        raise ValidationError(f"bad PBM dimensions in {path}") from None
    if width < 1 or height < 1:
        raise ValidationError(f"bad PBM dimensions in {path}")
    if magic == b"P1":
        digits = re.sub(rb"#[^\r\n]*|\s", b"", data[offset:])
        if digits.translate(None, b"01"):
            raise ValidationError(f"PBM {path} has raster bytes other than 0, 1 and whitespace")
        if len(digits) != width * height:
            raise ValidationError(f"PBM {path} holds {len(digits)} pixels, not {width}x{height}")
        return (np.frombuffer(digits, dtype=np.uint8) - 48).reshape(height, width)
    if magic == b"P4":
        row_bytes = (width + 7) // 8
        # One whitespace byte ends the header, or a comment through its newline, as in netpbm.
        # A match here is a comment: the height token before it is as long as it can be.
        comment = _PBM_HEADER.match(data, offset)
        body = data[(comment.end() if comment else offset) + 1 :]
        if len(body) != row_bytes * height:
            raise ValidationError(
                f"PBM {path} holds {len(body)} pixel bytes, not {row_bytes * height}"
                f" for {width}x{height}"
            )
        rows = np.frombuffer(body, dtype=np.uint8).reshape(height, row_bytes)
        return np.unpackbits(rows, axis=1, count=width)
    raise ValidationError(f"{path} is not a P1/P4 PBM file")


def write_pbm(path, image: np.ndarray) -> None:
    """Write a (height, width) array of 0/1 as a packed (P4) bitmap."""
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise ValidationError("PBM image must be a nonempty 2-D array")
    if not np.isin(image, (0, 1)).all():
        raise ValidationError("PBM pixels must be 0 or 1")
    height, width = image.shape
    body = np.packbits(image.astype(np.uint8), axis=1).tobytes()
    atomic_write_bytes(path, f"P4\n{width} {height}\n".encode() + body)


def write_schedule(path, schedule: SwitchingSchedule, estimated_loss: float) -> None:
    """Write the schedule file described in the module docstring."""
    partition = schedule.partition
    # Interior indices grouped by context, chronological within each context.
    order, assigned = partition._order, schedule.assignment[partition._order]
    starts_run = np.r_[True, assigned[1:] != assigned[:-1]]
    starts_run[partition._starts] = True
    run_starts = np.flatnonzero(starts_run)
    positions = (order[run_starts] + partition.k + 1).tolist()
    rules = assigned[run_starts].tolist()
    bounds = np.searchsorted(run_starts, partition._starts).tolist() + [run_starts.shape[0]]
    # A context id is its left window's k base-q digits, most significant first,
    # then its right window's; each distinct window is formatted once.
    k, q, ids = partition.k, partition.noisy_size, partition._unique_ids
    lefts, rights = (half.tolist() for half in np.divmod(ids, q**k))
    windows = np.array(list({*lefts, *rights}), dtype=np.int64)
    digits = windows[:, None] // q ** np.arange(k - 1, -1, -1, dtype=np.int64) % q
    window_text = {
        w: "[\n        " + ",\n        ".join(map(str, d)) + "\n      ]" if k else "[]"
        for w, d in zip(windows.tolist(), digits.tolist())
    }
    run = '        {{\n          "denoiser": {},\n          "position": {}\n        }}'.format
    contexts = (
        f'    {{\n      "context_id": {cid},\n      "left": {window_text[left]},'
        f'\n      "right": {window_text[right]},\n      "runs": [\n'
        + ",\n".join(map(run, rules[lo:hi], positions[lo:hi]))
        + f'\n      ],\n      "switches": {count}\n    }}'
        for cid, left, right, count, lo, hi in zip(
            ids.tolist(), lefts, rights, schedule.per_context_switches.tolist(), bounds, bounds[1:]
        )
    )
    tail = (
        f'\n  ],\n  "estimated_loss": {json.dumps(float(estimated_loss))},'
        f'\n  "k": {schedule.k},\n  "m": {schedule.m},\n  "n": {schedule.n}\n}}\n'
    )
    # The joined contexts are a temporary: no second whole copy outlives the concatenation.
    atomic_write_text(path, '{\n  "contexts": [\n' + ",\n".join(contexts) + tail)
