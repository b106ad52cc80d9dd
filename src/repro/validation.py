"""Input validation helpers for the public engine/pipeline entry points.

Every helper raises :class:`repro.errors.ValidationError` with an
actionable message instead of letting bad input fall through to a raw
``KeyError``, a numpy cast error, or — worst — a silent ``& 1``
wraparound that corrupts results.  The bit checks are vectorized so the
hot paths pay one numpy pass, not a per-bit Python loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "check_bits",
    "check_factor",
    "check_message",
    "check_messages",
    "check_register",
    "check_register_list",
    "check_seed",
]


def check_factor(M: int, what: str = "block factor M") -> int:
    """A block / look-ahead factor: a positive integer."""
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {M!r}")
    if M < 1:
        raise ValidationError(f"{what} must be >= 1, got {M}")
    return int(M)


def check_register(value: int, width: int, what: str = "register") -> int:
    """An integer register/seed/state that must fit in ``width`` bits."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < 0 or value >> width:
        raise ValidationError(
            f"{what} {value:#x} does not fit in {width} bits "
            f"(valid range 0..{(1 << width) - 1:#x})"
        )
    return int(value)


def check_seed(
    seed: int, degree: int, what: str = "seed", allow_zero: bool = False
) -> int:
    """An LFSR seed: in range for the register, and non-zero by default
    (an all-zero additive-scrambler seed locks the LFSR at zero)."""
    seed = check_register(seed, degree, what=what)
    if seed == 0 and not allow_zero:
        raise ValidationError(
            f"{what} must be non-zero: an all-zero state produces a null keystream"
        )
    return seed


def check_register_list(
    values: Sequence[int],
    batch: int,
    width: int,
    what: str = "seeds",
    allow_zero: bool = True,
) -> List[int]:
    """A per-stream seed/state list: right length, every entry in range."""
    try:
        n = len(values)
    except TypeError:
        raise ValidationError(
            f"{what} must be a sequence of integers, got {values!r}"
        ) from None
    if n != batch:
        raise ValidationError(f"need {batch} {what}, got {n}")
    return [
        check_seed(v, width, what=f"{what}[{i}]", allow_zero=allow_zero)
        for i, v in enumerate(values)
    ]


def check_bits(bits: Sequence[int], what: str = "bits") -> np.ndarray:
    """A 0/1 bit sequence, returned as a validated uint8 array.

    Rejects anything that is not exactly 0 or 1 — no silent ``& 1``
    wraparound of 2, -1, or 255.
    """
    try:
        arr = np.asarray(bits, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a sequence of 0/1 values: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError(
            f"{what} must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size:
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            idx = int(np.argmax(bad))
            raise ValidationError(
                f"{what}[{idx}] is {int(arr[idx])}, expected 0 or 1"
            )
    return arr.astype(np.uint8)


def check_message(data: bytes, what: str = "message") -> bytes:
    """A byte payload (``bytes``/``bytearray``/``memoryview``)."""
    if isinstance(data, (bytearray, memoryview)):
        return bytes(data)
    if not isinstance(data, bytes):
        raise ValidationError(
            f"{what} must be bytes-like, got {type(data).__name__}"
        )
    return data


def check_messages(
    messages: Sequence[bytes], what: str = "messages"
) -> List[bytes]:
    """A batch of byte payloads, each validated via :func:`check_message`."""
    try:
        items = list(messages)
    except TypeError:
        raise ValidationError(
            f"{what} must be a sequence of byte strings, got {messages!r}"
        ) from None
    # A batch of bytes passes in one C-level pass; otherwise only the
    # items that are not ``bytes`` pay for a checked copy and its label.
    if set(map(type, items)) <= {bytes}:
        return items
    for i, m in enumerate(items):
        if type(m) is not bytes:
            items[i] = check_message(m, what=f"{what}[{i}]")
    return items
