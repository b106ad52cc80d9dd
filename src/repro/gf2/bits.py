"""Bit-level utilities shared across the library.

Conventions
-----------
* A *bit vector* is a ``list[int]`` (or numpy array) of 0/1 values.
* ``int_to_bits(value, width)`` returns bits LSB-first: element ``i`` is the
  coefficient of ``2**i`` — the same convention used for GF(2) polynomial
  coefficients and LFSR state vectors throughout the library.
* Byte streams are expanded MSB-first per byte by default (the order bits go
  on the wire for most CRC standards); pass ``reflect=True`` for LSB-first
  expansion (used by reflected CRC specs such as CRC-32/Ethernet).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return bin(value).count("1")


def parity(value: int) -> int:
    """XOR of all bits of ``value`` (0 or 1)."""
    return popcount(value) & 1


def reflect_bits(value: int, width: int) -> int:
    """Reverse the ``width`` low-order bits of ``value``.

    >>> reflect_bits(0b1101, 4)
    11
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    # One string reversal instead of a width-long shift loop: table CRCs
    # reflect the register on every raw_register call.
    return int(format(value, f"0{width}b")[::-1], 2) if width else 0


def int_to_bits(value: int, width: int) -> List[int]:
    """Expand ``value`` into a LSB-first list of ``width`` bits."""
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack a LSB-first bit sequence back into an integer."""
    result = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        result |= bit << i
    return result


def bytes_to_bits(data: bytes, reflect: bool = False) -> List[int]:
    """Expand a byte string into a flat bit list in transmission order.

    With ``reflect=False`` each byte contributes its bits MSB-first (the
    convention of non-reflected CRCs like CRC-32/MPEG-2); with
    ``reflect=True`` each byte contributes its bits LSB-first (reflected
    CRCs like CRC-32/Ethernet, and most serial line codings).
    """
    bits: List[int] = []
    for byte in data:
        if reflect:
            bits.extend((byte >> i) & 1 for i in range(8))
        else:
            bits.extend((byte >> i) & 1 for i in range(7, -1, -1))
    return bits


def bits_to_bytes(bits: Sequence[int], reflect: bool = False) -> bytes:
    """Inverse of :func:`bytes_to_bits`; ``len(bits)`` must be a multiple of 8."""
    if len(bits) % 8:
        raise ValueError("bit count must be a multiple of 8")
    out = bytearray()
    for off in range(0, len(bits), 8):
        chunk = bits[off : off + 8]
        byte = 0
        if reflect:
            for i, bit in enumerate(chunk):
                byte |= (bit & 1) << i
        else:
            for bit in chunk:
                byte = (byte << 1) | (bit & 1)
        out.append(byte)
    return bytes(out)


def chunk_bits(bits: Sequence[int], size: int) -> Iterator[Sequence[int]]:
    """Yield successive ``size``-bit chunks; the last chunk may be short."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    for off in range(0, len(bits), size):
        yield bits[off : off + size]


def hamming_weight_distribution(values: Iterable[int]) -> dict:
    """Histogram of popcounts — used by mapper complexity reports."""
    hist: dict = {}
    for value in values:
        w = popcount(value)
        hist[w] = hist.get(w, 0) + 1
    return hist
