"""GF(2) linear algebra and polynomial arithmetic substrate.

Everything in this package works over the two-element Galois field GF(2),
where addition is XOR and multiplication is AND.  It is the mathematical
foundation for the LFSR state-space machinery (:mod:`repro.lfsr`), the
parallel CRC engines (:mod:`repro.crc`) and the PiCoGA mapping toolchain
(:mod:`repro.mapping`).

Public API
----------
:class:`GF2Matrix`
    Dense matrix over GF(2) with multiplication, exponentiation, inversion,
    rank and linear solving; it carries every single-vector GF(2) product
    of the look-ahead and Derby engines.
:class:`GF2Polynomial`
    Polynomial over GF(2) stored as a Python int (bit *i* holds the
    coefficient of ``x**i``).
:class:`GF2mField`
    Extension field GF(2^m) with a multiply-accumulate (GFMAC) primitive.
:mod:`repro.gf2.backend`
    The B-stream block kernel, applying one matrix to B column vectors
    at once: :class:`NumpyPackedBackend` (word-packed bit-slicing) and
    :class:`ReferenceBackend` (the pure-Python bit loop it is checked
    against).
Carry-less multiply helpers (:func:`clmul`, :func:`clmod`, :func:`cldivmod`)
and bit utilities (:func:`reflect_bits`, :func:`int_to_bits`,
:func:`bits_to_int`, :func:`bytes_to_bits`).
"""

from repro.gf2.backend import GF2Backend, NumpyPackedBackend, ReferenceBackend
from repro.gf2.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
    parity,
    popcount,
    reflect_bits,
)
from repro.gf2.clmul import cldivmod, clmod, clmul
from repro.gf2.factor import factorize, is_square_free, polynomial_order, product
from repro.gf2.field import GF2mField
from repro.gf2.matrix import GF2Matrix
from repro.gf2.polynomial import GF2Polynomial

__all__ = [
    "GF2Backend",
    "GF2Matrix",
    "GF2Polynomial",
    "GF2mField",
    "NumpyPackedBackend",
    "ReferenceBackend",
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "cldivmod",
    "clmod",
    "clmul",
    "factorize",
    "is_square_free",
    "polynomial_order",
    "product",
    "int_to_bits",
    "parity",
    "popcount",
    "reflect_bits",
]
