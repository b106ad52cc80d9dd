"""Tsaban–Vishne word-oriented LFSRs (σ-LFSRs) over GF(2^w).

A classic LFSR clocks one *bit* per step; every software engine built on it
(`FibonacciLFSR`, `GaloisLFSR`, the look-ahead matrix paths) pays for that
bit-orientation somewhere.  Tsaban & Vishne's observation (PAPERS.md,
*"Efficient linear feedback shift registers with maximal period"*) is that
the recurrence can instead run over whole machine words: take the state to
be ``n`` words of ``w`` bits, read each word as an element of
GF(2^w) = GF(2)[x]/p(x) for an irreducible degree-``w`` polynomial ``p``,
and use the word recurrence::

    a[i+n] = XOR over taps (j, e) of sigma^e(a[i+j])

where ``sigma`` is multiplication by ``x`` mod ``p`` — on a machine word
that is one shift, one test and one XOR.  Each step emits a full ``w``-bit
word, so the keystream engine runs ``w`` times fewer Python iterations than
a bit-serial register, which is exactly the trick the paper's configurable
gate array plays in hardware: reorganize the register so one clock does a
word of work.

Viewed over GF(2) the whole register is still a linear map on ``n*w`` bits;
:meth:`WordLFSRSpec.state_matrix` materializes that map so the generic
machinery (characteristic polynomial, primitivity, the bit-serial
:class:`WordLFSRReference`) applies unchanged.  The period is maximal
(``2**(n*w) - 1``) exactly when the characteristic polynomial of that
matrix is primitive — the condition the curated :data:`WORD32` /
:data:`WORD64` specs were searched to satisfy (see
:func:`check_maximal_period`).

Bit order: an output word ``a`` contributes its bits MSB-first, i.e. the
byte stream is each word in big-endian order.  That convention matches
``int.to_bytes(..., "big")`` and ``np.unpackbits(..., bitorder="big")`` so
the keystream glues onto the bit-array engines without per-bit reshuffles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SpecError
from repro.gf2.matrix import GF2Matrix
from repro.gf2.polynomial import GF2Polynomial

__all__ = [
    "WordLFSRSpec",
    "WordLFSR",
    "WordLFSRReference",
    "sigma_matrix",
    "check_maximal_period",
    "WORD8",
    "WORD32",
    "WORD64",
    "CURATED",
]


@dataclass(frozen=True)
class WordLFSRSpec:
    """A σ-LFSR configuration: field, register length and tap pattern.

    ``sigma_poly`` is the irreducible degree-``word_bits`` polynomial
    defining GF(2^w); ``taps`` lists ``(word_index, sigma_power)`` pairs of
    the recurrence ``a[i+n] = XOR sigma^e(a[i+j])``.
    """

    name: str
    word_bits: int
    words: int
    sigma_poly: GF2Polynomial
    taps: Tuple[Tuple[int, int], ...]
    description: str = ""

    def __post_init__(self):
        w, n = self.word_bits, self.words
        if w < 2:
            raise SpecError("word_bits must be >= 2")
        if n < 1:
            raise SpecError("words must be >= 1")
        if self.sigma_poly.degree != w:
            raise SpecError(
                f"sigma_poly degree {self.sigma_poly.degree} != word_bits {w}"
            )
        if not self.taps:
            raise SpecError("at least one tap is required")
        for j, e in self.taps:
            if not 0 <= j < n:
                raise SpecError(f"tap word index {j} outside 0..{n - 1}")
            if e < 0:
                raise SpecError("sigma powers must be non-negative")
        if not any(j == 0 for j, _ in self.taps):
            raise SpecError("tap on word 0 required for an invertible update")

    # ------------------------------------------------------------------
    @property
    def state_bits(self) -> int:
        """Total register width ``n * w`` in bits."""
        return self.word_bits * self.words

    @property
    def period(self) -> int:
        """The maximal period ``2**(n*w) - 1`` this spec is curated for."""
        return (1 << self.state_bits) - 1

    # ------------------------------------------------------------------
    def sigma_matrix(self) -> GF2Matrix:
        """The w×w GF(2) matrix of σ (multiply-by-x mod ``sigma_poly``)."""
        return sigma_matrix(self.sigma_poly)

    def state_matrix(self) -> GF2Matrix:
        """The ``n*w`` × ``n*w`` one-step state-update matrix over GF(2).

        State vector layout: bit ``j*w + b`` is the coefficient of ``x**b``
        in word ``a[i+j]``.  One application of the matrix is one word
        clock; its characteristic polynomial decides the period.
        """
        w, n = self.word_bits, self.words
        a = np.zeros((n * w, n * w), dtype=np.uint8)
        # Words 0..n-2 of the next state are words 1..n-1 of the current.
        for j in range(n - 1):
            for b in range(w):
                a[j * w + b, (j + 1) * w + b] = 1
        # The last word is the tap combination.
        sigma = self.sigma_matrix()
        for j, e in self.taps:
            block = (sigma ** e).to_array()
            rows = slice((n - 1) * w, n * w)
            cols = slice(j * w, (j + 1) * w)
            a[rows, cols] ^= block
        return GF2Matrix(a)

    def characteristic_polynomial(self) -> GF2Polynomial:
        """Characteristic polynomial of :meth:`state_matrix` (degree nw)."""
        return GF2Polynomial(self.state_matrix().characteristic_polynomial())


def sigma_matrix(poly: GF2Polynomial) -> GF2Matrix:
    """The GF(2) matrix of multiplication by ``x`` modulo ``poly``.

    Column ``b`` holds the coefficient vector of ``x**(b+1) mod poly``; for
    an irreducible ``poly`` this is the matrix Tsaban & Vishne call σ.
    """
    w = poly.degree
    if w < 1:
        raise SpecError("polynomial must have degree >= 1")
    a = np.zeros((w, w), dtype=np.uint8)
    for b in range(w - 1):
        a[b + 1, b] = 1
    low = poly.coeffs & ((1 << w) - 1)
    for r in range(w):
        a[r, w - 1] = (low >> r) & 1
    return GF2Matrix(a)


def check_maximal_period(spec: WordLFSRSpec) -> bool:
    """True when the spec's state matrix has a primitive characteristic
    polynomial, i.e. the register cycles through all ``2**(n*w) - 1``
    non-zero states.  Exact but potentially slow for large ``n*w`` (it
    factorizes ``2**(n*w) - 1``); tests call it on small words and pin the
    characteristic polynomials of the shipped 32/64-bit specs instead.
    """
    return spec.characteristic_polynomial().is_primitive()


class WordLFSR:
    """The fast σ-LFSR engine: one machine word of keystream per step.

    Pure-integer Python, no numpy on the hot path — each :meth:`step` is a
    handful of shifts and XORs for a whole ``w``-bit word, which is where
    the ≥20× advantage over the bit-serial :class:`~repro.lfsr.reference.FibonacciLFSR`
    comes from (see ``benchmarks/test_engine_microbench.py``).
    """

    def __init__(self, spec: WordLFSRSpec, seed: Sequence[int]):
        self._spec = spec
        w = spec.word_bits
        self._w = w
        self._wbytes = (w + 7) // 8
        if w % 8:
            raise SpecError("byte-oriented keystream needs word_bits % 8 == 0")
        self._mask = (1 << w) - 1
        self._msb = w - 1
        self._fb = spec.sigma_poly.coeffs & self._mask
        self._taps = tuple(spec.taps)
        self._n = spec.words
        seed = list(seed)
        if len(seed) != self._n:
            raise SpecError(f"seed needs {self._n} words, got {len(seed)}")
        if any(word >> w for word in seed):
            raise SpecError(f"seed words must fit in {w} bits")
        if not any(seed):
            raise SpecError("the all-zero state never leaves the origin")
        self._state = seed
        self._pos = 0
        # The curated family is n == 2 with one tap on each word; keeping
        # the two sigma exponents in scalars lets keystream_bytes run a
        # list-free inner loop (roughly 2x the generic path).
        self._pair = None
        if self._n == 2 and len(self._taps) == 2:
            by_word = dict()
            for j, e in self._taps:
                if j in by_word:
                    by_word = None
                    break
                by_word[j] = e
            if by_word is not None and set(by_word) == {0, 1}:
                self._pair = (by_word[0], by_word[1])

    # ------------------------------------------------------------------
    @property
    def spec(self) -> WordLFSRSpec:
        """The configuration this engine runs."""
        return self._spec

    @property
    def state_words(self) -> List[int]:
        """Current register contents ``[a_i, ..., a_{i+n-1}]``."""
        n, pos = self._n, self._pos
        return [self._state[(pos + j) % n] for j in range(n)]

    # ------------------------------------------------------------------
    def step(self) -> int:
        """One word clock; returns the ``w``-bit output word ``a_i``."""
        state, pos, n = self._state, self._pos, self._n
        mask, msb, fb = self._mask, self._msb, self._fb
        new = 0
        for j, e in self._taps:
            a = state[(pos + j) % n]
            for _ in range(e):
                a = ((a << 1) & mask) ^ (fb if (a >> msb) & 1 else 0)
            new ^= a
        out = state[pos]
        state[pos] = new
        self._pos = (pos + 1) % n
        return out

    def keystream_words(self, nwords: int) -> List[int]:
        """The next ``nwords`` output words."""
        return [self.step() for _ in range(nwords)]

    def keystream_bytes(self, nbytes: int) -> bytes:
        """The next ``nbytes`` keystream bytes (each word big-endian)."""
        wbytes = self._wbytes
        nwords = -(-nbytes // wbytes)
        out = bytearray()
        if self._pair is not None:
            # Specialized two-word loop: plain scalars, no list traffic.
            e0, e1 = self._pair
            mask, msb, fb = self._mask, self._msb, self._fb
            a0, a1 = self.state_words
            for _ in range(nwords):
                t0 = a0
                for _ in range(e0):
                    t0 = ((t0 << 1) & mask) ^ (fb if (t0 >> msb) & 1 else 0)
                t1 = a1
                for _ in range(e1):
                    t1 = ((t1 << 1) & mask) ^ (fb if (t1 >> msb) & 1 else 0)
                out += a0.to_bytes(wbytes, "big")
                a0, a1 = a1, t0 ^ t1
            self._state = [a0, a1]
            self._pos = 0
        else:
            for _ in range(nwords):
                out += self.step().to_bytes(wbytes, "big")
        return bytes(out[:nbytes])

    def keystream_bits(self, nbits: int) -> np.ndarray:
        """The next ``nbits`` keystream bits (uint8 array, MSB-first words)."""
        nbytes = (nbits + 7) // 8
        raw = np.frombuffer(self.keystream_bytes(nbytes), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="big")[:nbits]


class WordLFSRReference:
    """Bit-serial oracle for :class:`WordLFSR` built on the state matrix.

    Steps the flattened ``n*w``-bit state with a GF(2) matrix-vector
    product and reads the output word bit by bit — slow, but independent of
    every word-level shortcut the fast engine takes, so agreement between
    the two is strong evidence both are right (the
    ``word:wordlfsr-vs-reference`` fuzz oracle runs exactly this check).
    """

    def __init__(self, spec: WordLFSRSpec, seed: Sequence[int]):
        self._spec = spec
        self._w = spec.word_bits
        self._matrix = spec.state_matrix()
        seed = list(seed)
        if len(seed) != spec.words:
            raise SpecError(f"seed needs {spec.words} words, got {len(seed)}")
        bits: List[int] = []
        for word in seed:
            bits.extend((word >> b) & 1 for b in range(self._w))
        self._state = np.array(bits, dtype=np.uint8)

    @property
    def spec(self) -> WordLFSRSpec:
        """The configuration this reference mirrors."""
        return self._spec

    def step(self) -> int:
        """One word clock via the state matrix; returns the output word."""
        w = self._w
        out = 0
        for b in range(w):
            out |= int(self._state[b]) << b
        self._state = self._matrix @ self._state
        return out

    def keystream_words(self, nwords: int) -> List[int]:
        """The next ``nwords`` output words."""
        return [self.step() for _ in range(nwords)]

    def keystream_bytes(self, nbytes: int) -> bytes:
        """The next ``nbytes`` keystream bytes (each word big-endian)."""
        wbytes = self._w // 8
        nwords = -(-nbytes // wbytes)
        out = bytearray()
        for _ in range(nwords):
            out += self.step().to_bytes(wbytes, "big")
        return bytes(out[:nbytes])


def _spec(name, word_bits, words, poly_exponents, taps, description):
    return WordLFSRSpec(
        name=name,
        word_bits=word_bits,
        words=words,
        sigma_poly=GF2Polynomial.from_exponents(poly_exponents),
        taps=taps,
        description=description,
    )


#: Tiny teaching/test spec: GF(2^8), two words, 16-bit state.  Small enough
#: that :func:`check_maximal_period` and even a brute-force period walk are
#: instant — the maximal-period spot checks in the test-suite use this.
#: Recurrence: ``a[i+2] = sigma(a[i]) ^ a[i+1]``.
WORD8 = _spec(
    "word8",
    8,
    2,
    (8, 7, 2, 1, 0),
    ((0, 1), (1, 0)),
    "GF(2^8) sigma-LFSR, 16-bit state, maximal period 65535",
)

#: Curated 32-bit spec: two words of GF(2^32), 64-bit state.  The tap
#: pattern ``a[i+2] = sigma(a[i]) ^ sigma(a[i+1])`` was searched (see
#: docs/KERNELS.md) until the 64×64 state matrix's characteristic
#: polynomial came out primitive, giving the maximal period 2^64 - 1.
WORD32 = _spec(
    "word32",
    32,
    2,
    (32, 22, 2, 1, 0),
    ((0, 1), (1, 1)),
    "GF(2^32) sigma-LFSR, 64-bit state, one 32-bit word per step",
)

#: Curated 64-bit spec: two words of GF(2^64), 128-bit state, one full
#: 64-bit machine word of keystream per step.
WORD64 = _spec(
    "word64",
    64,
    2,
    (64, 11, 2, 1, 0),
    ((0, 1), (1, 1)),
    "GF(2^64) sigma-LFSR, 128-bit state, one 64-bit word per step",
)

#: The shipped specs, in the order the CLI and planner enumerate them.
CURATED: Tuple[WordLFSRSpec, ...] = (WORD8, WORD32, WORD64)

_BY_NAME = {s.name: s for s in CURATED}


def get(name: str) -> WordLFSRSpec:
    """Look up a curated spec by name (``word8`` / ``word32`` / ``word64``)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise SpecError(
            f"unknown word-LFSR spec {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def seed_words_from_bytes(spec: WordLFSRSpec, material: bytes) -> List[int]:
    """Derive a non-zero seed for ``spec`` from arbitrary bytes.

    Cycles the material across the ``n`` words (big-endian per word) and
    forces the register away from the forbidden all-zero state — handy for
    fuzzing and for seeding keystream engines from user tokens.
    """
    w, n = spec.word_bits, spec.words
    wbytes = w // 8
    if not material:
        raise SpecError("seed material must be non-empty")
    stretched = (material * ((n * wbytes) // len(material) + 1))[: n * wbytes]
    words = [
        int.from_bytes(stretched[j * wbytes:(j + 1) * wbytes], "big")
        for j in range(n)
    ]
    if not any(words):
        words[0] = 1
    return words
