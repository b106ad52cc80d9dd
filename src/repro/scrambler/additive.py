"""Additive (frame-synchronous) scrambler.

The keystream is generated by an autonomous LFSR and XORed onto the data —
the paper's second block diagram in Fig. 1 (``b = 0``, ``C`` a single-1
selector, ``d = [1]``).  Because XOR is an involution, descrambling is the
same operation with the same seed.

Keystream comes from :class:`~repro.lfsr.slicing.ByteSlicedScrambler`:
one gather of the per-state-byte tables of ``Y`` per 256 keystream bytes,
bit-identical to the bit-serial Galois register (verified by the
differential fuzzer's scrambler oracles).

:class:`WordAdditiveScrambler` swaps the catalog LFSR for a Tsaban–Vishne
word-oriented register (:mod:`repro.lfsr.wordlfsr`): one machine word of
keystream per Python-level step, byte-stream XOR through numpy — a
different (non-standard) sequence at word-per-step speed (see
``docs/KERNELS.md``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.lfsr.reference import GaloisLFSR
from repro.lfsr.slicing import ByteSlicedScrambler
from repro.lfsr.wordlfsr import WORD64, WordLFSR, WordLFSRSpec, seed_words_from_bytes
from repro.scrambler.specs import ScramblerSpec
from repro.validation import check_bits, check_seed

#: Default seed material for word-oriented keystreams when none is given.
_WORD_DEFAULT_SEED = b"repro-wordlfsr"


class AdditiveScrambler:
    """Bit- and byte-level frame-synchronous scrambling.

    Every call restarts the keystream from the seed.  The instance builds
    its :class:`~repro.lfsr.slicing.ByteSlicedScrambler` table stack on
    first use and runs its single-stream door.
    """

    def __init__(self, spec: ScramblerSpec, seed: Optional[int] = None):
        self._spec = spec
        self._seed = check_seed(
            spec.seed if seed is None else seed, spec.degree, allow_zero=False
        )
        self._engine: Optional[ByteSlicedScrambler] = None

    @property
    def spec(self) -> ScramblerSpec:
        return self._spec

    @property
    def seed(self) -> int:
        return self._seed

    # ------------------------------------------------------------------
    def _keystream_bytes(self, nbytes: int, lsb_first: bool = True) -> np.ndarray:
        if self._engine is None:
            self._engine = ByteSlicedScrambler(self._spec.poly)
        ks = self._engine.keystream_bytes(self._seed, nbytes, lsb_first)
        return np.frombuffer(ks, dtype=np.uint8)

    def _keystream_bits(self, nbits: int) -> np.ndarray:
        ks = self._keystream_bytes(-(-nbits // 8))
        return np.unpackbits(ks, count=nbits, bitorder="little")

    def keystream(self, nbits: int) -> List[int]:
        """The raw pseudo-random sequence (for spreading / correlation);
        empty for ``nbits <= 0``, as the bit-serial register's."""
        return self._keystream_bits(max(nbits, 0)).tolist()

    def scramble_bits(self, bits: Sequence[int]) -> List[int]:
        checked = check_bits(bits, what="bits")
        return (checked ^ self._keystream_bits(len(checked))).tolist()

    def descramble_bits(self, bits: Sequence[int]) -> List[int]:
        """Identical to scrambling — XOR with the same keystream."""
        return self.scramble_bits(bits)

    def scramble_bytes(self, data: bytes, lsb_first: bool = True) -> bytes:
        """Byte-stream convenience wrapper (serial order selectable)."""
        buf = np.frombuffer(bytes(data), dtype=np.uint8)
        return (buf ^ self._keystream_bytes(len(buf), lsb_first)).tobytes()

    def descramble_bytes(self, data: bytes, lsb_first: bool = True) -> bytes:
        return self.scramble_bytes(data, lsb_first)

    # ------------------------------------------------------------------
    def period(self) -> int:
        """Keystream period (2^k - 1 for the primitive catalog polynomials)."""
        return GaloisLFSR(self._spec.poly, self._seed).period()


class WordAdditiveScrambler:
    """Frame-synchronous scrambling on a word-oriented keystream engine.

    The keystream comes from a :class:`~repro.lfsr.wordlfsr.WordLFSR`
    (σ-LFSR over GF(2^w)) — one machine word per step instead of one bit —
    and the XOR runs bytewise through numpy, so the whole scramble path
    stays word-oriented.  Like :class:`AdditiveScrambler` this is
    frame-synchronous: every ``scramble_*`` call restarts the register
    from the seed, and descrambling is the same operation.

    ``seed`` may be the explicit word list a :class:`WordLFSR` takes, or
    arbitrary bytes stretched through
    :func:`~repro.lfsr.wordlfsr.seed_words_from_bytes` (a deterministic
    default is used when omitted).  Note the keystream is the σ-LFSR's own
    maximal-period sequence — this engine trades the catalog standards'
    exact sequences for raw throughput; use the spec-driven scramblers
    when a standard's framing pattern is required.
    """

    def __init__(
        self,
        spec: WordLFSRSpec = WORD64,
        seed: Union[None, bytes, bytearray, memoryview, Sequence[int]] = None,
    ):
        self._spec = spec
        if seed is None:
            seed = _WORD_DEFAULT_SEED
        if isinstance(seed, (bytes, bytearray, memoryview)):
            self._seed_words = seed_words_from_bytes(spec, bytes(seed))
        else:
            self._seed_words = list(seed)
        # Validate eagerly: constructing the engine checks widths/zeroness.
        WordLFSR(spec, self._seed_words)

    @property
    def spec(self) -> WordLFSRSpec:
        """The word-LFSR configuration generating the keystream."""
        return self._spec

    @property
    def seed_words(self) -> List[int]:
        """The register preset each frame restarts from."""
        return list(self._seed_words)

    # ------------------------------------------------------------------
    def _engine(self) -> WordLFSR:
        return WordLFSR(self._spec, self._seed_words)

    def keystream_bytes(self, nbytes: int) -> bytes:
        """The first ``nbytes`` keystream bytes of a frame."""
        return self._engine().keystream_bytes(nbytes)

    def keystream(self, nbits: int) -> List[int]:
        """The raw keystream bits (MSB-first words), as a Python list."""
        return self._engine().keystream_bits(nbits).tolist()

    def scramble_bytes(self, data: Union[bytes, bytearray, memoryview]) -> bytes:
        """XOR ``data`` with the frame keystream (vectorized, zero-copy in)."""
        buf = np.frombuffer(data, dtype=np.uint8)
        if not buf.size:
            return b""
        ks = np.frombuffer(self.keystream_bytes(buf.size), dtype=np.uint8)
        return (buf ^ ks).tobytes()

    def descramble_bytes(self, data: Union[bytes, bytearray, memoryview]) -> bytes:
        """Identical to :meth:`scramble_bytes` (XOR is an involution)."""
        return self.scramble_bytes(data)

    def scramble_bits(self, bits: Sequence[int]) -> List[int]:
        """Bit-level variant for parity with :class:`AdditiveScrambler`."""
        checked = check_bits(bits, what="bits")
        if not len(checked):
            return []
        ks = self._engine().keystream_bits(len(checked))
        return (np.asarray(checked, dtype=np.uint8) ^ ks).tolist()

    def descramble_bits(self, bits: Sequence[int]) -> List[int]:
        """Identical to :meth:`scramble_bits` — XOR with the same keystream."""
        return self.scramble_bits(bits)
