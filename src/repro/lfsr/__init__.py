"""LFSR state-space theory (paper §2).

This package implements the mathematical core of the paper:

* the serial state-space model ``x(n+1) = A x(n) + b u(n)``,
  ``y(n) = C x(n) + d u(n)`` with ``A`` a companion matrix
  (:mod:`repro.lfsr.companion`, :mod:`repro.lfsr.statespace`);
* bit-serial Fibonacci/Galois reference LFSRs
  (:mod:`repro.lfsr.reference`);
* the M-level look-ahead expansion ``x(n+M) = A^M x(n) + B_M u_M(n)``
  (:mod:`repro.lfsr.lookahead`);
* Derby's state-space transformation, which restores companion form to the
  feedback matrix of the look-ahead system (:mod:`repro.lfsr.transform`);
* the Pei–Zukowski direct look-ahead baseline whose feedback complexity
  limits speed-up to ~M/2 (:mod:`repro.lfsr.pei`);
* Dubrova's Fibonacci ↔ Galois transformation with matching initial
  states (:mod:`repro.lfsr.galois`);
* Tsaban–Vishne word-oriented σ-LFSRs stepping one machine word per
  clock (:mod:`repro.lfsr.wordlfsr`);
* the byte-sliced keystream, the additive scrambler's ``Y`` and
  ``A^{8D}`` grouped per state byte into lookup tables
  (:mod:`repro.lfsr.slicing`).
"""

from repro.lfsr.berlekamp import (
    LFSRSynthesis,
    berlekamp_massey,
    linear_complexity,
    linear_complexity_profile,
)
from repro.lfsr.companion import companion_matrix, companion_taps, poly_from_companion
from repro.lfsr.lookahead import LookaheadSystem, expand_lookahead, scrambler_output_matrix
from repro.lfsr.correlation import (
    GolombReport,
    autocorrelation_profile,
    golomb_check,
    periodic_autocorrelation,
    periodic_cross_correlation,
    run_lengths,
)
from repro.lfsr.galois import (
    fibonacci_to_galois_state,
    galois_to_fibonacci_state,
    matching_state,
    multiplicative_fibonacci_to_galois_state,
    multiplicative_galois_to_fibonacci_state,
    observability_matrix,
)
from repro.lfsr.jump import jump_back, jump_state, keystream_slice, lfsr_at
from repro.lfsr.pei import PeiLookahead, pei_lookahead, pei_speedup_bound
from repro.lfsr.wordlfsr import (
    WORD8,
    WORD32,
    WORD64,
    WordLFSR,
    WordLFSRReference,
    WordLFSRSpec,
    check_maximal_period,
    seed_words_from_bytes,
    sigma_matrix,
)
from repro.lfsr.reference import FibonacciLFSR, GaloisLFSR
from repro.lfsr.slicing import ByteSlicedScrambler, build_scrambler_tables
from repro.lfsr.statespace import LFSRStateSpace, crc_statespace, scrambler_statespace
from repro.lfsr.transform import DerbyTransform, TransformError, derby_transform

__all__ = [
    "ByteSlicedScrambler",
    "DerbyTransform",
    "LFSRSynthesis",
    "berlekamp_massey",
    "build_scrambler_tables",
    "linear_complexity",
    "linear_complexity_profile",
    "FibonacciLFSR",
    "GolombReport",
    "autocorrelation_profile",
    "golomb_check",
    "periodic_autocorrelation",
    "periodic_cross_correlation",
    "run_lengths",
    "GaloisLFSR",
    "LFSRStateSpace",
    "LookaheadSystem",
    "PeiLookahead",
    "TransformError",
    "WORD32",
    "WORD64",
    "WORD8",
    "WordLFSR",
    "WordLFSRReference",
    "WordLFSRSpec",
    "check_maximal_period",
    "companion_matrix",
    "companion_taps",
    "crc_statespace",
    "derby_transform",
    "expand_lookahead",
    "fibonacci_to_galois_state",
    "galois_to_fibonacci_state",
    "jump_back",
    "jump_state",
    "keystream_slice",
    "lfsr_at",
    "matching_state",
    "multiplicative_fibonacci_to_galois_state",
    "multiplicative_galois_to_fibonacci_state",
    "observability_matrix",
    "pei_lookahead",
    "pei_speedup_bound",
    "poly_from_companion",
    "seed_words_from_bytes",
    "scrambler_output_matrix",
    "scrambler_statespace",
    "sigma_matrix",
]
