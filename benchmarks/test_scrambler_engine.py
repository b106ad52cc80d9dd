"""Additive-scrambler keystream engine vs the bit-serial register (host-side).

Times :class:`~repro.lfsr.slicing.ByteSlicedScrambler`, the one engine
every additive scrambler runs on, through both of its doors:

* the batch door on 256 streams x 2048 bits, one seed per stream (the
  keystream of :class:`~repro.engine.BatchAdditiveScrambler`);
* the single-stream door on one 64 KiB stream (the keystream of
  :class:`~repro.scrambler.AdditiveScrambler`).

Both run on IEEE 802.16e (the paper's Fig. 8 scrambler) and PRBS-31.
Beside them stand the bit-serial floor — the PRBS-31 register of
``benchmarks/test_lfsr_microbench.py``, one bit per Python step — the
Tsaban–Vishne word64 keystream (a different sequence, one 64-bit word
per step), and Fig. 8's modelled PiCoGA rate at M = 128 for the same
block lengths.  Rates are best-of-:data:`REPEATS`.

Two gates, each the median ratio of :data:`PAIRS` alternated call pairs:

* the PRBS-31 batch keystream against the floor must stay at or above
  :data:`GATE_BATCH_VS_FLOOR`;
* :meth:`~repro.engine.BatchAdditiveScrambler.scramble_batch` on the
  same batch of byte messages (802.16e) against that engine's own
  ``keystream_batch`` must stay at or below
  :data:`GATE_SCRAMBLE_VS_KEYSTREAM`: the byte door adds one XOR per
  message to the keystream.

Every engine output is checked against
:class:`~repro.lfsr.reference.GaloisLFSR` before timing.  Results land in
``benchmarks/results/scrambler_engine.{json,txt}``.
"""

import statistics
import time

import numpy as np

from repro.analysis import format_table
from repro.dream import DreamSystem
from repro.engine import BatchAdditiveScrambler
from repro.gf2.polynomial import GF2Polynomial
from repro.lfsr import ByteSlicedScrambler, FibonacciLFSR, GaloisLFSR
from repro.lfsr.wordlfsr import WORD64, WordLFSR, seed_words_from_bytes
from repro.scrambler import IEEE80216E, PRBS31
from repro.telemetry import BenchReport

STREAMS = 256
STREAM_BITS = 2048
SINGLE_BYTES = 1 << 16
#: The bit-serial floor: the PRBS-31 generator clocked one bit per step
#: (the register ``wordlfsr_microbench`` gates the word engines against).
FLOOR_POLY = GF2Polynomial.from_exponents([31, 28, 0])
FLOOR_BITS = 2048
REPEATS = 7
PAIRS = 21
#: Read off the committed run (3,192x) and five fresh processes before
#: it (2,699-3,223x) on a 2-vCPU x86 host.  Those medians spread 17 %,
#: more than ``tools/bench_diff.py``'s 10 %, so the ratio carries no
#: ``speedup`` name and only this floor gates it, at under a third of
#: the lowest reading.
GATE_BATCH_VS_FLOOR = 800.0
#: A ceiling on the batch byte door's cost in keystreams of the same
#: batch: a byte-door prototype read ~13x on a 2-vCPU x86 host, where the
#: bit-list door it replaced read ~800x.  Not a trended ratio (no
#: ``speedup`` in its name).
GATE_SCRAMBLE_VS_KEYSTREAM = 50.0
#: Fig. 8's widest look-ahead.
PICOGA_M = 128


def _best(fn, repeats=REPEATS):
    """Best wall-clock seconds of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bitserial(poly, seed, nbytes):
    """The Galois register's first ``nbytes`` keystream bytes, lsb-first."""
    bits = GaloisLFSR(poly, seed).keystream(8 * nbytes)
    return np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes()


def _scramble_vs_keystream(seeds, nbytes):
    """Median time of ``scramble_batch`` over ``keystream_batch`` on one
    802.16e batch of byte messages, in alternated pairs, after checking
    the door against the bit-serial register."""
    engine = BatchAdditiveScrambler(IEEE80216E, PICOGA_M)
    messages = [bytes((b + i) % 256 for i in range(nbytes)) for b in range(len(seeds))]
    out = engine.scramble_batch(messages, seeds=seeds)
    for b in (0, len(seeds) // 2, len(seeds) - 1):
        keystream = _bitserial(IEEE80216E.poly, seeds[b], nbytes)
        assert out[b] == bytes(m ^ k for m, k in zip(messages[b], keystream))
    ratios = []
    for i in range(PAIRS):
        times = {}
        for side in ("keystream", "scramble") if i % 2 == 0 else ("scramble", "keystream"):
            t0 = time.perf_counter()
            if side == "keystream":
                engine.keystream_batch(nbytes, len(seeds), seeds)
            else:
                engine.scramble_batch(messages, seeds=seeds)
            times[side] = time.perf_counter() - t0
        ratios.append(times["scramble"] / times["keystream"])
    return statistics.median(ratios)


def test_scrambler_engine_vs_floor(save_result, save_report):
    seeds = [1 + (b * 0x9E3779B1) % ((1 << 15) - 1) for b in range(STREAMS)]
    nbytes = STREAM_BITS // 8
    engines = {}
    for spec in (IEEE80216E, PRBS31):
        engine = ByteSlicedScrambler(spec.poly)
        batch = engine.keystream_batch(seeds, nbytes)
        for b in (0, STREAMS // 2, STREAMS - 1):
            assert batch[b].tobytes() == _bitserial(spec.poly, seeds[b], nbytes)
        single = engine.keystream_bytes(spec.seed, SINGLE_BYTES)
        assert single[:nbytes + 7] == _bitserial(spec.poly, spec.seed, nbytes + 7)
        engines[spec.name] = engine

    floor_s = _best(lambda: FibonacciLFSR(FLOOR_POLY, 1).keystream(FLOOR_BITS))
    floor_rate = FLOOR_BITS / floor_s
    word_seed = seed_words_from_bytes(WORD64, b"bench")
    WordLFSR(WORD64, word_seed).keystream_bytes(64)  # warm the word loop
    word_rate = 8 * SINGLE_BYTES / _best(
        lambda: WordLFSR(WORD64, word_seed).keystream_bytes(SINGLE_BYTES)
    )

    rates = {}
    for name, engine in engines.items():
        rates[name, "batch"] = STREAMS * STREAM_BITS / _best(
            lambda: engine.keystream_batch(seeds, nbytes)
        )
        seed = IEEE80216E.seed if name == IEEE80216E.name else PRBS31.seed
        rates[name, "stream"] = 8 * SINGLE_BYTES / _best(
            lambda: engine.keystream_bytes(seed, SINGLE_BYTES)
        )

    # The gate: alternated (floor, batch) pairs on PRBS-31, median ratio.
    prbs31 = engines[PRBS31.name]
    ratios = []
    for i in range(PAIRS):
        times = {}
        for side in ("floor", "batch") if i % 2 == 0 else ("batch", "floor"):
            t0 = time.perf_counter()
            if side == "floor":
                FibonacciLFSR(FLOOR_POLY, 1).keystream(FLOOR_BITS)
            else:
                prbs31.keystream_batch(seeds, nbytes)
            times[side] = time.perf_counter() - t0
        ratios.append(
            (STREAMS * STREAM_BITS / times["batch"]) / (FLOOR_BITS / times["floor"])
        )
    batch_vs_floor = statistics.median(ratios)
    scramble_vs_keystream = _scramble_vs_keystream(seeds, nbytes)

    system = DreamSystem()
    mapped = system.cache.mapped_scrambler(IEEE80216E, PICOGA_M)
    picoga = {
        bits: system.scrambler_performance(mapped, bits).throughput_gbps
        for bits in (STREAM_BITS, 8 * SINGLE_BYTES)
    }

    rows = [
        ["bit-serial register (floor)", "PRBS-31", f"{FLOOR_BITS} bits",
         f"{floor_rate / 1e9:.5f}", "1x"],
        ["word64 σ-LFSR", WORD64.name, "64 KiB",
         f"{word_rate / 1e9:.4f}", f"{word_rate / floor_rate:,.0f}x"],
    ]
    for name in engines:
        for door, shape in (("batch", f"{STREAMS} x {STREAM_BITS} bits"),
                            ("stream", "64 KiB")):
            rate = rates[name, door]
            rows.append([f"byte-sliced, {door} door", name, shape,
                         f"{rate / 1e9:.3f}", f"{rate / floor_rate:,.0f}x"])
    for bits, gbps in picoga.items():
        rows.append([f"PiCoGA model, M={PICOGA_M} (Fig. 8)", IEEE80216E.name,
                     f"{bits}-bit blocks", f"{gbps:.2f}", "-"])
    text = format_table(
        ["keystream", "spec", "shape", "Gbit/s", "vs floor"],
        rows,
        title=(
            f"Additive-scrambler keystream (best of {REPEATS}); medians of "
            f"{PAIRS} alternated pairs: PRBS-31 batch vs floor "
            f"{batch_vs_floor:,.0f}x (gate >= {GATE_BATCH_VS_FLOOR:,.0f}x), "
            f"802.16e scramble_batch vs its keystream "
            f"{scramble_vs_keystream:.1f}x (gate <= {GATE_SCRAMBLE_VS_KEYSTREAM:.0f}x)"
        ),
    )
    save_result("scrambler_engine", text)
    save_report(
        BenchReport(
            name="scrambler_engine",
            title="Byte-sliced additive-scrambler keystream vs the bit-serial floor",
            params={
                "streams": STREAMS,
                "stream_bits": STREAM_BITS,
                "single_bytes": SINGLE_BYTES,
                "floor_bits": FLOOR_BITS,
                "depth": prbs31.depth,
                "pairs": PAIRS,
                "picoga_M": PICOGA_M,
                "floor_batch_vs_floor": GATE_BATCH_VS_FLOOR,
                "ceiling_scramble_vs_keystream": GATE_SCRAMBLE_VS_KEYSTREAM,
            },
            metrics={
                "floor_bits_per_s": floor_rate,
                "word64_bits_per_s": word_rate,
                "batch_bits_per_s_ieee80216e": rates[IEEE80216E.name, "batch"],
                "batch_bits_per_s_prbs31": rates[PRBS31.name, "batch"],
                "stream_bits_per_s_ieee80216e": rates[IEEE80216E.name, "stream"],
                "stream_bits_per_s_prbs31": rates[PRBS31.name, "stream"],
                "picoga_gbps_m128_2048_bits": picoga[STREAM_BITS],
                "picoga_gbps_m128_64kib": picoga[8 * SINGLE_BYTES],
                "batch_vs_floor": batch_vs_floor,
                "scramble_vs_keystream": scramble_vs_keystream,
            },
        )
    )
    assert batch_vs_floor >= GATE_BATCH_VS_FLOOR, (
        f"PRBS-31 batch keystream only {batch_vs_floor:,.0f}x the bit-serial "
        f"floor (gate >= {GATE_BATCH_VS_FLOOR:,.0f}x)"
    )
    assert scramble_vs_keystream <= GATE_SCRAMBLE_VS_KEYSTREAM, (
        f"802.16e scramble_batch costs {scramble_vs_keystream:.1f}x its keystream "
        f"(gate <= {GATE_SCRAMBLE_VS_KEYSTREAM:.0f}x)"
    )
