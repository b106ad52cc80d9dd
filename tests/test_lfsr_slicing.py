"""The byte-sliced keystream engine against the bit-serial Galois register.

Every catalog scrambler, three seeds and byte lengths around the block
depth D run through both engine doors (single stream and batch), in both
serial bit orders, through :class:`AdditiveScrambler`'s byte door and
through :class:`ScramblerPipeline` feeds cut at odd byte offsets; each
must reproduce :class:`~repro.lfsr.reference.GaloisLFSR`'s keystream.
"""

import random

import numpy as np
import pytest

from repro.dream import DreamSystem
from repro.engine import BatchAdditiveScrambler, CompileCache, ScramblerPipeline
from repro.lfsr import ByteSlicedScrambler, GaloisLFSR, build_scrambler_tables
from repro.lfsr.slicing import SLICE_DEPTH
from repro.scrambler import CATALOG, DVB, IEEE80216E, PRBS7, AdditiveScrambler

D = SLICE_DEPTH
LENGTHS = (0, 1, 7, 8, D - 1, D, D + 1, 3 * D + 5)
#: Odd feed sizes in bytes, cycled: cuts land inside keystream blocks
#: and across their edges.
CUTS = (1, 3, 7, 13, 251, 509)


def _seeds(spec):
    """The spec's default seed, the lowest state and the all-but-lowest one."""
    return (spec.seed, 1, (1 << spec.degree) - 2)


@pytest.fixture(scope="module")
def cache():
    return CompileCache()


@pytest.mark.parametrize("nbytes", LENGTHS)
@pytest.mark.parametrize("which", range(3), ids=("spec-seed", "seed-1", "seed-high"))
@pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.name)
def test_keystream_matches_the_galois_register(spec, which, nbytes, cache):
    seeds = _seeds(spec)
    seed = seeds[which]
    bits = GaloisLFSR(spec.poly, seed).keystream(8 * nbytes)
    lsb = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes()
    msb = np.packbits(np.array(bits, dtype=np.uint8)).tobytes()

    engine = ByteSlicedScrambler(spec.poly, cache.scrambler_tables(spec))
    assert engine.keystream_bytes(seed, nbytes) == lsb
    assert engine.keystream_bytes(seed, nbytes, lsb_first=False) == msb
    assert engine.keystream_batch(seeds, nbytes)[which].tobytes() == lsb
    assert engine.keystream_batch(seeds, nbytes, lsb_first=False)[which].tobytes() == msb

    data = random.Random(nbytes).randbytes(nbytes)
    single = AdditiveScrambler(spec, seed)
    for order, keystream in ((True, lsb), (False, msb)):
        want = bytes(a ^ b for a, b in zip(data, keystream))
        assert single.scramble_bytes(data, lsb_first=order) == want

    pipe = ScramblerPipeline(spec, 16, cache=cache)
    sid = pipe.open(seed=seed)
    out, offset, i = b"", 0, 0
    while offset < len(data):
        cut = CUTS[i % len(CUTS)]
        out += pipe.feed(sid, data[offset:offset + cut])
        offset, i = offset + cut, i + 1
    pipe.close(sid)
    assert out == bytes(a ^ b for a, b in zip(data, lsb))


@pytest.mark.parametrize(
    "spec",
    list({spec.poly: spec for spec in CATALOG}.values()),
    ids=lambda spec: spec.name,
)
def test_every_table_entry(spec):
    """Each basis state's row is the register's keystream and its state
    ``8D`` clocks on; every other reachable entry is the XOR of the entry
    without its lowest set bit and that bit's own entry, so by induction
    every entry is right, not only those a few seeds reach."""
    T, S = build_scrambler_tables(spec.poly, D)
    for i in range(spec.degree):
        j, t = divmod(i, 8)
        lfsr = GaloisLFSR(spec.poly, 1 << i)
        bits = np.array(lfsr.keystream(8 * D), dtype=np.uint8)
        assert T[j, 1 << t].tobytes() == np.packbits(bits, bitorder="little").tobytes()
        assert int(S[j, 1 << t]) == lfsr.state
    for j in range(len(T)):
        values = np.arange(1, min(256, 1 << (spec.degree - 8 * j)))
        lowest = values & -values
        assert (T[j, values] == T[j, lowest] ^ T[j, values ^ lowest]).all()
        assert (S[j, values] == S[j, lowest] ^ S[j, values ^ lowest]).all()


@pytest.mark.parametrize("depth", [1, 3, 32])
def test_any_depth_matches_the_galois_register(depth):
    """A stack of any depth, including blocks of whole bytes that are no
    whole 64-bit words, clocks the same keystream."""
    engine = ByteSlicedScrambler(PRBS7.poly, build_scrambler_tables(PRBS7.poly, depth))
    assert engine.depth == depth
    for nbytes in (0, 1, depth, 2 * depth + 1):
        bits = GaloisLFSR(PRBS7.poly, 0x35).keystream(8 * nbytes)
        want = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes()
        assert engine.keystream_bytes(0x35, nbytes) == want
        assert engine.keystream_batch([0x35], nbytes)[0].tobytes() == want


def test_engines_on_one_cache_share_one_stack():
    """A second batch engine or pipeline on the same cache, or a standard
    with the same generator (DVB and 802.16e), reuses the cached stack."""
    cache = CompileCache()
    BatchAdditiveScrambler(DVB, 8, cache=cache)
    misses = cache.stats.misses
    tables = cache.scrambler_tables(DVB)
    BatchAdditiveScrambler(DVB, 128, cache=cache)
    ScramblerPipeline(DVB, 16, cache=cache)
    ScramblerPipeline(IEEE80216E, 16, cache=cache)
    engine = DreamSystem(cache=cache).batch_scrambler("IEEE-802.16e", 16)
    assert isinstance(engine, BatchAdditiveScrambler) and engine.M == 16
    assert cache.scrambler_tables(IEEE80216E) is tables
    assert cache.stats.misses == misses
    assert cache.stats.hits >= 6
