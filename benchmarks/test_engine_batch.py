"""Batch-engine throughput sweep (host-side timing, not a paper artifact).

Measures the vectorized :class:`repro.engine.batch.BatchCRC` — grouped
byte-sliced gathers across the batch — against stdlib ``zlib.crc32`` over
the same messages, the CRC-32 ceiling: ``speedup_b1024`` is the batch
rate at B = 1024 over that loop's rate, so both sides of the trajectory
ratio respond alike to the host.  The per-message
:class:`repro.crc.parallel.DerbyCRC` loop stays the floor of the module's
acceptance gate, >= 10x messages/sec at batch size 1024; results are
recorded in ``benchmarks/results/engine_batch.txt``.  Beside the 64-byte
sweep, four batch shapes report the engine against their own
``zlib.crc32`` ceilings: 1024 x 256 B (one equal-length group, the
batch-crc-auto shape), 256 x 1518 B (six-block messages), 1024 IMIX
frames (64/594/1518 B at 7:4:1, one group per size) and 1024 ragged
messages of 1-1518 B drawn uniformly (about 720 distinct lengths in six
head-padded groups).

The fault gate counts the minor page faults of steady-state
``compute_batch`` calls (1024 x 256 B and 256 x 1518 B), each in a fresh
process, once bare and once after the batch-crc-auto plan has run: a
call's temporaries must not depend on what the process allocated before
(< 1 fault a call in both histories).

A rows x length sweep times a block-count group through the vectorized
fold (every group gathered) against a loop of the single-message
:class:`~repro.crc.slicing.ByteSlicedCRC`; where the ratio crosses 1 is
where :data:`~repro.crc.slicing.GATHER_MIN_ROWS` (up to 4 KiB) and
:data:`~repro.crc.slicing.LONG_GATHER_MIN_ROWS` come from.  A gated
row holds one 1 MiB message through ``BatchCRC.compute_batch`` to
<= 1.5x the single-message engine.
"""

import os
import random
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import format_table
import repro
import repro.crc.slicing as slicing
from repro.crc import BitwiseCRC, ByteSlicedCRC, DerbyCRC, ETHERNET_CRC32
from repro.engine import BatchCRC, CompileCache
from repro.telemetry import BenchReport

M = 32
MESSAGE_BYTES = 64
BATCH_SIZES = (32, 256, 1024)
BASELINE_SAMPLE = 32
#: The mix of a ragged row: sizes drawn uniformly from 1-1518 B.
RAGGED = None
#: (row name, batch size, message sizes drawn in weighted rotation).
SHAPES = (
    ("1024 x 256 B", 1024, ((256, 1),)),
    ("256 x 1518 B", 256, ((1518, 1),)),
    ("1024 x IMIX", 1024, ((64, 7), (594, 4), (1518, 1))),
    ("1024 x 1-1518 B", 1024, RAGGED),
)
#: The gather-floor sweep: rows of one block-count group x message bytes.
SWEEP_ROWS = (1, 2, 4, 8, 16, 32, 64)
SWEEP_BYTES = (64, 1518, 4096, 65536)
#: One long message through the batch engine costs at most this many
#: times the single-message engine.
ONE_MESSAGE_BYTES = 1 << 20
GATE_ONE_MESSAGE_RATIO = 1.5
#: The fault gate: (row name, batch size, message bytes), steady-state
#: calls counted after warm-up, and the most minor faults a call may take.
FAULT_SHAPES = (("1024 x 256 B", 1024, 256), ("256 x 1518 B", 256, 1518))
FAULT_CALLS = 200
GATE_MAX_FAULTS_PER_CALL = 1.0
#: ``speedup_b1024`` divided by the DerbyCRC loop until the snapshot that
#: added ``b1024_vs_derby``: against a snapshot without it the ratio is
#: re-based, not compared.
REBASED = {
    "speedup_b1024": "now over the zlib.crc32 loop on the same messages "
    "(was over the DerbyCRC loop, whose rate swings ~2x between processes)",
}
#: One fault reading, run in a fresh process: ``batch bytes history``,
#: where history ``planned`` first runs the batch-crc-auto plan.
FAULT_PROBE = """
import random, resource, sys, zlib
from repro.crc import ETHERNET_CRC32
from repro.engine import BatchCRC
batch, size, history, calls = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
if history == "planned":
    from repro.engine.planner import KIND_CRC_BATCH, WorkloadDescriptor, default_planner
    default_planner().plan(WorkloadDescriptor(
        kind=KIND_CRC_BATCH, standard="CRC-32", message_bits=8 * 256, batch=1024, M=128))
rng = random.Random(19)
messages = [rng.randbytes(size) for _ in range(batch)]
engine = BatchCRC(ETHERNET_CRC32, 128)
assert engine.compute_batch(messages) == [zlib.crc32(m) for m in messages]
for _ in range(20):
    engine.compute_batch(messages)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(calls):
    engine.compute_batch(messages)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls)
"""


@pytest.fixture(scope="module")
def messages():
    rng = np.random.default_rng(11)
    return [
        bytes(rng.integers(0, 256, size=MESSAGE_BYTES).tolist()) for _ in range(max(BATCH_SIZES))
    ]


@pytest.fixture(scope="module")
def derby_rate(messages):
    """Per-message DerbyCRC loop rate (messages/sec), measured on a sample.

    The loop is O(n) per message with no cross-message state, so the
    per-message rate is independent of how many messages the loop covers.
    """
    engine = DerbyCRC(ETHERNET_CRC32, M)
    sample = messages[:BASELINE_SAMPLE]
    engine.compute(sample[0])  # warm-up
    t0 = time.perf_counter()
    crcs = [engine.compute(m) for m in sample]
    rate = len(sample) / (time.perf_counter() - t0)
    assert crcs == [BitwiseCRC(ETHERNET_CRC32).compute(m) for m in sample]
    return rate


@pytest.fixture(scope="module")
def batch_rates(messages):
    engine = BatchCRC(ETHERNET_CRC32, M)
    expected = [BitwiseCRC(ETHERNET_CRC32).compute(m) for m in messages]
    rates = {}
    for batch in BATCH_SIZES:
        subset = messages[:batch]
        engine.compute_batch(subset[:2])  # warm-up
        best = min(
            _timed(engine.compute_batch, subset, expected[:batch]) for _ in range(3)
        )
        rates[batch] = batch / best
    return rates


def _timed(fn, subset, expected):
    t0 = time.perf_counter()
    result = fn(subset)
    elapsed = time.perf_counter() - t0
    assert result == expected
    return elapsed


@pytest.fixture(scope="module")
def zlib_rate(messages):
    """Stdlib ``zlib.crc32`` over the same messages: the CRC-32 ceiling."""
    sample = messages[:BASELINE_SAMPLE]
    assert [zlib.crc32(m) for m in sample] == [
        BitwiseCRC(ETHERNET_CRC32).compute(m) for m in sample
    ]
    t0 = time.perf_counter()
    for _ in range(20):
        for m in messages:
            zlib.crc32(m)
    return 20 * len(messages) / (time.perf_counter() - t0)


@pytest.fixture(scope="module")
def shape_rates():
    """``{row: (BatchCRC msgs/s, zlib.crc32 msgs/s)}`` per batch shape,
    each the best of five calls on the same messages."""
    rng = random.Random(13)
    engine = BatchCRC(ETHERNET_CRC32, 128)
    rates = {}
    for name, batch, mix in SHAPES:
        if mix is RAGGED:
            sizes = [rng.randint(1, 1518) for _ in range(batch)]
        else:
            rotation = [size for size, weight in mix for _ in range(weight)]
            sizes = [rotation[i % len(rotation)] for i in range(batch)]
        messages = [rng.randbytes(n) for n in sizes]
        expected = [zlib.crc32(m) for m in messages]
        engine.compute_batch(messages[:2])  # warm-up
        best = min(_timed(engine.compute_batch, messages, expected) for _ in range(5))
        ceiling = min(
            _timed(lambda ms: [zlib.crc32(m) for m in ms], messages, expected)
            for _ in range(5)
        )
        rates[name] = (batch / best, batch / ceiling)
    return rates


@pytest.fixture(scope="module")
def call_faults():
    """``{row: {history: minor faults per steady-state call}}``, each
    reading from a fresh process."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    faults = {}
    for name, batch, size in FAULT_SHAPES:
        faults[name] = {}
        for history in ("bare", "planned"):
            out = subprocess.run(
                [sys.executable, "-c", FAULT_PROBE, str(batch), str(size), history,
                 str(FAULT_CALLS)],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            faults[name][history] = float(out.stdout)
    return faults


def _paired_ratio(fn, baseline, reps):
    """Median over ``reps`` pairs of ``fn``'s time / ``baseline``'s, the
    two run back to back in alternating order."""
    ratios = []
    for i in range(reps):
        first, second = (fn, baseline) if i % 2 else (baseline, fn)
        t0 = time.perf_counter()
        first()
        t1 = time.perf_counter()
        second()
        t2 = time.perf_counter()
        ratios.append((t1 - t0) / (t2 - t1) if first is fn else (t2 - t1) / (t1 - t0))
    return statistics.median(ratios)


@pytest.fixture(scope="module")
def gather_floor():
    """``({bytes: {rows: vectorized / loop}}, one-message ratio)``.

    The vectorized column runs ``BatchCRC.compute_batch`` with every group
    gathered (the floor set to 1); the loop column runs
    ``ByteSlicedCRC.compute`` per message.  The one-message ratio is the
    shipped ``BatchCRC.compute_batch`` on one 1 MiB message over
    ``ByteSlicedCRC.compute`` on the same bytes.  Every ratio is a median
    of alternated pairs (:func:`_paired_ratio`)."""
    rng = random.Random(17)
    engine = BatchCRC(ETHERNET_CRC32, 128, cache=CompileCache())
    single = ByteSlicedCRC(ETHERNET_CRC32)
    sweep = {}
    shipped = slicing.GATHER_MIN_ROWS, slicing.LONG_GATHER_MIN_ROWS
    slicing.GATHER_MIN_ROWS = slicing.LONG_GATHER_MIN_ROWS = 1
    try:
        for n in SWEEP_BYTES:
            sweep[n] = {}
            for rows in SWEEP_ROWS:
                msgs = [rng.randbytes(n) for _ in range(rows)]
                assert engine.compute_batch(msgs) == [zlib.crc32(m) for m in msgs]
                sweep[n][rows] = _paired_ratio(
                    lambda: engine.compute_batch(msgs),
                    lambda: [single.compute(m) for m in msgs],
                    max(5, min(25, (1 << 21) // (n * rows))),
                )
    finally:
        slicing.GATHER_MIN_ROWS, slicing.LONG_GATHER_MIN_ROWS = shipped
    big = rng.randbytes(ONE_MESSAGE_BYTES)
    assert engine.compute_batch([big]) == [zlib.crc32(big)]
    one_message = _paired_ratio(
        lambda: engine.compute_batch([big]), lambda: single.compute(big), 7
    )
    return sweep, one_message


def test_engine_batch_sweep(derby_rate, batch_rates, zlib_rate, shape_rates, gather_floor,
                            call_faults, previous_snapshot, save_result, save_report):
    sweep, one_message = gather_floor
    rows = [[f"DerbyCRC loop (sample {BASELINE_SAMPLE})", f"{derby_rate:,.0f}", "1.0x",
             f"{derby_rate / zlib_rate:.4f}"]]
    for batch, rate in sorted(batch_rates.items()):
        rows.append([f"BatchCRC B={batch}", f"{rate:,.0f}", f"{rate / derby_rate:.1f}x",
                     f"{rate / zlib_rate:.2f}"])
    rows.append([
        "zlib.crc32 (ceiling)", f"{zlib_rate:,.0f}", f"{zlib_rate / derby_rate:.0f}x", "1.00",
    ])
    text = format_table(
        ["engine", "messages/s", "vs Derby loop", "vs zlib"],
        rows,
        title=(
            f"Batch engine throughput: {ETHERNET_CRC32.name}, "
            f"{MESSAGE_BYTES}-byte messages, M={M}"
        ),
    )
    text += "\n\n" + format_table(
        ["shape", "BatchCRC msgs/s", "zlib.crc32 msgs/s", "vs zlib"],
        [
            [name, f"{rate:,.0f}", f"{ceiling:,.0f}", f"{rate / ceiling:.2f}"]
            for name, (rate, ceiling) in shape_rates.items()
        ],
        title=f"Batch shapes: {ETHERNET_CRC32.name}, M=128",
    )
    text += "\n\n" + format_table(
        ["bytes"] + [f"{rows} rows" for rows in SWEEP_ROWS],
        [[n] + [f"{sweep[n][rows]:.2f}" for rows in SWEEP_ROWS] for n in SWEEP_BYTES],
        title=(
            "Gather floor: one block-count group through the vectorized fold "
            "/ a ByteSlicedCRC.compute loop (below 1 the gather wins; "
            f"GATHER_MIN_ROWS = {slicing.GATHER_MIN_ROWS}, "
            f"LONG_GATHER_MIN_ROWS = {slicing.LONG_GATHER_MIN_ROWS} over 4 KiB)"
        ),
    )
    text += "\n\n" + format_table(
        ["shape", "bare process", "after the batch-crc-auto plan"],
        [[name, f"{by['bare']:.2f}", f"{by['planned']:.2f}"] for name, by in call_faults.items()],
        title=(
            f"Minor page faults per steady-state BatchCRC.compute_batch call "
            f"({FAULT_CALLS} calls, fresh process each; gate: < {GATE_MAX_FAULTS_PER_CALL:g})"
        ),
    )
    text += (
        f"\n\nOne {ONE_MESSAGE_BYTES >> 20} MiB message: BatchCRC.compute_batch "
        f"/ ByteSlicedCRC.compute = {one_message:.2f} "
        f"(gate: <= {GATE_ONE_MESSAGE_RATIO})"
    )
    save_result("engine_batch", text)
    params = {
        "standard": ETHERNET_CRC32.name,
        "M": M,
        "message_bytes": MESSAGE_BYTES,
        "baseline_sample": BASELINE_SAMPLE,
        "batch_sizes": list(BATCH_SIZES),
        "gather_min_rows": slicing.GATHER_MIN_ROWS,
        "long_gather_min_rows": slicing.LONG_GATHER_MIN_ROWS,
        "fault_calls": FAULT_CALLS,
    }
    before = previous_snapshot.get("kernels", {}).get("engine_batch", {}).get("metrics", {})
    if before and "b1024_vs_derby" not in before:
        params["rebased"] = REBASED
    save_report(BenchReport(
        name="engine_batch",
        title=f"Batch engine throughput vs the zlib.crc32 loop (M={M})",
        params=params,
        metrics={
            "derby_msgs_per_s": derby_rate,
            "speedup_b1024": batch_rates[1024] / zlib_rate,
            "b1024_vs_derby": batch_rates[1024] / derby_rate,
            "gate_min_b1024_vs_derby": 10.0,
            "zlib_msgs_per_s": zlib_rate,
            "one_mib_batch_vs_single": one_message,
            "gate_max_one_mib_batch_vs_single": GATE_ONE_MESSAGE_RATIO,
            "gate_max_faults_per_call": GATE_MAX_FAULTS_PER_CALL,
        },
        series={
            "batch_msgs_per_s": {str(b): r for b, r in sorted(batch_rates.items())},
            "shape_msgs_per_s": {name: r for name, (r, _) in shape_rates.items()},
            "shape_zlib_msgs_per_s": {name: z for name, (_, z) in shape_rates.items()},
            "gather_vs_loop": {
                str(n): {str(rows): r for rows, r in by_rows.items()}
                for n, by_rows in sweep.items()
            },
            "faults_per_call": call_faults,
        },
    ))
    assert batch_rates[1024] >= 10 * derby_rate, (
        f"batch engine {batch_rates[1024]:.0f} msg/s is below 10x the "
        f"Derby loop {derby_rate:.0f} msg/s"
    )
    for name, by_history in call_faults.items():
        for history, faults in by_history.items():
            assert faults < GATE_MAX_FAULTS_PER_CALL, (
                f"a steady-state {name} call takes {faults:.1f} minor faults "
                f"({history} process; gate: < {GATE_MAX_FAULTS_PER_CALL:g})"
            )
    assert one_message <= GATE_ONE_MESSAGE_RATIO, (
        f"one {ONE_MESSAGE_BYTES}-byte message through the batch engine costs "
        f"{one_message:.2f}x the single-message engine "
        f"(gate: <= {GATE_ONE_MESSAGE_RATIO}x)"
    )


def test_recompile_cost_near_zero():
    """A warm compile cache makes engine construction ~free.

    The cold compile is only partially cold when other modules in the same
    process have warmed module-level lru_caches underneath, so the gate is
    a conservative 10x rather than the ~1000x seen in a fresh process."""
    cache = CompileCache(capacity=8)
    t0 = time.perf_counter()
    BatchCRC(ETHERNET_CRC32, M, cache=cache)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(10):
        BatchCRC(ETHERNET_CRC32, M, cache=cache)
    warm = (time.perf_counter() - t0) / 10
    assert cache.stats.misses > 0 and cache.stats.hits > 0
    assert warm < cold / 10, f"warm {warm * 1e6:.0f}us vs cold {cold * 1e6:.0f}us"


def test_benchmark_batch_crc(benchmark, messages):
    engine = BatchCRC(ETHERNET_CRC32, M)
    crcs = benchmark(engine.compute_batch, messages)
    assert crcs[0] == BitwiseCRC(ETHERNET_CRC32).compute(messages[0])
