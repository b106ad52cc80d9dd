"""Engine choice per run, and the byte engines' constants.

:meth:`~repro.engine.CRCPipeline.pump` advances every ready stream by
itself: runs shorter than :data:`~repro.engine.pipeline.SHORT_RUN_BYTES`
through the byte table (:meth:`~repro.crc.TableCRC.raw_register`, the
software CRC the paper cites as [8]), longer ones through the
byte-sliced look-ahead (:class:`~repro.crc.ByteSlicedCRC`, one numpy
gather per :data:`~repro.crc.slicing.SLICE_DEPTH` bytes).  Four
measurements, against :class:`~repro.crc.TableCRC` (the floor) in the
same process where they compare, with stdlib ``zlib.crc32`` as the
ceiling where it applies:

1. **Pump table** (reported).  Per-stream microseconds of one ``pump``
   at occupancy 1-256, with every stream holding 1, 2, 4 or 16 blocks
   at M = 128 or 1 or 8 blocks at M = 1024
   (``pump_us_per_stream_*``).

2. **Short-run sweep** (one case each side of ``SHORT_RUN_BYTES``
   asserted): ``ByteSlicedCRC`` / ``TableCRC`` ``raw_register`` cost at
   16-256 bytes.

3. **Depth sweep** (reported): ``ByteSlicedCRC`` at 64-512 rows on a
   1518-byte and a 1 MiB run, against the table; ``SLICE_DEPTH`` is read
   off it.

4. **One-stream gate.**  ``open`` + ``feed`` + ``finalize`` of one
   1518-byte message must cost at most ``GATE_MAX_ONE_STREAM_COST`` x
   ``TableCRC.compute`` at every M in {32, 128, 1024}
   (``one_stream_speedup_vs_table_M*`` = table / pipeline, folded into
   ``BENCH_<n>.json`` for ``tools/bench_diff.py``).  The 64- and 594-byte
   ratios are reported; ``one_stream_vs_zlib_*`` = zlib / pipeline reads
   every row as a fraction of the ceiling.

5. **Telemetry gate.**  ``open`` + ``feed`` + ``finalize`` of one
   64-byte stream at M = 1024 with the default registry enabled must
   cost at most ``GATE_MAX_TELEMETRY_COST`` x the same with it disabled
   (``one_stream_telemetry_cost_M1024_64B``): the registry reads the
   pipeline's gauges and counts when it is read, so no stream operation
   pays for them.

The sweeps and the gates alternate their sides rep by rep and keep each
side's best, so a host that changes speed mid-run moves both alike.
Every digest and register is checked against ``TableCRC``, and zlib's
against the pipeline.
"""

import random
import time
import zlib

from repro.analysis import format_table
from repro.crc import ByteSlicedCRC, TableCRC, build_slicing_tables, get
from repro.crc.slicing import SLICE_DEPTH
from repro.engine import CRCPipeline
from repro.engine.pipeline import SHORT_RUN_BYTES
from repro.telemetry import BenchReport, default_registry

STANDARD = "CRC-32"
#: (M, blocks per stream): 16 blocks at M = 128 is stream-interleaved-32's
#: 256-byte round.
CROSSOVER_CASES = ((128, 1), (128, 2), (128, 4), (128, 16), (1024, 1), (1024, 8))
OCCUPANCY = (1, 2, 4, 8, 16, 32, 64, 128, 256)
CROSSOVER_REPS = 25

SHORT_RUN_SIZES = (16, 32, 48, 64, 96, 128, 256)
SHORT_RUN_REPS = 300

DEPTHS = (64, 128, 256, 512)
DEPTH_SIZES = (1518, 1 << 20)
DEPTH_REPS = 5

ONE_STREAM_M = (32, 128, 1024)
ONE_STREAM_SIZES = (64, 594, 1518)
GATED_SIZE = 1518
ONE_STREAM_REPS = 200

#: ~1.6x the upper end of the 1518-byte cost measured on a 2-vCPU x86
#: host (0.24-0.33x TableCRC.compute over every run).
GATE_MAX_ONE_STREAM_COST = 0.5

#: The lone stream the telemetry gate times, and its ceiling: enabled /
#: disabled registry cost (pushed gauges measured 1.43-1.53 on a 2-vCPU
#: x86 host; read at scrape time, ~1.0).
TELEMETRY_M, TELEMETRY_SIZE = 1024, 64
GATE_MAX_TELEMETRY_COST = 1.15

def _best_us(calls, reps):
    """Best µs of each zero-argument callable, alternating them rep by rep."""
    best = [float("inf")] * len(calls)
    for _ in range(reps):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - t0)
    return [t * 1e6 for t in best]


def _round_cost_us(spec, oracle, M, streams, blocks):
    """Best per-stream µs of one pump over ``streams`` ready streams."""
    payload = random.Random(f"{M}/{streams}/{blocks}").randbytes(blocks * M // 8)
    pipe = CRCPipeline(spec, M)
    for sid in range(streams):
        pipe.open(sid)
    best = float("inf")
    for _ in range(CROSSOVER_REPS):
        for sid in range(streams):
            pipe.feed(sid, payload, pump=False)
        t0 = time.perf_counter()
        advanced = pipe.pump()
        best = min(best, time.perf_counter() - t0)
        assert advanced == streams * blocks
    expected = oracle.compute(payload * CROSSOVER_REPS)
    assert pipe.finalize_many(range(streams)) == [expected] * streams
    return best / streams * 1e6


def _one_stream_cost(spec, oracle, M, size):
    """Best µs of open+feed+finalize, TableCRC.compute and zlib.crc32."""
    payload = random.Random(f"{M}/{size}").randbytes(size)
    expected = oracle.compute(payload)
    assert zlib.crc32(payload) == expected
    pipe = CRCPipeline(spec, M)

    def stream():
        sid = pipe.open()
        pipe.feed(sid, payload)
        assert pipe.finalize(sid) == expected

    return _best_us(
        [stream, lambda: oracle.compute(payload), lambda: zlib.crc32(payload)],
        ONE_STREAM_REPS,
    )


def _telemetry_cost(spec, oracle):
    """Best µs of one lone stream with the default registry enabled and
    disabled, alternating rep by rep."""
    payload = random.Random("telemetry").randbytes(TELEMETRY_SIZE)
    expected = oracle.compute(payload)
    pipe = CRCPipeline(spec, TELEMETRY_M)
    registry = default_registry()
    was = registry.enabled
    best = {True: float("inf"), False: float("inf")}
    try:
        for _ in range(ONE_STREAM_REPS):
            for enabled in best:
                registry.set_enabled(enabled)
                t0 = time.perf_counter()
                sid = pipe.open()
                pipe.feed(sid, payload)
                digest = pipe.finalize(sid)
                best[enabled] = min(best[enabled], time.perf_counter() - t0)
                assert digest == expected
    finally:
        registry.set_enabled(was)
    return best[True] * 1e6, best[False] * 1e6


def test_engine_pipeline_crossover(save_result, save_report):
    spec = get(STANDARD)
    oracle = TableCRC(spec)
    sliced = ByteSlicedCRC(spec)
    metrics = {}
    rows = []
    for M, blocks in CROSSOVER_CASES:
        nbytes = blocks * M // 8
        for streams in OCCUPANCY:
            cost = _round_cost_us(spec, oracle, M, streams, blocks)
            metrics[f"pump_us_per_stream_M{M}_B{streams}_blocks{blocks}"] = cost
            rows.append([
                M, blocks, nbytes, streams, f"{cost:.1f}",
                "table" if nbytes < SHORT_RUN_BYTES else "sliced",
            ])

    rng = random.Random("short-runs")
    short_rows = []
    for size in SHORT_RUN_SIZES:
        data = rng.randbytes(size)
        assert sliced.raw_register(data, 7) == oracle.raw_register(data, 7)
        table_us, sliced_us = _best_us(
            [lambda: oracle.raw_register(data, 7), lambda: sliced.raw_register(data, 7)],
            SHORT_RUN_REPS,
        )
        metrics[f"sliced_cost_vs_table_{size}B"] = sliced_us / table_us
        short_rows.append([
            size, f"{table_us:.1f}", f"{sliced_us:.1f}", f"{sliced_us / table_us:.2f}",
            "table" if size < SHORT_RUN_BYTES else "sliced",
        ])

    depth_rows = []
    for size in DEPTH_SIZES:
        data = rng.randbytes(size)
        expected = oracle.raw_register(data, 7)
        engines = [ByteSlicedCRC(spec, build_slicing_tables(spec, d)) for d in DEPTHS]
        calls = [lambda e=e: e.raw_register(data, 7) for e in engines]
        calls.append(lambda: oracle.raw_register(data, 7))
        assert all(call() == expected for call in calls)
        *depth_us, table_us = _best_us(calls, DEPTH_REPS if size > 4096 else SHORT_RUN_REPS)
        for depth, us in zip(DEPTHS, depth_us):
            metrics[f"sliced_cost_vs_table_D{depth}_{size}B"] = us / table_us
        depth_rows.append(
            [size, f"{table_us:.1f}"]
            + [f"{us:.1f} ({us / table_us:.3f})" for us in depth_us]
        )

    one_rows = []
    for M in ONE_STREAM_M:
        for size in ONE_STREAM_SIZES:
            pipe_us, table_us, zlib_us = _one_stream_cost(spec, oracle, M, size)
            cost = pipe_us / table_us
            metrics[f"one_stream_cost_vs_table_M{M}_{size}B"] = cost
            metrics[f"one_stream_vs_zlib_M{M}_{size}B"] = zlib_us / pipe_us
            if size == GATED_SIZE:
                metrics[f"one_stream_speedup_vs_table_M{M}"] = table_us / pipe_us
            one_rows.append([
                M, size, f"{pipe_us:.1f}", f"{table_us:.1f}", f"{cost:.2f}x",
                f"{zlib_us:.2f}", f"{zlib_us / pipe_us:.4f}",
            ])

    on_us, off_us = _telemetry_cost(spec, oracle)
    metrics[f"one_stream_telemetry_cost_M{TELEMETRY_M}_{TELEMETRY_SIZE}B"] = on_us / off_us

    save_result(
        "pipeline_crossover",
        format_table(
            ["M", "blocks/stream", "bytes/stream", "ready streams",
             "us/stream", "engine chosen"],
            rows,
            title=f"CRCPipeline pump, {STANDARD}: per-stream cost of one pump",
        )
        + "\n\n"
        + format_table(
            ["bytes", "TableCRC us", "ByteSlicedCRC us", "sliced/table", "engine chosen"],
            short_rows,
            title=(
                "short runs: raw_register on each byte engine "
                f"(SHORT_RUN_BYTES = {SHORT_RUN_BYTES})"
            ),
        )
        + "\n\n"
        + format_table(
            ["bytes", "TableCRC us"] + [f"D={d} us (vs table)" for d in DEPTHS],
            depth_rows,
            title=f"ByteSlicedCRC depth sweep (SLICE_DEPTH = {SLICE_DEPTH})",
        )
        + "\n\n"
        + format_table(
            ["M", "bytes", "pipeline us", "TableCRC us", "cost vs table",
             "zlib us", "zlib/pipeline"],
            one_rows,
            title=(
                "one stream, open + feed + finalize vs TableCRC.compute and "
                f"zlib.crc32 (gate at {GATED_SIZE} B: <= {GATE_MAX_ONE_STREAM_COST}x table)"
            ),
        )
        + "\n\n"
        + format_table(
            ["M", "bytes", "registry enabled us", "registry disabled us", "enabled/disabled"],
            [[TELEMETRY_M, TELEMETRY_SIZE, f"{on_us:.1f}", f"{off_us:.1f}",
              f"{on_us / off_us:.2f}x"]],
            title=(
                "one stream, open + feed + finalize with the default registry "
                f"enabled vs disabled (gate: <= {GATE_MAX_TELEMETRY_COST}x)"
            ),
        ),
    )
    save_report(BenchReport(
        name="pipeline_crossover",
        title="CRCPipeline per-run engine choice: byte table vs byte-sliced gather",
        params={
            "standard": STANDARD,
            "short_run_bytes": SHORT_RUN_BYTES,
            "slice_depth": SLICE_DEPTH,
            "occupancy": list(OCCUPANCY),
            "crossover_cases": [list(case) for case in CROSSOVER_CASES],
            "short_run_sizes": list(SHORT_RUN_SIZES),
            "depths": list(DEPTHS),
            "one_stream_M": list(ONE_STREAM_M),
            "gate_max_one_stream_cost": GATE_MAX_ONE_STREAM_COST,
            "gate_max_telemetry_cost": GATE_MAX_TELEMETRY_COST,
        },
        metrics=metrics,
    ))

    # SHORT_RUN_BYTES, at the shortest run swept and at twice the threshold.
    short_size, long_size = SHORT_RUN_SIZES[0], 2 * SHORT_RUN_BYTES
    short = metrics[f"sliced_cost_vs_table_{short_size}B"]
    long = metrics[f"sliced_cost_vs_table_{long_size}B"]
    assert short > 1.0, (
        f"the gather beat the table on {short_size} bytes ({short:.2f}x): "
        "SHORT_RUN_BYTES is too high"
    )
    assert long < 1.0, (
        f"the table beat the gather on {long_size} bytes ({long:.2f}x): "
        "SHORT_RUN_BYTES is too low"
    )
    assert on_us / off_us <= GATE_MAX_TELEMETRY_COST, (
        f"one {TELEMETRY_SIZE}-byte stream at M={TELEMETRY_M} costs "
        f"{on_us / off_us:.2f}x with the registry enabled "
        f"(gate: {GATE_MAX_TELEMETRY_COST}x)"
    )
    for M in ONE_STREAM_M:
        cost = metrics[f"one_stream_cost_vs_table_M{M}_{GATED_SIZE}B"]
        assert cost <= GATE_MAX_ONE_STREAM_COST, (
            f"one {GATED_SIZE}-byte stream at M={M} costs {cost:.2f}x "
            f"TableCRC.compute (gate: {GATE_MAX_ONE_STREAM_COST}x)"
        )
