"""Engine choice per pump round: the byte-table / packed-product crossover.

:meth:`~repro.engine.CRCPipeline.pump` advances a round with fewer than
:data:`~repro.engine.pipeline.TABLE_CROSSOVER` ready streams through the
byte table (:meth:`~repro.crc.TableCRC.raw_register`, the software CRC
the paper cites as [8]) and a wider round through one packed GF(2)
product — the paper's Table 1 / Fig. 4 crossover, in software.  Two
measurements, both against :class:`~repro.crc.TableCRC` in the same
process:

1. **Crossover table** (reported; one case on each side of the constant
   is asserted).  Per-stream microseconds of one ``pump`` on each engine
   — pinned through the private per-instance override — at occupancy
   1-256 and M in {128, 1024}, with every stream holding 1 or 8 whole
   blocks.  ``packed_cost_vs_table_*`` is packed / table: above 1 the
   table wins.  ``TABLE_CROSSOVER`` is read off this table.

2. **One-stream gate.**  ``open`` + ``feed`` + ``finalize`` of one
   1518-byte message must cost at most ``GATE_MAX_ONE_STREAM_COST`` x
   ``TableCRC.compute`` at every M in {32, 128, 1024}
   (``one_stream_speedup_vs_table_M*`` = table / pipeline, folded into
   ``BENCH_<n>.json`` for ``tools/bench_diff.py``).  The 64- and 594-byte
   ratios are reported: fixed per-stream cost dominates them.

Timings alternate the two sides rep by rep and keep each side's best, so
a host that changes speed mid-run moves both alike.  Every digest is
checked against ``TableCRC``.
"""

import random
import sys
import time

from repro.analysis import format_table
from repro.crc import TableCRC, get
from repro.engine import CRCPipeline
from repro.engine.pipeline import TABLE_CROSSOVER
from repro.telemetry import BenchReport

STANDARD = "CRC-32"
CROSSOVER_M = (128, 1024)
OCCUPANCY = (1, 2, 4, 8, 16, 32, 64, 128, 256)
BLOCKS_PER_STREAM = (1, 8)
CROSSOVER_REPS = 9

ONE_STREAM_M = (32, 128, 1024)
ONE_STREAM_SIZES = (64, 594, 1518)
GATED_SIZE = 1518
ONE_STREAM_REPS = 200

GATE_MAX_ONE_STREAM_COST = 1.5

#: Crossover overrides pinning one engine (see CRCPipeline.__init__).
ENGINES = {"table": sys.maxsize, "packed": 0}


def _round_cost_us(spec, oracle, M, streams, blocks):
    """Best per-stream µs of one pump on each engine, alternating reps."""
    payload = random.Random(f"{M}/{streams}/{blocks}").randbytes(blocks * M // 8)
    pipes = {}
    for engine, crossover in ENGINES.items():
        pipe = CRCPipeline(spec, M)
        pipe._crossover = crossover
        for sid in range(streams):
            pipe.open(sid)
        pipes[engine] = pipe
    best = dict.fromkeys(ENGINES, float("inf"))
    for _ in range(CROSSOVER_REPS):
        for engine, pipe in pipes.items():
            for sid in range(streams):
                pipe.feed(sid, payload, pump=False)
            t0 = time.perf_counter()
            advanced = pipe.pump()
            best[engine] = min(best[engine], time.perf_counter() - t0)
            assert advanced == streams * blocks
    expected = oracle.compute(payload * CROSSOVER_REPS)
    for pipe in pipes.values():
        assert pipe.finalize_many(range(streams)) == [expected] * streams
    return {engine: t / streams * 1e6 for engine, t in best.items()}


def _one_stream_cost(spec, oracle, M, size):
    """Best µs of open+feed+finalize and of TableCRC.compute, alternating."""
    payload = random.Random(f"{M}/{size}").randbytes(size)
    expected = oracle.compute(payload)
    pipe = CRCPipeline(spec, M)
    best_pipe = best_table = float("inf")
    for _ in range(ONE_STREAM_REPS):
        t0 = time.perf_counter()
        sid = pipe.open()
        pipe.feed(sid, payload)
        digest = pipe.finalize(sid)
        t1 = time.perf_counter()
        oracle.compute(payload)
        t2 = time.perf_counter()
        assert digest == expected
        best_pipe = min(best_pipe, t1 - t0)
        best_table = min(best_table, t2 - t1)
    return best_pipe * 1e6, best_table * 1e6


def test_engine_pipeline_crossover(save_result, save_report):
    spec = get(STANDARD)
    oracle = TableCRC(spec)
    metrics = {}
    rows = []
    for blocks in BLOCKS_PER_STREAM:
        for M in CROSSOVER_M:
            for streams in OCCUPANCY:
                cost = _round_cost_us(spec, oracle, M, streams, blocks)
                ratio = cost["packed"] / cost["table"]
                metrics[f"packed_cost_vs_table_M{M}_B{streams}_blocks{blocks}"] = ratio
                side = "table" if streams < TABLE_CROSSOVER else "packed"
                rows.append([
                    blocks, M, streams, f"{cost['table']:.1f}",
                    f"{cost['packed']:.1f}", f"{ratio:.2f}", side,
                ])

    one_rows = []
    for M in ONE_STREAM_M:
        for size in ONE_STREAM_SIZES:
            pipe_us, table_us = _one_stream_cost(spec, oracle, M, size)
            cost = pipe_us / table_us
            metrics[f"one_stream_cost_vs_table_M{M}_{size}B"] = cost
            if size == GATED_SIZE:
                metrics[f"one_stream_speedup_vs_table_M{M}"] = table_us / pipe_us
            one_rows.append([M, size, f"{pipe_us:.1f}", f"{table_us:.1f}", f"{cost:.2f}x"])

    save_result(
        "pipeline_crossover",
        format_table(
            ["blocks/stream", "M", "ready streams", "table us/stream",
             "packed us/stream", "packed/table", "engine chosen"],
            rows,
            title=(
                f"CRCPipeline pump, {STANDARD}: per-stream cost of one pump on "
                f"each engine (TABLE_CROSSOVER = {TABLE_CROSSOVER})"
            ),
        )
        + "\n\n"
        + format_table(
            ["M", "bytes", "pipeline us", "TableCRC us", "cost vs table"],
            one_rows,
            title=(
                "one stream, open + feed + finalize vs TableCRC.compute "
                f"(gate at {GATED_SIZE} B: <= {GATE_MAX_ONE_STREAM_COST}x)"
            ),
        ),
    )
    save_report(BenchReport(
        name="pipeline_crossover",
        title="CRCPipeline per-round engine choice: byte table vs packed product",
        params={
            "standard": STANDARD,
            "table_crossover": TABLE_CROSSOVER,
            "occupancy": list(OCCUPANCY),
            "crossover_M": list(CROSSOVER_M),
            "blocks_per_stream": list(BLOCKS_PER_STREAM),
            "one_stream_M": list(ONE_STREAM_M),
            "gate_max_one_stream_cost": GATE_MAX_ONE_STREAM_COST,
        },
        metrics=metrics,
    ))

    for blocks in BLOCKS_PER_STREAM:
        for M in CROSSOVER_M:
            below = metrics[f"packed_cost_vs_table_M{M}_B1_blocks{blocks}"]
            above = metrics[
                f"packed_cost_vs_table_M{M}_B{4 * TABLE_CROSSOVER}_blocks{blocks}"
            ]
            assert below > 1.0, (
                f"packed beat the table for a lone stream at M={M} "
                f"({below:.2f}x): TABLE_CROSSOVER is too high"
            )
            assert above < 1.0, (
                f"the table beat packed at {4 * TABLE_CROSSOVER} streams, M={M} "
                f"({above:.2f}x): TABLE_CROSSOVER is too low"
            )
    for M in ONE_STREAM_M:
        cost = metrics[f"one_stream_cost_vs_table_M{M}_{GATED_SIZE}B"]
        assert cost <= GATE_MAX_ONE_STREAM_COST, (
            f"one {GATED_SIZE}-byte stream at M={M} costs {cost:.2f}x "
            f"TableCRC.compute (gate: {GATE_MAX_ONE_STREAM_COST}x)"
        )
