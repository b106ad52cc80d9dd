"""Planner auto-plan throughput gate (host-side).

A fresh planner probes this host (it times the batch CRC serially and
sharded on a fixed probe batch) and plans the batch CRC (B=1024,
256-byte messages, the batch-crc-auto shape).  The planned engine then
runs against the serial engine, call by call in alternated pairs, and
the table reports the probe's measured speedup beside the one the gate
measures.  The gate applies on *every* host with no skips: the plan must
deliver >= 0.95x serial always (the planner may never make things
slower — on a 1-CPU host it must fall back to serial by construction),
and >= 2x on hosts with >= 4 usable CPUs (where sharding must actually
multiply).

Results (including the recorded planner decisions) land under
``benchmarks/results/engine_parallel.json`` (+ ``.txt``) and fold into
the top-level ``BENCH_<n>.json`` trajectory.
"""

import os
import statistics
import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.crc import BitwiseCRC, ETHERNET_CRC32
from repro.engine import (
    CompileCache,
    ParallelBatchCRC,
    Planner,
    WorkloadDescriptor,
)
from repro.telemetry import BenchReport

M = 128
BATCH = 1024
MESSAGE_BYTES = 256
#: Adjacent (serial, planned) call pairs the auto-plan gate times.  A
#: serial plan runs the very engine it is compared with, so the ratio is
#: measurement noise around 1.0: on a busy 2-vCPU host, best-of-3
#: sequential calls read 0.86-1.32x for identical code and best-of-50
#: alternated calls 0.88-1.10x, while the median of 50 pairs' time ratios
#: read 0.995-1.021x.
RATE_PAIRS = 50


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def messages():
    rng = np.random.default_rng(5)
    return [
        bytes(rng.integers(0, 256, size=MESSAGE_BYTES).tolist())
        for _ in range(BATCH)
    ]


def _paired(serial, planned, check, pairs):
    """(serial median s, planned median s, speedup) over ``pairs``
    adjacent calls of each, the order alternating.  The speedup is the
    median of the pairs' time ratios, so drift and bursts that reach a
    pair's two calls alike cancel.  ``check`` sees every call's result."""
    serial()
    planned()  # warm compile cache + pool
    times = ([], [])
    for i in range(pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            result = (serial, planned)[side]()
            times[side].append(time.perf_counter() - t0)
            check(result)
    speedup = statistics.median(s / p for s, p in zip(*times))
    return statistics.median(times[0]), statistics.median(times[1]), speedup


def test_planner_auto_gate(messages, save_result, save_report):
    cpus = _usable_cpus()
    cache = CompileCache()
    planner = Planner()  # measures this host, each kind when first planned

    plan = planner.plan(
        WorkloadDescriptor(
            kind="crc-batch",
            standard="CRC-32",
            message_bits=8 * MESSAGE_BYTES,
            batch=BATCH,
            M=M,
        )
    )
    serial = ParallelBatchCRC(ETHERNET_CRC32, M, workers=1, cache=cache)
    # Spot-check every call against the bit-serial reference.
    spots = (0, BATCH // 2, -1)
    want = [BitwiseCRC(ETHERNET_CRC32).compute(messages[j]) for j in spots]

    def crc_ok(crcs):
        assert [crcs[j] for j in spots] == want

    with ParallelBatchCRC(ETHERNET_CRC32, M, cache=cache, plan=plan) as auto:
        serial_s, auto_s, speedup = _paired(
            lambda: serial.compute_batch(messages),
            lambda: auto.compute_batch(messages),
            crc_ok,
            RATE_PAIRS,
        )

    probed = planner.profile.speedup
    rows = [
        ["CRC serial (workers=1)", f"{BATCH / serial_s:,.0f}", "1.0x", "-"],
        [
            f"CRC auto plan [{plan.strategy} x{plan.workers}]",
            f"{BATCH / auto_s:,.0f}",
            f"{speedup:.2f}x",
            f"{probed['crc-batch']:.2f}x",
        ],
    ]
    text = format_table(
        ["engine", "items/s", "speedup", "probe: sharded vs serial"],
        rows,
        title=(
            f"Auto plan vs serial on {cpus} cpu(s): CRC-32, B={BATCH}, "
            f"{MESSAGE_BYTES}-byte messages, M={M}"
        ),
    )
    save_result("engine_parallel", text)
    save_report(
        BenchReport(
            name="engine_parallel",
            title="Planner auto plan (batch CRC) vs serial",
            params={
                "standard": "CRC-32",
                "M": M,
                "batch": BATCH,
                "message_bytes": MESSAGE_BYTES,
                "cpu_count": cpus,
                "probe_speedup_crc_batch": probed["crc-batch"],
                "plan_strategy": plan.strategy,
                "plan_workers": plan.workers,
                "plan_backend": plan.backend,
                "plan_mode": plan.mode,
                "plan_M": plan.M,
            },
            metrics={
                "serial_rate_msgs_per_s": BATCH / serial_s,
                "auto_rate_msgs_per_s": BATCH / auto_s,
                "speedup": speedup,
                "gate_applied": 1.0,
            },
        )
    )

    # Universal gate: the planner may never make things slower.  0.95x
    # absorbs run-to-run noise when the plan degenerates to serial.
    assert speedup >= 0.95, (
        f"auto plan ({plan.strategy}, workers={plan.workers}) delivered "
        f"{speedup:.2f}x vs serial on {cpus} CPUs (floor: >= 0.95x)"
    )
    if cpus >= 4:
        # Multi-core gate: with cores to shard onto, the planner must
        # actually multiply throughput.
        assert speedup >= 2.0, (
            f"auto plan ({plan.strategy}, workers={plan.workers}) delivered "
            f"only {speedup:.2f}x on {cpus} CPUs (gate: >= 2x)"
        )
