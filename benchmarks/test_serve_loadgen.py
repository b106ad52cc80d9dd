"""Network service smoke gate: sustained IMIX throughput over repro.serve.

Starts an in-process :class:`~repro.serve.ReproServer` at M=1024 (the
block factor the CI serve-smoke steps run) and drives it with the IMIX
closed-loop load generator over real TCP connections.

The gate: the server must sustain >= 500 messages/s with zero protocol
errors and zero digest mismatches (every CRC checked against the
bit-serial table oracle client-side).  Latency percentiles and the
digest accuracy land in ``benchmarks/results/serve_loadgen.json`` and
fold into the ``BENCH_<n>.json`` trajectory, where ``digest_accuracy``
is regression-gated by ``tools/bench_diff.py``.
"""

import asyncio

from repro.analysis import format_table
from repro.crc import get
from repro.serve import ReproServer, run_loadgen
from repro.telemetry import BenchReport

STANDARD = "CRC-32"
M = 1024
DURATION_S = 5.0
CONNECTIONS = 4
SEED = 3
GATE_MIN_MSGS_PER_S = 500.0


async def _serve_and_drive():
    async with ReproServer(get(STANDARD), M=M, port=0) as server:
        report = await run_loadgen(
            server.host,
            server.port,
            duration_s=DURATION_S,
            connections=CONNECTIONS,
            seed=SEED,
        )
        counters = dict(server.counters)
    return report, counters


def test_serve_loadgen_gate(save_result, save_report):
    report, counters = asyncio.run(_serve_and_drive())

    checked = len(report.latencies_s)
    accuracy = (
        (checked - report.digest_mismatches) / checked if checked else 0.0
    )
    rows = [
        ["messages", f"{report.messages:,}"],
        ["bytes", f"{report.bytes:,}"],
        ["rate (msgs/s)", f"{report.msgs_per_s:,.0f}"],
        ["p50 latency (ms)", f"{report.p50_ms:.3f}"],
        ["p99 latency (ms)", f"{report.p99_ms:.3f}"],
        ["errors", f"{report.errors}"],
        ["digest mismatches", f"{report.digest_mismatches}"],
        ["server protocol errors", f"{counters['protocol_errors_total']}"],
    ]
    text = format_table(
        ["measure", "value"],
        rows,
        title=(
            f"repro.serve IMIX loadgen: {STANDARD}, M={M}, "
            f"{CONNECTIONS} connection(s), {report.duration_s:.1f}s closed loop"
        ),
    )
    save_result("serve_loadgen", text)
    save_report(
        BenchReport(
            name="serve_loadgen",
            title="Async serve layer sustained IMIX throughput",
            params={
                "standard": STANDARD,
                "M": M,
                "duration_s": DURATION_S,
                "connections": CONNECTIONS,
                "seed": SEED,
                "gate_min_msgs_per_s": GATE_MIN_MSGS_PER_S,
            },
            metrics={
                "msgs_per_s": report.msgs_per_s,
                "bytes_per_s": report.bytes_per_s,
                "p50_ms": report.p50_ms,
                "p99_ms": report.p99_ms,
                "errors": float(report.errors),
                "digest_mismatches": float(report.digest_mismatches),
                "digest_accuracy": accuracy,
            },
        )
    )

    assert report.errors == 0, f"{report.errors} client-side errors"
    assert counters["protocol_errors_total"] == 0, (
        f"{counters['protocol_errors_total']} server-side protocol errors"
    )
    assert report.digest_mismatches == 0, (
        f"{report.digest_mismatches} digests disagreed with the "
        "bit-serial oracle"
    )
    assert report.msgs_per_s >= GATE_MIN_MSGS_PER_S, (
        f"sustained only {report.msgs_per_s:.0f} msgs/s "
        f"(gate: >= {GATE_MIN_MSGS_PER_S:.0f})"
    )
