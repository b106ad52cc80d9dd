"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``standards``
    List the CRC standards in the catalog (name, width, polynomial, check).
``crc``
    Compute a CRC over hex/file/string input with any engine.
``map``
    Compile a CRC onto PiCoGA and print the placement report.
``explore``
    Sweep look-ahead factors for a standard (the paper's §4 study).
``perf``
    Predict DREAM throughput for a message length across factors.
``batch-bench``
    Time the vectorized batch engine against the per-message Derby loop.
``fuzz``
    Cross-check every engine against its bit-serial oracle on seeded
    random cases.
``keystream``
    Emit keystream bytes from a word-oriented or bit-serial LFSR.
``stats``
    Dump the telemetry registry as JSON, JSON lines, Prometheus text or
    a Chrome trace (``--format chrome``); ``--spans`` prints the
    recorded span tree instead.
``serve``
    Run the async digest server: many client connections multiplexed
    onto one shared pipeline on the event loop (``-m`` sets its block
    factor); SIGTERM drains gracefully.
``loadgen``
    Replay an IMIX frame-size mix against a running server and report
    msgs/s + p50/p99 latency, verifying every digest against a serial
    oracle (``--min-msgs-per-s`` turns it into a gate).
``dump``
    Print the flight-recorder event ring (live, or a dump saved by an
    earlier ``--telemetry`` run).

``crc``, ``perf`` and ``batch-bench`` accept ``--telemetry``: the run is
traced, a span-tree summary prints afterwards, the metrics registry and
span trees are snapshotted to ``$REPRO_TELEMETRY_PATH`` (default
``.repro-telemetry.jsonl``) where a later ``stats`` invocation finds
them, and the flight-recorder ring is saved to ``$REPRO_FLIGHTREC_PATH``
(default ``.repro-flightrec.jsonl``) for ``dump``.

Counts (``--batch``, ``--repeats``, ``--cases``, ...), sizes (``--bytes``,
``--bits``) and look-ahead factors (``-m``, ``--factors``) below 1, a
negative ``batch-bench --bytes`` and a ``--seconds`` budget that is not
positive are usage errors: argparse rejects them with exit status 2
before anything runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.crc import (
    BitwiseCRC,
    CATALOG,
    DerbyCRC,
    GFMACCRC,
    SlicingCRC,
    TableCRC,
    get,
)

def _batch_engine(spec):
    from repro.engine import BatchCRC

    return BatchCRC(spec, 32)


ENGINES = {
    "bitwise": BitwiseCRC,
    "table": TableCRC,
    "slicing": lambda spec: SlicingCRC(spec, 8),
    "gfmac": lambda spec: GFMACCRC(spec, 32),
    "derby": lambda spec: DerbyCRC(spec, 32),
    "batch": _batch_engine,
}


def _read_payload(args: argparse.Namespace) -> bytes:
    if args.hex is not None:
        return bytes.fromhex(args.hex)
    if args.file is not None:
        with open(args.file, "rb") as handle:
            return handle.read()
    if args.text is not None:
        return args.text.encode()
    return b"123456789"  # the standard check input


def cmd_standards(args: argparse.Namespace) -> int:
    rows = [
        [s.name, s.width, f"0x{s.poly:X}", "yes" if s.refin else "no",
         f"0x{s.check:X}" if s.check is not None else "-"]
        for s in CATALOG
    ]
    print(format_table(["name", "width", "poly", "reflected", "check"], rows,
                       title=f"{len(CATALOG)} cataloged CRC standards"))
    return 0


def cmd_crc(args: argparse.Namespace) -> int:
    spec = get(args.standard)
    engine = ENGINES[args.engine](spec)
    payload = _read_payload(args)
    crc = engine.compute(payload)
    digits = (spec.width + 3) // 4
    print(f"{spec.name}({len(payload)} bytes) = 0x{crc:0{digits}X}")
    if args.verify is not None:
        expected = int(args.verify, 0)
        ok = crc == expected
        print("verify: OK" if ok else f"verify: MISMATCH (expected 0x{expected:X})")
        return 0 if ok else 1
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    from repro.mapping import map_crc
    from repro.picoga.report import describe

    spec = get(args.standard)
    mapped = map_crc(spec, args.m, method=args.method)
    r = mapped.report
    print(
        f"{spec.name} @ M={r.M} ({r.method}): {r.total_cells} cells, "
        f"II={r.update_ii}, CSE saved {r.cse_savings} taps "
        f"({r.shared_patterns} shared patterns)"
    )
    if args.report:
        print()
        print(describe(mapped.update_op))
        if mapped.output_op is not None:
            print()
            print(describe(mapped.output_op))
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.mapping import DesignSpaceExplorer

    explorer = DesignSpaceExplorer(get(args.standard))
    rows = []
    for point in explorer.sweep(tuple(args.factors)):
        if point.feasible:
            rows.append([point.M, point.cells, point.rows,
                         point.initiation_interval, f"{point.kernel_gbps:.1f}"])
        else:
            rows.append([point.M, "-", "-", "-", "infeasible"])
    print(format_table(["M", "cells", "rows", "II", "kernel Gbit/s"], rows,
                       title=f"Design space: {args.standard}"))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.dream import DreamSystem

    system = DreamSystem()
    rows = []
    for M in args.factors:
        mapped = system.compile_crc(get(args.standard), M)
        single = system.crc_single_performance(mapped, args.bits)
        batch = system.crc_interleaved_performance(mapped, args.bits, 32)
        rows.append([M, single.total_cycles, f"{single.throughput_gbps:.2f}",
                     f"{batch.throughput_gbps:.2f}"])
    print(format_table(
        ["M", "cycles", "single Gbit/s", "interleaved-32 Gbit/s"], rows,
        title=f"{args.standard}, {args.bits}-bit messages on DREAM",
    ))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.crc.properties import generator_report

    names = args.standards or [s.name for s in CATALOG if s.width <= 32]
    rows = []
    for name in names:
        r = generator_report(get(name))
        rows.append(
            [r.name, r.width,
             "+".join(str(d) for d in r.factor_degrees),
             "yes" if r.primitive else "no",
             "yes" if r.has_parity_factor else "no",
             r.period]
        )
    print(format_table(
        ["standard", "width", "factor degrees", "primitive", "parity", "period"],
        rows,
        title="Generator structure (factorization over GF(2))",
    ))
    return 0


def cmd_batch_bench(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.engine import BatchCRC, default_cache

    spec = get(args.standard)
    rng = np.random.default_rng(args.seed)
    messages = [
        bytes(rng.integers(0, 256, size=args.bytes).tolist()) for _ in range(args.batch)
    ]
    cache = default_cache()

    derby = DerbyCRC(spec, args.m)
    sample = messages[: min(args.baseline_sample, len(messages))]
    t0 = time.perf_counter()
    expected = [derby.compute(m) for m in sample]
    loop_rate = len(sample) / (time.perf_counter() - t0)

    engine = BatchCRC(spec, args.m)
    engine.compute_batch(messages[:2])  # warm the compile cache and numpy
    best = float("inf")
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        crcs = engine.compute_batch(messages)
        best = min(best, time.perf_counter() - t0)
    batch_rate = len(messages) / best

    if crcs[: len(sample)] != expected:
        print("MISMATCH: batch engine disagrees with DerbyCRC")
        return 1
    rows = [
        [f"DerbyCRC loop (x{len(sample)})", f"{loop_rate:,.0f}", "1.0x"],
        [
            f"BatchCRC (B={args.batch})",
            f"{batch_rate:,.0f}",
            f"{batch_rate / loop_rate:.1f}x",
        ],
    ]
    print(format_table(
        ["engine", "messages/s", "speedup"], rows,
        title=f"{spec.name}, {args.bytes}-byte messages, M={args.m}",
    ))
    stats = cache.stats
    print(f"compile cache: {stats.hits} hits / {stats.misses} misses "
          f"({stats.hit_rate:.0%} hit rate, {len(cache)}/{cache.capacity} entries)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.telemetry import (
        default_registry,
        default_tracer,
        format_span_tree,
        read_json_lines,
        read_spans,
        render_chrome_trace,
        render_prometheus,
        to_json_lines,
    )
    from repro.telemetry.export import default_snapshot_path

    path = Path(args.input) if args.input else default_snapshot_path()
    if path.exists():
        registry = read_json_lines(path)
        spans = read_spans(path)
    else:
        # No snapshot on disk: fall back to this process's live state.
        registry = default_registry()
        spans = default_tracer().roots()
    if getattr(args, "spans", False):
        print(format_span_tree(spans))
        return 0
    if args.format == "prometheus":
        text = render_prometheus(registry)
        print(text if text else "# (no metrics recorded)")
    elif args.format == "jsonl":
        print(to_json_lines(registry), end="")
    elif args.format == "chrome":
        print(render_chrome_trace(spans), end="")
    else:
        print(_json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.telemetry import (
        FlightRecorder,
        default_dump_path,
        default_flight_recorder,
        format_events,
    )

    path = Path(args.input) if args.input else default_dump_path()
    if path.exists():
        events = FlightRecorder.load(path)
        if args.limit is not None:
            events = events[-args.limit:]
    else:
        # No dump on disk: fall back to this process's live recorder.
        events = default_flight_recorder().events(limit=args.limit)
    if args.format == "json":
        print(_json.dumps(events, indent=2, sort_keys=True, default=str))
    else:
        print(format_events(events))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import run_fuzz

    seconds = args.seconds
    if seconds is None and args.cases is None:
        seconds = 5.0
    report = run_fuzz(
        seed=args.seed,
        seconds=seconds,
        max_cases=args.cases,
        max_failures=args.max_failures,
        shrink_failures=not args.no_shrink,
    )
    for line in report.summary_lines():
        print(line)
    if args.json:
        report.save(args.json)
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def cmd_keystream(args: argparse.Namespace) -> int:
    import json as _json

    from repro.gf2.polynomial import GF2Polynomial
    from repro.lfsr.reference import GaloisLFSR
    from repro.lfsr.wordlfsr import WordLFSR, WordLFSRReference
    from repro.lfsr.wordlfsr import get as get_wordspec
    from repro.lfsr.wordlfsr import seed_words_from_bytes

    nbytes = args.bytes
    material = args.seed.encode()
    if args.source == "galois-bitserial":
        # The PRBS-31 generator, MSB-first bits packed to bytes — the
        # bit-serial baseline the word engines are gated against.
        poly = GF2Polynomial.from_exponents([31, 28, 0])
        seed_int = int.from_bytes(material, "big") % ((1 << 31) - 1) + 1
        bits = GaloisLFSR(poly, seed_int).keystream(8 * nbytes)
        data = bytes(
            int("".join(map(str, bits[i:i + 8])), 2)
            for i in range(0, len(bits), 8)
        )
    else:
        wspec = get_wordspec(args.source)
        seed = seed_words_from_bytes(wspec, material)
        data = WordLFSR(wspec, seed).keystream_bytes(nbytes)
        if args.verify:
            check = min(nbytes, 64)
            want = WordLFSRReference(wspec, seed).keystream_bytes(check)
            if data[:check] != want:
                print(f"VERIFY FAILED: fast engine diverges from the "
                      f"state-matrix reference within {check} bytes")
                return 1
            print(f"verified: first {check} bytes match the bit-serial "
                  f"state-matrix reference")
    print(data.hex())
    if args.json:
        payload = {"source": args.source, "bytes": nbytes, "hex": data.hex()}
        with open(args.json, "w") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"keystream report written to {args.json}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.serve import ReproServer
    from repro.serve.server import DEFAULT_M
    from repro.telemetry.export import TELEMETRY_PATH_ENV
    from repro.telemetry.flightrec import FLIGHTREC_PATH_ENV

    spec = get(args.standard)
    telemetry_path = args.telemetry_snapshot or os.environ.get(TELEMETRY_PATH_ENV)
    flightrec_path = args.flight_dump or os.environ.get(FLIGHTREC_PATH_ENV)
    server = ReproServer(
        spec,
        M=DEFAULT_M if args.m is None else args.m,
        host=args.host,
        port=args.port,
        drain_timeout_s=args.drain_timeout,
        telemetry_path=telemetry_path,
        flightrec_path=flightrec_path,
    )

    async def run_server() -> None:
        await server.start()
        print(
            f"serving {spec.name} on {server.host}:{server.port} "
            f"(M={server.pipeline.M}) — SIGTERM drains gracefully",
            flush=True,
        )
        server.install_signal_handlers()
        if args.drain_after is not None:
            await asyncio.sleep(args.drain_after)
            server.request_drain()
        await server.serve_until_closed()
        print(
            f"drained: {server.counters['digests_total']} digests served, "
            f"{server.counters['protocol_errors_total']} protocol errors",
            flush=True,
        )

    asyncio.run(run_server())
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json

    from repro.serve import run_loadgen

    report = asyncio.run(run_loadgen(
        args.host,
        args.port,
        duration_s=args.duration,
        connections=args.connections,
        seed=args.seed,
        chunk_bytes=args.chunk_bytes,
    ))
    for line in report.describe():
        print(line)
    if args.json:
        with open(args.json, "w") as handle:
            _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    healthy = report.errors == 0 and report.digest_mismatches == 0
    if args.min_msgs_per_s is not None and report.msgs_per_s < args.min_msgs_per_s:
        print(
            f"FAIL: {report.msgs_per_s:,.0f} msgs/s below the "
            f"{args.min_msgs_per_s:,.0f} msgs/s floor"
        )
        healthy = False
    return 0 if healthy else 1


def _run_with_telemetry(args: argparse.Namespace) -> int:
    """Enable metrics + tracing + flight recording, run the command, print
    the span tree and persist the snapshot and event ring for later
    ``stats`` / ``dump`` invocations."""
    from repro.telemetry import (
        default_dump_path,
        default_flight_recorder,
        default_registry,
        default_tracer,
        format_span_tree,
        write_json_lines,
    )
    from repro.telemetry.export import default_snapshot_path

    registry, tracer = default_registry(), default_tracer()
    recorder = default_flight_recorder()
    registry.enable()
    tracer.enable()
    recorder.enable()
    with tracer.span(f"cli.{args.command}"):
        rc = args.func(args)
    print("\ntelemetry spans:")
    print(format_span_tree(tracer.roots()))
    path = write_json_lines(registry, default_snapshot_path(), tracer=tracer)
    print(f"telemetry: metrics snapshot written to {path}")
    if len(recorder):
        dump = recorder.save(default_dump_path())
        print(f"telemetry: flight-recorder dump written to {dump}")
    return rc


def _count(text: str) -> int:
    """argparse type for a count, size or factor: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _size(text: str) -> int:
    """argparse type for a size that may be empty: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _seconds(text: str) -> float:
    """argparse type for a time budget: a positive number of seconds."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel LFSR applications on the DREAM/PiCoGA model (DATE 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("standards", help="list cataloged CRC standards").set_defaults(
        func=cmd_standards
    )

    p = sub.add_parser("crc", help="compute a CRC")
    p.add_argument("--standard", default="CRC-32")
    p.add_argument("--engine", choices=sorted(ENGINES), default="table")
    p.add_argument("--hex", help="payload as hex digits")
    p.add_argument("--file", help="payload from a file")
    p.add_argument("--text", help="payload as UTF-8 text")
    p.add_argument("--verify", help="expected CRC (exit 1 on mismatch)")
    p.add_argument("--telemetry", action="store_true",
                   help="trace the run and snapshot the metrics registry")
    p.set_defaults(func=cmd_crc)

    p = sub.add_parser("map", help="compile a CRC onto PiCoGA")
    p.add_argument("--standard", default="CRC-32")
    p.add_argument("-m", "--m", type=_count, default=128, help="look-ahead factor")
    p.add_argument("--method", choices=("derby", "direct"), default="derby")
    p.add_argument("--report", action="store_true", help="print the placement report")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("explore", help="sweep look-ahead factors")
    p.add_argument("--standard", default="CRC-32")
    p.add_argument("--factors", type=_count, nargs="+", default=[8, 16, 32, 64, 128, 256])
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("analyze", help="factor and characterize CRC generators")
    p.add_argument("--standards", nargs="*", help="catalog names (default: all <= 32 bit)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("perf", help="predict DREAM throughput")
    p.add_argument("--standard", default="CRC-32")
    p.add_argument("--bits", type=_count, default=12144)
    p.add_argument("--factors", type=_count, nargs="+", default=[32, 64, 128])
    p.add_argument("--telemetry", action="store_true",
                   help="trace the run and snapshot the metrics registry")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("batch-bench", help="time the vectorized batch engine")
    p.add_argument("--standard", default="CRC-32")
    p.add_argument("-m", "--m", type=_count, default=32, help="look-ahead factor")
    p.add_argument("--batch", type=_count, default=1024, help="messages per batch")
    p.add_argument("--bytes", type=_size, default=64, help="message size in bytes")
    p.add_argument("--baseline-sample", type=_count, default=32,
                   help="messages timed through the per-message Derby loop")
    p.add_argument("--repeats", type=_count, default=3, help="batch timing repeats")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--telemetry", action="store_true",
                   help="trace the run and snapshot the metrics registry")
    p.set_defaults(func=cmd_batch_bench)

    p = sub.add_parser(
        "fuzz", help="cross-check all engines with differential fuzzing"
    )
    p.add_argument("--seconds", type=_seconds, default=None,
                   help="wall-clock budget (default: 5s unless --cases given)")
    p.add_argument("--cases", type=_count, default=None,
                   help="case budget (combined with --seconds: first exhausted wins)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed; same seed + --cases replays exactly")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable report to PATH")
    p.add_argument("--max-failures", type=_count, default=5,
                   help="stop after this many confirmed mismatches")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip minimizing failing cases")
    p.add_argument("--telemetry", action="store_true",
                   help="trace the run and snapshot the metrics registry")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "keystream",
        help="generate keystream bytes from a word-oriented or bit-serial LFSR",
    )
    p.add_argument("--source",
                   choices=("word8", "word32", "word64", "galois-bitserial"),
                   default="word64",
                   help="keystream engine (default: word64, one 64-bit word "
                   "per step)")
    p.add_argument("--bytes", type=_count, default=64,
                   help="keystream bytes to emit")
    p.add_argument("--seed", default="repro",
                   help="seed material (stretched across the register words)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the fast word engine against the "
                   "bit-serial state-matrix reference")
    p.add_argument("--json", metavar="PATH",
                   help="write source, byte count and hex keystream to PATH")
    p.set_defaults(func=cmd_keystream)

    p = sub.add_parser("stats", help="dump the telemetry registry")
    p.add_argument(
        "--format", choices=("json", "jsonl", "prometheus", "chrome"), default="json",
        help="json = pretty snapshot, jsonl = lossless snapshot lines, "
        "prometheus = text exposition, chrome = trace-event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    p.add_argument("--spans", action="store_true",
                   help="print the recorded span tree instead of metrics")
    p.add_argument("--input", help="metrics snapshot to read "
                   "(default: $REPRO_TELEMETRY_PATH or .repro-telemetry.jsonl)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve", help="run the async digest server (repro.serve front door)"
    )
    p.add_argument("--standard", default="CRC-32")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7326,
                   help="listen port (0 = ephemeral)")
    p.add_argument("-m", "--m", type=_count, default=None,
                   help="pipeline block factor (default: 128)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for open streams on drain")
    p.add_argument("--drain-after", type=float, default=None, metavar="S",
                   help="self-drain after S seconds (CI smoke runs)")
    p.add_argument("--telemetry-snapshot", default=None, metavar="PATH",
                   help="write a metrics snapshot here on drain "
                        "(default: $REPRO_TELEMETRY_PATH if set)")
    p.add_argument("--flight-dump", default=None, metavar="PATH",
                   help="write the flight-recorder ring here on drain "
                        "(default: $REPRO_FLIGHTREC_PATH if set)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen", help="replay an IMIX frame mix against a running server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7326)
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds of sustained load")
    p.add_argument("--connections", type=int, default=4,
                   help="concurrent client connections")
    p.add_argument("--seed", type=int, default=0,
                   help="message-population seed (reproducible)")
    p.add_argument("--chunk-bytes", type=int, default=0,
                   help="split each message into feeds of this size")
    p.add_argument("--min-msgs-per-s", type=float, default=None,
                   help="exit 1 if the sustained rate falls below this floor")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable report to PATH")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("dump", help="print the flight-recorder event ring")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="only the newest N events")
    p.add_argument("--input", help="event dump to read "
                   "(default: $REPRO_FLIGHTREC_PATH or .repro-flightrec.jsonl)")
    p.set_defaults(func=cmd_dump)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "telemetry", False):
        return _run_with_telemetry(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
