"""Microbenchmarks of the software CRC engines (host-side timing).

Not a paper artifact — these time this library's own Python engines with
pytest-benchmark so regressions in the hot paths (table lookup, slicing,
block-matrix stepping, netlist evaluation) are visible.  The relative
ordering mirrors the algorithmic story: slicing > table > bitwise, and the
matrix engines trade Python overhead for architectural fidelity.

``test_backend_matvec_batch_speedup`` additionally gates the GF(2) backend
story: the word-packed kernel must beat the pure-Python reference backend
by at least ``BACKEND_SPEEDUP_GATE``x on the canonical 32x32 matvec batch
(B=1024), and the measured ratio is persisted to
``benchmarks/results/backend_microbench.json``.
"""

import time

import numpy as np
import pytest

from repro.crc import (
    BitwiseCRC,
    DerbyCRC,
    ETHERNET_CRC32,
    GFMACCRC,
    SlicingCRC,
    TableCRC,
)
from repro.gf2.backend import NumpyPackedBackend, ReferenceBackend
from repro.telemetry import BenchReport

PAYLOAD = bytes(np.random.default_rng(0).integers(0, 256, size=4096).tolist())
EXPECTED = BitwiseCRC(ETHERNET_CRC32).compute(PAYLOAD)


@pytest.fixture(scope="module")
def engines():
    return {
        "bitwise": BitwiseCRC(ETHERNET_CRC32),
        "table": TableCRC(ETHERNET_CRC32),
        "slicing8": SlicingCRC(ETHERNET_CRC32, 8),
        "gfmac": GFMACCRC(ETHERNET_CRC32, 64),
        "derby32": DerbyCRC(ETHERNET_CRC32, 32),
    }


@pytest.mark.parametrize("name", ["bitwise", "table", "slicing8", "gfmac", "derby32"])
def test_benchmark_engine(benchmark, engines, name):
    crc = benchmark(engines[name].compute, PAYLOAD)
    assert crc == EXPECTED


def test_benchmark_table_construction(benchmark):
    engine = benchmark(TableCRC, ETHERNET_CRC32)
    assert engine.compute(b"123456789") == 0xCBF43926


# ----------------------------------------------------------------------
# GF(2) backend gate: packed word-slicing vs the pure-Python reference on
# the canonical block kernel (32x32 matrix, 1024-stream batch).

BACKEND_MATRIX_BITS = 32
BACKEND_BATCH = 1024
BACKEND_SPEEDUP_GATE = 8.0


def _time_matvec_batch(backend, matrix, block, iterations):
    """Best-of-3 seconds per iteration; packing stays outside the loop."""
    packed = backend.pack(block)
    backend.matvec_batch(matrix, packed)  # warm-up
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(iterations):
            backend.matvec_batch(matrix, packed)
        best = min(best, (time.perf_counter() - t0) / iterations)
    return best


def test_backend_matvec_batch_speedup(save_result, save_report):
    rng = np.random.default_rng(0xBE)
    matrix = rng.integers(0, 2, size=(BACKEND_MATRIX_BITS, BACKEND_MATRIX_BITS)).astype(np.uint8)
    block = rng.integers(0, 2, size=(BACKEND_MATRIX_BITS, BACKEND_BATCH)).astype(np.uint8)

    reference = ReferenceBackend()
    packed = NumpyPackedBackend()

    # Bit-exactness first: the speedup is meaningless if the kernels differ.
    expected = reference.unpack(
        reference.matvec_batch(matrix, reference.pack(block)), BACKEND_BATCH
    )
    got = packed.unpack(packed.matvec_batch(matrix, packed.pack(block)), BACKEND_BATCH)
    assert got.tolist() == expected.tolist()

    ref_s = _time_matvec_batch(reference, matrix, block, iterations=3)
    packed_s = _time_matvec_batch(packed, matrix, block, iterations=200)
    speedup = ref_s / packed_s

    lines = [
        f"GF(2) backend microbench: {BACKEND_MATRIX_BITS}x{BACKEND_MATRIX_BITS} "
        f"matvec batch, B={BACKEND_BATCH}",
        f"  reference: {ref_s * 1e3:9.3f} ms/op",
        f"  {packed.name:9s}: {packed_s * 1e3:9.3f} ms/op",
        f"  speedup:   {speedup:9.1f}x  (gate: >= {BACKEND_SPEEDUP_GATE:.0f}x)",
    ]
    save_result("backend_microbench", "\n".join(lines))
    save_report(
        BenchReport(
            name="backend_microbench",
            title="GF(2) backend matvec-batch speedup (packed vs reference)",
            params={
                "matrix_bits": BACKEND_MATRIX_BITS,
                "batch": BACKEND_BATCH,
                "packed_backend": packed.name,
                "gate_speedup": BACKEND_SPEEDUP_GATE,
            },
            metrics={
                "reference_s_per_op": ref_s,
                "packed_s_per_op": packed_s,
                "speedup": speedup,
            },
        )
    )
    assert speedup >= BACKEND_SPEEDUP_GATE, (
        f"packed backend only {speedup:.1f}x faster than reference "
        f"(gate {BACKEND_SPEEDUP_GATE}x)"
    )
