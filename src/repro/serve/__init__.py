"""repro.serve — the async network service layer over the engines.

Everything below this package runs in-process: the CRC engines, the
streaming pipelines, the batch kernels.  This package is the network
front door: a long-running asyncio server that multiplexes many client
connections onto one shared :class:`~repro.engine.pipeline.CRCPipeline`,
exactly the shape the paper's datapath has — a fixed parallel LFSR kept
saturated by many independent message streams arriving interleaved off
the wire.

* :mod:`repro.serve.protocol` — the framed, length-prefixed JSON+binary
  wire format and its verbs (``open-stream`` / ``feed-chunk`` /
  ``read-digest`` / ``close-stream`` / ``stats``).
* :mod:`repro.serve.server` — :class:`ReproServer`: connection
  multiplexing, per-connection backpressure tied to the pipeline's
  pending-bits gauges, and graceful drain (finish open streams, refuse
  new ones, flush a final telemetry snapshot + flight-recorder dump).
* :mod:`repro.serve.client` — :class:`ServeClient`, the asyncio client
  library (also the mock client the tests and load generator use).
* :mod:`repro.serve.loadgen` — an IMIX-style load generator replaying a
  realistic frame-size mix and reporting msgs/s + p50/p99 latency.

The protocol is deliberately workload-agnostic — verbs name streams and
digests, not CRCs — so future parallel binary machines (scramblers,
NLFSR keystream generators; see ROADMAP item 5) can serve through the
same front door.  ``python -m repro serve`` / ``python -m repro
loadgen`` are the command-line surface; the tour lives in
``docs/SERVE.md``.
"""

from repro.serve.client import ServeClient
from repro.serve.loadgen import IMIX_MIX, LoadgenReport, run_loadgen
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    encode_frame_parts,
    read_frame,
    write_frame,
)
from repro.serve.server import ReproServer

__all__ = [
    "IMIX_MIX",
    "LoadgenReport",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ReproServer",
    "ServeClient",
    "decode_frame",
    "encode_frame",
    "encode_frame_parts",
    "read_frame",
    "run_loadgen",
    "write_frame",
]
