"""repro.engine — the vectorized batch/streaming execution subsystem.

Three layers, each reusable on its own:

* :mod:`repro.engine.cache` — a bounded LRU compile cache for the linear-
  algebra artifacts every engine needs (state spaces, look-ahead systems,
  Derby transforms, byte-sliced CRC and keystream table stacks, mapped
  PiCoGA netlists),
  keyed by ``(spec, M, method)`` with hit/miss counters for the benchmark
  harness.
* :mod:`repro.engine.batch` — B independent messages per call: the batch
  CRC gathers every group of equal block count over the byte-sliced table
  stack at once, the additive scrambler gathers every stream's keystream
  blocks over the byte-sliced keystream tables at once, and the
  multiplicative scrambler runs its delay lines on bit-packed GF(2)
  kernels; the CRC keeps the head-zero-padding tail contract of
  :class:`repro.dream.system.DreamSystem`, with the init folded into each
  message's first gathered bytes.  An engine's ``M`` is the plan's
  look-ahead factor; the gather's block is the table stack's depth.
* :mod:`repro.engine.pipeline` — a chunked feed/finalize streaming API so
  long messages and many concurrent streams share the cache; CRC streams
  buffer bytes and advance through the byte table and the byte-sliced
  gather.

Every batch and streaming door takes and returns bytes; a scrambler's
message bit i is bit ``i % 8`` of byte ``i // 8``.  Bit lists stay with
the paper's bit-level engines (:class:`~repro.crc.BitwiseCRC`,
:class:`~repro.crc.LookaheadCRC`, :class:`~repro.crc.DerbyCRC`, the
single-stream scramblers and :class:`~repro.dream.DreamSystem`).
* :mod:`repro.engine.parallel` — a sharded multi-worker execution layer
  that partitions by message only: batches split across a thread pool
  (numpy kernels release the GIL), and streaming pipelines spread their
  streams over shard pipelines, each stream on the least-loaded shard
  for its whole life.
* :mod:`repro.engine.planner` — an execution planner for the batch CRC:
  it times the engine serially and sharded across the host's CPUs, and
  shards only when that measured speedup pays.
* :mod:`repro.engine.microbatch` — a continuous-batching scheduler that
  coalesces ops from many concurrent asyncio submitters into single wide
  executor calls, with planner-chosen occupancy and linger windows
  (library code: the digest server calls its pipeline inline instead).
"""

from importlib import import_module

from repro.engine.batch import (
    BatchAdditiveScrambler,
    BatchCRC,
    BatchMultiplicativeScrambler,
)
from repro.engine.cache import (
    CacheStats,
    CompileCache,
    default_cache,
    estimate_entry_bytes,
)
from repro.engine.pipeline import CRCPipeline, ScramblerPipeline

# The serve/parallel stack loads on first use (PEP 562), so a process
# that only streams CRCs never imports asyncio or concurrent.futures.
_LAZY = {
    "ParallelBatchCRC": "parallel",
    "ShardedCRCPipeline": "parallel",
    "WorkerPool": "parallel",
    "plan_shards": "parallel",
    "resolve_workers": "parallel",
    "BatcherClosed": "microbatch",
    "MicroBatcher": "microbatch",
    "MicroBatchStats": "microbatch",
    "run_ops": "microbatch",
    "submit_all": "microbatch",
    "ExecutionPlan": "planner",
    "HostProfile": "planner",
    "MicroBatchPlan": "planner",
    "Planner": "planner",
    "WorkloadDescriptor": "planner",
    "default_planner": "planner",
    "probe_host": "planner",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BatchAdditiveScrambler",
    "BatchCRC",
    "BatcherClosed",
    "BatchMultiplicativeScrambler",
    "CacheStats",
    "CompileCache",
    "CRCPipeline",
    "ExecutionPlan",
    "HostProfile",
    "MicroBatcher",
    "MicroBatchPlan",
    "MicroBatchStats",
    "ParallelBatchCRC",
    "Planner",
    "ScramblerPipeline",
    "ShardedCRCPipeline",
    "WorkerPool",
    "WorkloadDescriptor",
    "default_cache",
    "default_planner",
    "estimate_entry_bytes",
    "plan_shards",
    "probe_host",
    "resolve_workers",
    "run_ops",
    "submit_all",
]
