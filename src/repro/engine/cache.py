"""Bounded LRU compile cache for LFSR engine artifacts.

Every parallel engine in this library starts from the same expensive
compiles: the state-space quadruple, the M-level look-ahead expansion, the
Derby change of basis (a Krylov basis plus a GF(2) inversion) and — for the
co-simulation path — the mapped PiCoGA netlists (CSE + packing + routing).
At production batch sizes these dominate end-to-end latency whenever a spec
is seen for the first time, and they are pure functions of
``(spec, M, method)``; :class:`CompileCache` memoizes them behind one
bounded LRU so repeated specs recompile at dictionary-lookup cost.

The cache is deliberately generic (``get(key, builder)``) with typed
helpers for each artifact family, and it counts hits, misses and
evictions once, under its own lock: :class:`CacheStats` and the
registry's counters read the same counts, so the benchmark harness can
assert near-zero recompile cost.
Residency is bounded two ways: by entry count (``capacity``) and — since
artifact cost scales with matrix area, not count — by an estimated byte
budget (``max_bytes``, see :func:`estimate_entry_bytes`), which the
``engine_compile_cache_bytes`` gauge reads from every live cache.  Nothing
persists across processes: the artifacts the served and batch engines
use (the byte-sliced CRC and keystream table stacks) build in a few
milliseconds.

A module-level :func:`default_cache` instance is shared by
:class:`~repro.engine.batch.BatchCRC`, the streaming pipelines and
:class:`~repro.dream.system.DreamSystem`'s analytic mode, so heterogeneous
workloads touching the same standards share one compile.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

import numpy as np

from repro.crc.slicing import SLICE_DEPTH, build_slicing_tables
from repro.crc.spec import CRCSpec
from repro.errors import CompileError, ReproError, ValidationError
from repro.gf2.matrix import GF2Matrix
from repro.lfsr.lookahead import LookaheadSystem, expand_lookahead
from repro.lfsr.slicing import build_scrambler_tables
from repro.lfsr.statespace import LFSRStateSpace, crc_statespace
from repro.lfsr.transform import DerbyTransform, derby_transform
from repro.scrambler.specs import ScramblerSpec
from repro.telemetry import (
    Owners,
    bind_families,
    default_flight_recorder,
    default_registry,
)

def _cache_families(reg) -> Owners:
    """Bind the cache families to the live caches; returns their Owners."""
    caches = Owners()
    reg.gauge(
        "engine_compile_cache_entries", "Compiled artifacts resident across caches"
    ).bind(lambda: caches.sum(len))
    reg.gauge(
        "engine_compile_cache_bytes",
        "Estimated bytes of compiled artifacts resident across caches",
    ).bind(lambda: caches.sum(lambda cache: cache.size_bytes))
    lookups = reg.counter(
        "engine_compile_cache_lookups_total",
        "Compile-cache lookups by result",
        labels=("result",),
    )
    for result in ("hit", "miss"):
        lookups.labels(result=result).bind(lambda result=result: caches.total(result))
    reg.counter(
        "engine_compile_cache_evictions_total", "Compile-cache LRU evictions"
    ).bind(lambda: caches.total("evictions"))
    return caches


# Bound lazily (see repro.telemetry.bind_families) so swapping the
# default registry after import is observed by every family above.
_CACHES = bind_families(_cache_families)

def estimate_entry_bytes(value: Any) -> int:
    """Estimated resident cost of one cached artifact, in bytes.

    Matrix-bearing artifacts dominate the cache, and their true cost
    scales with matrix area (an M=256 Derby transform is ~64x an M=32
    one), so entry-count capacity alone misrepresents residency.  The
    estimate walks the known artifact shapes — GF(2) matrices at one
    byte per stored entry (the uint8 backing array), numpy arrays at
    ``nbytes``, dataclasses/containers recursively — and floors at 64
    bytes of fixed per-object overhead.
    """
    return max(64, _estimate(value, depth=0))


def _estimate(value: Any, depth: int) -> int:
    """Recursive core of :func:`estimate_entry_bytes` (bounded depth)."""
    if depth > 4 or value is None:
        return 0
    if isinstance(value, GF2Matrix):
        return value.nrows * value.ncols  # uint8 entries
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bool, float)):
        return 8
    if isinstance(value, int):
        return max(8, (value.bit_length() + 7) // 8)
    if isinstance(value, (str, bytes)):
        return len(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            _estimate(getattr(value, f.name), depth + 1)
            for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return sum(_estimate(v, depth + 1) for v in value)
    if isinstance(value, dict):
        return sum(_estimate(v, depth + 1) for v in value.values())
    return 64


class CacheStats:
    """A read-only view of one cache's counts, for benchmarks and capacity
    tuning.

    The cache bumps one counts dict under its own lock, and the registry's
    ``engine_compile_cache_lookups_total`` / ``_evictions_total`` series
    read the same dict, so the two cannot disagree.  Counts only grow:
    :meth:`CompileCache.clear` keeps them.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: dict):
        self._counts = counts

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._counts["hit"]

    @property
    def misses(self) -> int:
        """Lookups that had to run the builder."""
        return self._counts["miss"]

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU policy."""
        return self._counts["evictions"]

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        snap = self.snapshot()
        return snap["hits"] + snap["misses"]

    @property
    def hit_rate(self) -> float:
        """hits / lookups (0.0 when never used)."""
        snap = self.snapshot()
        lookups = snap["hits"] + snap["misses"]
        return snap["hits"] / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        """Consistent ``{hits, misses, evictions}`` dict."""
        counts = dict(self._counts)  # one C-level copy
        return {
            "hits": counts["hit"],
            "misses": counts["miss"],
            "evictions": counts["evictions"],
        }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"CacheStats(hits={snap['hits']}, misses={snap['misses']}, "
            f"evictions={snap['evictions']})"
        )


class CompileCache:
    """Bounded LRU cache over ``(artifact kind, spec, M, method)`` keys.

    Thread-safe: a single lock guards the LRU order and the counts.  The
    builders themselves run outside the lock, so two threads racing on the
    same cold key may both compile — but the *first* insert wins and the
    loser's artifact is discarded, preserving the same-object identity
    guarantee that :meth:`mapped_crc` documents (a
    :class:`~repro.picoga.array.PicogaArray` must resolve repeated loads
    to the identical netlist object, like the hardware configuration
    cache serving one bitstream).  The ``engine_compile_cache_entries`` and
    ``engine_compile_cache_bytes`` gauges read ``len(cache)`` and
    :attr:`size_bytes` of every live cache when the registry is read, and
    the lookup and eviction counters read the counts :attr:`stats` views.
    """

    def __init__(
        self,
        capacity: int = 64,
        max_bytes: Optional[int] = None,
    ):
        if capacity < 1:
            raise ValidationError("cache capacity must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError("cache max_bytes must be >= 1")
        self._capacity = capacity
        self._max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._costs: dict = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self._counts = {"hit": 0, "miss": 0, "evictions": 0}
        self.stats = CacheStats(self._counts)
        if default_registry().enabled:
            _CACHES().add(self, self._counts)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of cached artifacts."""
        return self._capacity

    @property
    def max_bytes(self) -> Optional[int]:
        """Byte budget for resident artifacts (``None`` = unbounded)."""
        return self._max_bytes

    @property
    def size_bytes(self) -> int:
        """Estimated bytes of resident artifacts (see
        :func:`estimate_entry_bytes`)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        """Current keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every resident entry; :attr:`stats` keeps its counts."""
        with self._lock:
            self._entries.clear()
            self._costs.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    def _insert(self, key: Hashable, value: Any) -> Any:
        """Insert under the lock; returns the resident value.

        The first insert wins any cold-key race, preserving same-object
        identity for every caller; the byte estimate and both budget
        bounds (entry count and ``max_bytes``) are enforced here.
        """
        with self._lock:
            if key in self._entries:
                # Another thread populated the same cold key first; keep
                # its artifact so every caller holds the identical object.
                self._entries.move_to_end(key)
                return self._entries[key]
            cost = estimate_entry_bytes(value)
            self._entries[key] = value
            self._costs[key] = cost
            self._bytes += cost
            while len(self._entries) > self._capacity or (
                self._max_bytes is not None
                and self._bytes > self._max_bytes
                and len(self._entries) > 1
            ):
                evicted_key, _ = self._entries.popitem(last=False)
                evicted_cost = self._costs.pop(evicted_key, 0)
                self._bytes -= evicted_cost
                self._counts["evictions"] += 1
        return value

    def get(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``key``, compiling on first use.

        Builder failures are reported as
        :class:`~repro.errors.CompileError` (library-typed errors pass
        through unchanged); nothing is cached on failure.
        """
        with self._lock:
            if key in self._entries:
                self._counts["hit"] += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._counts["miss"] += 1
        try:
            value = builder()
        except ReproError:
            raise
        except Exception as exc:
            raise CompileError(f"compiling cache entry {key!r} failed: {exc}") from exc
        recorder = default_flight_recorder()
        if recorder.enabled:
            family = key[0] if isinstance(key, tuple) and key else "artifact"
            recorder.record("compile", f"built cache entry {family}", artifact=str(family))
        return self._insert(key, value)

    # ------------------------------------------------------------------
    # Typed helpers — one per artifact family
    # ------------------------------------------------------------------
    def crc_statespace(self, spec: CRCSpec) -> LFSRStateSpace:
        """State-space realization of a CRC generator, cached."""
        return self.get(("statespace", spec), lambda: crc_statespace(spec.generator()))

    def lookahead(self, spec: CRCSpec, M: int) -> LookaheadSystem:
        """M-level look-ahead expansion for a CRC, cached."""
        return self.get(
            ("lookahead", spec, M),
            lambda: expand_lookahead(self.crc_statespace(spec), M),
        )

    def derby(self, spec: CRCSpec, M: int) -> DerbyTransform:
        """Derby transform for a CRC at factor M, cached."""
        return self.get(
            ("derby", spec, M),
            lambda: derby_transform(self.crc_statespace(spec), M),
        )

    def slicing_tables(self, spec: CRCSpec) -> np.ndarray:
        """The :data:`~repro.crc.slicing.SLICE_DEPTH`-row table stack of
        :class:`~repro.crc.slicing.ByteSlicedCRC` for a CRC, cached (256 KiB
        for a 32-bit spec), so every pipeline and shard shares one copy."""
        return self.get(
            ("slicing-tables", spec),
            lambda: build_slicing_tables(spec, SLICE_DEPTH),
        )

    def scrambler_tables(self, spec: ScramblerSpec) -> Tuple[np.ndarray, np.ndarray]:
        """The :data:`~repro.lfsr.slicing.SLICE_DEPTH`-byte keystream table
        stack of :class:`~repro.lfsr.slicing.ByteSlicedScrambler` for an
        additive scrambler, cached per generator polynomial (128 KiB for
        the 15-bit 802.16e register), so every batch engine and pipeline
        shares one copy."""
        return self.get(
            ("scrambler-tables", spec.poly),
            lambda: build_scrambler_tables(spec.poly, SLICE_DEPTH),
        )

    def mapped_crc(self, spec: CRCSpec, M: int, method: str = "derby", arch=None):
        """The compiled PiCoGA netlists for a CRC (see ``mapping.map_crc``).

        The returned :class:`~repro.mapping.mapper.MappedCRC` is the *same
        object* on every hit, so a :class:`~repro.picoga.array.PicogaArray`
        loading it resolves to the identical netlist — configuration reuse
        in the model mirrors configuration-cache reuse in the hardware.
        """
        from repro.mapping.mapper import map_crc
        from repro.picoga.architecture import DREAM_PICOGA

        arch = arch or DREAM_PICOGA
        return self.get(
            ("mapped-crc", spec, M, method, arch),
            lambda: map_crc(spec, M, method=method, arch=arch),
        )

    def mapped_scrambler(self, spec: ScramblerSpec, M: int, arch=None):
        """Compiled PiCoGA netlists for a scrambler, cached."""
        from repro.mapping.mapper import map_scrambler
        from repro.picoga.architecture import DREAM_PICOGA

        arch = arch or DREAM_PICOGA
        return self.get(
            ("mapped-scrambler", spec, M, arch),
            lambda: map_scrambler(spec, M, arch=arch),
        )

    def init_fold(self, spec: CRCSpec, n_bits: int) -> int:
        """``init * x^n_bits mod G`` — the linear correction that folds the
        spec's preset back into a register computed from a zero start."""
        from repro.gf2.clmul import clmulmod, clpowmod

        if spec.init == 0:
            return 0
        g = spec.generator().coeffs
        return self.get(
            ("init-fold", spec, n_bits),
            lambda: clmulmod(spec.init, clpowmod(2, n_bits, g), g),
        )


_DEFAULT = CompileCache(capacity=128)


def default_cache() -> CompileCache:
    """The process-wide shared compile cache."""
    return _DEFAULT
