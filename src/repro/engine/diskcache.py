"""Content-addressed persistent compile cache.

:class:`~repro.engine.cache.CompileCache` bounds *resident* compile cost,
but every fresh process — a CLI invocation, a served benchmark run, a CI
job — still pays the full
Derby/look-ahead compilation once per spec.  :class:`DiskCompileCache`
removes that cold start: compiled artifacts are pickled under a directory
keyed by a content address (SHA-256 of the artifact kind, the spec's
canonical repr, the block factor and the cache format version), so any
process that has seen a standard before loads its matrices in
microseconds instead of recompiling them in milliseconds.

Design constraints, in order:

* **Correctness over reuse** — the content address embeds
  :data:`CACHE_VERSION`; bumping it orphans every old entry rather than
  risking a stale artifact shape.  A loaded object is *only* trusted if
  its envelope key matches the request exactly (SHA-256 collisions are
  not a practical concern, but the embedded key costs nothing to check).
* **Atomic writes** — entries are written to a same-directory temp file
  and published with :func:`os.replace`, so readers never observe a
  half-written pickle even when many workers store concurrently.
* **Corruption tolerance, not error blindness** — a truncated, garbled,
  or version-skewed entry is treated as a miss: the loader counts it on
  the ``engine_disk_cache_ops_total{result="corrupt"}`` counter, deletes
  the bad file best-effort, and lets the caller recompile.  The disk
  layer can therefore never make a result wrong, only slower.  But the
  handlers are narrowed to genuine corruption shapes: resource
  exhaustion propagates, and a store that fails with a disk-level errno
  (``ENOSPC`` / ``EDQUOT`` / ``EROFS``) re-raises instead of silently
  turning every future warm start cold (:data:`FATAL_STORE_ERRNOS`).

The directory is resolved from the explicit ``root`` argument, else the
``REPRO_CACHE_DIR`` environment variable (see :func:`default_cache_dir`);
:func:`attach_default_disk_cache` wires a directory into the process-wide
:func:`~repro.engine.cache.default_cache` so the CLI flag and environment
variable warm every engine built afterwards.
"""

from __future__ import annotations

import errno
import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Hashable, Optional, Tuple, Union

from repro.engine.cache import CACHE_DIR_ENV, default_cache_dir  # noqa: F401 (re-exported)
from repro.errors import ValidationError
from repro.telemetry import bind_families, default_registry

#: Format version embedded in every content address.  Bump on any change
#: to artifact pickling layout or key derivation; old entries become
#: unreachable (and harmless) rather than wrongly shaped.
CACHE_VERSION = 1

# Bound lazily (see repro.telemetry.bind_families) so swapping the
# default registry after import is observed.
_METRICS = bind_families(lambda reg: {
    "ops": reg.counter(
        "engine_disk_cache_ops_total",
        "Persistent compile-cache operations by result",
        labels=("result",),
    ),
})

#: Exception types that mean "this entry's bytes are garbage" — the only
#: failures :meth:`DiskCompileCache.load` may degrade to a miss.  A bare
#: ``except Exception`` here used to also swallow resource-exhaustion
#: failures (``MemoryError``-adjacent, ``OSError``) that have nothing to
#: do with entry corruption and must surface.
_CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,          # covers our own envelope-key mismatch
    KeyError,
    IndexError,
    TypeError,
    AttributeError,
    ImportError,         # artifact class moved/renamed between versions
    UnicodeDecodeError,
)

#: Exception types that mean "this value cannot be pickled" — the only
#: failures :meth:`DiskCompileCache.store` may degrade to a silent skip.
_UNPICKLABLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError, ValueError)

#: ``OSError`` errnos that indicate the disk itself failed rather than a
#: transient per-entry problem: full disk, exceeded quota, read-only
#: remount.  These re-raise from :meth:`DiskCompileCache.store` — a cache
#: that silently stops persisting on a full disk turns every warm start
#: cold with no visible cause.
FATAL_STORE_ERRNOS = frozenset(
    errno_value
    for errno_value in (
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
        errno.EROFS,
    )
    if errno_value is not None
)


class DiskCacheStats:
    """Plain counters mirrored by the telemetry series.

    Unlike the telemetry registry (which may be disabled), these always
    count, so tests and the CLI can assert on them deterministically.
    """

    __slots__ = ("_lock", "hits", "misses", "stores", "corrupt", "errors")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.errors = 0

    def record(self, result: str) -> None:
        """Count one operation outcome and publish it to telemetry."""
        with self._lock:
            setattr(self, result, getattr(self, result) + 1)
        if default_registry().enabled:
            _METRICS()["ops"].labels(result=result).inc()

    def snapshot(self) -> dict:
        """Consistent dict of all counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
                "errors": self.errors,
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return "DiskCacheStats(" + ", ".join(
            f"{k}={v}" for k, v in snap.items()
        ) + ")"


def cache_key_string(key: Hashable, version: int = CACHE_VERSION) -> str:
    """Canonical string form of an in-memory cache key.

    The in-memory :class:`~repro.engine.cache.CompileCache` keys are
    tuples of artifact kind, frozen spec dataclasses and ints; their
    ``repr`` is deterministic and embeds every field that affects the
    compile, which makes it a sound content-address preimage.
    """
    return f"repro-compile-cache/{version}|{key!r}"


class DiskCompileCache:
    """Persistent artifact store keyed by content address.

    Entries are pickled ``(key_string, value)`` envelopes named
    ``<sha256(key_string)>.pkl`` under ``root``.  All failure modes
    (unreadable directory, bad pickle, version skew, foreign files) are
    soft: :meth:`load` reports a miss and :meth:`store` gives up quietly,
    counting the outcome on :attr:`stats`.
    """

    def __init__(self, root: Union[str, Path], version: int = CACHE_VERSION):
        self._root = Path(root)
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"cannot create disk cache directory {self._root}: {exc}"
            ) from exc
        self._version = version
        self.stats = DiskCacheStats()

    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The directory entries live in."""
        return self._root

    @property
    def version(self) -> int:
        """Format version embedded in every content address."""
        return self._version

    def path_for(self, key: Hashable) -> Path:
        """The entry file a key resolves to (whether or not it exists)."""
        digest = hashlib.sha256(
            cache_key_string(key, self._version).encode()
        ).hexdigest()
        return self._root / f"{digest}.pkl"

    def __len__(self) -> int:
        return sum(1 for _ in self._root.glob("*.pkl"))

    def size_bytes(self) -> int:
        """Total bytes of entry files currently on disk."""
        total = 0
        for path in self._root.glob("*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        removed = 0
        for path in self._root.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    # ------------------------------------------------------------------
    def load(self, key: Hashable) -> Tuple[bool, Any]:
        """``(found, value)`` for a key; corruption degrades to a miss.

        A hit requires the envelope to unpickle cleanly *and* carry the
        exact key string requested — anything else deletes the entry
        (best-effort) and reports ``(False, None)``.  Only genuine
        corruption shapes (:data:`_CORRUPTION_ERRORS`) are degraded;
        resource-exhaustion failures (``MemoryError``, ``OSError`` out
        of the unpickler) propagate to the caller.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.record("misses")
            return False, None
        except OSError:
            self.stats.record("errors")
            return False, None
        try:
            envelope = pickle.loads(raw)
            stored_key, value = envelope
            if stored_key != cache_key_string(key, self._version):
                raise ValueError("envelope key mismatch")
        except _CORRUPTION_ERRORS:
            # Truncated write, garbage bytes, or a foreign/renamed file:
            # drop it so the next store rewrites a clean entry.
            self.stats.record("corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.stats.record("hits")
        return True, value

    def store(self, key: Hashable, value: Any) -> Optional[Path]:
        """Persist an artifact atomically; returns its path (None on failure).

        The temp file lives in the cache directory itself so
        :func:`os.replace` stays on one filesystem and is atomic; a
        concurrent store of the same key simply publishes last-writer-wins
        with both writers having produced identical content.

        Transient per-entry failures stay soft (counted on ``errors``,
        ``None`` returned), but a disk-level failure — full disk /
        exceeded quota / read-only filesystem, see
        :data:`FATAL_STORE_ERRNOS` — re-raises after cleanup: silently
        dropping every store on a full disk would turn warm starts cold
        with no visible cause.
        """
        path = self.path_for(key)
        envelope = (cache_key_string(key, self._version), value)
        try:
            payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        except _UNPICKLABLE_ERRORS:
            self.stats.record("errors")
            return None
        tmp_fd = None
        tmp_name = None
        try:
            tmp_fd, tmp_name = tempfile.mkstemp(
                dir=str(self._root), prefix=path.stem, suffix=".tmp"
            )
            with os.fdopen(tmp_fd, "wb") as handle:
                tmp_fd = None
                handle.write(payload)
            os.replace(tmp_name, path)
            tmp_name = None
        except OSError as exc:
            self.stats.record("errors")
            if tmp_fd is not None:
                try:
                    os.close(tmp_fd)
                except OSError:
                    pass
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            if exc.errno in FATAL_STORE_ERRNOS:
                raise
            return None
        self.stats.record("stores")
        return path

    def __repr__(self) -> str:
        return (
            f"DiskCompileCache(root={str(self._root)!r}, "
            f"version={self._version})"
        )
