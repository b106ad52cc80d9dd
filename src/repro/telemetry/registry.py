"""Thread-safe metrics registry: Counter / Gauge / Histogram with labels.

The runtime's hot paths (batch kernels, streaming pipelines, the compile
cache, DREAM executed mode) publish into one process-wide
:class:`MetricsRegistry` so a single exporter pass can answer "what has
this process done" — the software counterpart of the cycle ledgers the
PiCoGA model keeps per array.  Design constraints, in order:

* **zero dependencies** — stdlib only, importable from anywhere in the
  package without cycles;
* **near-zero overhead when disabled** — every mutating call checks one
  boolean attribute and returns, so instrumented code pays a branch, not
  a lock, when telemetry is off;
* **bounded label cardinality** — each metric family caps its distinct
  label sets (default :data:`MAX_LABEL_SETS`); once full, unseen label
  sets collapse into a shared ``__overflow__`` child and are counted in
  ``dropped_label_sets`` rather than growing memory without bound;
* **pull, don't push** — a value that lives in an object is not
  mirrored: its series is bound to a reader (usually over
  :class:`Owners`) and read when the registry is read.

A family's *declared* label names are a floor, not a ceiling:
:meth:`MetricFamily.sample` accepts label sets carrying extra
dimensions, Prometheus-style, so a snapshot restores whatever label
sets it holds.

Naming follows Prometheus conventions (counters end in ``_total``,
histograms get ``_bucket``/``_sum``/``_count`` series at export time) so
:func:`repro.telemetry.export.render_prometheus` is a direct rendering.
"""

from __future__ import annotations

import collections
import threading
import weakref
from bisect import bisect_left
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

MAX_LABEL_SETS = 64
OVERFLOW_LABEL = "__overflow__"

#: Latency-flavored default bucket upper bounds, in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: A child key: ``(label name, label value)`` pairs, declared names first.
_ChildKey = Tuple[Tuple[str, str], ...]


class _Child:
    """One (metric family, label set) time series."""

    __slots__ = ("_registry", "_lock")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()


class _Scalar(_Child):
    """A counter or gauge value: stored, or read from a bound function."""

    __slots__ = ("_value", "_read")

    def __init__(self, registry: "MetricsRegistry"):
        super().__init__(registry)
        self._value = 0.0
        self._read: Optional[Callable[[], float]] = None

    def bind(self, read: Callable[[], float]) -> None:
        """Read this series from ``read()`` whenever it is read (the
        Prometheus ``set_function``); it then records nothing and
        ignores the registry's ``enabled`` switch."""
        self._read = read

    @property
    def value(self) -> float:
        """Current value (the bound reader's, if any)."""
        read = self._read
        if read is not None:
            return float(read())
        with self._lock:
            return self._value


class Counter(_Scalar):
    """Monotonically increasing count."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1); no-op while the registry is off."""
        if not self._registry._enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A value that can go up and down (open streams, buffered bits)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        """Replace the gauge value; no-op while the registry is off."""
        if not self._registry._enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative); no-op while the registry is off."""
        if not self._registry._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``; no-op while the registry is off."""
        self.inc(-amount)


class Histogram(_Child):
    """Fixed-bucket distribution with Prometheus ``le`` edge semantics.

    ``observe(v)`` lands in the first bucket whose upper bound is ``>= v``
    (a value exactly on an edge belongs to that edge's bucket); values
    above the last edge land in the implicit ``+Inf`` bucket.
    """

    __slots__ = ("_edges", "_counts", "_sum", "_count")
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", edges: Sequence[float]):
        super().__init__(registry)
        self._edges = tuple(float(e) for e in edges)
        if list(self._edges) != sorted(set(self._edges)):
            raise ValueError("histogram bucket edges must be strictly increasing")
        self._counts = [0] * (len(self._edges) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation; no-op while the registry is off."""
        if not self._registry._enabled:
            return
        idx = bisect_left(self._edges, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def edges(self) -> Tuple[float, ...]:
        """Bucket upper bounds (excluding the implicit +Inf)."""
        return self._edges

    @property
    def count(self) -> int:
        """Total observations recorded."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[int]:
        """Raw (non-cumulative) per-bucket counts; last entry is +Inf."""
        with self._lock:
            return list(self._counts)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        with self._lock:
            out, running = [], 0
            for edge, c in zip(self._edges, self._counts):
                running += c
                out.append((edge, running))
            out.append((float("inf"), running + self._counts[-1]))
            return out


_CHILD_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its per-label-set children.

    Label-less families delegate the child API (``inc``/``set``/
    ``observe``/``value``/…) straight to their single default child, so
    ``registry.counter("x_total").inc()`` works without a ``labels()``
    hop.  Children are keyed by their full ``(name, value)`` label items,
    so one family can hold samples whose label sets extend the declared
    names without re-registering the family.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_label_sets: int = MAX_LABEL_SETS,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._registry = registry
        self._buckets = tuple(float(b) for b in buckets) if buckets is not None else None
        if self._buckets is not None and list(self._buckets) != sorted(set(self._buckets)):
            raise ValueError("histogram bucket edges must be strictly increasing")
        self._max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._children: "Dict[_ChildKey, _Child]" = {}
        self.dropped_label_sets = 0
        if not self.label_names and kind != "histogram":
            # A label-less counter or gauge exports 0 from registration,
            # so a scrape can tell "zero" from "missing".
            self._children[()] = self._new_child()

    # ------------------------------------------------------------------
    def _new_child(self) -> _Child:
        if self.kind == "histogram":
            return Histogram(self._registry, self._buckets or DEFAULT_BUCKETS)
        return _CHILD_KINDS[self.kind](self._registry)

    def _child_key(self, labels: Mapping[str, object]) -> _ChildKey:
        """Canonical child key: declared names first, extras sorted after."""
        declared = [(n, str(labels[n])) for n in self.label_names if n in labels]
        extras = sorted(
            (n, str(v)) for n, v in labels.items() if n not in self.label_names
        )
        return tuple(declared + extras)

    def _locate(self, key: _ChildKey) -> _Child:
        """The child for a key, created (or collapsed to overflow) on miss."""
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= max(self._max_label_sets, 1) and not all(
                    v == OVERFLOW_LABEL for _, v in key
                ):
                    self.dropped_label_sets += 1
                    key = tuple((n, OVERFLOW_LABEL) for n, _ in key)
                    child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._new_child()
            return child

    def labels(self, **labels: str):
        """The child for one declared label set (validated, created lazily)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {tuple(labels)}"
            )
        return self._locate(self._child_key(labels))

    def sample(self, labels: Mapping[str, object]):
        """The child for an arbitrary label mapping (lenient variant).

        Unlike :meth:`labels`, the mapping may carry dimensions beyond
        the declared ``label_names`` — the snapshot importer uses this to
        land whatever series a snapshot holds in the same family.
        Missing declared names are allowed too (the sample simply omits
        them).
        """
        return self._locate(self._child_key(labels))

    def samples(self) -> List[Tuple[Dict[str, str], _Child]]:
        """``(label dict, child)`` pairs, insertion order."""
        with self._lock:
            items = list(self._children.items())
        return [(dict(key), child) for key, child in items]

    # Delegate the child API for label-less families.
    def __getattr__(self, item: str):
        if not self.label_names:
            return getattr(self.labels(), item)
        raise AttributeError(
            f"{self.name!r} is labeled by {self.label_names}; call .labels(...) first"
        )


class MetricsRegistry:
    """Process-wide, thread-safe collection of metric families."""

    def __init__(self, enabled: bool = True, max_label_sets: int = MAX_LABEL_SETS):
        self._enabled = enabled
        self._max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}
        # bind_families builder -> the container it built for this registry
        self._bound: Dict[Callable, object] = {}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether mutating calls record anything."""
        return self._enabled

    def enable(self) -> None:
        """Turn recording on."""
        self._enabled = True

    def disable(self) -> None:
        """Turn recording off (instrumented code pays one branch)."""
        self._enabled = False

    def set_enabled(self, flag: bool) -> None:
        """Set the recording switch explicitly."""
        self._enabled = bool(flag)

    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                        f"{family.label_names}, requested {kind}{tuple(labels)}"
                    )
                return family
            family = MetricFamily(
                self, name, kind, help=help, label_names=labels,
                buckets=buckets, max_label_sets=self._max_label_sets,
            )
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Get-or-register a counter family."""
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        """Get-or-register a gauge family."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Get-or-register a histogram family with the given bucket edges."""
        return self._family(name, "histogram", help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def reset(self) -> None:
        """Drop every family (and its values).  Instrument sites holding a
        family reference keep working: re-registration under the same name
        recreates it, but references obtained *before* the reset publish
        into orphaned families — prefer resetting only in tests/CLI."""
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """JSON-able dump of every family, sufficient to rebuild exactly."""
        out: Dict[str, dict] = {}
        for family in self.families():
            samples = []
            for label_dict, child in family.samples():
                if family.kind == "histogram":
                    samples.append({
                        "labels": label_dict,
                        "count": child.count,
                        "sum": child.total,
                        "edges": list(child.edges),
                        "bucket_counts": child.bucket_counts(),
                    })
                else:
                    samples.append({"labels": label_dict, "value": child.value})
            entry = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": samples,
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family._buckets or DEFAULT_BUCKETS)
            out[family.name] = entry
        return out

    def _restore_family(self, name: str, fam: Mapping) -> MetricFamily:
        """Get-or-register the family a snapshot entry describes."""
        kind, labels = fam["kind"], fam.get("labels", [])
        help_text = fam.get("help", "")
        if kind == "histogram":
            return self.histogram(
                name, help_text, labels, buckets=fam.get("buckets", DEFAULT_BUCKETS)
            )
        if kind == "counter":
            return self.counter(name, help_text, labels)
        return self.gauge(name, help_text, labels)

    def restore(self, snapshot: Mapping[str, dict]) -> None:
        """Load a :meth:`snapshot` back in, *setting* sample values (the
        JSONL importer's path — the target samples are assumed fresh)."""
        for name, fam in snapshot.items():
            family = self._restore_family(name, fam)
            for sample in fam.get("samples", []):
                child = family.sample(sample.get("labels", {}))
                if family.kind == "histogram":
                    with child._lock:
                        child._counts = list(sample["bucket_counts"])
                        child._sum = float(sample["sum"])
                        child._count = int(sample["count"])
                else:
                    with child._lock:
                        child._value = float(sample["value"])


class Owners:
    """The live objects some bound series read, held by weak reference.

    A gauge bound to :meth:`sum` reads the objects still alive; a counter
    bound to :meth:`total` reads the ``counts`` dicts the objects bump
    themselves, and keeps what collected objects had counted, so it never
    goes backwards.  Entries are copied under the lock and read outside
    it, because a scrape may run on any thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[Tuple[weakref.ref, Optional[dict]]] = []
        self._retired: "collections.Counter" = collections.Counter()
        self._fold_at = 16

    def add(self, obj: object, counts: Optional[dict] = None) -> None:
        """Track ``obj`` and, for counters, the running totals it owns."""
        with self._lock:
            if len(self._entries) >= self._fold_at:
                self._fold()
                self._fold_at = 2 * len(self._entries) + 16
            self._entries.append((weakref.ref(obj), counts))

    def _fold(self) -> None:
        """Drop collected objects, keeping what they counted (lock held)."""
        live = []
        for entry in self._entries:
            if entry[0]() is not None:
                live.append(entry)
            elif entry[1]:
                self._retired.update(entry[1])
        self._entries = live

    def _copy(self):
        with self._lock:
            self._fold()
            return list(self._entries), self._retired.copy()

    def sum(self, read: Callable[[object], float]) -> float:
        """``read(obj)`` summed over the tracked objects still alive."""
        objs = [ref() for ref, _ in self._copy()[0]]
        return sum(read(obj) for obj in objs if obj is not None)

    def total(self, key: Hashable) -> float:
        """``counts[key]`` summed over every object added, collected ones too."""
        entries, retired = self._copy()
        return retired[key] + sum(c.get(key, 0) for _, c in entries if c)


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide shared registry all built-in instrumentation uses."""
    return _DEFAULT_REGISTRY


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Instrument sites resolve the default registry lazily (via
    :func:`bind_families`), so a swap takes effect immediately — tests
    use this to observe a run in a clean registry, and embedders can
    route the library's metrics into their own collection.
    """
    global _DEFAULT_REGISTRY
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(f"expected a MetricsRegistry, got {type(registry).__name__}")
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous


def bind_families(builder: Callable[[MetricsRegistry], object]):
    """Lazily bind a module's metric families to the *current* default
    registry.

    ``builder(registry)`` constructs the module's family handles (any
    container), once per registry.  The returned zero-arg callable yields
    the container of the current default registry, looking it up only
    when :func:`default_registry` returns a different object than last
    time — so a module pays one identity check per call instead of
    snapshotting the registry at import time (the bug class where
    :func:`set_default_registry` was silently ignored).  Objects add
    themselves to a container's :class:`Owners` in ``__init__`` while the
    registry is enabled, so a registry reads the objects built under it.
    """
    cell: Dict[str, object] = {"registry": None, "families": None}

    def resolve():
        registry = default_registry()
        if cell["registry"] is not registry:
            families = registry._bound.get(builder)
            if families is None:
                families = registry._bound[builder] = builder(registry)
            cell["families"], cell["registry"] = families, registry
        return cell["families"]

    return resolve
