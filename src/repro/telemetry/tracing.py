"""Nestable wall-clock spans with IDs and a bounded in-memory buffer.

A :class:`Tracer` records how long named regions take and how they nest
— ``dream.execute_crc`` inside ``cli.perf``, compile inside execute —
the software analogue of the pipeline occupancy traces
:mod:`repro.picoga.trace` draws for the array.  Spans are per-thread
(nesting follows each thread's own call stack) and finished roots land
in a bounded buffer, so a long-running process can leave tracing on
without unbounded growth.

Every span carries a ``trace_id`` (shared by the whole tree) and its own
``span_id``; both are random 64-bit hex strings.  Spans serialize with
:meth:`Span.to_dict` / :meth:`Span.from_dict`.  Pool shards run on other
threads, so their spans cannot nest through the thread-local stack:
:meth:`Tracer.capture` records each shard's span detached, under the
dispatching span's IDs, and the pool grafts it into that span
(:meth:`repro.engine.parallel.WorkerPool.run`).

The default tracer starts **disabled**: ``span()`` then costs one flag
check and yields ``None``.  The CLI's ``--telemetry`` flag (and tests)
enable it explicitly.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence


def new_id() -> str:
    """A random 64-bit id as 16 hex digits (span and trace ids)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    name: str
    attributes: Dict[str, object] = field(default_factory=dict)
    start: float = 0.0  # perf_counter seconds; meaningful only relatively
    duration: float = 0.0
    children: List["Span"] = field(default_factory=list)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds."""
        return self.duration * 1e3

    def subtree_size(self) -> int:
        """Number of spans in this subtree (including this one)."""
        return 1 + sum(child.subtree_size() for child in self.children)

    def to_dict(self) -> dict:
        """JSON-able form; round-trips through :meth:`from_dict`."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "start_s": self.start,
            "duration_s": self.duration,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            attributes=dict(data.get("attributes", {})),
            start=float(data.get("start_s", 0.0)),
            duration=float(data.get("duration_s", 0.0)),
            trace_id=data.get("trace_id", ""),
            span_id=data.get("span_id", ""),
            parent_id=data.get("parent_id", ""),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )


class Tracer:
    """Collects spans per thread; finished roots go to a bounded buffer."""

    def __init__(self, max_spans: int = 4096, max_roots: int = 256, enabled: bool = False):
        if max_spans < 1 or max_roots < 1:
            raise ValueError("span buffer bounds must be >= 1")
        self._enabled = enabled
        self._max_spans = max_spans
        self._roots: "deque[Span]" = deque()
        self._max_roots = max_roots
        self._stored = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether ``span()`` records anything."""
        return self._enabled

    def enable(self) -> None:
        """Turn span recording on."""
        self._enabled = True

    def disable(self) -> None:
        """Turn span recording off (one flag check per ``span()``)."""
        self._enabled = False

    # ------------------------------------------------------------------
    def _open(self, name: str, attributes: Dict[str, object]):
        """Create a span, assign IDs from the thread's stack, and push it;
        returns ``(span, stack)``."""
        stack: List[Span] = getattr(self._local, "stack", None) or []
        self._local.stack = stack
        sp = Span(name=name, attributes=attributes, start=perf_counter())
        sp.span_id = new_id()
        if stack:
            sp.trace_id = stack[-1].trace_id
            sp.parent_id = stack[-1].span_id
        else:
            sp.trace_id = new_id()
        stack.append(sp)
        return sp, stack

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Optional[Span]]:
        """Time a region; nests under the thread's innermost open span."""
        if not self._enabled:
            yield None
            return
        sp, stack = self._open(name, attributes)
        try:
            yield sp
        finally:
            sp.duration = perf_counter() - sp.start
            stack.pop()
            if stack:
                stack[-1].children.append(sp)
            else:
                self._record_root(sp)

    @contextmanager
    def capture(
        self,
        name: str,
        trace_id: str = "",
        parent_id: str = "",
        **attributes: object,
    ) -> Iterator[Optional[Span]]:
        """Like :meth:`span`, but the finished span is *detached*: it is
        neither appended to an enclosing span nor recorded as a root.

        The caller owns the yielded span — pool shards use this to
        record a subtree on a worker thread that the dispatching thread
        grafts into its own open span.  ``trace_id`` / ``parent_id``
        seed the IDs from that span.
        """
        if not self._enabled:
            yield None
            return
        sp, stack = self._open(name, attributes)
        if trace_id:
            sp.trace_id = trace_id
        if parent_id:
            sp.parent_id = parent_id
        try:
            yield sp
        finally:
            sp.duration = perf_counter() - sp.start
            stack.pop()

    def current_span(self) -> Optional[Span]:
        """This thread's innermost open span, or ``None``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _record_root(self, sp: Span) -> None:
        size = sp.subtree_size()
        with self._lock:
            if self._stored + size > self._max_spans:
                self.dropped += size
                return
            self._roots.append(sp)
            self._stored += size
            while len(self._roots) > self._max_roots:
                evicted = self._roots.popleft()
                self._stored -= evicted.subtree_size()

    # ------------------------------------------------------------------
    def roots(self) -> List[Span]:
        """Finished root spans currently buffered (oldest first)."""
        with self._lock:
            return list(self._roots)

    @property
    def span_count(self) -> int:
        """Spans currently held in the buffer (all depths)."""
        with self._lock:
            return self._stored

    def clear(self) -> None:
        """Empty the buffer and reset the drop counter."""
        with self._lock:
            self._roots.clear()
            self._stored = 0
            self.dropped = 0


def format_span_tree(roots: Sequence[Span], indent: str = "  ") -> str:
    """ASCII rendering of finished span trees, one line per span."""
    if not roots:
        return "(no spans recorded)"
    lines: List[str] = []

    def walk(sp: Span, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in sp.attributes.items())
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(f"{indent * depth}{sp.name}  {sp.duration_ms:.3f} ms{suffix}")
        for child in sp.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    """The process-wide shared tracer (disabled until explicitly enabled)."""
    return _DEFAULT_TRACER


def set_default_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _DEFAULT_TRACER
    if not isinstance(tracer, Tracer):
        raise TypeError(f"expected a Tracer, got {type(tracer).__name__}")
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer
    return previous
