"""Flight recorder: a bounded ring buffer of structured runtime events.

Where the metrics registry answers "how much" and the tracer answers
"how long", the flight recorder answers "what just happened" — the last
N structured events (compile/cache operations, plan decisions, shard
dispatches, worker crashes, validation failures) kept in a fixed-size
ring so a crash can be explained after the fact without any always-on
logging cost.

The recorder is **enabled by default**: recording one event is a lock,
a dict build, and a deque append, and events are emitted at
orchestration frequency (per dispatch / compile / plan), never per bit,
so the steady-state cost is negligible.  ``disable()`` reduces
``record()`` to a single flag check for the paranoid path.

Two consumers matter:

* **dump-on-error** — when a shard fails, :func:`attach_flight_dump`
  pins the recent events onto the raised
  :class:`~repro.errors.StreamError` (its ``context["flight_recorder"]``
  entry), so the exception itself names the failed worker and what it
  was doing;
* **``repro dump``** — the CLI prints the live ring (or a ring saved
  with :meth:`FlightRecorder.save` by an earlier ``--telemetry`` run).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Environment variable naming where CLI runs persist the event ring.
FLIGHTREC_PATH_ENV = "REPRO_FLIGHTREC_PATH"

#: Default ring capacity — enough to span several dispatch rounds.
DEFAULT_CAPACITY = 256


def default_dump_path() -> Path:
    """Where CLI runs drop their event ring (``$REPRO_FLIGHTREC_PATH``
    or ``.repro-flightrec.jsonl`` in the working directory)."""
    return Path(os.environ.get(FLIGHTREC_PATH_ENV, ".repro-flightrec.jsonl"))


class FlightRecorder:
    """Thread-safe bounded ring of structured events.

    Each event is a plain dict: ``seq`` (monotonic, survives eviction),
    ``ts_mono`` (:func:`time.monotonic` seconds — the ordering/duration
    clock), ``ts`` (unix seconds *derived* from ``ts_mono`` against one
    wall-clock anchor captured at construction), ``kind`` (a short
    category like ``"dispatch"`` or ``"worker-crash"``), ``message``,
    ``worker`` (empty for parent-side events) and free-form ``attrs``.

    Events are **never** stamped with :func:`time.time` directly: a
    wall-clock step (NTP slew, manual adjustment) mid-run would reorder
    the ring and make inter-event deltas negative.  Instead the recorder
    captures a single ``(wall, monotonic)`` anchor pair when it is
    created; every event's ``ts`` is ``anchor_wall + (ts_mono -
    anchor_mono)``, so the sequence stays monotone no matter what the
    wall clock does, and :meth:`save` persists the anchor with the dump
    so consumers can still place events in absolute time.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self._events: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._enabled = enabled
        self._seq = 0
        self._lock = threading.Lock()
        # One wall-clock anchor per recorder lifetime (and per dump):
        # event wall times are derived, never re-read from time.time().
        self._anchor_wall = time.time()
        self._anchor_mono = time.monotonic()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether ``record()`` stores anything."""
        return self._enabled

    def enable(self) -> None:
        """Turn event recording on."""
        self._enabled = True

    def disable(self) -> None:
        """Turn event recording off (one flag check per ``record()``)."""
        self._enabled = False

    @property
    def capacity(self) -> int:
        """Maximum events retained."""
        return self._events.maxlen or 0

    @property
    def anchor(self) -> Dict[str, float]:
        """The ``(wall, monotonic)`` anchor event wall times derive from."""
        return {"wall_unix": self._anchor_wall, "monotonic": self._anchor_mono}

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # ------------------------------------------------------------------
    def record(
        self, kind: str, message: str = "", worker: str = "", **attrs: object
    ) -> None:
        """Append one event (no-op while disabled)."""
        if not self._enabled:
            return
        mono = time.monotonic()
        with self._lock:
            self._seq += 1
            self._events.append({
                "seq": self._seq,
                "ts_mono": mono,
                "ts": self._anchor_wall + (mono - self._anchor_mono),
                "kind": kind,
                "message": message,
                "worker": worker,
                "attrs": attrs,
            })

    # ------------------------------------------------------------------
    def events(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Buffered events, oldest first; ``limit`` keeps the newest N."""
        with self._lock:
            out = [dict(e) for e in self._events]
        if limit is not None:
            out = out[-limit:]
        return out

    def clear(self) -> None:
        """Drop every buffered event (the sequence counter keeps going)."""
        with self._lock:
            self._events.clear()

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the ring as JSON lines: one anchor line, one event per line.

        The first line carries the recorder's wall-clock anchor (see the
        class docstring) so a dump contains exactly one wall-time
        reference; every event line's ``ts_mono`` is relative to that
        anchor's ``monotonic`` value.
        """
        path = Path(path)
        lines = [json.dumps({"anchor": self.anchor}, sort_keys=True)]
        lines += [json.dumps(e, sort_keys=True, default=str) for e in self.events()]
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> List[Dict[str, object]]:
        """Read events saved by :meth:`save`, oldest first.

        The anchor header line (and any pre-anchor legacy dump lines
        without one) is filtered out: only event records are returned.
        """
        events = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "anchor" in record and "seq" not in record:
                continue
            events.append(record)
        return events

    @staticmethod
    def load_anchor(path: Union[str, Path]) -> Optional[Dict[str, float]]:
        """The wall-clock anchor stored in a dump, if it has one
        (dumps written before the anchor line existed return ``None``)."""
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "anchor" in record and "seq" not in record:
                return {k: float(v) for k, v in record["anchor"].items()}
            return None
        return None


def format_events(events: List[Dict[str, object]]) -> str:
    """Human-readable rendering of a dump, one line per event."""
    if not events:
        return "(no events recorded)"
    lines = []
    for event in events:
        worker = event.get("worker") or "-"
        attrs = event.get("attrs") or {}
        suffix = (
            " " + " ".join(f"{k}={v}" for k, v in attrs.items()) if attrs else ""
        )
        message = event.get("message", "")
        lines.append(
            f"#{event.get('seq', '?'):>4} {event.get('kind', '?'):<16} "
            f"worker={worker:<8} {message}{suffix}"
        )
    return "\n".join(lines)


_DEFAULT_RECORDER = FlightRecorder()


def default_flight_recorder() -> FlightRecorder:
    """The process-wide shared flight recorder (enabled by default)."""
    return _DEFAULT_RECORDER


def set_default_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the process-wide flight recorder; returns the previous one."""
    global _DEFAULT_RECORDER
    if not isinstance(recorder, FlightRecorder):
        raise TypeError(f"expected a FlightRecorder, got {type(recorder).__name__}")
    previous = _DEFAULT_RECORDER
    _DEFAULT_RECORDER = recorder
    return previous


def attach_flight_dump(
    exc: BaseException, worker: str = "", limit: int = 32
) -> BaseException:
    """Attach a flight-recorder dump to an exception and return it.

    The dump lands in the exception's ``context`` dict (see
    :meth:`repro.errors.ReproError.with_context`; non-Repro exceptions
    get a plain ``context`` attribute) under ``"flight_recorder"``:
    ``{"worker": <failed worker>, "events": [...]}`` — the default
    recorder's newest ``limit`` events.
    """
    dump = {"worker": worker, "events": default_flight_recorder().events(limit=limit)}
    with_context = getattr(exc, "with_context", None)
    if callable(with_context):
        with_context(flight_recorder=dump)
    else:
        context = getattr(exc, "context", None)
        if not isinstance(context, dict):
            context = {}
            exc.context = context
        context["flight_recorder"] = dump
    return exc
