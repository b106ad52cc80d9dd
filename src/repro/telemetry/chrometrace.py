"""Chrome trace-event JSON export — span trees as Perfetto timelines.

Renders finished :class:`~repro.telemetry.tracing.Span` trees in the
Chrome trace-event format (the ``{"traceEvents": [...]}`` JSON object
``chrome://tracing`` and https://ui.perfetto.dev load directly), so a
planned ``ParallelBatchCRC`` run's planner → dispatch → per-worker shard
timeline can be inspected visually.

Mapping:

* every span becomes one complete (``"ph": "X"``) event with
  microsecond ``ts``/``dur`` (timestamps are rebased so the earliest
  span starts at 0);
* all events share one ``pid``; the ``tid`` encodes *which worker* ran
  the span — lane 0 for the parent, one lane per distinct ``worker``
  attribute — and matching ``thread_name`` metadata (``"M"``) events
  label the lanes;
* span attributes and ids land in ``args`` (stringified, so arbitrary
  attribute values stay JSON-safe).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Union

from repro.telemetry.tracing import Span, Tracer

#: ``pid`` used for every event (one process-wide timeline).
TRACE_PID = 1


def spans_to_chrome(roots: Sequence[Span]) -> dict:
    """The Chrome trace-event object for a set of finished span trees."""
    events: List[dict] = []
    lanes: Dict[str, int] = {"": 0}  # worker label -> tid ("" = parent)
    if roots:
        base = min(root.start for root in roots)
    else:
        base = 0.0

    def lane_of(sp: Span, inherited: str) -> str:
        worker = str(sp.attributes.get("worker", "") or inherited)
        if worker not in lanes:
            lanes[worker] = len(lanes)
        return worker

    def walk(sp: Span, inherited: str) -> None:
        worker = lane_of(sp, inherited)
        args = {str(k): str(v) for k, v in sp.attributes.items()}
        if sp.trace_id:
            args["trace_id"] = sp.trace_id
        if sp.span_id:
            args["span_id"] = sp.span_id
        events.append({
            "name": sp.name,
            "cat": "repro",
            "ph": "X",
            "ts": (sp.start - base) * 1e6,
            "dur": sp.duration * 1e6,
            "pid": TRACE_PID,
            "tid": lanes[worker],
            "args": args,
        })
        for child in sp.children:
            walk(child, worker)

    for root in roots:
        walk(root, "")
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": tid,
            "args": {"name": f"worker {worker}" if worker else "main"},
        }
        for worker, tid in sorted(lanes.items(), key=lambda kv: kv[1])
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def render_chrome_trace(source: Union[Tracer, Sequence[Span]]) -> str:
    """JSON text of :func:`spans_to_chrome` for a tracer or span list."""
    roots = source.roots() if isinstance(source, Tracer) else list(source)
    return json.dumps(spans_to_chrome(roots), indent=2, sort_keys=True) + "\n"
