"""repro.telemetry — metrics, tracing, and flight recording.

A zero-dependency observability layer shared by every hot path in the
repo: the compile cache, the bit-sliced batch kernels, the streaming
pipelines, DREAM executed mode, and the PiCoGA instruments
(:mod:`repro.picoga.trace`, :mod:`repro.picoga.activity`) all publish
into one process-wide :class:`MetricsRegistry`, one :class:`Tracer`, and
one :class:`FlightRecorder`.  Pool shards run on threads that share
those defaults; each shard's span is grafted under the dispatch that
ran it.

* :mod:`repro.telemetry.registry` — thread-safe Counter/Gauge/Histogram
  families with bounded label cardinality and near-zero overhead when
  disabled; values an object owns are read from it (:class:`Owners`).
* :mod:`repro.telemetry.tracing` — nestable ``span()`` context manager
  with trace/span ids, serializable span trees, and a bounded buffer.
* :mod:`repro.telemetry.flightrec` — bounded ring buffer of structured
  events with dump-on-error crash post-mortems.
* :mod:`repro.telemetry.chrometrace` — Chrome trace-event JSON export
  (Perfetto-loadable timelines).
* :mod:`repro.telemetry.export` — JSON-lines snapshots (metrics + span
  records, lossless round trip), Prometheus text exposition, and the
  :class:`BenchReport` writer behind ``benchmarks/results/*.json``.
* :mod:`repro.telemetry.instrument` — an ``@instrumented`` decorator
  plus explicit bridges from the pre-existing instruments.

See ``docs/OBSERVABILITY.md`` for the tour; ``repro stats``, ``repro
dump`` and the ``--telemetry`` CLI flag are the command-line surface.
"""

from repro.telemetry.chrometrace import render_chrome_trace, spans_to_chrome
from repro.telemetry.export import (
    BenchReport,
    default_snapshot_path,
    parse_json_lines,
    parse_spans,
    read_json_lines,
    read_spans,
    render_prometheus,
    to_json_lines,
    write_json_lines,
)
from repro.telemetry.flightrec import (
    FlightRecorder,
    attach_flight_dump,
    default_dump_path,
    default_flight_recorder,
    format_events,
    set_default_flight_recorder,
)
from repro.telemetry.instrument import (
    instrumented,
    record_activity_report,
    record_burst_utilization,
    record_pipeline_trace,
    record_run_cycles,
)
from repro.telemetry.registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Owners,
    bind_families,
    default_registry,
    set_default_registry,
)
from repro.telemetry.tracing import (
    Span,
    Tracer,
    default_tracer,
    format_span_tree,
    set_default_tracer,
)

__all__ = [
    "BenchReport",
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Owners",
    "Span",
    "Tracer",
    "attach_flight_dump",
    "bind_families",
    "default_dump_path",
    "default_flight_recorder",
    "default_registry",
    "default_snapshot_path",
    "default_tracer",
    "format_events",
    "format_span_tree",
    "instrumented",
    "parse_json_lines",
    "parse_spans",
    "read_json_lines",
    "read_spans",
    "record_activity_report",
    "record_burst_utilization",
    "record_pipeline_trace",
    "record_run_cycles",
    "render_chrome_trace",
    "render_prometheus",
    "set_default_flight_recorder",
    "set_default_registry",
    "set_default_tracer",
    "spans_to_chrome",
    "to_json_lines",
    "write_json_lines",
]
