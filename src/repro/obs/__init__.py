"""Unified observability: metrics, tracing, events, profiling, flight.

Four pillars plus the event bus, wired through every layer behind the
existing step-hook/facade seams:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  primitives in an injectable :class:`MetricsRegistry` with a
  Prometheus text exporter — the one ledger of what the runtime
  counted. Histogram buckets are *logical steps*; only the
  ``*_seconds_total`` series hold wall-clock time, and nothing reads
  them back, so the deterministic core (§4.1) stays deterministic. On
  the multiprocess substrate each worker's cell values stream back to
  the coordinator as one flat tuple piggybacked on idle frames, against
  a schema sent only when the worker's registry changed shape
  (``MetricsRegistry.shard`` / ``expand``), so
  ``runtime.merged_metrics()`` is fresh *between* barriers, not only at
  them.
* :mod:`repro.obs.trace` — optional per-envelope causal tracing
  (``RuntimeConfig(trace=True)``): each envelope carries a trace id and
  the :class:`Tracer` reconstructs its hop list (TE, instance,
  queue-wait and service spans in logical steps, ``replayed`` marks).
  Works across process boundaries: workers record hops locally and
  ship shards the coordinator merges into one causal view.
* :mod:`repro.obs.profile` — opt-in wall-clock phase timers
  (``RuntimeConfig(profile=True)``): process, dispatch, serialize,
  wire wait, checkpoint, recovery — a view over the
  ``profile_seconds_total`` / ``profile_calls_total`` series of the
  registry; never feeds back into execution.
* :mod:`repro.obs.flight` — a bounded per-process ring buffer of
  recent envelope digests, shipped in crash frames and persisted next
  to durable-run manifests for SIGKILL post-mortems.
* :mod:`repro.obs.probe` — the three recorders above as one wrapper
  of the serve seam (the shared no-op ``NULL_PROBE`` when all are off).
* :mod:`repro.obs.events` — a typed, structured :class:`EventBus` that
  the engine, checkpoint manager, recovery supervisor, failure
  detector and chaos injector publish to — the one log of what the
  runtime observed; their query methods read it back. JSON-lines
  export.

``repro obs`` (see :mod:`repro.obs.runner`) runs a workload with the
full stack enabled and renders metrics + traces + events; ``repro
top`` (see :mod:`repro.obs.top`) renders the live dashboard view.
"""

from repro.obs.events import Event, EventBus, JsonlExporter
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder, render_dump
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.profile import PHASES, ProfileRegistry
from repro.obs.trace import DEFAULT_SERVED_LIMIT, Hop, Trace, Tracer

__all__ = [
    "Counter",
    "DEFAULT_CAPACITY",
    "DEFAULT_SERVED_LIMIT",
    "Event",
    "EventBus",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Hop",
    "JsonlExporter",
    "MetricsRegistry",
    "NULL_PROBE",
    "NULL_REGISTRY",
    "NullRegistry",
    "PHASES",
    "Probe",
    "ProfileRegistry",
    "Trace",
    "Tracer",
    "render_dump",
]
