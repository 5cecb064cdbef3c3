"""The probe: the runtime's one view of tracer, profiler and flight.

All three observe one event (an instance serves an envelope at logical
step *s*), so the engine calls one :class:`Probe` at three points per
envelope: :meth:`~Probe.serve` after replay dedup, :meth:`~Probe.dispatch`
before routing, :meth:`~Probe.served` once ``process`` returned or
raised. With every recorder off the runtime holds :data:`NULL_PROBE`:
its calls do nothing and :meth:`~Probe.phase` hands out null timers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.profile import ProfileRegistry

__all__ = ["NULL_PROBE", "Probe"]


class Probe:
    """Whichever of tracer, profiler and flight recorder are enabled."""

    #: Start of the open ``process`` / ``dispatch`` spans.
    _t_serve = _t_dispatch = None

    def __init__(self, tracer=None, profiler=None, flight=None) -> None:
        self.tracer = tracer
        self.flight = flight
        self._timed = profiler is not None
        self.phase = (profiler or ProfileRegistry(NULL_REGISTRY)).phase
        self._process = self.phase("process")
        self._dispatch = self.phase("dispatch")

    def serve(self, step: int, instance, envelope) -> None:
        if self.tracer is not None:
            self.tracer.begin_hop(envelope, instance.name,
                                  str(instance.index), step)
        if self.flight is not None:
            self.flight.record_envelope(step, instance, envelope)
        if self._timed:
            self._t_serve = time.perf_counter()

    def dispatch(self) -> None:
        if self._timed:
            self._t_dispatch = time.perf_counter()

    def served(self) -> None:
        if not self._timed:
            return
        now = time.perf_counter()
        self._process.add(now - (self._t_serve or now))
        if self._t_dispatch is not None:
            self._dispatch.add(now - self._t_dispatch)
        self._t_serve = self._t_dispatch = None

    @contextmanager
    def span(self, phase: str) -> Iterator[None]:
        """Time a block (checkpoint, recovery) into ``phase``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase(phase).add(time.perf_counter() - t0)

    def note(self, step: int, kind: str, **detail: Any) -> None:
        """A structural note (node failure, fleet restart) for the ring."""
        if self.flight is not None:
            self.flight.record(step, kind, **detail)

    def flight_dump(self) -> list[dict]:
        return self.flight.dump() if self.flight is not None else []

    def start_worker(self, worker: int) -> None:
        """Forked worker startup: stamp new hops with ``worker`` and
        queue them for shipping; start the ring empty."""
        if self.tracer is not None:
            self.tracer.worker = worker
        if self.flight is not None:
            self.flight.reset()

    def drain_shard(self) -> list:
        return self.tracer.drain_shard() if self.tracer is not None else []


class _NullProbe(Probe):
    """No recorder on: the serve-path calls do nothing (no ``*args``:
    a tuple packed per call would cost more than the old guards)."""

    def serve(self, step: int, instance, envelope) -> None:
        pass

    def dispatch(self) -> None:
        pass

    served = dispatch


#: Stateless, so one instance serves every runtime.
NULL_PROBE = _NullProbe()
