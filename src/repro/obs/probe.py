"""The probe: the runtime's one view of tracer, profiler and flight.

All three observe one event (an instance serves an envelope at logical
step *s*), so they sit at one seam: the drain loop serves through
:meth:`~Probe.around` ``substrate.process``, which times each call and
records each served envelope after it returned or raised. The serve
path itself makes no probe call. With every recorder off the runtime
holds :data:`NULL_PROBE`, which the drain does not ask: it serves
through ``substrate.process`` itself. Its :meth:`~Probe.phase` hands
out null timers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.profile import ProfileRegistry

__all__ = ["NULL_PROBE", "Probe"]


class Probe:
    """Whichever of tracer, profiler and flight are on, and the step."""

    def __init__(self, tracer=None, profiler=None, flight=None,
                 clock=lambda: 0) -> None:
        self.tracer = tracer
        self.flight = flight
        self.clock = clock
        self.phase = (profiler or ProfileRegistry(NULL_REGISTRY)).phase

    def around(self, process):
        """``process`` timed into the ``process`` phase, each envelope
        it serves a trace hop and a flight entry of the step it began
        at: one whose task raised too, a dropped replay duplicate
        (``process`` returned False) not."""
        tracer, flight, clock = self.tracer, self.flight, self.clock
        timed = self.timed("process", process)

        def serve(instance, envelope):
            step, served = clock(), None
            try:
                served = timed(instance, envelope)
                return served
            finally:
                if served is not False and tracer is not None:
                    tracer.begin_hop(envelope, instance.name,
                                     str(instance.index), step)
                if served is not False and flight is not None:
                    flight.record_envelope(step, instance, envelope)
        return serve

    def timed(self, phase: str, fn):
        """``fn`` with each call timed into ``phase``."""
        add = self.phase(phase).add

        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                add(time.perf_counter() - t0)
        return call

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


#: No recorder on. Stateless, so one instance serves every runtime.
NULL_PROBE = Probe()
