"""Per-envelope causal tracing in logical time.

When a runtime is deployed with ``RuntimeConfig(trace=True)`` every
injected envelope is stamped with a ``trace_id`` that survives dispatch
fan-out, repartition re-routing and crash replay (the id rides the
immutable :class:`~repro.runtime.envelope.Envelope`).  The :class:`Tracer`
reconstructs, per trace, the ordered list of :class:`Hop` records:
which TE instance served the item, how long it waited in the inbox
(queue-wait steps), how long the invocation took (service steps), and
whether the hop was a *replay* of work already executed before a crash.

Everything is denominated in logical steps; the tracer never reads the
wall clock. The serve path reaches it through :mod:`repro.obs.probe`.

Across the **multiprocess substrate** each worker records hops with
its own local :class:`Tracer` (forked from the coordinator's), stamps
them with its worker id, and ships completed hops back as *shards*
(:meth:`Tracer.drain_shard`) piggybacked on the wire protocol's idle
frames. The coordinator folds every shard into its own tracer
(:meth:`Tracer.merge_shard`), re-running replay detection against the
fleet-wide served-set — so ``runtime.tracer`` shows one merged causal
view no matter which process served each hop. Worker-local step
numbers are process-local logical clocks: queue-wait and service spans
stay meaningful per hop, while cross-process step arithmetic is not
(compare hop *sets*, not step stamps, across substrates).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports obs)
    from repro.runtime.envelope import Envelope

__all__ = ["DEFAULT_SERVED_LIMIT", "Hop", "Trace", "Tracer"]

#: Default bound on the replay served-set (and the enqueue-step map).
#: Long chaos soaks replay the same items across many crash cycles;
#: without a bound those books grow with the item count forever.
#: Eviction is FIFO: a key evicted here can, at worst, mis-report a
#: *very* old replay as fresh — never the reverse.
DEFAULT_SERVED_LIMIT = 1 << 16


@dataclass
class Hop:
    """One service of a traced envelope by one TE instance."""

    te: str
    instance: str
    enqueue_step: int
    entry_step: int
    exit_step: int
    replayed: bool = False
    #: Worker that served the hop (None = coordinator / in-process).
    worker: int | None = None
    #: Replay-identity key; rides shards so the coordinator can re-run
    #: replay detection fleet-wide. Not part of equality/rendering.
    key: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def queue_wait(self) -> int:
        """Steps spent in the destination inbox before service."""
        return max(0, self.entry_step - self.enqueue_step)

    @property
    def service_steps(self) -> int:
        """Steps spent inside the invocation."""
        return max(0, self.exit_step - self.entry_step)

    def describe(self) -> str:
        mark = " [replayed]" if self.replayed else ""
        return (
            f"{self.te}/{self.instance} wait={self.queue_wait} "
            f"steps={self.entry_step}->{self.exit_step}{mark}"
        )


@dataclass
class Trace:
    """All hops recorded under one trace id, in service order."""

    trace_id: int
    start_step: int
    hops: list[Hop] = field(default_factory=list)

    @property
    def end_step(self) -> int:
        return max((h.exit_step for h in self.hops), default=self.start_step)

    @property
    def latency(self) -> int:
        """End-to-end logical latency: injection to last hop exit."""
        return self.end_step - self.start_step

    @property
    def total_queue_wait(self) -> int:
        return sum(h.queue_wait for h in self.hops)

    @property
    def replayed_hops(self) -> int:
        return sum(1 for h in self.hops if h.replayed)

    def path(self) -> list[str]:
        return [f"{h.te}/{h.instance}" for h in self.hops]

    def describe(self) -> str:
        chain = " -> ".join(h.describe() for h in self.hops) or "(no hops)"
        return (
            f"trace {self.trace_id}: latency={self.latency} "
            f"queue_wait={self.total_queue_wait} hops={len(self.hops)} | {chain}"
        )


def _stream_key(channel) -> tuple[int, str | None, int]:
    return (channel.edge_index, channel.src_te, channel.src_instance)


class Tracer:
    """Collects hop records for traced envelopes.

    The engine drives two callbacks:

    * :meth:`on_deliver` when the transport appends a traced envelope to
      an inbox (records the enqueue step, so queue wait is observable);
    * :meth:`begin_hop` when an instance serves the envelope. A serve
      consumes exactly one logical step, so the hop is complete when
      it is begun: it exits at ``step + 1``.

    Replay detection: a hop is ``replayed`` when the same logical item
    — identified by ``(trace_id, destination TE, producer stream key,
    producer sequence number)`` — has already been served once.  The
    engine's duplicate filter drops re-deliveries it has already seen
    on the *same* instance, so replayed hops surface exactly where
    recovery re-executes work on a replacement instance.
    """

    def __init__(self, served_limit: int = DEFAULT_SERVED_LIMIT) -> None:
        if served_limit < 1:
            raise ValueError(
                f"served_limit must be >= 1, got {served_limit}"
            )
        self._next_id = 1
        self._traces: dict[int, Trace] = {}
        #: Bound on the replay books below (FIFO eviction).
        self.served_limit = served_limit
        # (trace_id, channel, ts) -> step the envelope entered the inbox
        self._enqueued: OrderedDict[tuple, int] = OrderedDict()
        # (trace_id, dst_te, stream_key, ts) seen served at least once;
        # an OrderedDict-as-set so the oldest key can be evicted.
        self._served: OrderedDict[tuple, None] = OrderedDict()
        #: Set in a multiprocess worker: stamped on every new hop, which
        #: is also queued for :meth:`drain_shard` (never when ``None``).
        self.worker: int | None = None
        self._pending_shard: list[tuple[int, Hop]] = []

    def _remember_served(self, item_key: tuple) -> None:
        served = self._served
        served[item_key] = None
        if len(served) > self.served_limit:
            served.popitem(last=False)

    # -- trace lifecycle -------------------------------------------------

    def new_trace(self, step: int) -> int:
        trace_id = self._next_id
        self._next_id += 1
        self._traces[trace_id] = Trace(trace_id=trace_id, start_step=step)
        return trace_id

    def on_deliver(self, envelope: "Envelope", step: int) -> None:
        if envelope.trace_id is None:
            return
        self._enqueued[(envelope.trace_id, envelope.channel, envelope.ts)] = step
        if len(self._enqueued) > self.served_limit:
            self._enqueued.popitem(last=False)

    def begin_hop(self, envelope: "Envelope", te: str, instance_name: str, step: int) -> Hop | None:
        trace_id = envelope.trace_id
        if trace_id is None:
            return None
        trace = self._traces.get(trace_id)
        if trace is None:
            # Trace ids minted by another runtime (e.g. envelopes carried
            # across a migration) still get a trace record.
            trace = self._traces[trace_id] = Trace(trace_id=trace_id, start_step=step)
        enqueue = self._enqueued.pop((trace_id, envelope.channel, envelope.ts), step)
        item_key = (trace_id, te, _stream_key(envelope.channel), envelope.ts)
        replayed = item_key in self._served
        self._remember_served(item_key)
        hop = Hop(
            te=te,
            instance=instance_name,
            enqueue_step=enqueue,
            entry_step=step,
            exit_step=step + 1,
            replayed=replayed,
            worker=self.worker,
            key=item_key,
        )
        trace.hops.append(hop)
        if self.worker is not None:
            self._pending_shard.append((trace_id, hop))
        return hop

    # -- cross-process sharding (multiprocess substrate) -----------------

    def drain_shard(self) -> list[tuple[int, Hop]]:
        """Hops recorded since the last drain, as picklable
        ``(trace_id, Hop)`` pairs; clears the pending queue.

        Only populated once :attr:`worker` is set.
        """
        shard, self._pending_shard = self._pending_shard, []
        return shard

    def merge_shard(self, shard: list[tuple[int, Hop]]) -> None:
        """Fold one worker's drained shard into this (coordinator)
        tracer's view.

        Replay detection is re-run against *this* tracer's served-set:
        a worker that re-executes an item another (crashed) worker
        already served could not know locally, but the coordinator —
        which merged the first execution's shard — marks the second
        hop ``replayed``.
        """
        for trace_id, hop in shard:
            trace = self._traces.get(trace_id)
            if trace is None:
                trace = self._traces[trace_id] = Trace(
                    trace_id=trace_id, start_step=hop.enqueue_step
                )
            if hop.key is not None:
                if not hop.replayed and hop.key in self._served:
                    hop.replayed = True
                self._remember_served(hop.key)
            trace.hops.append(hop)

    # -- read side -------------------------------------------------------

    def trace(self, trace_id: int) -> Trace | None:
        return self._traces.get(trace_id)

    def traces(self) -> list[Trace]:
        return [self._traces[tid] for tid in sorted(self._traces)]

    def latencies(self) -> list[int]:
        return [t.latency for t in self.traces() if t.hops]

    def summary(self, limit: int = 10) -> str:
        """Human-readable digest: latency distribution + sample traces."""
        traces = [t for t in self.traces() if t.hops]
        if not traces:
            return "no traces recorded"
        lats = sorted(t.latency for t in traces)
        waits = sorted(t.total_queue_wait for t in traces)

        def pct(sorted_vals: list[int], q: float) -> int:
            return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]

        replayed = sum(t.replayed_hops for t in traces)
        lines = [
            f"traces: {len(traces)}  hops: {sum(len(t.hops) for t in traces)}"
            f"  replayed-hops: {replayed}",
            "latency (logical steps): "
            f"p50={pct(lats, 0.50)} p90={pct(lats, 0.90)} p99={pct(lats, 0.99)} "
            f"max={lats[-1]}",
            "queue wait (logical steps): "
            f"p50={pct(waits, 0.50)} p90={pct(waits, 0.90)} max={waits[-1]}",
            f"slowest {min(limit, len(traces))} traces:",
        ]
        slowest = sorted(traces, key=lambda t: (-t.latency, t.trace_id))[:limit]
        lines.extend(f"  {t.describe()}" for t in slowest)
        return "\n".join(lines)
