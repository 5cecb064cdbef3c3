"""Physical TE and SE instances.

A *spec* (``TaskElementSpec``/``StateElementSpec``) is logical; at
deployment the runtime materialises it into one or more instances
(``tˆi,j`` / ``sˆi,j`` in the paper's notation, §3.1-3.2). Instances own
the per-stream bookkeeping that failure recovery relies on: consumer-side
``last_seen`` timestamps for duplicate filtering and producer-side output
buffers for replay (§5).
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.elements import StateElementSpec, TaskContext, TaskElementSpec
from repro.runtime.envelope import ChannelId, Envelope, RequestId
from repro.state.base import StateElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.checkpoint import TEMeta

#: Consumer-side stream key: where an item came from, ignoring our own
#: instance index (which may change across recoveries): ``channel[:3]``.
StreamKey = tuple[int, str, int]  # (edge_index, src_te, src_instance)


@dataclass
class GatherState:
    """Accumulates responses for one global-access request (§3.2).

    ``payloads`` is the merge TE's input: the replica values in arrival
    order, released once ``received`` reaches ``expected`` (a replica
    that answered ``NO_RESPONSE`` counts but contributes no value).
    """

    expected: int
    payloads: list[Any] = field(default_factory=list)
    received: int = 0

    @property
    def complete(self) -> bool:
        return self.received >= self.expected


class StreamStamps:
    """The stamps of one stream a TE has collected, in any of its slots:
    all up to ``low``, and ``ahead`` of a gap. Stamps are consecutive
    and each is collected in the end, so a gap lasts only while slots
    serve out of order with each other."""

    __slots__ = ("low", "ahead")

    def __init__(self, low: int = 0, ahead: set[int] | None = None) -> None:
        self.low, self.ahead = low, ahead if ahead is not None else set()

    def add(self, ts: int) -> bool:
        """Record ``ts``; False if it was recorded before."""
        if ts != self.low + 1:
            if ts <= self.low or ts in self.ahead:
                return False
            self.ahead.add(ts)
            return True
        ahead = self.ahead
        while ts + 1 in ahead:
            ts += 1
            ahead.remove(ts)
        self.low = ts
        return True


class SEInstance:
    """One physical instance of a state element (a partition or replica)."""

    def __init__(self, spec: StateElementSpec, index: int,
                 element: StateElement | None = None) -> None:
        self.spec = spec
        self.index = index
        self.element = element if element is not None else spec.factory()
        self.node_id: int | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def key(self) -> tuple[str, int]:
        return (self.spec.name, self.index)

    def __repr__(self) -> str:
        return f"SEInstance({self.spec.name}[{self.index}] @node{self.node_id})"


class TEInstance:
    """One physical instance of a task element.

    Holds the instance-local runtime state: the inbox of in-flight
    envelopes, consumer-side ``last_seen`` per input stream, producer-side
    output buffers and sequence counters per channel, and (for merge TEs)
    the gather barriers keyed by request id.
    """

    def __init__(self, spec: TaskElementSpec, index: int,
                 se_instance: SEInstance | None = None) -> None:
        self.spec = spec
        #: The TE's name; a plain attribute, read several times per item.
        self.name = spec.name
        self.index = index
        self.se_instance = se_instance
        self.node_id: int | None = None
        self.inbox: deque[Envelope] = deque()
        #: Highest timestamp *processed* per input stream (not delivered:
        #: advancing on delivery would let a crash lose acknowledged items).
        self.last_seen: dict[StreamKey, int] = {}
        #: Producer-side sequence counter per outgoing *edge* (not per
        #: channel): timestamps must be unique within a stream so that a
        #: destination added later (scale-out, m-to-n recovery) never
        #: sees a timestamp that aliases an already-processed one. Each
        #: destination observes an increasing subsequence.
        self.out_seq: dict[int, int] = {}
        #: Producer-side retained envelopes per outgoing channel, replayed
        #: after a downstream failure and trimmed by downstream checkpoints.
        self.output_buffers: dict[ChannelId, deque[Envelope]] = {}
        #: ``(edge_index, dst_index)`` -> the interned ``ChannelId`` and
        #: *the* deque ``output_buffers`` holds for it: all a send needs,
        #: resolved by the transport once. Replace the buffers, drop these.
        self.emit_routes: dict[tuple[int, int],
                               tuple[ChannelId, deque[Envelope]]] = {}
        #: Handed to every invocation; stamped when its state or slots change.
        self.context = TaskContext(
            se_instance.element if se_instance is not None else None, index)
        #: Merge-TE barrier state per in-flight request id.
        self.pending_gathers: dict[RequestId, GatherState] = {}
        #: Items served here: the one count an item bumps.
        self.served = 0
        self._processed_base = 0
        #: Chaos flag: when set, the next item this instance processes
        #: raises out of the task code (crash-mid-item fault injection).
        #: Deliberately not part of checkpointed bookkeeping.
        self.crash_next = False

    @property
    def key(self) -> tuple[str, int]:
        return (self.spec.name, self.index)

    @property
    def processed_count(self) -> int:
        """The checkpointed base plus what this instance served since."""
        return self._processed_base + self.served

    # -- consumer side ---------------------------------------------------

    def mark_processed(self, envelope: Envelope) -> None:
        key = envelope.channel[:3]
        if envelope.ts > self.last_seen.get(key, 0):
            self.last_seen[key] = envelope.ts

    # -- producer side ---------------------------------------------------

    def restore_producer_state(self, meta: "TEMeta") -> None:
        """Install checkpointed producer-side state (§5 upstream backup)
        and drop the emit routes into the deques it replaces."""
        self.out_seq = dict(meta.out_seq)
        self.output_buffers = {
            channel: deque(buffer)
            for channel, buffer in meta.output_buffers.items()
        }
        self.pending_gathers = copy.deepcopy(meta.pending_gathers)
        self._processed_base = meta.processed_count - self.served
        self.emit_routes.clear()

    def trim_output_buffer(self, channel: ChannelId, up_to_ts: int) -> None:
        """Drop buffered envelopes with ``ts <= up_to_ts`` (§5 trimming)."""
        buffer = self.output_buffers.get(channel)
        while buffer and buffer[0].ts <= up_to_ts:
            buffer.popleft()

    def __repr__(self) -> str:
        return (
            f"TEInstance({self.spec.name}[{self.index}] @node{self.node_id}"
            f" inbox={len(self.inbox)})"
        )


class Candidates(list):
    """The live TE instances in deployment order, and which have input.

    This is what the scheduler selects from: a list a policy may
    scan like the seed loop did, plus ``ready`` — the sorted positions
    in that list whose inbox is non-empty. ``ready`` is kept exact at
    the two places an inbox changes between structural events (the
    transport's empty -> non-empty append, the engine's pop loop). A
    structural change never patches it: it bumps ``Topology.version``,
    and the next reader rebuilds, re-deriving ``ready`` from the
    inboxes.
    """

    def __init__(self, instances, version: int = 0) -> None:
        super().__init__(instances)
        #: The ``Topology.version`` this order was built under.
        self.version = version
        self._position = {inst: at for at, inst in enumerate(self)}
        self.ready = [at for at, inst in enumerate(self) if inst.inbox]

    def add(self, instance: TEInstance) -> None:
        """``instance``'s inbox holds input (idempotent)."""
        position = self._position[instance]
        at = bisect_left(self.ready, position)
        if at == len(self.ready) or self.ready[at] != position:
            self.ready.insert(at, position)

    def discard(self, instance: TEInstance) -> None:
        """``instance``'s inbox is empty (idempotent)."""
        position = self._position[instance]
        at = bisect_left(self.ready, position)
        if at < len(self.ready) and self.ready[at] == position:
            del self.ready[at]
