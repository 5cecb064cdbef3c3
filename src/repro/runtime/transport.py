"""The transport layer: channels, delivery, and backpressure.

Envelopes travel point-to-point channels between TE instances (§4.2).
The :class:`Transport` owns those channels: it stamps nothing and
routes nothing — the dispatcher decides *where* an item goes — but it
performs the actual hand-off into the destination inbox, tracks
per-channel delivery statistics, applies payload isolation
(``copy_payloads``), and reports **backpressure** when a bounded
channel's destination inbox grows past ``channel_capacity``.

Backpressure here is a *signal*, not flow control: the in-process
engine never blocks a producer (dropping or stalling items would break
the replay-based recovery contract, which assumes reliable channels).
Instead, :meth:`Transport.blocked_channels` names the congested
channels and the bottleneck detector consumes that as a second scaling
signal alongside raw inbox depth — the same reaction the paper's
runtime takes when a TE limits throughput (§3.3).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import NULL_REGISTRY
from repro.runtime.envelope import (NO_RESPONSE, ChannelId, Envelope,
                                    make_envelope)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer
    from repro.runtime.deployment import Topology
    from repro.runtime.instances import TEInstance


@dataclass
class Channel:
    """One materialised point-to-point stream, with delivery stats."""

    channel_id: ChannelId
    #: Envelopes appended to the destination inbox.
    delivered: int = 0
    #: Envelopes refused because the destination instance was dead or
    #: missing (they survive in the producer-side replay buffer).
    refused: int = 0
    #: The route, resolved once per structural change instead of once
    #: per envelope: the destination instance (``None`` for an empty
    #: slot) as of ``Topology.version == version``, the id of the worker
    #: that owns it when that is another worker (only ever set inside a
    #: worker; ``None`` means local), and the destination TE's
    #: inbox-depth gauge child. A stale stamp means "resolve again".
    instance: "TEInstance | None" = None
    remote: int | None = None
    version: int = -1
    inbox_depth: Any = None


class Transport:
    """Delivers envelopes into destination inboxes.

    ``capacity`` bounds every channel's destination inbox for
    backpressure *reporting* (None = unbounded, the default);
    ``copy_payloads`` deep-copies payloads at send/inject time for
    wire-faithful isolation (§4.1 location independence).
    """

    def __init__(self, topology: "Topology", *,
                 capacity: int | None = None,
                 copy_payloads: bool = False,
                 payload_isolated: bool = False,
                 metrics: Any = None,
                 tracer: "Tracer | None" = None,
                 clock=None) -> None:
        self._topology = topology
        self.capacity = capacity
        self.copy_payloads = copy_payloads
        #: Substrate capability flag: when the execution substrate
        #: already serialises every hand-off (process boundary), the
        #: defensive ``copy_payloads`` deepcopy is redundant — the wire
        #: codec *is* the isolation — and is skipped on the hot path.
        self.payload_isolated = payload_isolated
        self._channels: dict[ChannelId, Channel] = {}
        #: Worker-side wire routing (multiprocess substrate): when set,
        #: envelopes whose destination instance is owned by another
        #: worker are forwarded over the wire instead of delivered into
        #: a local inbox. ``None`` on the in-process substrate and on
        #: the coordinator.
        self._placement = None
        self._local_worker: int | None = None
        self._remote_send = None
        #: Optional causal tracer; notified on every successful delivery
        #: so queue-wait spans are observable. ``clock`` supplies the
        #: current logical step (the engine passes its own counter).
        self.tracer = tracer
        self._clock = clock if clock is not None else (lambda: 0)
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._c_delivered = registry.counter(
            "transport_delivered_total",
            "envelopes appended to a destination inbox").labels()
        self._c_refused = registry.counter(
            "transport_refused_total",
            "envelopes refused because the destination was dead").labels()
        self._c_copies = registry.counter(
            "transport_payload_copies_total",
            "payload deep-copies performed for isolation").labels()
        self._c_wire = registry.counter(
            "transport_wire_forwards_total",
            "envelopes forwarded to another worker over the wire"
        ).labels()
        self._g_blocked = registry.gauge(
            "transport_blocked_channels",
            "channels over capacity at last blocked_channels() scan").labels()
        self._g_inbox = registry.gauge(
            "runtime_inbox_depth", "queued envelopes per destination TE")
        self._inbox_children: dict[str, Any] = {}

    def inbox_gauge(self, dst_te: str) -> Any:
        """The (cached) inbox-depth gauge child for a destination TE.

        The engine and chaos injector share these cells with delivery so
        every inbox mutation — append, pop, drain, loss — is accounted.
        """
        child = self._inbox_children.get(dst_te)
        if child is None:
            child = self._inbox_children[dst_te] = self._g_inbox.labels(
                te=dst_te)
        return child

    # ------------------------------------------------------------------
    # Payload isolation
    # ------------------------------------------------------------------

    def prepare_payload(self, payload: Any) -> Any:
        """Apply the configured isolation policy to an outgoing payload.

        When the substrate guarantees isolation through serialisation
        (``payload_isolated``), the defensive deepcopy is skipped: the
        payload is pickled onto the wire right after, and the consumer
        only ever sees the deserialised copy.
        """
        if (
            self.copy_payloads
            and not self.payload_isolated
            and payload is not NO_RESPONSE
        ):
            self._c_copies.inc()
            return copy.deepcopy(payload)
        return payload

    # ------------------------------------------------------------------
    # Worker-side wire routing (multiprocess substrate)
    # ------------------------------------------------------------------

    def enable_worker_routing(self, placement, local_worker: int,
                              remote_send) -> None:
        """Route envelopes for non-local instances through the wire.

        Called once inside each worker process after the fork:
        ``placement`` maps instance keys to workers, and
        ``remote_send(envelope, worker)`` queues one envelope for the
        owning worker (through the coordinator). Local hops keep the exact
        in-process delivery path (and the configured ``copy_payloads``
        semantics — within a worker, references are shared again).
        """
        self._placement = placement
        self._local_worker = local_worker
        self._remote_send = remote_send
        # Within a worker the process boundary is gone: local hops
        # share references, so honour copy_payloads again.
        self.payload_isolated = False
        # Routes resolved before this call predate this placement.
        for channel in self._channels.values():
            channel.version = -1

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def channel(self, channel_id: ChannelId) -> Channel:
        """The :class:`Channel` for ``channel_id`` (created on first use)."""
        channel = self._channels.get(channel_id)
        if channel is None:
            channel = self._channels[channel_id] = Channel(
                channel_id, inbox_depth=self.inbox_gauge(channel_id.dst_te))
        return channel

    def channels(self) -> list[Channel]:
        """Every channel an envelope has ever travelled."""
        return list(self._channels.values())

    def deliver(self, envelope: Envelope) -> bool:
        """Append to the destination inbox; refuse if the node is dead.

        Refused envelopes are not lost: they stay in the producer-side
        output buffer and are replayed during recovery. An inbox that
        goes empty -> non-empty joins the scheduler's ready set here, so
        every caller (and anything wrapped around this method) keeps it
        exact.
        """
        channel_id = envelope.channel
        channel = self._channels.get(channel_id)
        if channel is None:
            channel = self.channel(channel_id)
        topology = self._topology
        if channel.version != topology.version:
            channel.instance = topology.te_instance(
                channel_id.dst_te, channel_id.dst_instance)
            placement = self._placement
            owner = None if placement is None else placement.owner_of(
                channel_id.dst_te, channel_id.dst_instance)
            channel.remote = None if owner == self._local_worker else owner
            channel.version = topology.version
        if channel.remote is not None:
            # Not ours: ship it to the owning worker via the wire. The
            # frame counts as delivered on this channel — the owning
            # worker performs the actual inbox append on its side.
            self._c_wire.value += 1
            channel.delivered += 1
            self._remote_send(envelope, channel.remote)
            return True
        instance = channel.instance
        if instance is None or not topology.nodes[instance.node_id].alive:
            channel.refused += 1
            self._c_refused.inc()
            return False
        inbox = instance.inbox
        inbox.append(envelope)
        if len(inbox) == 1:
            topology.candidates().add(instance)
        channel.delivered += 1
        self._c_delivered.value += 1
        channel.inbox_depth.value += 1
        if self.tracer is not None:
            self.tracer.on_deliver(envelope, self._clock())
        return True

    def send(self, src: "TEInstance", edge_index: int, dst_te: str,
             dst_index: int, payload: Any, request_id: int | None,
             expected: int | None, trace_id: int | None = None) -> bool:
        """Stamp, buffer and deliver one item from ``src``.

        The producer-side sequence number and output buffer live on the
        source instance (they are checkpointed with it); the transport
        applies payload isolation and performs the hand-off. Channel id
        and buffer are resolved on the first send per ``(src, edge,
        destination)`` and kept on ``src`` until a restore drops them.
        """
        if self.copy_payloads:
            payload = self.prepare_payload(payload)
        route = src.emit_routes.get((edge_index, dst_index))
        if route is None:
            channel = ChannelId(edge_index, src.name, src.index,
                                dst_te, dst_index)
            route = src.emit_routes[edge_index, dst_index] = (
                channel, src.output_buffers.setdefault(channel, deque()))
        seq = src.out_seq.get(edge_index, 0) + 1
        src.out_seq[edge_index] = seq
        envelope = make_envelope((payload, seq, route[0], request_id,
                                  expected, trace_id))
        route[1].append(envelope)
        return self.deliver(envelope)

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------

    def is_saturated(self, instance: "TEInstance") -> bool:
        """Whether an instance's inbox exceeds the channel capacity."""
        return (
            self.capacity is not None
            and len(instance.inbox) > self.capacity
        )

    def blocked_channels(self) -> list[ChannelId]:
        """Channels whose destination inbox currently exceeds capacity.

        Computed against live inbox depths, so a channel unblocks as
        soon as its destination drains. Deterministically ordered by
        destination then source.
        """
        if self.capacity is None:
            return []
        blocked = []
        for channel_id in self._channels:
            instance = self._topology.te_instance(
                channel_id.dst_te, channel_id.dst_instance
            )
            if (
                instance is not None
                and self._topology.nodes[instance.node_id].alive
                and self.is_saturated(instance)
            ):
                blocked.append(channel_id)
        blocked.sort(key=lambda c: (c.dst_te, c.dst_instance,
                                    c.edge_index, c.src_te, c.src_instance))
        self._g_blocked.set(len(blocked))
        return blocked
