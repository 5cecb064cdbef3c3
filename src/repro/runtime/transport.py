"""The transport layer: channels and delivery.

Envelopes travel point-to-point channels between TE instances (§4.2).
The :class:`Transport` owns those channels: it stamps nothing and
routes nothing — the dispatcher decides *where* an item goes — but it
performs the actual hand-off into the destination inbox and keeps
each channel's resolved route.

Channels are unbounded and never block a producer: dropping or
stalling items would break the replay-based recovery contract, which
assumes reliable channels. Congestion shows up as inbox backlog, which
the bottleneck detector reads (§3.3). In-process hand-offs share
payload references; location independence (§4.1) is checked
statically by the analysis passes and physically by the multiprocess
wire, which serialises every cross-worker hand-off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import NULL_REGISTRY
from repro.runtime.envelope import ChannelId, Envelope, RequestId, make_envelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer
    from repro.runtime.deployment import Topology
    from repro.runtime.instances import TEInstance


@dataclass
class Channel:
    """One materialised point-to-point stream and its resolved route."""

    channel_id: ChannelId
    #: The route, resolved once per structural change instead of once
    #: per envelope: the destination instance (``None`` for an empty
    #: slot) as of ``Topology.version == version``, the id of the worker
    #: that owns it when that is another worker (only ever set inside a
    #: worker; ``None`` means local). A stale stamp means "resolve
    #: again".
    instance: "TEInstance | None" = None
    remote: int | None = None
    version: int = -1


class Transport:
    """Delivers envelopes into destination inboxes."""

    def __init__(self, topology: "Topology", *,
                 metrics: Any = None,
                 tracer: "Tracer | None" = None,
                 clock=None) -> None:
        self._topology = topology
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
        self._c_wire = registry.counter(
            "transport_wire_forwards_total",
            "envelopes forwarded to another worker over the wire"
        ).labels()

    # ------------------------------------------------------------------
    # Worker-side wire routing (multiprocess substrate)
    # ------------------------------------------------------------------

    def enable_worker_routing(self, placement, local_worker: int,
                              remote_send) -> None:
        """Route envelopes for non-local instances through the wire.

        Called once inside each worker process after the fork:
        ``placement`` maps instance keys to workers, and
        ``remote_send(envelope, worker)`` queues one envelope for the
        owning worker's pipe. Local hops keep the exact in-process
        delivery path.
        """
        self._placement = placement
        self._local_worker = local_worker
        self._remote_send = remote_send
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
            channel = self._channels[channel_id] = Channel(channel_id)
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
            self._resolve(channel)
        if channel.remote is not None:
            # Not ours: ship it to the owning worker via the wire, which
            # performs the actual inbox append on its side.
            self._c_wire.value += 1
            self._remote_send(envelope, channel.remote)
            return True
        instance = channel.instance
        if instance is None or not topology.nodes[instance.node_id].alive:
            self._c_refused.inc()
            return False
        inbox = instance.inbox
        inbox.append(envelope)
        if len(inbox) == 1:
            topology.candidates().add(instance)
        self._c_delivered.value += 1
        if self.tracer is not None:
            self.tracer.on_deliver(envelope, self._clock())
        return True

    def deliver_run(self, rows: list[tuple]) -> None:
        """Land a run of wire rows of one channel with one call: the
        route resolved once, the inbox extended, one ready-set add at
        most. A remote, dead or traced route takes :meth:`deliver` per
        envelope, which keeps refusals and ``on_deliver`` exact."""
        channel, topology = self.channel(rows[0][2]), self._topology
        if channel.version != topology.version:
            self._resolve(channel)
        instance = channel.instance
        if (channel.remote is not None or instance is None
                or self.tracer is not None
                or not topology.nodes[instance.node_id].alive):
            for row in rows:
                self.deliver(make_envelope(row))
            return
        if not instance.inbox:
            topology.candidates().add(instance)
        instance.inbox.extend(map(make_envelope, rows))
        self._c_delivered.value += len(rows)

    def _resolve(self, channel: Channel) -> None:
        """Resolve a route under the current ``Topology.version``."""
        dst, topology = channel.channel_id[3:], self._topology
        channel.instance = topology.te_instance(*dst)
        placement = self._placement
        owner = None if placement is None else placement.owner_of(*dst)
        channel.remote = None if owner == self._local_worker else owner
        channel.version = topology.version

    def send(self, src: "TEInstance", edge_index: int, dst_te: str,
             dst_index: int, payload: Any, request_id: RequestId | None,
             expected: int | None, trace_id: int | None = None) -> bool:
        """Stamp, buffer and deliver one item from ``src``.

        The producer-side sequence number and output buffer live on the
        source instance (they are checkpointed with it); the transport
        performs the hand-off. Channel id
        and buffer are resolved on the first send per ``(src, edge,
        destination)`` and kept on ``src`` until a restore drops them.
        """
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
