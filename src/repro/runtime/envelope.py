"""Data-item envelopes and channel identifiers.

Every payload travelling a dataflow edge is wrapped in an
:class:`Envelope` carrying the metadata the paper's recovery mechanism
needs (§5): a producer-side scalar timestamp per channel (used for
duplicate detection after replay) and, for global-access round trips, a
request id plus the expected response count for the gather barrier.
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple


class _NoResponse:
    """Marker emitted on gather edges when a TE produced no output.

    Without it, a merge barrier would wait forever for an instance whose
    task function returned ``None`` for a given request.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<NO_RESPONSE>"

    def __reduce__(self):
        # The marker is compared by identity (``payload is NO_RESPONSE``)
        # so crossing a pickle boundary — the multiprocess substrate's
        # wire codec — must yield the singleton, not a fresh instance.
        return (_restore_no_response, ())


def _restore_no_response() -> "_NoResponse":
    return NO_RESPONSE


NO_RESPONSE = _NoResponse()


class ChannelId(NamedTuple):
    """Identifies one point-to-point stream between two TE instances.

    ``edge_index`` is the edge's position in ``sdg.dataflows`` — or the
    sentinel ``-1`` for the external-input channel into an entry TE.

    A tuple, like :class:`Envelope`: one of each is built, hashed and
    compared per item, so both get C-level construction, ``__hash__``
    and ``__eq__`` (and pickle as tuples on the wire). Either compares
    equal to a plain tuple of its fields; nothing may tell an envelope
    from a payload with ``isinstance(x, tuple)``.
    """

    edge_index: int
    src_te: str
    src_instance: int
    dst_te: str
    dst_instance: int

    def reroute(self, dst_instance: int) -> "ChannelId":
        return ChannelId(self.edge_index, self.src_te, self.src_instance,
                         self.dst_te, dst_instance)


#: edge_index used for external input injected into entry TEs.
INPUT_EDGE = -1

#: edge_index used for the coordinator<->worker wire channels of the
#: multiprocess substrate; ``blocked_channels()`` reports congested wire
#: channels under this sentinel so callers can tell transport-level
#: backpressure (real edges) from wire-level backpressure.
WIRE_EDGE = -2


class Envelope(NamedTuple):
    """One data item in flight on a specific channel."""

    payload: Any
    #: Producer-side sequence number on this channel; strictly increasing.
    ts: int
    channel: ChannelId
    #: Correlates a broadcast request with its gathered responses.
    request_id: int | None = None
    #: Number of responses the gather barrier must collect.
    expected_responses: int | None = None
    #: Causal trace id (``RuntimeConfig(trace=True)``); rides the
    #: envelope through dispatch fan-out, repartition re-routing and
    #: crash replay. ``None`` when tracing is off — the hot path then
    #: pays a single attribute default, nothing else.
    trace_id: int | None = None

    def with_channel(self, channel: ChannelId, ts: int) -> "Envelope":
        """Rewrap the same logical item for delivery on another channel."""
        return Envelope(self.payload, ts, channel, self.request_id,
                        self.expected_responses, self.trace_id)


#: ``make_envelope(row)`` with all six fields in order: one C-level call
#: where ``Envelope(...)`` runs the named tuple's Python-level ``__new__``.
make_envelope = partial(tuple.__new__, Envelope)
