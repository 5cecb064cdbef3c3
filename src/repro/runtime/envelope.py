"""Data-item envelopes and channel identifiers.

Every payload travelling a dataflow edge is wrapped in an
:class:`Envelope` carrying the metadata the paper's recovery mechanism
needs (§5): a producer-side scalar timestamp per channel (used for
duplicate detection after replay) and, for global-access round trips, a
request id plus the expected response count for the gather barrier.
"""

from __future__ import annotations

import copyreg
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
    and ``__eq__``. Either compares equal to a plain tuple of its
    fields; nothing may tell an envelope from a payload with
    ``isinstance(x, tuple)``. It crosses a pickle boundary as its fields
    and :func:`intern_channel`, not through the named tuple's
    ``__getnewargs__`` and ``__new__``, so a receiver holds one object
    per route.
    """

    edge_index: int
    src_te: str
    src_instance: int
    dst_te: str
    dst_instance: int

    def reroute(self, dst_instance: int) -> "ChannelId":
        return ChannelId(self.edge_index, self.src_te, self.src_instance,
                         self.dst_te, dst_instance)

    def __reduce__(self):
        return intern_channel, tuple(self)


#: Every channel this process unpickled, by its fields.
_INTERNED: dict[tuple, ChannelId] = {}


def intern_channel(*fields: Any) -> ChannelId:
    """The one :class:`ChannelId` of ``fields`` unpickling hands out in
    this process, so a dict keyed by a route's channel hits by identity."""
    return _INTERNED.setdefault(fields, tuple.__new__(ChannelId, fields))


# Pickles name it by a private-use extension code, not a module path:
# an unpickler finds it in copyreg's cache instead of importing it.
copyreg.add_extension(__name__, "intern_channel", 240)


#: edge_index used for external input injected into entry TEs.
INPUT_EDGE = -1

#: A global-access round trip's id: the fan-out's stream and first stamp,
#: ``(edge_index, src_te, src_instance, ts)``; for an injected broadcast
#: ``(INPUT_EDGE, entry, 0, first input seq)``. Replay regenerates it.
RequestId = tuple[int, str, int, int]


class Envelope(NamedTuple):
    """One data item in flight on a specific channel."""

    payload: Any
    #: Producer-side sequence number on this channel; strictly increasing.
    ts: int
    channel: ChannelId
    #: Correlates a broadcast request with its gathered responses; named
    #: by the broadcast's first stamp, so replay regenerates it.
    request_id: RequestId | None = None
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
