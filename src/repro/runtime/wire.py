"""The wire layer: length-prefixed pickle frames over OS pipes.

The :class:`~repro.runtime.multiprocess.MultiprocessSubstrate` connects
shared-nothing worker processes to the coordinating process, and each
worker to every other, with plain ``os.pipe()`` descriptors. Everything that crosses a process boundary —
envelopes, control-plane messages, state snapshots, metrics shards —
travels as a *frame*: a 4-byte big-endian length prefix followed by a
pickle of the message object.

The codec is deliberately explicit (rather than relying on
``multiprocessing``'s internal connection machinery) so that the
serialisation contract is testable on its own: ``tests/runtime/
test_wire.py`` round-trips every message class the substrate ships —
:class:`~repro.runtime.envelope.Envelope`, the ``NO_RESPONSE`` gather
sentinel, :class:`~repro.state.base.DeltaChunk`, chaos fault dicts —
so a future ``__slots__`` or dataclass refactor cannot silently break
the multiprocess path.

Both roles read the same way: a :class:`FrameBuffer` is fed whatever
bytes a non-blocking ``os.read`` returned and yields each completed
frame, so a ``select``-driven loop never blocks on a half-read message.
Frames parse in place: each whole frame is unpickled straight from the
bytes the read returned, and only a trailing partial frame is copied.
Workers write the coordinator blocking (:func:`write_bytes` /
:func:`write_frame`); the coordinator, and a worker writing a peer,
queue encoded frames and write them as the pipe takes them.

Data frames carry **runs**: a ``MSG_DELIVER`` holds one list of rows
per channel, up to ``multiprocess.WIRE_RUN`` rows in all, so one
pickle, one header and one ``os.write`` are shared by the frame. On the
wire an envelope is a plain 6-tuple row, ``(payload, seq, channel,
request_id, expected, trace_id)`` (an ``Envelope`` would cost pickle
one Python-level ``__getnewargs__`` call each), and a route's
``ChannelId`` is written once per frame by pickle's memo and crosses
interned (:func:`~repro.runtime.envelope.intern_channel`). The
coordinator queues each input as that row already, under its route; a
worker queues what it sends another worker under its channel and turns
each run into rows with :func:`encode_run`. Every receiver lands each
run with one ``Transport.deliver_run`` call, which rebuilds the
envelopes as it extends the inbox.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Any, Iterator

from repro.errors import RuntimeExecutionError
from repro.runtime.envelope import Envelope

#: Frame header: payload length as a 4-byte big-endian unsigned int.
FRAME_HEADER = struct.Struct(">I")

#: Refuse frames above this size — a corrupt header otherwise turns
#: into a multi-gigabyte allocation before anything notices.
MAX_FRAME_BYTES = 1 << 30


class WireError(RuntimeExecutionError):
    """Raised on a malformed frame or an unexpectedly closed pipe."""


def encode_frame(message: Any) -> bytes:
    """Serialise ``message`` into one length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return FRAME_HEADER.pack(len(payload)) + payload


def encode_run(run: list[Envelope]) -> list[tuple]:
    """A run of envelopes as the plain tuples a data frame carries."""
    return list(map(tuple, run))


class FrameBuffer:
    """Incremental frame parser for non-blocking reads.

    Feed it whatever ``os.read`` produced; it yields each message whose
    frame has completely arrived, unpickled in place from the bytes it
    was fed, and copies only the head of a frame still incomplete.
    """

    def __init__(self) -> None:
        #: The head of a frame not yet complete.
        self._buffer = bytearray()
        #: Buffered bytes at which its oldest frame, or header, is whole.
        self._need = FRAME_HEADER.size
        #: Bytes of the frame last yielded, its header included.
        self.frame_bytes = 0

    def feed(self, data: bytes) -> Iterator[Any]:
        """Absorb ``data``; yield every now-complete message (a payload
        that does not unpickle is a :class:`WireError`, and consumed)."""
        if self._buffer:
            self._buffer += data
            if len(self._buffer) < self._need:  # a big frame: copied once
                return
            data, self._buffer = self._buffer, bytearray()
        view, start, self._need = memoryview(data), 0, FRAME_HEADER.size
        try:
            while len(data) - start >= FRAME_HEADER.size:
                (length,) = FRAME_HEADER.unpack_from(data, start)
                if length > MAX_FRAME_BYTES:
                    raise WireError(
                        f"frame header announces {length} bytes, over the "
                        f"{MAX_FRAME_BYTES}-byte bound (corrupt stream?)"
                    )
                end = start + FRAME_HEADER.size + length
                if len(data) < end:
                    self._need = end - start
                    break
                self.frame_bytes, start = end - start, end
                try:
                    message = pickle.loads(view[end - length:end])
                except Exception as exc:  # bad bytes raise many types
                    raise WireError(
                        f"malformed {length}-byte frame: {exc!r}") from exc
                yield message
        finally:  # the last frame, a raise, or a consumer that stopped
            if start < len(data):
                self._buffer = bytearray(view[start:])


def write_bytes(fd: int, data: bytes) -> None:
    """Blockingly write pre-encoded frame bytes (handles short writes).

    Split out from :func:`write_frame` so callers that meter the wire
    (frame/byte counters, serialize timers) can encode first, measure,
    then ship.
    """
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def write_frame(fd: int, message: Any) -> None:
    """Blockingly write one frame to ``fd`` (handles short writes)."""
    write_bytes(fd, encode_frame(message))


# ----------------------------------------------------------------------
# Control-plane message kinds
# ----------------------------------------------------------------------
#
# Every frame is a tuple whose first element is one of these tags. The
# coordinator speaks MSG_HELLO/MSG_DELIVER/MSG_SNAPSHOT/MSG_SHUTDOWN;
# workers answer with MSG_IDLE/MSG_TRACE/MSG_STATE/MSG_CRASH, and write
# each other MSG_DELIVER only (the relay tag that once carried their
# runs through the coordinator is retired).
# Structural actions (scale-out, repartition, checkpoint) are
# control-plane messages by design: MSG_SNAPSHOT is the first of them,
# and the tags reserve the vocabulary for the follow-ups.
#
# Telemetry rides the same pipes: idle reports piggyback the metrics
# shard (profile phases included) as a flat tuple of cell values, plus
# the terminal results produced since the previous report; MSG_TRACE
# ships causal-trace hops, and crash frames carry the worker's
# flight-recorder dump — no side channels. SE state crosses only when
# the coordinator pulls it (MSG_SNAPSHOT / MSG_STATE).

#: coordinator -> worker: bootstrap (worker id, placement, successor
#: index digest, capability flags); the worker verifies it against its
#: own forked view before serving traffic.
MSG_HELLO = "hello"
#: coordinator or peer -> worker: ``(tag, [rows of channel a, rows of
#: channel b, ...])`` — one run of envelopes as rows per channel, each
#: in order, to enqueue locally. Built by the coordinator for the inputs
#: it routes, and by a worker (``encode_run``) for what it sends another
#: worker down their pipe.
MSG_DELIVER = "deliver"
#: coordinator -> worker: state pull — ship back the SE elements you own.
MSG_SNAPSHOT = "snapshot"
#: coordinator -> worker: exit the worker loop.
MSG_SHUTDOWN = "shutdown"

#: worker -> coordinator: progress report, sent when locally idle —
#: ``(tag, consumed, processed, peer_sent, peer_consumed, obs)`` where
#: the cumulative counters (``peer_*``: envelopes sent to and consumed
#: from each worker, by id) double as the quiescence signal and ``obs``
#: is a dict of the cumulative metrics shard (``"metrics"``:
#: ``MetricsRegistry.shard``'s ``(schema | None, values)``, the schema
#: only when the registry's shape changed since the worker's previous
#: report) plus ``"results"``: the terminal outputs produced since the
#: previous report, by TE, each shipped exactly once.
MSG_IDLE = "idle"
#: worker -> coordinator: ``(tag, [(trace_id, Hop), ...])`` — causal
#: trace hops recorded since the last drain. Pure telemetry: never
#: counted in the quiescence arithmetic (which counts envelopes for
#: data frames and one per control frame).
MSG_TRACE = "trace"
#: worker -> coordinator: state-pull reply — an idle report (the same
#: compact metrics shard included) with one more field, the worker's SE
#: elements by ``(se, index)``.
MSG_STATE = "state"
#: worker -> coordinator: the worker loop died — ``(tag, traceback,
#: extra)`` where ``extra`` carries the worker id, step count and the
#: flight-recorder dump.
MSG_CRASH = "crash"
