"""The wire layer: length-prefixed pickle frames over OS pipes.

The :class:`~repro.runtime.multiprocess.MultiprocessSubstrate` connects
shared-nothing worker processes to the coordinating process with plain
``os.pipe()`` descriptors. Everything that crosses a process boundary —
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
Workers write blocking (:func:`write_bytes` / :func:`write_frame`); the
coordinator queues encoded frames and writes them as the pipe takes
them.

Data frames carry **runs**: a ``MSG_DELIVER`` holds a list of up to
``multiprocess.WIRE_RUN`` envelopes, so one pickle, one header and one
``os.write`` are shared by the run. Every run crosses through one codec
pair, :func:`encode_run` / :func:`decode_run`: on the wire an envelope
is a plain 6-tuple (an ``Envelope`` would cost pickle one Python-level
``__getnewargs__`` call each), and a route's interned ``ChannelId`` is
written once per frame by pickle's memo. A worker's ``MSG_OUT`` wraps
the destination's ready-made ``MSG_DELIVER`` frame, which the
coordinator forwards as bytes. The receiver still serves every envelope
one at a time.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Any, Iterator

from repro.errors import RuntimeExecutionError
from repro.runtime.envelope import Envelope, make_envelope

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


def decode_frame(payload: bytes) -> Any:
    """Deserialise the payload bytes of one frame (prefix stripped)."""
    return pickle.loads(payload)


def encode_run(run: list[Envelope]) -> list[tuple]:
    """A run of envelopes as the plain tuples a data frame carries."""
    return list(map(tuple, run))


def decode_run(rows: list[tuple]) -> list[Envelope]:
    """The envelopes of a decoded data frame's rows, typed again."""
    return list(map(make_envelope, rows))


class FrameBuffer:
    """Incremental frame parser for non-blocking reads.

    Feed it whatever ``os.read`` produced; it accumulates bytes and
    yields each message whose frame has completely arrived. Partial
    frames stay buffered until the next feed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Bytes of the frame last yielded, its header included.
        self.frame_bytes = 0

    def feed(self, data: bytes) -> Iterator[Any]:
        """Absorb ``data``; yield every now-complete message."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < FRAME_HEADER.size:
                return
            (length,) = FRAME_HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"frame header announces {length} bytes, over the "
                    f"{MAX_FRAME_BYTES}-byte bound (corrupt stream?)"
                )
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[FRAME_HEADER.size:end])
            del self._buffer[:end]
            self.frame_bytes = end
            yield decode_frame(payload)

    def pending_bytes(self) -> int:
        """Bytes buffered towards a not-yet-complete frame."""
        return len(self._buffer)


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
# workers answer with MSG_OUT/MSG_IDLE/MSG_TRACE/MSG_STATE/MSG_CRASH.
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
#: coordinator -> worker: ``(tag, encode_run(run))`` — a run of
#: envelopes to enqueue locally, in order. Built by the coordinator for
#: what it routes, and by a worker for what it sends another worker.
MSG_DELIVER = "deliver"
#: coordinator -> worker: state pull — ship back the SE elements you own.
MSG_SNAPSHOT = "snapshot"
#: coordinator -> worker: exit the worker loop.
MSG_SHUTDOWN = "shutdown"

#: worker -> coordinator: ``(tag, dst_worker, count, frame)`` — ``count``
#: envelopes for worker ``dst_worker``, in emission order, as ``frame``:
#: that worker's complete ``MSG_DELIVER`` frame (header included). The
#: coordinator appends the bytes to the destination's outbox undecoded.
MSG_OUT = "out"
#: worker -> coordinator: progress report — ``(tag, consumed, emitted,
#: processed, obs)`` where the cumulative counters double as the
#: quiescence signal and ``obs`` is a dict of the cumulative metrics
#: shard (``"metrics"``: ``MetricsRegistry.shard``'s ``(schema | None,
#: values)``, the schema only when the registry's shape changed since
#: the worker's previous report) plus ``"results"``: the terminal
#: outputs produced since the previous report, by TE, each shipped
#: exactly once.
MSG_IDLE = "idle"
#: worker -> coordinator: ``(tag, [(trace_id, Hop), ...])`` — causal
#: trace hops recorded since the last drain. Pure telemetry: never
#: counted in the consumed/emitted quiescence arithmetic (which counts
#: envelopes for the two data frames and one per control frame).
MSG_TRACE = "trace"
#: worker -> coordinator: state-pull reply — an idle report (the same
#: compact metrics shard included) with one more field, the worker's SE
#: elements by ``(se, index)``.
MSG_STATE = "state"
#: worker -> coordinator: the worker loop died — ``(tag, traceback,
#: extra)`` where ``extra`` carries the worker id, step count and the
#: flight-recorder dump.
MSG_CRASH = "crash"
