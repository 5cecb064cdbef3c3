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

Framing supports two consumption styles:

* **blocking** (worker side): :func:`read_frame` / :func:`write_frame`
  over a raw file descriptor, reading exactly one frame;
* **non-blocking** (coordinator side): a :class:`FrameBuffer` is fed
  whatever bytes ``os.read`` returned and yields each completed frame,
  so a ``selectors``-driven event loop never blocks on a half-read
  message.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Any, Iterator

from repro.errors import RuntimeExecutionError

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


class FrameBuffer:
    """Incremental frame parser for non-blocking reads.

    Feed it whatever ``os.read`` produced; it accumulates bytes and
    yields each message whose frame has completely arrived. Partial
    frames stay buffered until the next feed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

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
            yield decode_frame(payload)

    def pending_bytes(self) -> int:
        """Bytes buffered towards a not-yet-complete frame."""
        return len(self._buffer)


def _read_exact(fd: int, n: int) -> bytes:
    """Read exactly ``n`` bytes from a blocking fd; raise on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            raise EOFError(
                f"pipe closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(fd: int) -> Any:
    """Blockingly read one complete frame from ``fd``.

    Raises :class:`EOFError` when the peer closed the pipe at a frame
    boundary (clean shutdown) or mid-frame (crash).
    """
    header = b""
    while len(header) < FRAME_HEADER.size:
        chunk = os.read(fd, FRAME_HEADER.size - len(header))
        if not chunk:
            if header:
                raise EOFError("pipe closed mid-header")
            raise EOFError("pipe closed")
        header += chunk
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame header announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte bound (corrupt stream?)"
        )
    return decode_frame(_read_exact(fd, length))


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
# Telemetry rides the same pipes: idle reports piggyback metric and
# profile shards and the terminal results produced since the previous
# report, MSG_TRACE ships causal-trace hops, and crash frames carry the
# worker's flight-recorder dump — no side channels. SE state crosses
# only when the coordinator pulls it (MSG_SNAPSHOT / MSG_STATE).

#: coordinator -> worker: bootstrap (worker id, placement, successor
#: index digest, capability flags); the worker verifies it against its
#: own forked view before serving traffic.
MSG_HELLO = "hello"
#: coordinator -> worker: one envelope to enqueue locally.
MSG_DELIVER = "deliver"
#: coordinator -> worker: state pull — ship back the SE elements you own.
MSG_SNAPSHOT = "snapshot"
#: coordinator -> worker: exit the worker loop.
MSG_SHUTDOWN = "shutdown"

#: worker -> coordinator: an envelope whose destination lives elsewhere.
MSG_OUT = "out"
#: worker -> coordinator: progress report — ``(tag, consumed, emitted,
#: processed, obs)`` where the cumulative counters double as the
#: quiescence signal and ``obs`` is a dict of cumulative telemetry
#: shards (``"metrics"``, ``"profile"``) plus ``"results"``: the
#: terminal outputs produced since the previous report, by TE, each
#: shipped exactly once.
MSG_IDLE = "idle"
#: worker -> coordinator: ``(tag, [(trace_id, Hop), ...])`` — causal
#: trace hops recorded since the last drain. Pure telemetry: never
#: counted in the consumed/emitted quiescence arithmetic.
MSG_TRACE = "trace"
#: worker -> coordinator: state-pull reply — an idle report with one
#: more field, the worker's SE elements by ``(se, index)``.
MSG_STATE = "state"
#: worker -> coordinator: the worker loop died — ``(tag, traceback,
#: extra)`` where ``extra`` carries the worker id, step count and the
#: flight-recorder dump. Older two-element frames (no ``extra``) are
#: still accepted.
MSG_CRASH = "crash"
