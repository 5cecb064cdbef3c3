"""The flight recorder: a bounded ring of recent per-process activity.

Post-mortem debugging of a crashed worker (or a SIGKILLed durable run)
needs the *last few things the process did*, not the full history. The
:class:`FlightRecorder` keeps a ``deque(maxlen=capacity)`` of compact
event records — one per envelope served (taken after replay dedup, so
a dropped duplicate leaves none), plus structural notes (node failures,
restarts) — so memory stays O(capacity) no matter how long the run.

Where the dump surfaces:

* a multiprocess worker that dies ships ``flight.dump()`` inside its
  ``MSG_CRASH`` frame, and the coordinator appends the rendered tail
  to the raised error;
* a durable run (:mod:`repro.durability.runner`) writes the dump to
  ``<run_dir>/flight.json`` at every epoch fence and periodically
  between fences, so a SIGKILL post-mortem shows the run's last steps;
* ``repro top`` renders the tail live.

Dump schema — a JSON-ready list of dicts, oldest first. Every record
has ``step`` (logical step when recorded) and ``kind``; envelope
records (``kind="serve"``) add ``te``, ``instance``, ``edge`` (the
dataflow edge index, ``-1`` for external input), ``src``
(``"te/instance"`` of the producer), ``ts`` (per-stream sequence
number), ``request_id`` and a truncated ``payload`` repr.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.envelope import Envelope
    from repro.runtime.instances import TEInstance

__all__ = ["DEFAULT_CAPACITY", "FlightRecorder", "render_dump"]

#: Default ring capacity when a caller enables recording without
#: choosing one (e.g. the durable runner).
DEFAULT_CAPACITY = 256

#: Truncation bound for payload reprs — crash payloads can be huge.
_PAYLOAD_REPR_LIMIT = 120


def _payload_digest(payload: Any) -> str:
    try:
        text = repr(payload)
    except Exception:  # pragma: no cover - hostile __repr__
        text = f"<unreprable {type(payload).__name__}>"
    if len(text) > _PAYLOAD_REPR_LIMIT:
        text = text[:_PAYLOAD_REPR_LIMIT - 3] + "..."
    return text


class FlightRecorder:
    """Bounded ring buffer of recent envelope digests and notes."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    # -- write side ----------------------------------------------------

    def record(self, step: int, kind: str, **detail: Any) -> None:
        """Append one structural note (node failure, restart, ...)."""
        entry = {"step": step, "kind": kind}
        entry.update(detail)
        self._ring.append(entry)

    def record_envelope(self, step: int, instance: "TEInstance",
                        envelope: "Envelope") -> None:
        """Append the digest of one envelope about to be served."""
        channel = envelope.channel
        self._ring.append({
            "step": step,
            "kind": "serve",
            "te": instance.name,
            "instance": instance.index,
            "edge": channel.edge_index,
            "src": f"{channel.src_te}/{channel.src_instance}",
            "ts": envelope.ts,
            "request_id": envelope.request_id,
            "payload": _payload_digest(envelope.payload),
        })

    def reset(self) -> None:
        """Empty the ring (worker startup after a fork)."""
        self._ring.clear()

    # -- read side -----------------------------------------------------

    def dump(self) -> list[dict]:
        """The ring as JSON-ready dicts, oldest first."""
        return [dict(entry) for entry in self._ring]

    def tail(self, n: int) -> list[dict]:
        return [dict(entry) for entry in
                list(self._ring)[-n:]] if n > 0 else []

    def render(self, limit: int | None = None) -> str:
        """Human-readable tail, one line per record."""
        return render_dump(list(self._ring), limit)


def render_dump(entries: list[dict], limit: int | None = None) -> str:
    """Render the last ``limit`` flight entries of a ring or of a shipped
    :meth:`FlightRecorder.dump` (``MSG_CRASH``), one line per record."""
    if limit is not None:
        entries = entries[-limit:]
    if not entries:
        return "(flight recorder empty)"
    lines = []
    for entry in entries:
        if entry["kind"] == "serve":
            req = (f" req={entry['request_id']}"
                   if entry.get("request_id") is not None else "")
            lines.append(
                f"step {entry['step']:>6}  serve "
                f"{entry['te']}[{entry['instance']}] "
                f"<- {entry['src']} ts={entry['ts']}{req} "
                f"{entry['payload']}"
            )
        else:
            extra = " ".join(
                f"{k}={v}" for k, v in entry.items()
                if k not in ("step", "kind")
            )
            lines.append(
                f"step {entry['step']:>6}  {entry['kind']}"
                f"{'  ' + extra if extra else ''}"
            )
    return "\n".join(lines)
