"""Structured event bus.

The runtime layers publish typed events here instead of keeping
private logs: the engine (scale-out, repartition epoch, node failure),
the checkpoint manager (begin/commit/abort), the recovery manager and
supervisor (restore, attempt ladder, quarantine), the failure detector
and the chaos injector.  Consumers read the in-order event list, filter
by source/kind, subscribe a callback, or export JSON lines.

Events are ordered by publication, stamped with the *logical* step —
no wall clock, so a deterministic run yields a byte-identical event
stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["Event", "EventBus", "JsonlExporter", "KIND"]


class KIND:
    """Well-known event kinds (sources may also publish ad-hoc kinds)."""

    SCALE_OUT = "scale-out"
    REPARTITION = "repartition-epoch"
    NODE_FAILED = "node-failed"
    CHECKPOINT_BEGIN = "checkpoint-begin"
    CHECKPOINT_COMMIT = "checkpoint-commit"
    CHECKPOINT_ABORT = "checkpoint-abort"
    RESTORE = "restore"
    FAILURE_DETECTED = "failure-detected"
    FAULT_INJECTED = "fault-injected"
    QUARANTINED = "quarantined"
    WORKER_RESTART = "worker-restart"


@dataclass(frozen=True)
class Event:
    """One structured occurrence at a logical step.

    ``attrs`` carries the source-specific payload (node ids, checkpoint
    versions, fault descriptions, ...).
    """

    seq: int
    step: int
    source: str
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {
            "seq": self.seq,
            "step": self.step,
            "source": self.source,
            "kind": self.kind,
            **{k: _jsonable(v) for k, v in self.attrs.items()},
        }
        return json.dumps(record, sort_keys=True)


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        if isinstance(value, (list, tuple, set, frozenset)):
            return [_jsonable(v) for v in value]
        return repr(value)


class EventBus:
    """Append-only, in-order stream of :class:`Event` with subscriptions."""

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._listeners: list[tuple[Callable[[Event], None], frozenset[str] | None]] = []

    def publish(self, source: str, kind: str, step: int, **attrs: Any) -> Event:
        event = Event(seq=len(self._events), step=step, source=source, kind=kind, attrs=attrs)
        self._events.append(event)
        for listener, kinds in self._listeners:
            if kinds is None or kind in kinds:
                listener(event)
        return event

    def subscribe(
        self, listener: Callable[[Event], None], kinds: list[str] | None = None
    ) -> Callable[[Event], None]:
        """Call ``listener`` on every future event (optionally filtered)."""
        self._listeners.append((listener, frozenset(kinds) if kinds else None))
        return listener

    def unsubscribe(self, listener: Callable[[Event], None]) -> None:
        # ``!=``, not ``is not``: each ``obj.method`` access is a fresh
        # bound-method object, equal to (but not identical with) the one
        # that subscribed.
        self._listeners = [(cb, kinds) for cb, kinds in self._listeners if cb != listener]

    def events(self, source: str | None = None, kind: str | None = None) -> list[Event]:
        return [
            e
            for e in self._events
            if (source is None or e.source == source) and (kind is None or e.kind == kind)
        ]

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self._events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        """One JSON object per line, in publication order."""
        return "\n".join(e.to_json() for e in self._events) + ("\n" if self._events else "")

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(list(self._events))


class JsonlExporter:
    """Incremental, durable JSONL export of an :class:`EventBus`.

    Each :meth:`export` call appends the events published since the
    previous call, flushes and fsyncs, and advances :attr:`byte_offset`
    — a watermark a run manifest can record so that, after a crash, the
    file is truncated back to the last *committed* offset instead of
    being re-exported from scratch. Event ``seq`` numbers restart with
    each process incarnation, so the cursor is positional within the
    current bus, while the byte offset is durable across restarts.
    """

    def __init__(self, path: str, start_offset: int = 0) -> None:
        self.path = path
        # Create the file if needed, then discard any uncommitted tail
        # (events exported during an epoch whose commit never landed).
        with open(path, "ab"):
            pass
        if os.path.getsize(path) < start_offset:
            raise ValueError(
                f"event log {path!r} is shorter than the committed "
                f"offset {start_offset}; refusing to resume from it"
            )
        with open(path, "r+b") as fh:
            fh.truncate(start_offset)
        self.byte_offset = start_offset
        self._cursor = 0  # events of the *current* bus already exported

    @property
    def exported_seq(self) -> int:
        """Events of the current bus incarnation already on disk."""
        return self._cursor

    def export(self, bus: EventBus) -> tuple[int, int]:
        """Append all not-yet-exported events; return the new watermark.

        Returns ``(exported_seq, byte_offset)`` after the append. The
        write is flushed and fsynced before returning, so once a caller
        records the offset the bytes below it are durable.
        """
        fresh = [e for e in bus if e.seq >= self._cursor]
        with open(self.path, "ab") as fh:
            for event in fresh:
                fh.write((event.to_json() + "\n").encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
            self.byte_offset = fh.tell()
        self._cursor += len(fresh)
        return self._cursor, self.byte_offset
