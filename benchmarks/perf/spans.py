"""Span recording for the traced run, from the benchmark's side only.

The traced run wraps the calls *into* each runtime layer (inject, drain,
select, process, dispatch, deliver, checkpoint, restore) after
``deploy()``; nothing inside ``repro`` is touched. A layer's **self
time** is its span's duration minus the part its child spans cover, so
the self times below one root span add up to that root's duration.

Hot loops cannot afford one stored span per call: every wrapped call
updates a per-layer aggregate ``[calls, total_s, self_s]``, and the
harness takes per-chunk deltas of those. Individual spans (name, start,
end, parent, scope) are stored only while :attr:`detail` is set — the
harness sets it per request, for whole requests, until the trace holds
:data:`SPAN_BUDGET` spans.
"""

from __future__ import annotations

import time
from typing import Any, Callable

#: The harness stops opening stored span trees once a trace holds this
#: many spans (~100 B each in the trace file).
SPAN_BUDGET = 60_000


class SpanRecorder:
    """Per-layer aggregates plus an optional list of individual spans."""

    def __init__(self) -> None:
        #: layer name -> [calls, total seconds, self seconds].
        self.totals: dict[str, list] = {}
        #: Stored spans: dicts with id/parent/name/start/end/scope.
        self.spans: list[dict] = []
        #: Scope label stamped on stored spans (``"serve#17"``); spans
        #: are stored only while this is not ``None``.
        self.detail: str | None = None
        # Open spans, innermost last:
        # [span id, seconds covered by children, opened under detail].
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of layer ``name`` per call."""
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            self._next_id += 1
            frame = [self._next_id, 0.0, self.detail is not None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if frame[2]:
                    # A stored tree hangs from the first span opened
                    # under ``detail``; spans outside it are not stored.
                    self.spans.append({
                        "id": frame[0],
                        "parent": (stack[-1][0]
                                   if stack and stack[-1][2] else None),
                        "name": name, "start": start, "end": end,
                        "scope": self.detail,
                    })

        return timed

    def snapshot(self) -> dict[str, tuple]:
        """The aggregates as of now (for deltas over a chunk or phase)."""
        return {name: tuple(agg) for name, agg in self.totals.items()}

    def since(self, before: dict[str, tuple]) -> dict[str, dict]:
        """Per-layer ``calls/total_s/self_s`` accumulated after ``before``."""
        out = {}
        for name, (calls, total, self_s) in self.snapshot().items():
            calls0, total0, self0 = before.get(name, (0, 0.0, 0.0))
            if calls != calls0:
                out[name] = {"calls": calls - calls0,
                             "total_s": total - total0,
                             "self_s": self_s - self0}
        return out
