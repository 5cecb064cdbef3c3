"""Heartbeat-based failure detection.

The paper's SEEP runtime notices failed workers on its own and triggers
the §5 recovery protocol; nothing tells it which node died. This module
reproduces that behaviour for the in-process engine: every live node
"heartbeats" implicitly by being observed alive at each engine step, and
the :class:`FailureDetector` — installed as a step hook — watches those
heartbeats in logical time:

* a node whose heartbeat has been silent for ``heartbeat_timeout`` steps
  is declared **dead**;
* a node that is alive but has made no processing progress for
  ``stall_timeout`` steps *while holding queued work* is declared
  **stalled** (e.g. a paused or pathologically slow node);
* a task-code crash is reported **immediately** through the engine's
  crash-handler channel (the loud-failure path — a worker process dying
  with a stack trace rather than going silent).

The detector only *marks* nodes: each verdict is one ``failure-detected``
event on ``runtime.events`` (source ``"detector"``, the verdict in
``attrs["verdict"]``), and the bus is the only record of it. Acting on a
detection (restore, retry, quarantine) is the
:class:`~repro.recovery.supervisor.RecoverySupervisor`'s job, subscribed
to those events on the bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import Event
    from repro.runtime.engine import Runtime
    from repro.runtime.instances import TEInstance


@dataclass
class _NodeStatus:
    """Heartbeat bookkeeping for one node."""

    last_beat: int
    last_progress: int
    items: int


class FailureDetector:
    """Watches per-node liveness and progress through the step hook."""

    def __init__(self, runtime: "Runtime", *,
                 heartbeat_timeout: int = 40,
                 stall_timeout: int = 200,
                 check_every: int = 5) -> None:
        if heartbeat_timeout < 1 or stall_timeout < 1 or check_every < 1:
            raise RuntimeExecutionError(
                "detector timeouts and check interval must be >= 1"
            )
        self.runtime = runtime
        self.heartbeat_timeout = heartbeat_timeout
        self.stall_timeout = stall_timeout
        self.check_every = check_every
        self._status: dict[int, _NodeStatus] = {}
        self._reported: set[int] = set()
        self._installed = False

    # ------------------------------------------------------------------

    def install(self) -> "FailureDetector":
        """Attach to the runtime; returns self.

        Nodes already dead at install time are considered pre-existing
        failures and are not reported — the detector supervises what
        happens on its watch.
        """
        if self._installed:
            return self
        now = self.runtime.total_steps
        for node in self.runtime.nodes.values():
            self._status[node.node_id] = _NodeStatus(
                last_beat=now, last_progress=now,
                items=node.items_processed + node.duplicates_dropped,
            )
            if not node.alive:
                self._reported.add(node.node_id)
        self.runtime.add_step_hook(self._on_step)
        self.runtime.add_crash_handler(self._on_crash)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.runtime.remove_step_hook(self._on_step)
            self.runtime.remove_crash_handler(self._on_crash)
            self._installed = False

    # ------------------------------------------------------------------

    def _on_step(self, runtime: "Runtime") -> None:
        now = runtime.total_steps
        for node in list(runtime.nodes.values()):
            consumed = node.items_processed + node.duplicates_dropped
            status = self._status.get(node.node_id)
            if status is None:
                status = _NodeStatus(last_beat=now, last_progress=now,
                                     items=consumed)
                self._status[node.node_id] = status
            if node.alive:
                status.last_beat = now
                if consumed > status.items:
                    status.items = consumed
                    status.last_progress = now
        if now % self.check_every:
            return
        for node_id, status in self._status.items():
            if node_id in self._reported:
                continue
            node = runtime.nodes.get(node_id)
            if node is None:
                continue
            if not node.alive:
                silent = now - status.last_beat
                if silent >= self.heartbeat_timeout:
                    self._report(node_id, "dead", now,
                                 f"no heartbeat for {silent} steps")
            elif (
                now - status.last_progress >= self.stall_timeout
                and any(inst.inbox
                        for inst in node.te_instances.values())
            ):
                self._report(
                    node_id, "stalled", now,
                    f"no progress for {now - status.last_progress} steps "
                    f"with queued work (speed={node.speed})",
                )

    def _on_crash(self, runtime: "Runtime", instance: "TEInstance",
                  envelope, exc: Exception) -> None:
        """Immediate crash report: the engine already failed the node."""
        node_id = instance.node_id
        if node_id in self._reported:
            return
        self._report(node_id, "crashed", runtime.total_steps,
                     f"TE {instance.name}[{instance.index}]: {exc}")

    def _report(self, node_id: int, kind: str, step: int,
                detail: str) -> None:
        self._reported.add(node_id)
        self.runtime.metrics.counter(
            "detector_verdicts_total",
            "failure-detection verdicts, by kind",
        ).labels(kind=kind).inc()
        # Last: bus subscribers (the supervisor) act on the verdict
        # synchronously, inside this call.
        self.runtime.events.publish(
            "detector", KIND.FAILURE_DETECTED, step,
            node_id=node_id, verdict=kind, detail=detail,
        )

    # ------------------------------------------------------------------

    def detected(self, kind: str | None = None) -> list["Event"]:
        """Verdicts so far (bus events), optionally of one kind."""
        return [e for e in self.runtime.events.events(
                    source="detector", kind=KIND.FAILURE_DETECTED)
                if kind is None or e.attrs["verdict"] == kind]

    def unreported_dead_nodes(self) -> list[int]:
        """Dead nodes the detector has seen but not yet timed out on."""
        return [
            node.node_id for node in self.runtime.nodes.values()
            if not node.alive and node.node_id not in self._reported
        ]
