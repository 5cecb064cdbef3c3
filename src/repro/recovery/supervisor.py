"""Supervised automatic recovery.

The missing link between detection and repair: the
:class:`RecoverySupervisor` subscribes to the ``failure-detected``
events a :class:`~repro.runtime.detector.FailureDetector` publishes on
the runtime's event bus and drives the
:class:`~repro.recovery.manager.RecoveryManager` without any manual
``recover_node`` calls, the way the paper's runtime restores failed
workers on its own (§5).

Policies, in the order they apply to each failed node:

1. **Strategy ladder.** Start with m-to-n recovery when configured
   (``n_new > 1``); if the n-way restore is *refused* (SE not
   partitioned, node hosted more than one SE, other instances alive),
   fall back to plain 1-to-1 recovery. If the stored checkpoint is
   unusable — corrupt or incomplete chunks
   (:class:`~repro.errors.BackupIntegrityError`) — and the node's
   chain carries incremental deltas, fall back to **base-only
   recovery** first: restore just the full base and re-replay the span
   the deltas covered from the upstream buffers (which are only trimmed
   on full checkpoints, so the span is still there). If the base itself
   is also unusable, or the chain had no deltas to discard, or the
   checkpoint was captured under a stale partitioning epoch
   (:class:`~repro.errors.StaleCheckpointError`), fall back to **pure
   log-replay recovery** (restore empty, replay the retained input
   history). Deploy the
   :class:`~repro.recovery.checkpoint.CheckpointManager` with
   ``trim_input_log=False`` to keep that last-resort path sound.
2. **Bounded retry with backoff.** Any other recovery failure is
   retried after ``backoff_steps`` logical steps, doubling per attempt,
   at most ``max_retries`` times.
3. **Quarantine.** A node whose recovery keeps failing is quarantined:
   its instances stay down, a ``quarantined`` event is logged, and the
   supervisor stops touching it — loud, bounded degradation instead of
   a retry storm.

Every decision is published to the runtime's structured event bus
(``runtime.events``, source ``"supervisor"``) that tests, benchmarks
and the ``repro obs`` CLI assert against: each failure produces a
``detected`` event followed by a ``recovered`` (or ``quarantined``)
event, with any fallbacks and failed attempts in between. The bus is
the supervisor's only log; :meth:`RecoverySupervisor.cycles` is a query
over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    BackupIntegrityError,
    RecoveryError,
    StaleCheckpointError,
)
from repro.obs.events import KIND

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import Event
    from repro.recovery.manager import RecoveryManager
    from repro.runtime.detector import FailureDetector
    from repro.runtime.engine import Runtime


@dataclass
class _PendingRecovery:
    """One failed node the supervisor is responsible for."""

    node_id: int
    strategy: str  # "m-to-n" | "one-to-one" | "base-only" | "log-replay"
    attempts: int = 0
    due_step: int = 0
    last_error: str = ""


class RecoverySupervisor:
    """Wires detector verdicts to automatic recovery actions."""

    def __init__(self, detector: "FailureDetector",
                 manager: "RecoveryManager", *,
                 n_new: int = 1,
                 max_retries: int = 3,
                 backoff_steps: int = 25,
                 restart_stalled: bool = True) -> None:
        if n_new < 1:
            raise RecoveryError(f"n_new must be >= 1, got {n_new}")
        if max_retries < 1 or backoff_steps < 0:
            raise RecoveryError(
                "max_retries must be >= 1 and backoff_steps >= 0"
            )
        self.detector = detector
        self.manager = manager
        self.runtime: "Runtime" = manager.runtime
        self.n_new = n_new
        self.max_retries = max_retries
        self.backoff_steps = backoff_steps
        self.restart_stalled = restart_stalled
        #: Nodes given up on after exhausting retries.
        self.quarantined: set[int] = set()
        self._pending: dict[int, _PendingRecovery] = {}
        self._installed = False
        metrics = self.runtime.metrics
        self._c_attempts = metrics.counter(
            "recovery_attempts_total",
            "recovery attempts started by the supervisor").labels()
        self._c_quarantined = metrics.counter(
            "recovery_quarantined_total",
            "nodes quarantined after exhausting retries").labels()

    # ------------------------------------------------------------------

    def install(self) -> "RecoverySupervisor":
        """Subscribe to detection verdicts and attach to the runtime."""
        if self._installed:
            return self
        self.runtime.events.subscribe(self._on_detection,
                                      kinds=[KIND.FAILURE_DETECTED])
        self.runtime.add_step_hook(self._on_step)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.runtime.events.unsubscribe(self._on_detection)
            self.runtime.remove_step_hook(self._on_step)
            self._installed = False

    @property
    def settled(self) -> bool:
        """No recovery in flight (quarantined nodes stay down)."""
        return not self._pending

    def cycles(self) -> list[tuple["Event", "Event | None"]]:
        """(detection, resolution) pairs, one per supervised failure.

        Both are ``"supervisor"`` bus events; the resolution is the
        node's ``recovered`` or ``quarantined`` event, or ``None`` while
        recovery is still in flight.
        """
        log = self.runtime.events.events(source="supervisor")
        outcomes: dict[int, "Event"] = {}
        for event in log:
            if event.kind in ("recovered", "quarantined"):
                outcomes.setdefault(event.attrs["node_id"], event)
        return [
            (event, outcomes.get(event.attrs["node_id"]))
            for event in log if event.kind == "detected"
        ]

    # ------------------------------------------------------------------

    def _log(self, kind: str, node_id: int, *, attempt: int = 0,
             detail: str = "", new_nodes: tuple[int, ...] = ()) -> None:
        self.runtime.events.publish(
            "supervisor", kind, self.runtime.total_steps,
            node_id=node_id, attempt=attempt, detail=detail,
            new_nodes=tuple(new_nodes),
        )

    def _on_detection(self, event: "Event") -> None:
        node_id = event.attrs["node_id"]
        if node_id in self._pending or node_id in self.quarantined:
            return
        verdict = event.attrs["verdict"]
        self._log("detected", node_id, detail=verdict)
        if verdict == "stalled":
            if not self.restart_stalled:
                return
            # Supervised restart: retire the wedged node, then recover
            # it through the normal path (its state comes back from the
            # last checkpoint plus replay).
            if self.runtime.nodes[node_id].alive:
                self.runtime.fail_node(node_id)
        strategy = "m-to-n" if self.n_new > 1 else "one-to-one"
        self._pending[node_id] = _PendingRecovery(
            node_id=node_id, strategy=strategy,
            due_step=self.runtime.total_steps,
        )

    def _on_step(self, runtime: "Runtime") -> None:
        if not self._pending:
            return
        now = runtime.total_steps
        for node_id in list(self._pending):
            task = self._pending.get(node_id)
            if task is not None and task.due_step <= now:
                self._attempt(task)

    # ------------------------------------------------------------------

    def _attempt(self, task: _PendingRecovery) -> None:
        task.attempts += 1
        self._c_attempts.inc()
        self._log("recovery-started", task.node_id,
                  attempt=task.attempts, detail=task.strategy)
        while True:
            try:
                nodes = self._execute(task)
            except (BackupIntegrityError, StaleCheckpointError) as exc:
                if task.strategy == "log-replay":
                    self._fail(task, exc)
                    return
                fallback = self._integrity_fallback(task, exc)
                self._log("fallback", task.node_id,
                          attempt=task.attempts,
                          detail=f"{task.strategy} -> {fallback}: {exc}")
                task.strategy = fallback
            except RecoveryError as exc:
                if task.strategy == "m-to-n":
                    self._log(
                        "fallback", task.node_id, attempt=task.attempts,
                        detail=f"m-to-n -> one-to-one: {exc}",
                    )
                    task.strategy = "one-to-one"
                    continue
                self._fail(task, exc)
                return
            else:
                del self._pending[task.node_id]
                self._log(
                    "recovered", task.node_id, attempt=task.attempts,
                    detail=task.strategy,
                    new_nodes=tuple(n.node_id for n in nodes),
                )
                return

    def _integrity_fallback(self, task: _PendingRecovery,
                            exc: Exception) -> str:
        """Pick the next rung after an unusable-checkpoint error.

        A corrupt or missing chunk (``BackupIntegrityError``) on a
        chain that actually has deltas is first retried **base-only**:
        the full base plus upstream replay reconstructs the exact same
        state without touching the suspect deltas. A stale partitioning
        epoch taints base and head alike, and a delta-free chain has
        nothing left to discard — both go straight to log-replay, as
        does a base-only attempt that fails again.
        """
        if (
            isinstance(exc, BackupIntegrityError)
            and task.strategy not in ("base-only",)
            and len(self.manager.store.chain(task.node_id)) > 1
        ):
            return "base-only"
        return "log-replay"

    def _execute(self, task: _PendingRecovery):
        if task.strategy == "m-to-n":
            return self.manager.recover_node(task.node_id,
                                             n_new=self.n_new)
        if task.strategy == "one-to-one":
            return self.manager.recover_node(task.node_id)
        if task.strategy == "base-only":
            return self.manager.recover_node(task.node_id,
                                             use_deltas=False)
        return self.manager.recover_node(task.node_id,
                                         use_checkpoint=False)

    def _fail(self, task: _PendingRecovery, exc: Exception) -> None:
        task.last_error = str(exc)
        if task.attempts >= self.max_retries:
            del self._pending[task.node_id]
            self.quarantined.add(task.node_id)
            self._c_quarantined.inc()
            self._log("quarantined", task.node_id,
                      attempt=task.attempts,
                      detail=f"giving up after {task.attempts} "
                             f"attempts: {exc}")
            return
        backoff = self.backoff_steps * (2 ** (task.attempts - 1))
        task.due_step = self.runtime.total_steps + backoff
        self._log("recovery-failed", task.node_id, attempt=task.attempts,
                  detail=f"{exc} (retrying in {backoff} steps)")
