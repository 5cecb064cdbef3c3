"""Periodic asynchronous checkpoint scheduling.

The paper checkpoints every node every 10 seconds of wall-clock time
(§6). The in-process runtime advances in *logical* time (processed
items), so the scheduler triggers a node's checkpoint every
``every_items`` items that node processes — and, to exercise the
asynchronous protocol rather than degrade to a synchronous one, it
holds the checkpoint open for ``complete_after_steps`` further engine
steps before completing it, during which the node keeps processing
while its cuts wait to be persisted.

A step serves at most ``RUN_MAX`` items (one with no certified
channel), so each walk over the nodes knows the first step at which
one can be due; no node is read before it unless the topology's
version or an SE's epoch moves.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

from repro.recovery.checkpoint import CheckpointManager, PendingCheckpoint
from repro.runtime.engine import RUN_MAX

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Runtime


class CheckpointScheduler:
    """Drives :class:`CheckpointManager` from the engine's step hook."""

    def __init__(self, manager: CheckpointManager,
                 every_items: int = 1_000,
                 complete_after_steps: int = 50) -> None:
        if every_items < 1 or complete_after_steps < 0:
            raise ValueError("scheduler intervals must be positive")
        self.manager = manager
        self.every_items = every_items
        self.complete_after_steps = complete_after_steps
        self.completed_count = 0
        self._last_checkpointed: dict[int, int] = {}
        self._pending: dict[int, tuple[PendingCheckpoint, int]] = {}
        self._seen_epochs: dict[str, int] = {}
        #: The last walk's step and topology version, and the first
        #: step at which a node can be due again.
        self._walked = self._due = self._version = 0
        self._installed = False

    def install(self) -> "CheckpointScheduler":
        """Attach to the runtime; returns self."""
        if not self._installed:
            self.manager.runtime.add_step_hook(self._on_step)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.manager.runtime.remove_step_hook(self._on_step)
            self._installed = False

    # ------------------------------------------------------------------

    def _on_step(self, runtime: "Runtime") -> None:
        topology = runtime.topology
        if (self._walked < runtime.total_steps < self._due
                and topology.version == self._version
                and topology._se_epochs == self._seen_epochs):
            return
        # A repartition invalidates existing checkpoints of the SE
        # (recovery refuses stale epochs): force fresh checkpoints of
        # every node hosting it as soon as possible.
        epochs = runtime.topology._se_epochs
        refresh_ses = {se_name for se_name, epoch in epochs.items()
                       if self._seen_epochs.get(se_name, 0) != epoch}
        self._seen_epochs = dict(epochs)
        now = runtime.total_steps
        per_step = RUN_MAX if runtime._run_channels else 1
        due = inf  # no stateful node: none is due before the topology moves
        for node in runtime.alive_nodes():
            node_id = node.node_id
            if refresh_ses and any(se_name in refresh_ses
                                   for se_name, _i in node.se_instances):
                self._last_checkpointed[node_id] = (
                    node.items_processed - self.every_items)
            pending = self._pending.get(node_id)
            if pending is not None:
                checkpoint, begun_at = pending
                at = begun_at + self.complete_after_steps
                if now >= at:
                    del self._pending[node_id]
                    if self.manager.complete(checkpoint) is not None:
                        self.completed_count += 1
                    at = now + 1  # may begin again
            elif not node.se_instances:
                continue  # stateless nodes recover from replay alone
            else:
                processed = node.items_processed
                short = (self._last_checkpointed.get(node_id, 0)
                         + self.every_items - processed)
                if short > 0:
                    at = now - (-short // per_step)
                else:
                    self._last_checkpointed[node_id] = processed
                    self._pending[node_id] = (
                        self.manager.begin(node_id), now
                    )
                    at = now + self.complete_after_steps
            due = min(due, at)
        self._walked, self._due = now, due
        self._version = runtime.topology.version

    def flush(self) -> None:
        """Complete any checkpoints still open (e.g. at quiescence)."""
        for node_id, (checkpoint, _begun) in list(self._pending.items()):
            del self._pending[node_id]
            if self.manager.complete(checkpoint) is not None:
                self.completed_count += 1
        self._due = 0  # a node flushed may begin again at once
