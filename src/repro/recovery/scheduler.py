"""Periodic asynchronous checkpoint scheduling.

The paper checkpoints every node every 10 seconds of wall-clock time
(§6). The in-process runtime advances in *logical* time (processed
items), so the scheduler triggers a node's checkpoint every
``every_items`` items that node processes — and, to exercise the
asynchronous protocol rather than degrade to a synchronous one, it
holds the checkpoint open for ``complete_after_steps`` further engine
steps before completing it, during which the node keeps processing
while its cuts wait to be persisted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.recovery.checkpoint import CheckpointManager, PendingCheckpoint

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
        # A repartition invalidates existing checkpoints of the SE
        # (recovery refuses stale epochs): force fresh checkpoints of
        # every node hosting it as soon as possible.
        refresh_ses = set()
        for se_name in runtime.sdg.states:
            epoch = runtime.se_epoch(se_name)
            if self._seen_epochs.get(se_name, 0) != epoch:
                self._seen_epochs[se_name] = epoch
                refresh_ses.add(se_name)
        if refresh_ses:
            for node in runtime.alive_nodes():
                if any(se_name in refresh_ses
                       for se_name, _i in node.se_instances):
                    self._last_checkpointed[node.node_id] = (
                        node.items_processed - self.every_items
                    )
        for node in runtime.alive_nodes():
            node_id = node.node_id
            pending = self._pending.get(node_id)
            if pending is not None:
                checkpoint, begun_at = pending
                if runtime.total_steps - begun_at >= (
                    self.complete_after_steps
                ):
                    del self._pending[node_id]
                    if self.manager.complete(checkpoint) is not None:
                        self.completed_count += 1
                continue
            if not node.se_instances:
                continue  # stateless nodes recover from replay alone
            processed = node.items_processed
            last = self._last_checkpointed.get(node_id, 0)
            if processed - last >= self.every_items:
                self._last_checkpointed[node_id] = processed
                self._pending[node_id] = (
                    self.manager.begin(node_id), runtime.total_steps
                )

    def flush(self) -> None:
        """Complete any checkpoints still open (e.g. at quiescence)."""
        for node_id, (checkpoint, _begun) in list(self._pending.items()):
            del self._pending[node_id]
            if self.manager.complete(checkpoint) is not None:
                self.completed_count += 1
