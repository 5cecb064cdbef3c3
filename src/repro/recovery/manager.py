"""Node recovery: restore, repartition, replay (§5, Fig. 4 R-steps).

After :meth:`~repro.runtime.engine.Runtime.fail_node` kills a node, the
:class:`RecoveryManager` rebuilds its instances from the last completed
checkpoint in the backup store:

* **1-to-1 recovery** restores every lost TE/SE instance onto one fresh
  node, with its checkpointed bookkeeping;
* **m-to-n recovery** (``n_new > 1``) restores a failed partitioned SE
  as ``n_new`` partitions on ``n_new`` fresh nodes, re-splitting the
  checkpointed state under a new partitioner — the paper's parallel
  state-reconstruction strategy;
* in both cases, upstream output buffers (and the client input log) are
  replayed into the recovered instances, which discard items already
  covered by the checkpoint via their restored ``last_seen`` vectors,
  and the recovered instances re-send their own buffered outputs
  downstream, where duplicates are discarded by timestamp.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.elements import StateKind
from repro.errors import (
    BackupIntegrityError,
    RecoveryError,
    StaleCheckpointError,
    StateError,
)
from repro.obs.events import KIND
from repro.recovery.checkpoint import NodeCheckpoint, TEMeta
from repro.runtime.instances import SEInstance, TEInstance
from repro.runtime.node import PhysicalNode
from repro.state.base import StateElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.backup import BackupStore
    from repro.runtime.engine import Runtime


class RecoveryManager:
    """Restores failed nodes from a backup store."""

    def __init__(self, runtime: "Runtime", store: "BackupStore") -> None:
        self.runtime = runtime
        self.store = store
        #: Replacement node -> the node whose checkpoint rebuilt it.
        self._restored_from: dict[int, int] = {}
        metrics = runtime.metrics
        self._c_restores = metrics.counter(
            "recovery_restores_total",
            "successful node restores, by strategy rung")
        self._c_replayed = metrics.counter(
            "recovery_replayed_envelopes_total",
            "envelopes re-delivered during recovery replay").labels()
        self._h_replay_span = metrics.histogram(
            "recovery_replay_span",
            "envelopes replayed per recovery (the replay span length)")

    @staticmethod
    def _strategy(n_new: int, use_checkpoint: bool, use_deltas: bool) -> str:
        """The supervisor-ladder rung this restore corresponds to."""
        if not use_checkpoint:
            return "log-replay"
        if not use_deltas:
            return "base-only"
        return "m-to-n" if n_new > 1 else "one-to-one"

    # ------------------------------------------------------------------

    def recover_node(self, node_id: int, n_new: int = 1,
                     use_checkpoint: bool = True,
                     use_deltas: bool = True) -> list[PhysicalNode]:
        """Replace a failed node; returns the new node(s).

        With an incremental checkpoint chain in the store, the restore
        folds the full base plus its ordered deltas. ``use_deltas=False``
        is the supervisor's **base-only** fallback when the delta part
        of the chain is corrupt or missing: only the full base is
        restored, and the span the deltas covered is recovered by
        replaying the upstream buffers (which are only trimmed on full
        checkpoints, precisely so this path stays sound).

        Without a stored checkpoint — or with ``use_checkpoint=False``,
        the fallback when the stored checkpoint is corrupt or captured
        under a stale partitioning epoch — instances restart empty and
        the entire input history is replayed (pure log-based recovery).
        """
        with self.runtime.probe.span("recovery"):
            return self._recover_node(node_id, n_new, use_checkpoint,
                                      use_deltas)

    def _recover_node(self, node_id: int, n_new: int,
                      use_checkpoint: bool,
                      use_deltas: bool) -> list[PhysicalNode]:
        failed = self.runtime.nodes[node_id]
        if failed.alive:
            raise RecoveryError(f"node {node_id} has not failed")
        checkpoint = None
        if use_checkpoint:
            pick = self.store.latest if use_deltas else self.store.base
            checkpoint = (pick(node_id)
                          or pick(self._restored_from.get(node_id, node_id)))
        if checkpoint is not None:
            self._check_epochs(checkpoint)
        if n_new < 1:
            raise RecoveryError(f"n_new must be >= 1, got {n_new}")
        if n_new == 1:
            node, replayed = self._recover_one_to_one(failed, checkpoint)
            nodes = [node]
            if checkpoint is not None:
                self._restored_from[node.node_id] = checkpoint.node_id
        else:
            nodes, replayed = self._recover_one_to_n(failed, checkpoint,
                                                     n_new)
        strategy = self._strategy(n_new, use_checkpoint, use_deltas)
        self._c_restores.labels(strategy=strategy).inc()
        self._c_replayed.inc(replayed)
        self._h_replay_span.labels().observe(replayed)
        self.runtime.events.publish(
            "recovery", KIND.RESTORE, self.runtime.total_steps,
            node_id=node_id, strategy=strategy,
            new_nodes=[n.node_id for n in nodes], replayed=replayed,
            checkpoint_version=(checkpoint.version
                                if checkpoint is not None else None),
        )
        return nodes

    def migrate_node(self, node_id: int, n_new: int = 1,
                     checkpoint_manager=None) -> list[PhysicalNode]:
        """Planned migration: checkpoint, retire, restore elsewhere.

        §6.3: "a straggling node could even be removed and the job
        resumed from a checkpoint with new nodes". Unlike a failure, a
        migration first takes a fresh checkpoint, so no replay beyond
        the migration point is needed; the node is then failed and
        recovered through the normal path (optionally fanning out to
        ``n_new`` nodes, which doubles as straggler-relief-by-resharding).
        """
        from repro.recovery.checkpoint import CheckpointManager

        manager = checkpoint_manager or CheckpointManager(
            self.runtime, self.store
        )
        if manager.checkpoint(node_id) is None:
            raise RecoveryError(
                f"node {node_id} died while its migration checkpoint "
                f"was being taken"
            )
        self.runtime.fail_node(node_id)
        return self.recover_node(node_id, n_new=n_new)

    def _check_epochs(self, checkpoint: NodeCheckpoint) -> None:
        """Refuse checkpoints taken under a different partitioning.

        Restoring a partition captured when the SE had a different
        partitioner would resurrect keys the instance no longer owns
        (duplicating them) and miss keys it gained — silent corruption.
        After a scale-up, nodes must checkpoint again before their old
        checkpoints can be superseded; the CheckpointScheduler does so
        automatically on epoch changes.
        """
        for se_name, epoch in checkpoint.se_epochs.items():
            current = self.runtime.se_epoch(se_name)
            if epoch != current:
                raise StaleCheckpointError(
                    f"checkpoint of node {checkpoint.node_id} captured "
                    f"SE {se_name!r} at partitioning epoch {epoch}, but "
                    f"the SE has since been repartitioned (epoch "
                    f"{current}); take a fresh checkpoint after scaling "
                    f"before relying on recovery"
                )

    # ------------------------------------------------------------------

    def _restore_element(self, spec, se_key: tuple[str, int],
                         checkpoint: NodeCheckpoint | None) -> StateElement:
        """Reassemble one SE instance from its backed-up chunks (R1/R2).

        When ``checkpoint`` is the head of an incremental chain, the
        full base is restored first and every delta up to
        ``checkpoint.version`` is folded on top, in version order, after
        the lineage is verified to be contiguous. Chunks are fetched
        through the backup store's verified read path, so a missing or
        corrupted chunk — base or delta — raises
        :class:`~repro.errors.BackupIntegrityError` before any state is
        installed — never a silently partial restore.
        """
        template = spec.factory()
        if checkpoint is None:
            return template
        node_id = checkpoint.node_id
        chain = [
            entry for entry in self.store.chain(node_id)
            if entry.version <= checkpoint.version
        ]
        base_index = None
        for i, entry in enumerate(chain):
            if getattr(entry, "kind", "full") == "full":
                base_index = i
        if base_index is None:
            raise BackupIntegrityError(
                f"checkpoint chain of node {node_id} has no full base at "
                f"or before v{checkpoint.version}; cannot restore"
            )
        chain = chain[base_index:]
        for prev, entry in zip(chain, chain[1:]):
            if entry.kind != "delta" or entry.base_version != prev.version:
                raise BackupIntegrityError(
                    f"checkpoint chain of node {node_id} is not "
                    f"contiguous: v{entry.version} ({entry.kind}) does "
                    f"not apply on top of v{prev.version}"
                )
        chunks = self.store.chunks_for(node_id, se_key,
                                       version=chain[0].version)
        element = type(template).from_chunks(template, chunks)
        for entry in chain[1:]:
            for chunk in self.store.chunks_for(node_id, se_key,
                                               version=entry.version):
                element.load_delta_chunk(chunk)
        # The restored instance starts a fresh journal: its first
        # checkpoint on the replacement node is a new full base.
        element.mark_clean()
        return element

    @staticmethod
    def _apply_meta(instance: TEInstance, meta: TEMeta | None) -> None:
        if meta is None:
            return
        instance.last_seen = dict(meta.last_seen)
        instance.restore_producer_state(meta)

    def _recover_one_to_one(
        self, failed: PhysicalNode, checkpoint: NodeCheckpoint | None
    ) -> tuple[PhysicalNode, int]:
        se_replacements: list[SEInstance] = []
        for (se_name, index) in failed.se_instances:
            spec = self.runtime.sdg.state(se_name)
            element = self._restore_element(spec, (se_name, index),
                                            checkpoint)
            se_replacements.append(SEInstance(spec, index, element=element))

        te_replacements: list[TEInstance] = []
        for (te_name, index) in failed.te_instances:
            spec = self.runtime.sdg.task(te_name)
            instance = TEInstance(spec, index)
            meta = (
                checkpoint.te_meta.get((te_name, index))
                if checkpoint is not None else None
            )
            self._apply_meta(instance, meta)
            te_replacements.append(instance)

        node = self.runtime.install_replacement(te_replacements,
                                                se_replacements)
        replayed = 0
        for instance in te_replacements:
            replayed += self.runtime.replay_rerouted(instance.name,
                                                     {instance.index})
            replayed += self.runtime.replay_from(instance)
        return node, replayed

    def _recover_one_to_n(
        self, failed: PhysicalNode, checkpoint: NodeCheckpoint | None,
        n_new: int,
    ) -> tuple[list[PhysicalNode], int]:
        """Restore a whole partitioned SE across ``n_new`` fresh nodes."""
        if len(failed.se_instances) != 1:
            raise RecoveryError(
                "1-to-n recovery requires the failed node to host exactly "
                "one SE instance"
            )
        ((se_name, se_index),) = failed.se_instances.keys()
        spec = self.runtime.sdg.state(se_name)
        if spec.kind is not StateKind.PARTITIONED:
            raise RecoveryError(
                f"1-to-n recovery requires a partitioned SE; {se_name!r} "
                f"is {spec.kind.value}"
            )
        if self.runtime.se_instances(se_name) or se_index != 0:
            raise RecoveryError(
                "1-to-n recovery is only supported when the failed node "
                "hosted the only instance of the SE (the paper restores a "
                "whole failed SE onto n new partitions)"
            )

        try:  # as scale-up does; a refusal leaves the node failed
            partitioner = self.runtime.topology.partitioner(
                se_name).rescaled(n_new)
        except StateError as exc:
            raise RecoveryError(
                f"cannot restore SE {se_name!r} onto {n_new} partitions: "
                f"{exc}") from exc
        merged = self._restore_element(spec, (se_name, se_index), checkpoint)
        self.runtime.set_partitioner(se_name, partitioner)

        accessing = [
            te.name for te in self.runtime.sdg.tasks_accessing(se_name)
        ]
        stateless_keys = [
            key for key in failed.te_instances
            if self.runtime.sdg.task(key[0]).state != se_name
        ]

        nodes: list[PhysicalNode] = []
        for part_index in range(n_new):
            part = merged.extract_partition(partitioner, part_index,
                                            spec.route_key)
            se_inst = SEInstance(spec, part_index, element=part)
            te_replacements = []
            for te_name in accessing:
                te_spec = self.runtime.sdg.task(te_name)
                instance = TEInstance(te_spec, part_index)
                meta = (
                    checkpoint.te_meta.get((te_name, 0))
                    if checkpoint is not None else None
                )
                if meta is not None:
                    # All partitions inherit the old instance's input
                    # positions (every item <= last_seen is reflected in
                    # the partition that owns its key); only partition 0
                    # inherits the producer-side buffers and counters.
                    instance.last_seen = dict(meta.last_seen)
                    if part_index == 0:
                        instance.restore_producer_state(meta)
                te_replacements.append(instance)
            if part_index == 0:
                for (te_name, index) in stateless_keys:
                    te_spec = self.runtime.sdg.task(te_name)
                    instance = TEInstance(te_spec, index)
                    meta = (
                        checkpoint.te_meta.get((te_name, index))
                        if checkpoint is not None else None
                    )
                    self._apply_meta(instance, meta)
                    te_replacements.append(instance)
            nodes.append(
                self.runtime.install_replacement(te_replacements, [se_inst])
            )

        recovered_indices = set(range(n_new))
        replayed = 0
        for te_name in accessing:
            replayed += self.runtime.replay_rerouted(te_name,
                                                     recovered_indices)
        for (te_name, index) in stateless_keys:
            replayed += self.runtime.replay_rerouted(te_name, {index})
        for node in nodes:
            for instance in node.te_instances.values():
                replayed += self.runtime.replay_from(instance)
        return nodes, replayed
