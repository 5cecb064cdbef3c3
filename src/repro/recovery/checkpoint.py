"""Asynchronous local checkpointing (§5).

The five-step protocol, per node:

1. *begin*: a consistent cut of every local SE is copied (its whole
   contents, or in delta mode its journalled keys; the SE's journal
   then restarts) and the node's TE bookkeeping — per-stream ``last_seen``
   vector timestamps, output buffers, sequence counters and gather
   barriers — is captured atomically;
2. processing continues against the live SEs, which the cuts do not
   share;
3. the cuts are chunked (asynchronously w.r.t. processing);
4. chunks are persisted to the backup store across ``m`` targets;
5. *complete*: upstream output buffers are trimmed up to the
   checkpointed timestamps. No SE is touched: writes made since
   *begin* are already in its journal, i.e. in the next delta.

The paper keeps the main structure frozen and buffers mid-checkpoint
writes in a dirty overlay; a single-threaded runtime gets the same
property more simply by copy-on-begin, and the cut it copies is the
list chunking would build anyway.

The split into :meth:`CheckpointManager.begin` and
:meth:`CheckpointManager.complete` lets callers interleave processing
between the two calls, which is exactly what the asynchronous mechanism
buys — and what the tests and the sync-vs-async benchmarks exercise.

Under an incremental :class:`~repro.recovery.policy.CheckpointPolicy`,
step 3 has a **delta mode**: instead of re-chunking the full state, the
manager serialises only the keys mutated since the previous cycle (the
backend's mutation journal) as
:class:`~repro.state.base.DeltaChunk` chains with ``(version,
base_version)`` lineage. A delta is only emitted when it is provably
sound — contiguous predecessor in the store, unchanged SE set and
partitioning epochs, every SE journal-backed — otherwise the cycle
silently re-anchors with a full base. Upstream output buffers are
trimmed only on *full* cycles, so the supervisor's base-only fallback
can always re-replay the span covered by discarded deltas.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.obs.events import KIND
from repro.recovery.policy import CheckpointPolicy
from repro.runtime.envelope import INPUT_EDGE, ChannelId, Envelope, RequestId
from repro.runtime.instances import GatherState, StreamKey
from repro.state.base import StateChunk, StateCut

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.backup import BackupStore
    from repro.runtime.engine import Runtime
    from repro.runtime.node import PhysicalNode


@dataclass
class TEMeta:
    """Recovery bookkeeping of one TE instance, captured at begin-time."""

    last_seen: dict[StreamKey, int] = field(default_factory=dict)
    out_seq: dict[ChannelId, int] = field(default_factory=dict)
    output_buffers: dict[ChannelId, list[Envelope]] = field(
        default_factory=dict
    )
    pending_gathers: dict[RequestId, GatherState] = field(default_factory=dict)
    processed_count: int = 0


@dataclass
class NodeCheckpoint:
    """A completed checkpoint of one node."""

    node_id: int
    version: int
    #: "full" (a self-contained base) or "delta" (changed keys +
    #: tombstones on top of ``base_version``).
    kind: str = "full"
    #: For deltas, the version this delta applies on top of.
    base_version: int | None = None
    se_chunks: dict[tuple[str, int], list[StateChunk]] = field(
        default_factory=dict
    )
    te_meta: dict[tuple[str, int], TEMeta] = field(default_factory=dict)
    #: Partitioning epoch of each SE at capture time; a checkpoint is
    #: only restorable while the SE's partitioning is unchanged.
    se_epochs: dict[str, int] = field(default_factory=dict)
    #: Expected chunk count per SE instance, recorded by the backup
    #: store at save time. The read path refuses to reassemble an SE
    #: from fewer chunks than were written — a lost chunk must raise,
    #: never yield a silently truncated restore.
    chunk_counts: dict[tuple[str, int], int] = field(default_factory=dict)
    #: CRC-32 per (se_key, chunk_index), recorded at save time and
    #: verified on restore.
    chunk_checksums: dict[tuple[tuple[str, int], int], int] = field(
        default_factory=dict
    )

    def state_entries(self) -> int:
        """Logical entries moved by this checkpoint (incl. tombstones)."""
        return sum(
            chunk.entry_count()
            for chunks in self.se_chunks.values()
            for chunk in chunks
        )


@dataclass
class PendingCheckpoint:
    """An in-progress checkpoint: SE cuts and metadata are frozen."""

    node_id: int
    version: int
    te_meta: dict[tuple[str, int], TEMeta]
    se_keys: list[tuple[str, int]]
    se_epochs: dict[str, int] = field(default_factory=dict)
    #: Logical step at which :meth:`CheckpointManager.begin` ran; the
    #: begin→complete span is the checkpoint's duration in steps.
    begun_at_step: int = 0
    #: Whether the cuts are deltas on top of ``version - 1``.
    delta: bool = False
    #: Each SE's consistent cut, taken at begin.
    cuts: dict[tuple[str, int], StateCut] = field(default_factory=dict)


class CheckpointManager:
    """Coordinates per-node asynchronous checkpoints."""

    def __init__(self, runtime: "Runtime", store: "BackupStore",
                 n_chunks: int | None = None,
                 trim_input_log: bool = True,
                 policy: CheckpointPolicy | None = None) -> None:
        self.runtime = runtime
        self.store = store
        #: chunks per SE snapshot; defaults to the store's target count.
        self.n_chunks = n_chunks if n_chunks is not None else store.m_targets
        #: Whether step 5 also trims the client-side input log. Keeping
        #: the full log (``False``) costs memory but guarantees that
        #: pure log-replay recovery of an entry TE's node can rebuild
        #: its state from scratch even when every checkpoint of it is
        #: corrupt or stale — the RecoverySupervisor's last-resort path.
        self.trim_input_log = trim_input_log
        #: Full/delta cadence; the default is a full checkpoint every
        #: cycle (the seed behaviour).
        self.policy = policy if policy is not None else CheckpointPolicy()
        self._versions: dict[int, int] = {}
        self._pending: dict[int, PendingCheckpoint] = {}
        #: Completed checkpoint cycles per node (drives the cadence).
        self._cycles: dict[int, int] = {}
        metrics = runtime.metrics
        self._events = runtime.events
        self._c_checkpoints = metrics.counter(
            "recovery_checkpoints_total",
            "completed checkpoints, by kind (full/delta)")
        self._c_entries = metrics.counter(
            "recovery_checkpoint_entries_total",
            "state entries (incl. tombstones) persisted, by kind")
        self._c_bytes = metrics.counter(
            "recovery_checkpoint_bytes_total",
            "modelled bytes persisted, by kind")
        self._c_aborted = metrics.counter(
            "recovery_checkpoints_aborted_total",
            "checkpoints aborted or discarded (node died mid-flight)"
        ).labels()
        self._h_duration = metrics.histogram(
            "recovery_checkpoint_duration_steps",
            "begin-to-complete span of a checkpoint, in logical steps")
        self._c_journal = metrics.counter(
            "state_journal_mutations_total",
            "journalled state mutations consumed by checkpoint cycles"
        ).labels()

    # ------------------------------------------------------------------

    def begin(self, node_id: int) -> PendingCheckpoint:
        """Step 1: cut every SE and freeze TE bookkeeping."""
        with self.runtime.probe.span("checkpoint"):
            return self._begin(node_id)

    def _begin(self, node_id: int) -> PendingCheckpoint:
        node = self.runtime.nodes[node_id]
        if not node.alive:
            raise RecoveryError(f"cannot checkpoint dead node {node_id}")
        if node_id in self._pending:
            raise RecoveryError(
                f"node {node_id} already has a checkpoint in progress"
            )
        self.runtime.pull_state()
        te_meta: dict[tuple[str, int], TEMeta] = {}
        for key, te_inst in node.te_instances.items():
            te_meta[key] = TEMeta(
                last_seen=dict(te_inst.last_seen),
                out_seq=dict(te_inst.out_seq),
                output_buffers={
                    channel: list(buffer)
                    for channel, buffer in te_inst.output_buffers.items()
                },
                pending_gathers=copy.deepcopy(te_inst.pending_gathers),
                processed_count=te_inst.processed_count,
            )
        version = self._versions.get(node_id, 0) + 1
        self._versions[node_id] = version
        pending = PendingCheckpoint(
            node_id=node_id, version=version, te_meta=te_meta,
            se_keys=list(node.se_instances),
            se_epochs={
                se_name: self.runtime.se_epoch(se_name)
                for se_name, _index in node.se_instances
            },
            begun_at_step=self.runtime.total_steps,
        )
        # One pending checkpoint per node: nothing the eligibility test
        # reads can change before complete.
        pending.delta = self._delta_eligible(pending)
        for se_key, se_inst in node.se_instances.items():
            element = se_inst.element
            pending.cuts[se_key] = element.cut(pending.delta)
            self._c_journal.inc(element.backend.journal_size)
            # Writes from here on journal into the next cycle's delta.
            element.mark_clean()
            element.checkpoint_active = True
        self._pending[node_id] = pending
        self._events.publish(
            "checkpoint", KIND.CHECKPOINT_BEGIN, self.runtime.total_steps,
            node_id=node_id, version=version,
        )
        return pending

    def complete(self, pending: PendingCheckpoint) -> NodeCheckpoint | None:
        """Steps 3-5: chunk the cuts, persist them, trim upstream.

        Under an incremental policy, eligible cycles serialise only the
        mutation journal (delta mode); the cost of such a cycle is
        O(|mutations since the previous cycle|), not O(|state|).
        Returns ``None`` (and discards the checkpoint) if the node died
        while the checkpoint was in progress.
        """
        with self.runtime.probe.span("checkpoint"):
            return self._complete(pending)

    def _complete(self, pending: PendingCheckpoint) \
            -> NodeCheckpoint | None:
        node = self._close(pending)
        if not node.alive:
            self._c_aborted.inc()
            self._events.publish(
                "checkpoint", KIND.CHECKPOINT_ABORT,
                self.runtime.total_steps, node_id=pending.node_id,
                version=pending.version, reason="node died",
            )
            return None
        delta = pending.delta
        persisted_bytes = 0
        se_chunks: dict[tuple[str, int], list[StateChunk]] = {}
        for se_key, cut in pending.cuts.items():
            se_chunks[se_key] = cut.chunks(
                self.n_chunks, version=pending.version,
                base_version=pending.version - 1,
            )
            persisted_bytes += sum(
                chunk.size_bytes(cut.bytes_per_entry)
                for chunk in se_chunks[se_key]
            )
        checkpoint = NodeCheckpoint(
            node_id=pending.node_id, version=pending.version,
            kind="delta" if delta else "full",
            base_version=pending.version - 1 if delta else None,
            se_chunks=se_chunks, te_meta=pending.te_meta,
            se_epochs=dict(pending.se_epochs),
        )
        self.store.save(checkpoint)
        self._cycles[pending.node_id] = \
            self._cycles.get(pending.node_id, 0) + 1
        entries = checkpoint.state_entries()
        self._c_checkpoints.labels(kind=checkpoint.kind).inc()
        self._c_entries.labels(kind=checkpoint.kind).inc(entries)
        self._c_bytes.labels(kind=checkpoint.kind).inc(persisted_bytes)
        self._h_duration.labels().observe(
            self.runtime.total_steps - pending.begun_at_step)
        self._events.publish(
            "checkpoint", KIND.CHECKPOINT_COMMIT, self.runtime.total_steps,
            node_id=checkpoint.node_id, version=checkpoint.version,
            checkpoint_kind=checkpoint.kind, entries=entries,
            bytes=persisted_bytes,
            duration_steps=self.runtime.total_steps - pending.begun_at_step,
        )
        if checkpoint.kind == "full":
            # Deltas must not trim upstream buffers: if the delta part
            # of the chain is later lost or corrupted, base-only
            # recovery replays the gap from these buffers.
            self._trim_upstream(checkpoint)
        return checkpoint

    def _delta_eligible(self, pending: PendingCheckpoint) -> bool:
        """Whether this cycle may be incremental (else a full base).

        Requires, beyond the policy cadence: a contiguous predecessor
        still in the store, an unchanged SE instance set and unchanged
        partitioning epochs. Any mismatch re-anchors with a full
        checkpoint — a delta whose lineage or coverage is doubtful is
        never emitted.
        """
        if self.policy.wants_full(self._cycles.get(pending.node_id, 0)):
            return False
        previous = self.store.latest(pending.node_id)
        if previous is None or previous.version != pending.version - 1:
            return False
        if set(previous.se_chunks) != set(pending.se_keys):
            return False
        return previous.se_epochs == pending.se_epochs

    def abort(self, pending: PendingCheckpoint) -> None:
        """Abandon an in-progress checkpoint: its cuts are dropped.

        The journal entries they consumed are gone too, but the version
        this burns leaves a gap that makes the next cycle a full base.
        """
        self._close(pending)
        self._c_aborted.inc()
        self._events.publish(
            "checkpoint", KIND.CHECKPOINT_ABORT, self.runtime.total_steps,
            node_id=pending.node_id, version=pending.version,
            reason="aborted",
        )

    def _close(self, pending: PendingCheckpoint) -> "PhysicalNode":
        """Retire ``pending`` and lower its SEs' checkpoint flags."""
        self._pending.pop(pending.node_id, None)
        node = self.runtime.nodes[pending.node_id]
        for se_key in pending.cuts:
            se_inst = node.se_instances.get(se_key)
            if se_inst is not None:
                se_inst.element.checkpoint_active = False
        return node

    def checkpoint(self, node_id: int) -> NodeCheckpoint | None:
        """Synchronous convenience: begin + complete with no gap."""
        return self.complete(self.begin(node_id))

    def checkpoint_all(self) -> list[NodeCheckpoint]:
        """Checkpoint every live node — still *local* checkpoints taken
        one node at a time, with no cross-node coordination."""
        results = []
        for node in self.runtime.alive_nodes():
            checkpoint = self.checkpoint(node.node_id)
            if checkpoint is not None:
                results.append(checkpoint)
        return results

    # ------------------------------------------------------------------

    def _trim_upstream(self, checkpoint: NodeCheckpoint) -> None:
        """Step 5b: upstream buffers (and results) drop covered items."""
        for (te_name, index), meta in checkpoint.te_meta.items():
            self.runtime.trim_result_requests(te_name, index, meta.last_seen)
            for stream, ts in meta.last_seen.items():
                if not self.trim_input_log and stream[0] == INPUT_EDGE:
                    continue
                self.runtime.trim_stream(stream, te_name, index, ts)
