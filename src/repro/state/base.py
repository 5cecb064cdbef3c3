"""Base protocol for state elements (SEs).

A state element encapsulates the mutable state of an SDG computation
(§3.1). Every predefined SE routes its mutations through a small
key/value core provided here, which gives all of them, uniformly:

* the **dirty-state checkpoint protocol** of §5 — ``begin_checkpoint``
  freezes the main structure, subsequent writes land in a plain-dict
  overlay (deletions as :data:`~repro.state.dirty.TOMBSTONE`), a
  consistent snapshot is read with :meth:`snapshot_items`, and
  ``consolidate`` folds the overlay back;
* **dynamic partitioning** — ``extract_partition`` / ``merge_partitions``
  split and re-join SE instances for partitioned state and for restoring a
  failed instance onto *n* new nodes;
* **chunked serialisation** — ``to_chunks`` / ``load_chunk`` implement the
  m-to-n backup pattern of Fig. 4, and ``to_delta_chunks`` /
  ``load_delta_chunk`` its incremental variant: only the keys mutated
  since the last checkpoint (read from the backend's journal) are
  emitted, as changed values plus deletion tombstones;
* **size accounting** — a byte estimate used by the allocation logic and
  by the cluster simulator's checkpoint cost model.

The *physical* representation lives in a pluggable
:class:`~repro.state.backend.StateBackend`; the SE class itself is a
pure domain API. Subclasses pick their store by overriding
:meth:`StateElement._make_backend`, and every state operation reaches
that backend and its journal through the ``_get``/``_set``/``_delete``
helpers, or (hot predefined ops, no checkpoint open) a backend method.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.errors import StateError
from repro.state.backend import DictBackend, MutationJournal, StateBackend
from repro.state.dirty import TOMBSTONE

#: Sentinel distinguishing "no default supplied" from ``default=None``.
_MISSING = object()


@dataclass(frozen=True)
class StateChunk:
    """One fragment of a serialised SE checkpoint.

    Checkpoints are hash-partitioned into chunks so that they can be
    streamed to ``total`` backup nodes in parallel and later restored to
    any number of recovering instances (Fig. 4, steps B1-B3 / R1-R2).
    """

    index: int
    total: int
    items: tuple[tuple[Hashable, Any], ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def size_bytes(self, bytes_per_entry: int) -> int:
        """Modelled size of this chunk on disk or on the wire."""
        return len(self.items) * bytes_per_entry

    def entry_count(self) -> int:
        """Logical entries carried by this chunk (items only)."""
        return len(self.items)


@dataclass(frozen=True)
class DeltaChunk(StateChunk):
    """One fragment of an *incremental* SE checkpoint.

    Carries only the keys mutated since the previous checkpoint in the
    chain: ``items`` holds changed/new values, ``deleted`` holds
    tombstones. ``(version, base_version)`` records the lineage — this
    delta applies on top of checkpoint ``base_version`` and produces
    the state of checkpoint ``version``. The restore path folds a full
    base plus its ordered deltas; a broken or corrupt link surfaces as
    a :class:`~repro.errors.BackupIntegrityError`, never a silently
    truncated restore.
    """

    version: int = 0
    base_version: int = 0
    deleted: tuple[Hashable, ...] = ()

    def size_bytes(self, bytes_per_entry: int) -> int:
        """Tombstones travel too: a key costs an entry either way."""
        return (len(self.items) + len(self.deleted)) * bytes_per_entry

    def entry_count(self) -> int:
        return len(self.items) + len(self.deleted)


class StateElement(abc.ABC):
    """Abstract base class for all SE data structures.

    Subclasses provide a physical store via :meth:`_make_backend` and
    expose a domain API (``get_row``, ``multiply``, ``put`` ...) built
    on the protected ``_get``/``_set``/``_delete`` helpers, which
    transparently apply the dirty-state redirection.
    """

    #: Modelled cost of one stored entry; used for state-size accounting.
    BYTES_PER_ENTRY = 64

    def __init__(self, backend: StateBackend | None = None) -> None:
        self._backend = backend if backend is not None \
            else self._make_backend()
        #: Mid-checkpoint write overlay: key -> value or ``TOMBSTONE``
        #: (``None`` = no checkpoint in progress).
        self._dirty: dict[Hashable, Any] | None = None
        self._update_count = 0

    # ------------------------------------------------------------------
    # Physical storage
    # ------------------------------------------------------------------

    def _make_backend(self) -> StateBackend:
        """Build this SE's physical store; subclasses override to pick
        a different layout (dense list, grid, indexed sparse map...)."""
        return DictBackend()

    @property
    def backend(self) -> StateBackend:
        """The physical store behind this SE instance."""
        return self._backend

    @abc.abstractmethod
    def spawn_empty(self) -> "StateElement":
        """Return a new, empty SE with the same shape/configuration.

        Used when creating additional partial instances at runtime (§3.3)
        and when restoring a checkpoint onto fresh nodes.
        """

    # ------------------------------------------------------------------
    # Dirty-state aware access helpers
    # ------------------------------------------------------------------

    @property
    def checkpoint_active(self) -> bool:
        """Whether a checkpoint is in progress (writes go to dirty state)."""
        return self._dirty is not None

    @property
    def update_count(self) -> int:
        """Total number of mutations applied to this SE instance."""
        return self._update_count

    @property
    def dirty_size(self) -> int:
        """Number of entries currently buffered in the dirty overlay."""
        return 0 if self._dirty is None else len(self._dirty)

    def _get(self, key: Hashable, default: Any = _MISSING) -> Any:
        """Read ``key``, consulting the dirty overlay first (§5 step 2)."""
        if self._dirty is not None and key in self._dirty:
            value = self._dirty[key]
            if value is TOMBSTONE:
                if default is _MISSING:
                    raise KeyError(key)
                return default
            return value
        try:
            return self._backend.get(key)
        except KeyError:
            if default is _MISSING:
                raise
            return default

    def _set(self, key: Hashable, value: Any) -> None:
        """Write ``key``; redirected to the dirty overlay mid-checkpoint.

        The backend checks and coerces ``(key, value)`` either way: a
        bad write fails here, never later inside :meth:`consolidate`.
        """
        self._update_count += 1
        if self._dirty is None:
            self._backend.set(key, value)
        else:
            key, value = self._backend._normalise(key, value)
            self._dirty[key] = value

    def _delete(self, key: Hashable) -> None:
        """Delete ``key``; recorded as a tombstone mid-checkpoint."""
        self._update_count += 1
        if self._dirty is None:
            self._backend.delete(key)
            return
        stored = self._backend.contains(key)  # also rejects a bad key
        overlaid = self._dirty.get(key, _MISSING)
        if overlaid is TOMBSTONE or (overlaid is _MISSING and not stored):
            raise KeyError(key)
        self._dirty[key] = TOMBSTONE

    def _contains(self, key: Hashable) -> bool:
        if self._dirty is not None and key in self._dirty:
            return self._dirty[key] is not TOMBSTONE
        return self._backend.contains(key)

    def _iter_items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate the *logical* contents: main structure + overlay."""
        if self._dirty is None:
            yield from self._backend.items()
            return
        dirty = self._dirty
        seen = set()
        for key, value in self._backend.items():
            seen.add(key)
            if key in dirty:
                overlaid = dirty[key]
                if overlaid is not TOMBSTONE:
                    yield key, overlaid
            else:
                yield key, value
        for key, value in dirty.items():
            if key not in seen and value is not TOMBSTONE:
                yield key, value

    # ------------------------------------------------------------------
    # Checkpoint protocol (§5)
    # ------------------------------------------------------------------

    def begin_checkpoint(self) -> None:
        """Flag the SE as dirty: freeze the main structure (step 1).

        After this call, the main structure is immutable and
        :meth:`snapshot_items` may be read concurrently with processing.
        """
        if self._dirty is not None:
            raise StateError("checkpoint already in progress for this SE")
        self._dirty = {}

    def snapshot_items(self) -> list[tuple[Hashable, Any]]:
        """Materialise the consistent (pre-checkpoint) contents (step 3).

        Only meaningful while a checkpoint is active; calling it otherwise
        returns the current contents, which is still a consistent view.
        """
        return list(self._backend.items())

    def consolidate(self) -> int:
        """Fold the dirty overlay back into the main structure (step 5).

        This is the only phase that requires exclusive access to the SE,
        so its cost is proportional to the number of updates made during
        the checkpoint, not to the state size. Returns the number of
        overlay entries applied.

        Consolidation writes through the journalled backend mutators,
        so every overlay entry lands in the mutation journal — i.e. it
        belongs to the *next* checkpoint's delta, exactly as the paper's
        protocol requires.
        """
        if self._dirty is None:
            raise StateError("no checkpoint in progress to consolidate")
        dirty, backend = self._dirty, self._backend
        for key, value in dirty.items():
            if value is TOMBSTONE:
                try:
                    backend.delete(key)
                except KeyError:
                    pass
            else:
                backend.set(key, value)
        self._dirty = None
        return len(dirty)

    def abort_checkpoint(self) -> None:
        """Consolidate-and-discard used when a checkpoint fails midway."""
        if self._dirty is None:
            return
        self.consolidate()

    # ------------------------------------------------------------------
    # Mutation journal (incremental checkpoint support)
    # ------------------------------------------------------------------

    def journal(self) -> MutationJournal:
        """The keys mutated since the last :meth:`mark_clean`."""
        return self._backend.journal()

    def mark_clean(self) -> None:
        """Reset the mutation journal (a checkpoint has persisted)."""
        self._backend.mark_clean()

    # ------------------------------------------------------------------
    # Partitioning and merging (§3.2)
    # ------------------------------------------------------------------

    def partition_key(self, key: Hashable) -> Hashable:
        """Map a storage key to the key used for partitioning decisions.

        A matrix partitioned by row maps ``(row, col)`` to ``row``; the
        default is the identity, which suits vectors and maps.
        """
        return key

    def extract_partition(self, partitioner: "PartitionerProtocol",
                          index: int) -> "StateElement":
        """Return a new SE holding the subset owned by partition ``index``.

        The receiver is left untouched; callers re-scaling a live SE
        should build all partitions and then discard the original.
        """
        if self.checkpoint_active:
            raise StateError("cannot repartition while a checkpoint is active")
        part = self.spawn_empty()
        for key, value in self._backend.items():
            if partitioner.partition(self.partition_key(key)) == index:
                part._backend.set(key, value)
        return part

    @classmethod
    def merge_partitions(
        cls, parts: Sequence["StateElement"]
    ) -> "StateElement":
        """Union disjoint partitions back into a single SE instance.

        Used by recovery (reconstituting a checkpoint restored as chunks)
        and by scale-in. Partitions must be disjoint: a key present in
        more than one partition raises :class:`~repro.errors.StateError`
        — overlapping partitions mean routing or extraction went wrong,
        and silently letting a later partition win would corrupt state.
        """
        if not parts:
            raise StateError("merge_partitions requires at least one part")
        merged = parts[0].spawn_empty()
        seen: set[Hashable] = set()
        for part_index, part in enumerate(parts):
            for key, value in part._backend.items():
                if key in seen:
                    raise StateError(
                        f"merge_partitions: key {key!r} appears in "
                        f"multiple partitions (again in partition "
                        f"{part_index}); partitions must be disjoint"
                    )
                seen.add(key)
                merged._backend.set(key, value)
        return merged

    # ------------------------------------------------------------------
    # Chunked serialisation (Fig. 4)
    # ------------------------------------------------------------------

    def chunk_meta(self) -> dict[str, Any]:
        """Extra shape information replicated into every chunk.

        Subclasses override to carry sizes (e.g. vector length) that are
        not recoverable from the items alone.
        """
        return {}

    def apply_chunk_meta(self, meta: dict[str, Any]) -> None:
        """Re-apply :meth:`chunk_meta` information during restore."""

    def to_chunks(self, m: int) -> list[StateChunk]:
        """Split a consistent snapshot into ``m`` chunks (step B1).

        Items are hash-partitioned on the storage key so that chunk sizes
        are balanced and chunk membership is deterministic.
        """
        if m < 1:
            raise StateError(f"chunk count must be >= 1, got {m}")
        buckets: list[list[tuple[Hashable, Any]]] = [[] for _ in range(m)]
        for key, value in self.snapshot_items():
            buckets[stable_hash(key) % m].append((key, value))
        meta = self.chunk_meta()
        return [
            StateChunk(index=i, total=m, items=tuple(bucket), meta=dict(meta))
            for i, bucket in enumerate(buckets)
        ]

    def to_delta_chunks(self, m: int, version: int,
                        base_version: int) -> list[DeltaChunk]:
        """Serialise only the mutations since the last ``mark_clean``.

        The journal keys are read against the *frozen* main structure
        (mid-checkpoint writes sit in the dirty overlay and belong to
        the next delta), hash-bucketed with the same function as full
        chunks, and stamped with ``(version, base_version)`` lineage.
        The cost is O(|mutations|), independent of the state size —
        the paper's explicit-state claim (§5) applied to backup traffic.
        """
        if m < 1:
            raise StateError(f"chunk count must be >= 1, got {m}")
        journal = self._backend.journal()
        item_buckets: list[list[tuple[Hashable, Any]]] = \
            [[] for _ in range(m)]
        for key in journal.written:
            item_buckets[stable_hash(key) % m].append(
                (key, self._backend.get(key))
            )
        deleted_buckets: list[list[Hashable]] = [[] for _ in range(m)]
        for key in journal.deleted:
            deleted_buckets[stable_hash(key) % m].append(key)
        meta = self.chunk_meta()
        return [
            DeltaChunk(
                index=i, total=m,
                items=tuple(sorted(bucket, key=lambda kv: stable_hash(kv[0]))),
                deleted=tuple(sorted(deleted_buckets[i], key=stable_hash)),
                meta=dict(meta), version=version, base_version=base_version,
            )
            for i, bucket in enumerate(item_buckets)
        ]

    def load_chunk(self, chunk: StateChunk) -> None:
        """Load one chunk's items into this (recovering) instance (R2)."""
        self.apply_chunk_meta(chunk.meta)
        for key, value in chunk.items:
            self._backend.set(key, value)

    def load_delta_chunk(self, chunk: DeltaChunk) -> None:
        """Fold one delta chunk on top of previously restored state.

        Tombstones first, then writes: a key can only appear on one
        side of a single delta, so within a chunk the order is
        immaterial, but deleting first keeps the fold idempotent when a
        caller retries a chunk.
        """
        self.apply_chunk_meta(chunk.meta)
        for key in chunk.deleted:
            try:
                self._backend.delete(key)
            except KeyError:
                pass  # deleted key never made it into the base: fine
        for key, value in chunk.items:
            self._backend.set(key, value)

    @classmethod
    def from_chunks(
        cls, template: "StateElement", chunks: Iterable[StateChunk]
    ) -> "StateElement":
        """Reconstitute an SE from all of its chunks."""
        se = template.spawn_empty()
        for chunk in chunks:
            se.load_chunk(chunk)
        return se

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Number of logical entries currently stored (incl. overlay)."""
        if self._dirty is None:
            return len(self._backend)
        return sum(1 for _ in self._iter_items())

    def estimated_size_bytes(self) -> int:
        """Modelled in-memory footprint, linear in the entry count."""
        return self.entry_count() * self.BYTES_PER_ENTRY


class PartitionerProtocol:
    """Structural protocol: anything with ``partition(key) -> int``."""

    n_partitions: int

    def partition(self, key: Hashable) -> int:  # pragma: no cover
        raise NotImplementedError


def stable_hash(key: Hashable) -> int:
    """A hash that is stable across interpreter runs.

    Python's built-in ``hash`` is randomised per process for strings,
    which would make chunk membership — and therefore recovery tests and
    the deterministic-execution requirement of §4.1 — non-reproducible.
    Integers hash to themselves; other keys hash via CRC-32 of their
    ``repr``.
    """
    if type(key) is str:  # the common key type, ahead of the ladder
        return zlib.crc32(repr(key).encode("utf-8"))
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key if key >= 0 else -key * 2 + 1
    if isinstance(key, tuple):
        result = 1469598103
        for part in key:
            result = (result * 1099511628211 + stable_hash(part)) % (2**61 - 1)
        return result
    return zlib.crc32(repr(key).encode("utf-8"))
