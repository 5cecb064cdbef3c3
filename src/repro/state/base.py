"""Base protocol for state elements (SEs).

A state element encapsulates the mutable state of an SDG computation
(§3.1). Every predefined SE routes its mutations through a small
key/value core provided here, which gives all of them, uniformly:

* the **consistent cut** a checkpoint persists (§5) — :meth:`cut`
  copies the contents, or the entries journalled since the last
  checkpoint, into a :class:`StateCut` that later writes cannot touch,
  so processing goes on against the SE while the cut is chunked;
* **dynamic partitioning** — ``extract_partition`` / ``merge_partitions``
  split and re-join SE instances for partitioned state and for restoring a
  failed instance onto *n* new nodes;
* **chunked serialisation** — :meth:`StateCut.chunks` / ``load_chunk``
  implement the m-to-n backup pattern of Fig. 4, and a delta cut with
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
helpers, or (hot predefined ops) a backend method.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Hashable, Iterable,
                    Iterator, Sequence)

from repro.errors import StateError
from repro.state.backend import DictBackend, MutationJournal, StateBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.state.partitioner import HashPartitioner

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


@dataclass(frozen=True)
class StateCut:
    """A consistent cut of one SE: a copy of what a checkpoint persists.

    A full cut holds every ``(key, value)``; a delta cut (``deleted``
    not ``None``) holds the keys journalled since the previous
    checkpoint, the written ones with their values in ``items``. Being
    a copy, it is untouched by writes made after it was taken, so
    processing goes on while it is chunked and persisted (§5).
    """

    items: list[tuple[Hashable, Any]]
    meta: dict[str, Any]
    bytes_per_entry: int
    deleted: list[Hashable] | None = None

    def chunks(self, m: int, version: int = 0,
               base_version: int = 0) -> list[StateChunk]:
        """Split the cut into ``m`` chunks (step B1).

        Items are hash-partitioned on the storage key so that chunk
        sizes are balanced and chunk membership is deterministic. A
        delta cut yields :class:`DeltaChunk` s stamped with ``(version,
        base_version)`` lineage, each bucket sorted by that hash.
        """
        if m < 1:
            raise StateError(f"chunk count must be >= 1, got {m}")
        buckets: list[list[tuple[Hashable, Any]]] = [[] for _ in range(m)]
        for key, value in self.items:
            buckets[stable_hash(key) % m].append((key, value))
        if self.deleted is None:
            return [
                StateChunk(index=i, total=m, items=tuple(bucket),
                           meta=dict(self.meta))
                for i, bucket in enumerate(buckets)
            ]
        deleted_buckets: list[list[Hashable]] = [[] for _ in range(m)]
        for key in self.deleted:
            deleted_buckets[stable_hash(key) % m].append(key)
        return [
            DeltaChunk(
                index=i, total=m,
                items=tuple(sorted(bucket, key=lambda kv: stable_hash(kv[0]))),
                deleted=tuple(sorted(deleted_buckets[i], key=stable_hash)),
                meta=dict(self.meta), version=version,
                base_version=base_version,
            )
            for i, bucket in enumerate(buckets)
        ]


class StateElement(abc.ABC):
    """Abstract base class for all SE data structures.

    Subclasses provide a physical store via :meth:`_make_backend` and
    expose a domain API (``get_row``, ``multiply``, ``put`` ...) built
    on the protected ``_get``/``_set``/``_delete`` helpers.
    """

    #: Modelled cost of one stored entry; used for state-size accounting.
    BYTES_PER_ENTRY = 64

    def __init__(self, backend: StateBackend | None = None) -> None:
        self._backend = backend if backend is not None \
            else self._make_backend()
        #: Whether a checkpoint of this SE is open (its cut taken, not
        #: yet persisted). Only the repartition guard reads it: a data
        #: op behaves the same either way.
        self.checkpoint_active = False
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
    # Access helpers
    # ------------------------------------------------------------------

    @property
    def update_count(self) -> int:
        """Total number of mutations applied to this SE instance."""
        return self._update_count

    def _get(self, key: Hashable, default: Any = _MISSING) -> Any:
        """Read ``key``; ``default`` (else KeyError) when absent."""
        try:
            return self._backend.get(key)
        except KeyError:
            if default is _MISSING:
                raise
            return default

    def _set(self, key: Hashable, value: Any) -> None:
        """Write ``key``; the backend checks and coerces the pair."""
        self._update_count += 1
        self._backend.set(key, value)

    def _delete(self, key: Hashable) -> None:
        """Delete ``key``; KeyError when absent."""
        self._update_count += 1
        self._backend.delete(key)

    def _iter_items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate the stored ``(key, value)`` pairs."""
        return self._backend.items()

    # ------------------------------------------------------------------
    # Checkpoint cut (§5)
    # ------------------------------------------------------------------

    def cut(self, delta: bool = False) -> StateCut:
        """Copy what a checkpoint of this SE persists, as of now.

        A full cut is the list of every stored pair; a ``delta`` cut
        reads only the keys journalled since the last
        :meth:`mark_clean`, so its cost is O(|mutations|), independent
        of the state size — the paper's explicit-state claim (§5)
        applied to backup traffic.
        """
        backend = self._backend
        if not delta:
            return StateCut(list(backend.items()), self.chunk_meta(),
                            self.BYTES_PER_ENTRY)
        journal = backend.journal()
        return StateCut([(key, backend.get(key)) for key in journal.written],
                        self.chunk_meta(), self.BYTES_PER_ENTRY,
                        deleted=list(journal.deleted))

    # ------------------------------------------------------------------
    # Mutation journal (incremental checkpoint support)
    # ------------------------------------------------------------------

    def journal(self) -> MutationJournal:
        """The keys mutated since the last :meth:`mark_clean`."""
        return self._backend.journal()

    def mark_clean(self) -> None:
        """Reset the mutation journal (a checkpoint has taken its cut)."""
        self._backend.mark_clean()

    # ------------------------------------------------------------------
    # Partitioning and merging (§3.2)
    # ------------------------------------------------------------------

    @staticmethod
    def default_route_key(key: Hashable) -> Hashable:
        """The route key of a partitioned SE that declares none: the
        storage key itself, which suits vectors and maps."""
        return key

    def extract_partition(self, partitioner: "HashPartitioner",
                          index: int,
                          route_key: Callable[[Hashable], Hashable]
                          ) -> "StateElement":
        """Return a new SE holding the entries partition ``index`` owns:
        those whose ``partitioner.partition(route_key(key))`` is ``index``.

        The receiver is left untouched; callers re-scaling a live SE
        should build all partitions and then discard the original.
        """
        part = self.spawn_empty()
        for key, value in self._backend.items():
            if partitioner.partition(route_key(key)) == index:
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
        """Split the current contents into ``m`` chunks (a full cut)."""
        return self.cut().chunks(m)

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
        """Number of entries currently stored."""
        return len(self._backend)

    def estimated_size_bytes(self) -> int:
        """Modelled in-memory footprint, linear in the entry count."""
        return self.entry_count() * self.BYTES_PER_ENTRY


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
