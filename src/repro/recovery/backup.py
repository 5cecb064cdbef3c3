"""Checkpoint backup stores.

A backup store models the "m nodes" of Fig. 4: checkpoint chunks are
distributed round-robin across backup targets so that no single disk or
NIC becomes a bottleneck during backup or restore. Two implementations
are provided — an in-memory store for tests and fast experiments, and a
disk-backed store that actually serialises chunks to files.

The store keeps, per runtime node, the current **base + delta chain**:
one full checkpoint plus the incremental checkpoints stacked on top of
it (ordered by version). Saving a new full checkpoint supersedes and
evicts the whole previous chain; saving a delta appends to the chain
and is refused (``RecoveryError``) unless its ``base_version`` matches
the chain head — a broken lineage must never be stored.

Backup integrity is first-class: at save time the store records, in each
checkpoint's metadata, the expected chunk count per SE instance and a
CRC-32 checksum per chunk. :meth:`BackupStore.chunks_for` verifies both
on the read path, so a lost chunk (e.g. a backup target offline) or a
corrupted chunk — base or delta — surfaces as a typed
:class:`~repro.errors.BackupIntegrityError` instead of a silently
truncated restore.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import zlib
from typing import TYPE_CHECKING

from repro.errors import BackupIntegrityError, RecoveryError
from repro.state.base import StateChunk

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.checkpoint import NodeCheckpoint


def chunk_checksum(chunk: StateChunk) -> int:
    """CRC-32 of the chunk's serialised form (what goes on the wire)."""
    return zlib.crc32(pickle.dumps(chunk))


def _atomic_pickle(path: str, payload: object) -> None:
    """Pickle ``payload`` to ``path`` without a torn-write window.

    The bytes land in a sibling temp file first, are fsynced, and only
    then renamed over the target. A crash at any point leaves either the
    previous file or the complete new one — never a short file that
    exists but fails its CRC check on restore.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class BackupStore:
    """In-memory chunked checkpoint storage across ``m`` backup targets.

    Per runtime node, the latest base + delta chain is retained; a new
    full checkpoint supersedes the previous chain, matching the paper's
    protocol where older checkpoints are discarded once superseded.
    """

    def __init__(self, m_targets: int = 2) -> None:
        if m_targets < 1:
            raise RecoveryError("backup store needs at least one target")
        self.m_targets = m_targets
        #: target index -> {(node_id, version, se_key, chunk_index): chunk}
        self._targets: list[dict] = [{} for _ in range(m_targets)]
        #: node_id -> {version: checkpoint metadata}
        self._meta: dict[int, dict[int, "NodeCheckpoint"]] = {}
        self._offline: set[int] = set()
        self._rr = 0

    # -- write path ------------------------------------------------------

    def save(self, checkpoint: "NodeCheckpoint") -> None:
        """Persist a node checkpoint, spreading chunks over targets (B3).

        A full checkpoint evicts the node's previous chain; a delta
        appends to it, and is refused when its ``base_version`` does not
        match the current chain head. Records the expected chunk count
        and a CRC-32 checksum per chunk into the checkpoint metadata so
        the read path can verify completeness and integrity.
        """
        online = [i for i in range(self.m_targets)
                  if i not in self._offline]
        if not online:
            raise RecoveryError(
                "cannot save checkpoint: every backup target is offline"
            )
        node_id = checkpoint.node_id
        kind = getattr(checkpoint, "kind", "full")
        if kind == "full":
            self._evict(node_id)
        else:
            head = self.latest(node_id)
            if head is None or head.version != checkpoint.base_version:
                head_version = None if head is None else head.version
                raise RecoveryError(
                    f"delta checkpoint v{checkpoint.version} of node "
                    f"{node_id} declares base v{checkpoint.base_version} "
                    f"but the stored chain head is "
                    f"{head_version!r}; refusing to store a broken "
                    f"lineage"
                )
        checkpoint.chunk_counts = {
            se_key: len(chunks)
            for se_key, chunks in checkpoint.se_chunks.items()
        }
        checkpoint.chunk_checksums = {
            (se_key, chunk.index): chunk_checksum(chunk)
            for se_key, chunks in checkpoint.se_chunks.items()
            for chunk in chunks
        }
        for se_key, chunks in checkpoint.se_chunks.items():
            for chunk in chunks:
                target = self._targets[online[self._rr % len(online)]]
                self._rr += 1
                target[
                    (node_id, checkpoint.version, se_key, chunk.index)
                ] = chunk
        self._meta.setdefault(node_id, {})[checkpoint.version] = checkpoint

    def _evict(self, node_id: int) -> None:
        for target in self._targets:
            stale = [k for k in target if k[0] == node_id]
            for key in stale:
                del target[key]
        self._meta.pop(node_id, None)

    def prune(self, node_versions: dict[int, int]) -> list[tuple[int, int]]:
        """Drop checkpoints not covered by a committed watermark.

        ``node_versions`` maps node id -> highest committed checkpoint
        version; any stored version above that mark — and every version
        of a node absent from the map — is removed. Durable runs use
        this on resume to discard checkpoints taken during a crashed,
        uncommitted epoch, so the surviving chains match exactly what
        the run manifest fenced. Returns the removed ``(node_id,
        version)`` pairs, ordered.
        """
        removed: list[tuple[int, int]] = []
        for node_id in list(self._meta):
            limit = node_versions.get(node_id)
            for version in sorted(self._meta[node_id]):
                if limit is None or version > limit:
                    removed.append((node_id, version))
                    del self._meta[node_id][version]
            if not self._meta[node_id]:
                del self._meta[node_id]
        doomed = set(removed)
        for target in self._targets:
            for key in [k for k in target if (k[0], k[1]) in doomed]:
                del target[key]
        return removed

    # -- availability ----------------------------------------------------

    def set_target_offline(self, target: int, offline: bool = True) -> None:
        """Mark one backup target (un)reachable.

        Chunks on an offline target are invisible to the read path — the
        completeness check then reports them as missing — and the write
        path spreads new chunks over the remaining targets only.
        """
        if not 0 <= target < self.m_targets:
            raise RecoveryError(
                f"no backup target {target}; store has {self.m_targets}"
            )
        if offline:
            self._offline.add(target)
        else:
            self._offline.discard(target)

    def _chunk_candidates(self, node_id: int | None,
                          kind: str | None) -> list[tuple[tuple, int]]:
        """Stored chunk keys matching the chaos filters, sorted."""
        return sorted(
            (key, i)
            for i, target in enumerate(self._targets)
            for key in target
            if (node_id is None or key[0] == node_id)
            and (kind is None or self._kind_of(key[0], key[1]) == kind)
        )

    def _kind_of(self, node_id: int, version: int) -> str:
        meta = self._meta.get(node_id, {}).get(version)
        return getattr(meta, "kind", "full") if meta is not None else "full"

    def corrupt_chunk(self, node_id: int | None = None,
                      kind: str | None = None) -> tuple | None:
        """Tamper with one stored chunk, leaving its checksum stale.

        Chaos/testing hook: deterministically picks the first stored
        chunk (optionally restricted to ``node_id`` and/or checkpoint
        ``kind`` — ``"full"`` or ``"delta"``), replaces its payload with
        a perturbed copy and returns the storage key — or ``None`` if
        nothing matched. The recorded checksum is *not* updated, so the
        read path detects the corruption.
        """
        candidates = self._chunk_candidates(node_id, kind)
        if not candidates:
            return None
        key, target_index = candidates[0]
        chunk = self._targets[target_index][key]
        self._targets[target_index][key] = self._tampered(chunk)
        return key

    def drop_chunk(self, node_id: int | None = None,
                   kind: str | None = None) -> tuple | None:
        """Erase one stored chunk outright (a lost backup file).

        Chaos/testing hook, same selection rules as
        :meth:`corrupt_chunk`; the chunk-count check on the read path
        then reports the gap as a :class:`BackupIntegrityError`.
        """
        candidates = self._chunk_candidates(node_id, kind)
        if not candidates:
            return None
        key, target_index = candidates[0]
        del self._targets[target_index][key]
        return key

    @staticmethod
    def _tampered(chunk: StateChunk) -> StateChunk:
        if chunk.items:
            first_key, first_value = chunk.items[0]
            items = ((first_key, ("corrupted", first_value)),) + \
                chunk.items[1:]
        else:
            items = chunk.items
        meta = dict(chunk.meta)
        meta["__corrupted__"] = True
        # dataclasses.replace preserves the concrete chunk type, so a
        # tampered DeltaChunk keeps its lineage fields.
        return dataclasses.replace(chunk, items=items, meta=meta)

    # -- read path ---------------------------------------------------------

    def latest(self, node_id: int) -> "NodeCheckpoint | None":
        """The chain head: the most recent checkpoint of ``node_id``."""
        versions = self._meta.get(node_id)
        if not versions:
            return None
        return versions[max(versions)]

    def base(self, node_id: int) -> "NodeCheckpoint | None":
        """The full base checkpoint anchoring ``node_id``'s chain."""
        versions = self._meta.get(node_id)
        if not versions:
            return None
        for version in sorted(versions):
            if getattr(versions[version], "kind", "full") == "full":
                return versions[version]
        return None

    def chain(self, node_id: int) -> "list[NodeCheckpoint]":
        """The stored base + delta chain, ordered by version."""
        versions = self._meta.get(node_id, {})
        return [versions[v] for v in sorted(versions)]

    def chunks_for(self, node_id: int, se_key: tuple[str, int],
                   verify: bool = True, version: int | None = None):
        """Stream all chunks of one SE instance, across online targets.

        ``version`` selects one checkpoint of the chain (default: the
        chain head). With ``verify`` (the default), the result is
        checked against the chunk counts and CRC-32 checksums recorded
        at save time; a gap or a mismatch raises
        :class:`BackupIntegrityError`. Checkpoints saved without
        recorded counts (hand-built fixtures) skip verification.
        """
        if version is None:
            head = self.latest(node_id)
            version = head.version if head is not None else None
        found = []
        for i, target in enumerate(self._targets):
            if i in self._offline:
                continue
            for (nid, ver, key, _index), chunk in target.items():
                if nid == node_id and key == se_key and (
                    version is None or ver == version
                ):
                    found.append(chunk)
        found.sort(key=lambda c: c.index)
        if not verify:
            return found
        meta = self._meta.get(node_id, {}).get(version) \
            if version is not None else None
        if meta is None:
            return found
        expected = getattr(meta, "chunk_counts", {}).get(se_key)
        if expected is None:
            return found
        indices = [c.index for c in found]
        if indices != list(range(expected)):
            missing = sorted(set(range(expected)) - set(indices))
            raise BackupIntegrityError(
                f"checkpoint v{version} of node {node_id}, SE {se_key}: "
                f"expected {expected} chunks but chunk(s) {missing} are "
                f"missing (backup target offline or data lost)"
            )
        checksums = getattr(meta, "chunk_checksums", {})
        for chunk in found:
            recorded = checksums.get((se_key, chunk.index))
            if recorded is not None and chunk_checksum(chunk) != recorded:
                raise BackupIntegrityError(
                    f"checkpoint v{version} of node {node_id}, SE "
                    f"{se_key}: chunk {chunk.index} failed its CRC-32 "
                    f"check (stored data corrupted)"
                )
        return found

    def target_loads(self) -> list[int]:
        """Number of chunks per backup target (balance diagnostics)."""
        return [len(t) for t in self._targets]

    def total_chunks(self) -> int:
        return sum(self.target_loads())


class DiskBackupStore(BackupStore):
    """A backup store that writes chunks to ``m`` directory targets.

    Each target directory models one backup node's disk; chunks are
    pickled to individual files, and restore reads them back. Metadata
    (the checkpoint skeleton with TE bookkeeping, chunk counts and
    checksums) is replicated to every target for availability.
    """

    def __init__(self, root: str, m_targets: int = 2) -> None:
        super().__init__(m_targets)
        self.root = root
        self._dirs = [os.path.join(root, f"backup{i}")
                      for i in range(m_targets)]
        for directory in self._dirs:
            os.makedirs(directory, exist_ok=True)

    @staticmethod
    def _chunk_filename(key: tuple) -> str:
        node_id, version, se_key, index = key
        return (
            f"node{node_id}_v{version}_{se_key[0]}_{se_key[1]}"
            f"_chunk{index}.pkl"
        )

    def save(self, checkpoint: "NodeCheckpoint") -> None:
        """Persist the node's current chain to disk, crash-consistently.

        Every file is written via :func:`_atomic_pickle` (temp file +
        ``os.replace``), and the new chain is written *before* stale
        files from a superseded chain are unlinked. A crash mid-save
        therefore leaves at worst both chains on disk — never a
        half-written chunk, and never a window where the old chain is
        gone but the new one is incomplete. Leftovers are swept by the
        next save or by :meth:`prune`.
        """
        super().save(checkpoint)
        node_id = checkpoint.node_id
        prefix = f"node{node_id}_"
        for i, target in enumerate(self._targets):
            if i in self._offline:
                continue
            directory = self._dirs[i]
            keep = set()
            for key, chunk in target.items():
                if key[0] != node_id:
                    continue
                name = self._chunk_filename(key)
                keep.add(name)
                _atomic_pickle(os.path.join(directory, name), chunk)
            for version, meta in self._meta.get(node_id, {}).items():
                name = f"node{node_id}_v{version}_meta.pkl"
                keep.add(name)
                _atomic_pickle(os.path.join(directory, name), meta)
            for name in os.listdir(directory):
                if name.startswith(prefix) and name not in keep:
                    os.unlink(os.path.join(directory, name))

    def corrupt_chunk(self, node_id: int | None = None,
                      kind: str | None = None) -> tuple | None:
        key = super().corrupt_chunk(node_id, kind)
        if key is None:
            return None
        filename = self._chunk_filename(key)
        for i, target in enumerate(self._targets):
            if key in target:
                _atomic_pickle(os.path.join(self._dirs[i], filename),
                               target[key])
        return key

    def drop_chunk(self, node_id: int | None = None,
                   kind: str | None = None) -> tuple | None:
        key = super().drop_chunk(node_id, kind)
        if key is None:
            return None
        filename = self._chunk_filename(key)
        for directory in self._dirs:
            path = os.path.join(directory, filename)
            if os.path.exists(path):
                os.unlink(path)
        return key

    def prune(self, node_versions: dict[int, int]) -> list[tuple[int, int]]:
        removed = super().prune(node_versions)
        for node_id, version in removed:
            prefix = f"node{node_id}_v{version}_"
            for directory in self._dirs:
                for name in os.listdir(directory):
                    if name.startswith(prefix):
                        os.unlink(os.path.join(directory, name))
        return removed

    def reload_from_disk(self) -> None:
        """Rebuild the in-memory index from the target directories.

        Used to recover checkpoints across process restarts, or to
        verify that the on-disk representation is complete. Files that
        no longer unpickle (flipped bytes, truncation) are skipped; the
        resulting gap is then caught by the chunk-count check on the
        read path rather than crashing the reload of every other node's
        checkpoints.
        """
        self._targets = [{} for _ in range(self.m_targets)]
        self._meta = {}
        for i, directory in enumerate(self._dirs):
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".pkl"):
                    continue  # e.g. an orphaned .tmp from a crashed save
                path = os.path.join(directory, name)
                try:
                    with open(path, "rb") as fh:
                        payload = pickle.load(fh)
                except Exception:
                    continue  # unreadable file == lost chunk
                stem = name[:-len(".pkl")]
                node_part, version_part, rest = stem.split("_", 2)
                node_id = int(node_part[len("node"):])
                version = int(version_part[len("v"):])
                if rest == "meta":
                    self._meta.setdefault(node_id, {})[version] = payload
                else:
                    # se names may contain underscores; peel from the right.
                    se_name, se_index, chunk_part = rest.rsplit("_", 2)
                    index = int(chunk_part[len("chunk"):])
                    self._targets[i][
                        (node_id, version, (se_name, int(se_index)), index)
                    ] = payload
