"""Hash partitioning for partitioned state and keyed dataflows.

One function splits a partitioned SE and routes the items that access
it (§3.2): keyed dataflow items are dispatched to the TE instance whose
co-located SE partition holds their key, so every access is local
(§3.2, §4.2). A re-scale or a 1-to-n restore re-splits the key space by
building a :class:`HashPartitioner` over the new instance count.
"""

from __future__ import annotations

import zlib
from typing import Hashable

from repro.errors import StateError
from repro.state.base import stable_hash


class HashPartitioner:
    """Maps a key to partition ``stable_hash(key) % n_partitions``."""

    def __init__(self, n_partitions: int) -> None:
        if n_partitions < 1:
            raise StateError(
                f"partition count must be >= 1, got {n_partitions}"
            )
        self.n_partitions = n_partitions

    def partition(self, key: Hashable) -> int:
        """Return the partition index in ``[0, n_partitions)`` for ``key``."""
        # ``stable_hash``'s ``str`` case, inlined: one frame per key.
        if type(key) is str:
            return zlib.crc32(repr(key).encode("utf-8")) % self.n_partitions
        return stable_hash(key) % self.n_partitions

    def __eq__(self, other: object) -> bool:
        return (type(other) is HashPartitioner
                and self.n_partitions == other.n_partitions)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.n_partitions)

    def __repr__(self) -> str:
        return f"HashPartitioner(n_partitions={self.n_partitions})"
