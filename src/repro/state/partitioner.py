"""Partitioning strategies for partitioned state and keyed dataflows.

The paper allows different data structures to support different
partitioning strategies (§3.2): "a map can be hash- or range-partitioned;
a matrix can be partitioned by row or column". The same strategies are
used to dispatch keyed dataflow items to TE instances so that every TE
instance accesses its co-located SE partition locally (§3.2, §4.2).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Hashable, Sequence

from repro.errors import StateError
from repro.state.base import stable_hash


class Partitioner:
    """Base class: maps a partitioning key to a partition index."""

    def __init__(self, n_partitions: int) -> None:
        if n_partitions < 1:
            raise StateError(
                f"partition count must be >= 1, got {n_partitions}"
            )
        self.n_partitions = n_partitions

    def partition(self, key: Hashable) -> int:
        """Return the partition index in ``[0, n_partitions)`` for ``key``."""
        raise NotImplementedError

    def rescaled(self, n_partitions: int) -> "Partitioner":
        """Return a new partitioner of the same kind with a new fan-out.

        Used when the runtime adds SE instances in response to bottlenecks
        (§3.3) and the key space must be re-split.
        """
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.__dict__ == other.__dict__  # type: ignore[union-attr]
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((type(self).__name__, self.n_partitions))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_partitions={self.n_partitions})"


class HashPartitioner(Partitioner):
    """Stable-hash partitioning (the default for keyed dispatch)."""

    def partition(self, key: Hashable) -> int:
        # ``stable_hash``'s ``str`` case, inlined: one frame per key.
        if type(key) is str:
            return zlib.crc32(repr(key).encode("utf-8")) % self.n_partitions
        return stable_hash(key) % self.n_partitions

    def rescaled(self, n_partitions: int) -> "HashPartitioner":
        return HashPartitioner(n_partitions)


class RangePartitioner(Partitioner):
    """Range partitioning over ordered keys.

    ``boundaries`` are the *upper* split points: with boundaries
    ``[10, 20]`` keys ``< 10`` go to partition 0, ``10 <= k < 20`` to
    partition 1 and ``>= 20`` to partition 2.
    """

    def __init__(self, boundaries: Sequence) -> None:
        bounds = list(boundaries)
        if sorted(bounds) != bounds:
            raise StateError("range boundaries must be sorted ascending")
        super().__init__(len(bounds) + 1)
        self.boundaries = bounds

    def partition(self, key) -> int:
        return bisect.bisect_right(self.boundaries, key)

    def rescaled(self, n_partitions: int) -> "RangePartitioner":
        raise StateError(
            "a RangePartitioner cannot be rescaled automatically; "
            "supply new boundaries explicitly"
        )

    def __repr__(self) -> str:
        return f"RangePartitioner(boundaries={self.boundaries!r})"
