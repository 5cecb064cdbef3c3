"""The ``KeyValueMap`` state element.

A hash-map SE (the paper's ``HashMap``), used by the distributed
key/value store of §6.1 — the benchmark the paper calls "an algorithm
with pure mutable state" — and by the streaming wordcount counts.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.state.base import StateElement


class KeyValueMap(StateElement):
    """A dictionary SE supporting hash or range partitioning.

    Physical storage is the default
    :class:`~repro.state.backend.DictBackend`; this class is purely the
    domain API.
    """

    BYTES_PER_ENTRY = 64

    def spawn_empty(self) -> "KeyValueMap":
        return KeyValueMap()

    # -- domain API ----------------------------------------------------

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self._set(key, value)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default`` when absent."""
        return self._get(key, default)

    def delete(self, key: Hashable) -> None:
        """Remove ``key``; raises :class:`KeyError` when absent."""
        self._delete(key)

    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` is present."""
        return self._contains(key)

    def increment(self, key: Hashable, delta: float = 1) -> float:
        """Add ``delta`` to a numeric value (0 when absent); return it.

        This is the fine-grained update exercised by streaming wordcount.
        """
        value = self._get(key, 0) + delta
        self._set(key, value)
        return value

    def keys(self) -> list[Hashable]:
        """All keys, in unspecified order."""
        return [key for key, _ in self._iter_items()]

    def items(self) -> list[tuple[Hashable, Any]]:
        """All ``(key, value)`` pairs."""
        return list(self._iter_items())

    def __len__(self) -> int:
        return self.entry_count()

    def __repr__(self) -> str:
        return f"KeyValueMap(len={len(self._backend)})"
