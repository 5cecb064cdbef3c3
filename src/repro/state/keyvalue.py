"""The ``KeyValueMap`` state element.

A hash-map SE (the paper's ``HashMap``), used by the distributed
key/value store of §6.1 — the benchmark the paper calls "an algorithm
with pure mutable state" — and by the streaming wordcount counts.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.state.base import StateElement


class KeyValueMap(StateElement):
    """A dictionary SE supporting hash partitioning.

    Physical storage is the default
    :class:`~repro.state.backend.DictBackend`; this class is purely the
    domain API.
    """

    BYTES_PER_ENTRY = 64

    def spawn_empty(self) -> "KeyValueMap":
        return KeyValueMap()

    # -- domain API ----------------------------------------------------
    # One dict op each, plus the journal write a mutation owes.

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self._update_count += 1
        self._backend._map[key] = value  # type: ignore[attr-defined]
        self._backend._journal[key] = True

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default`` when absent."""
        return self._backend._map.get(key, default)  # type: ignore

    def delete(self, key: Hashable) -> None:
        """Remove ``key``; raises :class:`KeyError` when absent."""
        self._update_count += 1
        del self._backend._map[key]  # type: ignore[attr-defined]
        self._backend._journal[key] = False

    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` is present."""
        return key in self._backend._map  # type: ignore[attr-defined]

    def increment(self, key: Hashable, delta: float = 1) -> float:
        """Add ``delta`` to a numeric value (0 when absent); return it.

        This is the fine-grained update exercised by streaming wordcount.
        """
        self._update_count += 1
        cells = self._backend._map  # type: ignore[attr-defined]
        value = cells[key] = cells.get(key, 0) + delta
        self._backend._journal[key] = True
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
