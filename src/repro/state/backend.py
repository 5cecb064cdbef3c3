"""Pluggable physical stores behind state elements.

A :class:`StateBackend` is the *physical* half of an SE: it owns the
actual data structure (a dict, a dense list, a grid) while the
:class:`~repro.state.base.StateElement` on top of it stays a pure
domain API (``put``/``get_row``/``multiply``...). The split mirrors the
paper's separation of logical state from its representation (§3.2) and
turns the storage layer into a seam: swapping the backend changes the
physical layout without touching the SE's semantics, its checkpoint
cut, or its partitioning support.

Every backend additionally keeps a **mutation journal** — one map from
each key mutated since the last :meth:`StateBackend.mark_clean` to
whether it was last written (``True``) or deleted (``False``) — which
is what makes *incremental* (delta) checkpointing possible: instead of
re-serialising the full state each cycle, a delta checkpoint emits only
the journalled keys (changed values plus tombstones), so the per-cycle
backup cost is O(|mutations|) rather than O(|state|).

Journal invariants (one map entry per key, assigned by the concrete
``set``/``delete`` here, so every backend gets them by construction):

* a key is in at most one of ``written`` / ``deleted``;
* write-then-delete journals as *deleted* only (a tombstone);
* delete-then-rewrite journals as *written* only.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Sequence

from repro.errors import StateError


@dataclass(frozen=True)
class MutationJournal:
    """Immutable view of a backend's mutations since ``mark_clean``."""

    written: frozenset
    deleted: frozenset

    def __len__(self) -> int:
        return len(self.written) + len(self.deleted)

    @property
    def empty(self) -> bool:
        return not self.written and not self.deleted


class StateBackend(abc.ABC):
    """Protocol for the physical store of one SE instance.

    The public mutators (:meth:`set`, :meth:`delete`, :meth:`clear`)
    maintain the mutation journal and delegate the actual storage work
    to the ``_do_*`` hooks implemented by subclasses.
    """

    def __init__(self) -> None:
        #: Key -> ``True`` (written) / ``False`` (deleted) since the
        #: last ``mark_clean``.
        self._journal: dict[Hashable, bool] = {}

    # -- storage hooks (subclass responsibility) -----------------------

    @abc.abstractmethod
    def get(self, key: Hashable) -> Any:
        """Return the value for ``key``; KeyError when absent."""

    @abc.abstractmethod
    def _do_set(self, key: Hashable, value: Any) -> None:
        """Write ``value`` for ``key``."""

    @abc.abstractmethod
    def _do_delete(self, key: Hashable) -> None:
        """Remove ``key``; KeyError when absent."""

    @abc.abstractmethod
    def contains(self, key: Hashable) -> bool:
        """Membership test."""

    @abc.abstractmethod
    def items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate over all stored ``(key, value)`` pairs."""

    @abc.abstractmethod
    def _do_clear(self) -> None:
        """Empty the store."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    # -- journalled mutators -------------------------------------------

    def set(self, key: Hashable, value: Any) -> None:
        self._do_set(key, value)
        self._journal[key] = True

    def delete(self, key: Hashable) -> None:
        self._do_delete(key)
        self._journal[key] = False

    def clear(self) -> None:
        for key, _value in self.items():
            self._journal[key] = False
        self._do_clear()

    # -- journal -------------------------------------------------------

    def journal(self) -> MutationJournal:
        """Snapshot of the keys mutated since the last ``mark_clean``."""
        entries = self._journal.items()
        return MutationJournal(
            written=frozenset([key for key, live in entries if live]),
            deleted=frozenset([key for key, live in entries if not live]),
        )

    def mark_clean(self) -> None:
        """Reset the journal — called once a checkpoint has taken its cut."""
        self._journal.clear()

    @property
    def journal_size(self) -> int:
        return len(self._journal)


class DictBackend(StateBackend):
    """The default hash-map store (KeyValueMap and custom SEs)."""

    def __init__(self) -> None:
        super().__init__()
        self._map: dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Any:
        return self._map[key]

    def _do_set(self, key: Hashable, value: Any) -> None:
        self._map[key] = value

    def _do_delete(self, key: Hashable) -> None:
        del self._map[key]

    def contains(self, key: Hashable) -> bool:
        return key in self._map

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        return iter(self._map.items())

    def _do_clear(self) -> None:
        self._map.clear()

    def __len__(self) -> int:
        return len(self._map)


class ListBackend(StateBackend):
    """Dense growable float storage keyed by non-negative int index.

    Backs :class:`~repro.state.vector.Vector`: writes beyond the
    current length zero-fill the gap (every implicitly created entry is
    journalled, so deltas stay exact), and ``delete`` keeps the slot,
    resetting it to 0.0 — matching the vector's sparse-read semantics.
    """

    def __init__(self, values: list[float] | None = None) -> None:
        super().__init__()
        self._data: list[float] = list(values) if values else []

    @staticmethod
    def _check_index(key: Hashable) -> int:
        if not isinstance(key, int) or isinstance(key, bool) or key < 0:
            raise StateError(
                f"vector index must be a non-negative int: {key!r}"
            )
        return key

    def get(self, key: Hashable) -> float:
        index = self._check_index(key)
        if index >= len(self._data):
            raise KeyError(index)
        return self._data[index]

    def _do_set(self, key: Hashable, value: Any) -> None:
        index, value = self._check_index(key), float(value)
        if index >= len(self._data):
            # Implicit zero-fill: journal the new slots so a delta
            # checkpoint reproduces the growth exactly.
            for gap in range(len(self._data), index):
                self._journal[gap] = True
            self._data.extend([0.0] * (index + 1 - len(self._data)))
        self._data[index] = value

    def delete(self, key: Hashable) -> None:
        index = self._check_index(key)
        if index >= len(self._data):
            raise KeyError(index)
        # A deleted slot stays allocated and reads 0.0: journal a write.
        self.set(index, 0.0)

    def _do_delete(self, key: Hashable) -> None:  # pragma: no cover
        raise AssertionError("ListBackend.delete never reaches _do_delete")

    def contains(self, key: Hashable) -> bool:
        return self._check_index(key) < len(self._data)

    def items(self) -> Iterator[tuple[int, float]]:
        return iter(enumerate(self._data))

    def _do_clear(self) -> None:
        self._data = []

    def __len__(self) -> int:
        return len(self._data)

    def grow_to(self, size: int) -> None:
        """Zero-extend to ``size`` entries (chunk-meta restore path)."""
        if size > len(self._data):
            self.set(size - 1, 0.0)

    def add_values(self, values: Sequence[float]) -> int:
        """Add floats elementwise in one pass, storing and journalling what
        ``set(i, get(i) + v)`` would per non-zero ``v``; returns the count."""
        data, journal = self._data, self._journal
        written = 0
        for index, value in enumerate(values):
            if value:
                if index < len(data):
                    data[index] += value
                else:  # past the end: zero-fill as ``set`` does
                    self._do_set(index, value)
                journal[index] = True
                written += 1
        return written


class DenseGridBackend(StateBackend):
    """Fixed-shape dense 2-D float storage keyed by ``(row, col)``.

    Backs :class:`~repro.state.matrix.DenseMatrix`: every in-bounds
    cell exists (``contains`` is a bounds check), ``delete`` resets the
    cell to 0.0, and iteration yields the full grid in row-major order.
    """

    def __init__(self, n_rows: int, n_cols: int) -> None:
        super().__init__()
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._data = [[0.0] * n_cols for _ in range(n_rows)]

    def _check_key(self, key: Hashable) -> tuple[int, int]:
        if not isinstance(key, tuple) or len(key) != 2:
            raise StateError(
                f"dense matrix key must be (row, col): {key!r}"
            )
        row, col = key
        if not (isinstance(row, int) and isinstance(col, int)
                and 0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise StateError(
                f"index ({row!r}, {col!r}) is not an int pair within "
                f"{self.n_rows}x{self.n_cols}"
            )
        return row, col

    def get(self, key: Hashable) -> float:
        row, col = self._check_key(key)
        return self._data[row][col]

    def _do_set(self, key: Hashable, value: Any) -> None:
        (row, col), value = self._check_key(key), float(value)
        self._data[row][col] = value

    def delete(self, key: Hashable) -> None:
        # A dense cell cannot disappear: deletion journals a zero write.
        self.set(self._check_key(key), 0.0)

    def _do_delete(self, key: Hashable) -> None:  # pragma: no cover
        raise AssertionError(
            "DenseGridBackend.delete never reaches _do_delete"
        )

    def contains(self, key: Hashable) -> bool:
        self._check_key(key)
        return True

    def items(self) -> Iterator[tuple[tuple[int, int], float]]:
        for row in range(self.n_rows):
            for col in range(self.n_cols):
                yield (row, col), self._data[row][col]

    def _do_clear(self) -> None:
        self._data = [[0.0] * self.n_cols for _ in range(self.n_rows)]

    def __len__(self) -> int:
        return self.n_rows * self.n_cols

    def clear(self) -> None:
        # Dense clear = zero every cell; the cells still exist, so they
        # journal as writes, not deletions.
        self._do_clear()
        for key, _zero in self.items():
            self._journal[key] = True


class SparseMatrixBackend(DictBackend):
    """Dict-of-cells store with a row index and a column index.

    Backs :class:`~repro.state.matrix.Matrix`: keys are validated
    ``(row, col)`` int pairs, and ``row -> {cols}`` / ``col -> {rows}``
    indexes are updated whenever a cell appears or disappears (an
    overwrite touches neither), so ``get_row`` costs the row's
    population and ``multiply`` that of the columns its operand
    selects, not the matrix size. The indexes are derived from the
    cells and never serialised.
    """

    def __init__(self) -> None:
        super().__init__()
        self._row_cols: dict[int, set[int]] = {}
        self._col_rows: dict[int, set[int]] = {}

    @staticmethod
    def _check_key(key: Hashable) -> tuple[int, int]:
        if isinstance(key, tuple) and len(key) == 2:
            row, col = key
            if (isinstance(row, int) and isinstance(col, int)
                    and row >= 0 and col >= 0):
                return key
        raise StateError(
            f"matrix key must be a (row, col) pair of non-negative "
            f"ints: {key!r}"
        )

    def get(self, key: Hashable) -> float:
        return self._map[self._check_key(key)]

    def set(self, key: Hashable, value: Any) -> None:
        self.put(self._check_key(key), float(value))

    def put(self, key: tuple[int, int], value: float) -> None:
        """Store a checked cell, its indexes and its journal entry: the
        one cell write, shared by :meth:`set` and idle ``Matrix`` ops."""
        if key not in self._map:
            row, col = key
            self._row_cols.setdefault(row, set()).add(col)
            self._col_rows.setdefault(col, set()).add(row)
        self._map[key] = value
        self._journal[key] = True

    def _do_set(self, key: Hashable, value: Any) -> None:  # pragma: no cover
        raise AssertionError("SparseMatrixBackend.set never reaches _do_set")

    def _do_delete(self, key: Hashable) -> None:
        row, col = self._check_key(key)
        del self._map[(row, col)]
        for index, line, cross in ((self._row_cols, row, col),
                                   (self._col_rows, col, row)):
            index[line].discard(cross)
            if not index[line]:
                del index[line]

    def contains(self, key: Hashable) -> bool:
        return self._check_key(key) in self._map

    def _do_clear(self) -> None:
        self._map.clear()
        self._row_cols.clear()
        self._col_rows.clear()
