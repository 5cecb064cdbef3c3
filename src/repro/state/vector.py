"""The ``Vector`` state element.

A growable dense vector of numbers, as used for the partial
recommendation vectors in the collaborative-filtering example (Alg. 1)
and for model weights in logistic regression.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.state.backend import ListBackend
from repro.state.base import StateElement


class Vector(StateElement):
    """A dense vector SE, indexed by non-negative integers.

    Reads outside the current size return 0.0 (matching the sparse
    semantics the CF algorithm relies on); writes grow the vector.
    Physical storage is a :class:`~repro.state.backend.ListBackend`,
    which owns index validation and implicit zero-fill growth.
    """

    BYTES_PER_ENTRY = 8

    def __init__(self, size: int = 0, values: Sequence[float] | None = None):
        super().__init__(backend=ListBackend(
            values if values is not None else [0.0] * size))

    def spawn_empty(self) -> "Vector":
        return Vector()

    def chunk_meta(self) -> dict[str, Any]:
        return {"size": len(self._backend)}

    def apply_chunk_meta(self, meta: dict[str, Any]) -> None:
        backend: ListBackend = self._backend  # type: ignore[assignment]
        backend.grow_to(meta.get("size", 0))

    # -- domain API ----------------------------------------------------

    def get(self, index: int) -> float:
        """Return element ``index`` (0.0 when never written)."""
        return self._get(index, 0.0)

    def set(self, index: int, value: float) -> None:
        """Set element ``index``, growing the vector as needed."""
        self._set(index, value)

    def add(self, index: int, delta: float) -> float:
        """Increment element ``index`` by ``delta``; return the new value."""
        value = self.get(index) + delta
        self.set(index, value)
        return value

    def size(self) -> int:
        """Logical length (highest written index + 1)."""
        return len(self._backend)

    def to_list(self) -> list[float]:
        """Materialise the contents as a plain list (a copy)."""
        return list(self._backend._data)  # type: ignore[attr-defined]

    def dot(self, other: "Vector | Sequence[float]") -> float:
        """Inner product with another vector (shorter one zero-padded)."""
        mine = self.to_list()
        theirs = other.to_list() if isinstance(other, Vector) else list(other)
        return sum(a * b for a, b in zip(mine, theirs))

    def add_vector(self, other: "Vector | Sequence[float]") -> None:
        """In-place elementwise sum (the CF ``merge`` building block)."""
        theirs = other.to_list() if isinstance(other, Vector) else list(other)
        if isinstance(other, Vector):  # all floats
            self._update_count += self._backend.add_values(theirs)  # type: ignore
            return
        for index, value in enumerate(theirs):
            if value:
                self.add(index, value)

    def scale(self, factor: float) -> None:
        """In-place multiplication of every element by ``factor``."""
        for index in range(self.size()):
            value = self.get(index)
            if value:
                self.set(index, value * factor)

    @staticmethod
    def sum_merge(vectors: Sequence["Vector"]) -> "Vector":
        """Elementwise sum of partial vectors — the paper's CF merge."""
        if not vectors:
            return Vector()
        merged = Vector(size=max(v.size() for v in vectors))
        for vector in vectors:
            merged.add_vector(vector)
        return merged

    def __len__(self) -> int:
        return self.size()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.to_list() == other.to_list()

    def __hash__(self) -> int:  # pragma: no cover - mutable, unhashable
        raise TypeError("Vector is mutable and unhashable")

    def __repr__(self) -> str:
        data = self.to_list()
        if len(data) > 8:
            head = ", ".join(f"{v:g}" for v in data[:8])
            return f"Vector([{head}, ... len={len(data)}])"
        return f"Vector({data!r})"
