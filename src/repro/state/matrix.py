"""Matrix state elements.

``Matrix`` is the indexed *sparse* matrix the paper names for large,
sparsely-populated state such as the CF user-item and co-occurrence
matrices; ``DenseMatrix`` is its dense counterpart for small, fully
populated state such as regression weights.

Both split by row unless the SDG declares another ``route_key`` for
the SE (``lambda key: key[1]`` partitions by column, §3.2).
"""

from __future__ import annotations

from typing import Any

from repro.errors import StateError
from repro.state.backend import (_NO_CELLS, DenseGridBackend,
                                 SparseMatrixBackend)
from repro.state.base import StateElement
from repro.state.vector import Vector


def row_of(key: tuple[int, int]) -> int:
    """A matrix's default route key: the row of a ``(row, col)`` cell."""
    return key[0]


class Matrix(StateElement):
    """A sparse 2-D matrix SE keyed by ``(row, col)`` integer pairs.

    Unwritten cells read as 0.0. Physical storage is a
    :class:`~repro.state.backend.SparseMatrixBackend`, which keeps the
    cells by column and indexes the columns of each row, so
    :meth:`get_row`, :meth:`multiply` and the dimensions cost the cells
    they touch, not the matrix size. The vectors those return are built
    in one write: their journal is empty.
    """

    BYTES_PER_ENTRY = 24
    default_route_key = staticmethod(row_of)

    def _make_backend(self) -> SparseMatrixBackend:
        return SparseMatrixBackend()

    def spawn_empty(self) -> "Matrix":
        return Matrix()

    # -- domain API ----------------------------------------------------

    # A cell that passes ``_check_key``'s rule (inlined: a call costs as
    # much as the op) is two dict reads or one ``put``; any other key
    # takes ``_get``/``_set``, which raise what the backend refuses.

    def get_element(self, row: int, col: int) -> float:
        """Return the cell value (0.0 when never written)."""
        if (isinstance(row, int) and isinstance(col, int)
                and row >= 0 and col >= 0):
            return self._backend._cols.get(  # type: ignore
                col, _NO_CELLS).get(row, 0.0)
        return self._get((row, col), 0.0)

    def set_element(self, row: int, col: int, value: float) -> None:
        """Write one cell — the fine-grained update the paper motivates."""
        if (isinstance(row, int) and isinstance(col, int)
                and row >= 0 and col >= 0):
            self._update_count += 1
            self._backend.put((row, col), float(value))  # type: ignore
        else:
            self._set((row, col), value)

    def add_element(self, row: int, col: int, delta: float) -> float:
        """Increment one cell; returns the new value."""
        value = self.get_element(row, col) + delta
        self.set_element(row, col, value)
        return value

    def get_row(self, row: int) -> Vector:
        """Return row ``row`` as a :class:`Vector` (a copy, not a view)."""
        backend: SparseMatrixBackend = self._backend  # type: ignore
        backend._check_key((row, 0))
        cells, cols = backend._cols, backend._row_cols.get(row, ())
        values = [0.0] * (max(cols) + 1 if cols else 0)
        for col in cols:
            values[col] = cells[col][row]
        return Vector(values=values)

    def set_row(self, row: int, vector: Vector) -> None:
        """Replace row ``row`` with the non-zero entries of ``vector``."""
        backend: SparseMatrixBackend = self._backend  # type: ignore
        backend._check_key((row, 0))
        for col in list(backend._row_cols.get(row, ())):
            self._delete((row, col))
        for col, value in enumerate(vector.to_list()):
            if value:
                self._set((row, col), value)

    def multiply(self, vector: Vector) -> Vector:
        """Matrix-vector product: ``result[r] = sum_c M[r, c] * v[c]``.

        This is the operation ``@Global coOcc.multiply(userRow)`` from
        Alg. 1 line 16; applied to a partial instance it yields a partial
        result to be merged across instances. Only the stored columns
        where ``vector`` is non-zero are read, one pass over each, and
        they are taken in ascending order, so every row is summed in
        ascending column order and the result depends on the contents
        alone, not on the write history.
        """
        columns = self._backend._cols  # type: ignore[attr-defined]
        hit = [(columns[col], weight) for col, weight
               in enumerate(vector.to_list()) if weight and col in columns]
        values = [0.0] * (max([max(c) for c, _w in hit], default=-1) + 1)
        for column, weight in hit:
            for row, cell in column.items():
                values[row] += cell * weight
        return Vector(values=values)

    def to_rows(self) -> list[list[float]]:
        """Materialise the matrix as a ragged list of row lists.

        Row ``r`` is ``get_row(r).to_list()`` — its length is its own
        highest populated column + 1, so sparse tails are not padded.
        """
        return [self.get_row(r).to_list() for r in range(self.num_rows())]

    def num_rows(self) -> int:
        """1 + the highest populated row index (0 when empty)."""
        return max(self._backend._row_cols, default=-1) + 1  # type: ignore

    def num_cols(self) -> int:
        """1 + the highest populated column index (0 when empty)."""
        return max(self._backend._cols, default=-1) + 1  # type: ignore

    def nnz(self) -> int:
        """Number of explicitly stored (non-zero) cells."""
        return self.entry_count()

    def __repr__(self) -> str:
        return f"Matrix(nnz={len(self._backend)})"


class DenseMatrix(StateElement):
    """A dense, fixed-shape 2-D matrix SE.

    Suited to small fully-populated state (e.g. model weights); every
    cell within the declared shape is stored explicitly, in a
    :class:`~repro.state.backend.DenseGridBackend`.
    """

    BYTES_PER_ENTRY = 8
    default_route_key = staticmethod(row_of)

    def __init__(self, n_rows: int, n_cols: int) -> None:
        if n_rows < 0 or n_cols < 0:
            raise StateError("matrix dimensions must be non-negative")
        self.n_rows = n_rows
        self.n_cols = n_cols
        super().__init__()

    def _make_backend(self) -> DenseGridBackend:
        return DenseGridBackend(self.n_rows, self.n_cols)

    def spawn_empty(self) -> "DenseMatrix":
        return DenseMatrix(self.n_rows, self.n_cols)

    def chunk_meta(self) -> dict[str, Any]:
        return {"n_rows": self.n_rows, "n_cols": self.n_cols}

    # -- domain API ----------------------------------------------------

    def get_element(self, row: int, col: int) -> float:
        return self._get((row, col))

    def set_element(self, row: int, col: int, value: float) -> None:
        self._set((row, col), value)

    def add_element(self, row: int, col: int, delta: float) -> float:
        value = self.get_element(row, col) + delta
        self.set_element(row, col, value)
        return value

    def get_row(self, row: int) -> Vector:
        return Vector(values=[self.get_element(row, c)
                              for c in range(self.n_cols)])

    def to_rows(self) -> list[list[float]]:
        """Materialise as a dense list of row lists (shape-complete)."""
        return [self.get_row(row).to_list()
                for row in range(self.n_rows)]

    def multiply(self, vector: Vector) -> Vector:
        weights = [(col, weight) for col, weight
                   in enumerate(vector.to_list()[:self.n_cols]) if weight]
        result = Vector(size=self.n_rows)
        for row in range(self.n_rows):
            total = 0.0
            for col, weight in weights:
                total += self.get_element(row, col) * weight
            result.set(row, total)
        return result

    def __repr__(self) -> str:
        return f"DenseMatrix({self.n_rows}x{self.n_cols})"
