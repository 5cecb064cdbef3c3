"""Unit tests for the sparse Matrix and DenseMatrix state elements."""

import pytest

from repro.errors import StateError
from repro.state import DenseMatrix, Matrix, Vector


class Recording(dict):
    """A dict that logs each key looked up and cannot be iterated."""

    def __init__(self, contents, read):
        super().__init__(contents)
        self.read = read

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def __iter__(self):
        raise AssertionError("multiply walked the whole store")

    items = keys = values = __iter__


class Column(dict):
    """A stored column that logs each cell its ``items`` hands out."""

    def __init__(self, col, contents, read):
        super().__init__(contents)
        self.col, self.read = col, read

    def items(self):
        for row, value in super().items():
            self.read.append((row, self.col))
            yield row, value


class TestSparseMatrix:
    def test_unwritten_cell_reads_zero(self):
        assert Matrix().get_element(3, 4) == 0.0

    def test_set_then_get(self):
        m = Matrix()
        m.set_element(1, 2, 7.0)
        assert m.get_element(1, 2) == 7.0

    def test_add_element(self):
        m = Matrix()
        assert m.add_element(0, 0, 1.0) == 1.0
        assert m.add_element(0, 0, 1.0) == 2.0

    def test_nnz_counts_stored_cells(self):
        m = Matrix()
        m.set_element(0, 0, 1.0)
        m.set_element(5, 9, 2.0)
        assert m.nnz() == 2

    def test_dimensions(self):
        m = Matrix()
        m.set_element(2, 7, 1.0)
        assert m.num_rows() == 3
        assert m.num_cols() == 8

    def test_empty_dimensions(self):
        assert Matrix().num_rows() == 0
        assert Matrix().num_cols() == 0

    def test_get_row_returns_vector_copy(self):
        m = Matrix()
        m.set_element(1, 0, 3.0)
        m.set_element(1, 2, 4.0)
        row = m.get_row(1)
        assert row.get(0) == 3.0
        assert row.get(2) == 4.0
        assert row.journal().empty  # built in one write, not slot by slot
        row.set(0, 99.0)
        assert m.get_element(1, 0) == 3.0  # copy, not a view

    @pytest.mark.parametrize("row", [-1, "a", 1.0, None])
    def test_row_access_validates_the_row_like_cell_access(self, row):
        m = Matrix()
        m.set_element(1, 0, 3.0)
        with pytest.raises(StateError):
            m.get_element(row, 0)
        with pytest.raises(StateError):
            m.get_row(row)
        with pytest.raises(StateError):
            m.set_row(row, Vector(values=[1.0]))
        assert m.nnz() == 1 and m.journal().written == {(1, 0)}

    def test_set_row_replaces_contents(self):
        m = Matrix()
        m.set_element(0, 5, 1.0)
        m.set_row(0, Vector(values=[2.0, 0.0, 3.0]))
        assert m.get_element(0, 0) == 2.0
        assert m.get_element(0, 2) == 3.0
        assert m.get_element(0, 5) == 0.0

    def test_multiply_matches_manual_product(self):
        m = Matrix()
        m.set_element(0, 0, 1.0)
        m.set_element(0, 1, 2.0)
        m.set_element(1, 1, 3.0)
        result = m.multiply(Vector(values=[10.0, 100.0]))
        assert result.get(0) == 210.0
        assert result.get(1) == 300.0
        assert result.journal().empty

    def test_multiply_skips_out_of_range_columns(self):
        m = Matrix()
        m.set_element(0, 9, 5.0)
        assert m.multiply(Vector(values=[1.0])).get(0) == 0.0

    def test_invalid_key_rejected(self):
        with pytest.raises(StateError):
            Matrix().set_element(-1, 0, 1.0)

    def test_route_key_defaults_to_the_row(self):
        assert Matrix.default_route_key((3, 9)) == 3
        assert DenseMatrix(4, 10).default_route_key((3, 9)) == 3


class TestSparseMatrixCheckpointing:
    """Reads after a checkpoint's cut see every later write; the cut
    keeps the cells it copied."""

    def test_get_row_sees_dirty_writes(self):
        m = Matrix()
        m.set_element(0, 0, 1.0)
        cut = m.cut()
        m.set_element(0, 1, 2.0)
        row = m.get_row(0)
        assert row.get(0) == 1.0
        assert row.get(1) == 2.0
        assert cut.items == [((0, 0), 1.0)]

    def test_multiply_sees_dirty_writes(self):
        m = Matrix()
        cut = m.cut()
        m.set_element(0, 0, 4.0)
        assert m.multiply(Vector(values=[2.0])).get(0) == 8.0
        assert cut.items == []

    def test_row_index_consistent_after_consolidate(self):
        m = Matrix()
        m.set_element(0, 0, 1.0)
        m.set_element(3, 3, 1.0)
        m.cut()
        m.set_element(0, 1, 2.0)
        m.set_row(3, Vector())
        assert m.get_row(0).to_list() == [1.0, 2.0]
        assert m.backend._row_cols == {0: {0, 1}}
        assert m.backend._cols == {0: {0: 1.0}, 1: {0: 2.0}}
        assert (m.num_rows(), m.num_cols()) == (1, 2)


class TestMultiplyCostsWhatItTouches:
    """Counted, no wall clock: ``multiply`` reads the columns its
    operand selects — never the whole store, checkpoint or not."""

    SIDE = 200
    OPERAND = {3: 2.0, 77: 1.0, 150: 3.0}

    @pytest.fixture
    def populated(self):
        m = Matrix()
        for row in range(self.SIDE):
            for col in range(self.SIDE):
                m.set_element(row, col, float((row + col) % 5))
        return m

    def expected(self, cells):
        return [sum(cells(row, col) * weight
                    for col, weight in sorted(self.OPERAND.items()))
                for row in range(self.SIDE)]

    def counted_multiply(self, m):
        """Multiply with the column store swapped for a copy that
        records every column looked up and refuses to be walked, each
        column recording the cells read off it."""
        cells, columns = [], []
        backend = m.backend
        backend._cols = Recording(
            {col: Column(col, column, cells)
             for col, column in backend._cols.items()}, columns)
        operand = [0.0] * self.SIDE
        for col, weight in self.OPERAND.items():
            operand[col] = weight
        result = m.multiply(Vector(values=operand)).to_list()
        assert set(columns) <= set(self.OPERAND)
        assert {col for _row, col in cells} <= set(self.OPERAND)
        assert len(cells) <= len(self.OPERAND) * self.SIDE
        return result

    def test_idle(self, populated):
        result = self.counted_multiply(populated)
        assert result == self.expected(lambda r, c: float((r + c) % 5))

    def test_checkpoint_in_progress(self, populated):
        cut = populated.cut()
        populated.set_element(10, 77, 100.0)   # overwrite, in operand
        populated.set_element(10, 78, 100.0)   # overwrite, outside it
        populated.set_row(11, Vector(values=[1.0]))   # deletions
        populated.set_element(self.SIDE - 1, 3, 9.0)

        def cells(row, col):
            if row == 11:
                return 1.0 if col == 0 else 0.0
            if (row, col) == (10, 77):
                return 100.0
            if (row, col) == (self.SIDE - 1, 3):
                return 9.0
            return float((row + col) % 5)

        result = self.counted_multiply(populated)
        assert result == self.expected(cells)
        assert len(cut.items) == self.SIDE * self.SIDE
        assert dict(cut.items)[10, 77] == float((10 + 77) % 5)


class TestDenseMatrix:
    def test_shape_is_fixed(self):
        m = DenseMatrix(2, 3)
        assert m.n_rows == 2 and m.n_cols == 3
        with pytest.raises(StateError):
            m.set_element(2, 0, 1.0)
        with pytest.raises(StateError):
            m.get_element(0, 3)

    def test_cells_default_to_zero(self):
        assert DenseMatrix(2, 2).get_element(1, 1) == 0.0

    def test_set_get_roundtrip(self):
        m = DenseMatrix(2, 2)
        m.set_element(0, 1, 5.0)
        assert m.get_element(0, 1) == 5.0

    def test_multiply(self):
        m = DenseMatrix(2, 2)
        m.set_element(0, 0, 1.0)
        m.set_element(0, 1, 2.0)
        m.set_element(1, 0, 3.0)
        result = m.multiply(Vector(values=[1.0, 1.0]))
        assert result.to_list() == [3.0, 3.0]

    def test_multiply_ignores_operand_beyond_the_shape(self):
        m = DenseMatrix(2, 2)
        m.set_element(1, 1, 4.0)
        m.cut()
        m.set_element(0, 0, 2.0)
        result = m.multiply(Vector(values=[3.0, 0.5, 7.0]))
        assert result.to_list() == [6.0, 2.0]

    def test_get_row(self):
        m = DenseMatrix(1, 3)
        m.set_element(0, 2, 9.0)
        assert m.get_row(0).to_list() == [0.0, 0.0, 9.0]

    def test_negative_dimensions_rejected(self):
        with pytest.raises(StateError):
            DenseMatrix(-1, 2)

    def test_chunk_meta_restores_shape(self):
        m = DenseMatrix(2, 2)
        m.set_element(1, 1, 3.0)
        chunks = m.to_chunks(2)
        restored = DenseMatrix.from_chunks(m, chunks)
        assert restored.get_element(1, 1) == 3.0
        assert restored.n_rows == 2
