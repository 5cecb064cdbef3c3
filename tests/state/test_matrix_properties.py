"""Property-based tests for Matrix/DenseMatrix distribution support."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state import DenseMatrix, HashPartitioner, Matrix, Vector

cells = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20),
              st.floats(-1e6, 1e6, allow_nan=False)),
    max_size=50,
)


def fill(matrix, triples):
    model = {}
    for row, col, value in triples:
        matrix.set_element(row, col, value)
        model[(row, col)] = value
    return model


@given(triples=cells, m=st.integers(1, 6))
def test_matrix_chunk_roundtrip(triples, m):
    matrix = Matrix()
    model = fill(matrix, triples)
    restored = Matrix.from_chunks(matrix, matrix.to_chunks(m))
    for (row, col), value in model.items():
        assert restored.get_element(row, col) == value
    assert restored.nnz() == matrix.nnz()


@given(triples=cells, n=st.integers(1, 5),
       axis=st.sampled_from(["row", "col"]))
def test_matrix_partition_cover(triples, n, axis):
    matrix = Matrix(partition_axis=axis)
    model = fill(matrix, triples)
    partitioner = HashPartitioner(n)
    parts = [matrix.extract_partition(partitioner, i) for i in range(n)]
    # Disjoint cover, with every cell in the partition owning its axis.
    total = 0
    for index, part in enumerate(parts):
        for (row, col), value in part.backend.items():
            key = row if axis == "row" else col
            assert partitioner.partition(key) == index
            assert model[(row, col)] == value
            total += 1
    assert total == len(model)
    merged = Matrix.merge_partitions(parts)
    assert sorted(merged.backend.items()) == sorted(
        matrix.backend.items()
    )


@given(triples=cells)
@settings(max_examples=50)
def test_matrix_checkpoint_transparency(triples):
    """Taking a cut midway leaves the matrix — cells, indexes, journal —
    exactly as if no checkpoint had run, and the cut holds the first
    half's cells only."""
    plain = Matrix()
    checkpointed = Matrix()
    half = len(triples) // 2
    fill(plain, triples[:half])
    model = fill(checkpointed, triples[:half])
    cut = checkpointed.cut()
    fill(plain, triples[half:])
    fill(checkpointed, triples[half:])
    assert dict(cut.items) == model
    assert repr(list(checkpointed.backend.items())) == repr(
        list(plain.backend.items()))
    assert checkpointed.journal() == plain.journal()
    for index in ("_row_cols", "_col_rows"):
        assert (getattr(checkpointed.backend, index)
                == getattr(plain.backend, index))
    for row in range(21):
        assert (checkpointed.get_row(row).to_list()
                == plain.get_row(row).to_list())


@given(
    n_rows=st.integers(1, 6), n_cols=st.integers(1, 6),
    writes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.floats(-100, 100, allow_nan=False)),
                    max_size=20),
    m=st.integers(1, 4),
)
def test_dense_matrix_chunk_roundtrip(n_rows, n_cols, writes, m):
    matrix = DenseMatrix(n_rows, n_cols)
    for row, col, value in writes:
        if row < n_rows and col < n_cols:
            matrix.set_element(row, col, value)
    restored = DenseMatrix.from_chunks(matrix, matrix.to_chunks(m))
    assert restored.n_rows == n_rows and restored.n_cols == n_cols
    for row in range(n_rows):
        assert (restored.get_row(row).to_list()
                == matrix.get_row(row).to_list())


# -- the row/column indexes and what is read off them ------------------

small = st.integers(0, 6)
whole = st.integers(-3, 3).map(float)
row_values = st.lists(whole, max_size=7)
matrix_ops = st.lists(st.one_of(
    st.tuples(st.just("set"), small, small, whole),
    st.tuples(st.just("add"), small, small, whole),
    st.tuples(st.just("set_row"), small, row_values),
    st.tuples(st.just("delete_row"), small),
    st.tuples(st.just("cut")),
    st.tuples(st.just("extract_partition"), st.integers(1, 3)),
    st.tuples(st.just("chunk_roundtrip"), st.integers(1, 4)),
), max_size=30)


def assert_indexes_match_cells(matrix):
    rows, cols = {}, {}
    for (row, col), _value in matrix.backend.items():
        rows.setdefault(row, set()).add(col)
        cols.setdefault(col, set()).add(row)
    assert matrix.backend._row_cols == rows
    assert matrix.backend._col_rows == cols


def assert_reads_match_model(matrix, model, operand):
    """Full scans over the plain-dict model are the reference."""
    n_rows = max((row for row, _ in model), default=-1) + 1
    n_cols = max((col for _, col in model), default=-1) + 1
    assert (matrix.num_rows(), matrix.num_cols()) == (n_rows, n_cols)
    assert matrix.nnz() == len(model)
    for row in range(8):
        width = max((c for r, c in model if r == row), default=-1) + 1
        assert matrix.get_row(row).to_list() == [
            model.get((row, col), 0.0) for col in range(width)]
    hit = [row for (row, col) in model
           if col < len(operand) and operand[col]]
    product = [0.0] * (max(hit, default=-1) + 1)
    for (row, col), value in sorted(model.items()):
        if row in hit and col < len(operand):
            product[row] += value * operand[col]
    assert matrix.multiply(Vector(values=operand)).to_list() == product


@given(ops=matrix_ops, operand=row_values,
       axis=st.sampled_from(["row", "col"]))
@settings(max_examples=150, deadline=None)
def test_matrix_indexes_and_reads_match_dict_model(ops, operand, axis):
    matrix, model = Matrix(partition_axis=axis), {}
    for op in ops:
        kind = op[0]
        if kind == "set":
            matrix.set_element(*op[1:])
            model[op[1:3]] = op[3]
        elif kind == "add":
            value = model.get(op[1:3], 0.0) + op[3]
            assert matrix.add_element(*op[1:]) == value
            model[op[1:3]] = value
        elif kind in ("set_row", "delete_row"):
            values = op[2] if kind == "set_row" else []
            matrix.set_row(op[1], Vector(values=values))
            for key in [key for key in model if key[0] == op[1]]:
                del model[key]
            model.update({(op[1], col): value
                          for col, value in enumerate(values) if value})
        elif kind == "cut":
            assert dict(matrix.cut().items) == model
        elif kind == "extract_partition":
            partitioner = HashPartitioner(op[1])
            parts = [matrix.extract_partition(partitioner, index)
                     for index in range(op[1])]
            for part in parts:
                assert_indexes_match_cells(part)
            matrix = Matrix.merge_partitions(parts)
        else:
            matrix = Matrix.from_chunks(matrix, matrix.to_chunks(op[1]))
        assert_indexes_match_cells(matrix)
        assert_reads_match_model(matrix, model, operand)
