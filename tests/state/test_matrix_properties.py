"""Property-based tests for Matrix/DenseMatrix distribution support."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state import DenseMatrix, HashPartitioner, Matrix

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
    plain = Matrix()
    checkpointed = Matrix()
    half = len(triples) // 2
    fill(plain, triples[:half])
    fill(checkpointed, triples[:half])
    checkpointed.begin_checkpoint()
    fill(plain, triples[half:])
    fill(checkpointed, triples[half:])
    assert sorted(checkpointed._iter_items()) == sorted(
        plain.backend.items()
    )
    checkpointed.consolidate()
    assert sorted(checkpointed.backend.items()) == sorted(
        plain.backend.items()
    )
    # Row index must be consistent after consolidation.
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
