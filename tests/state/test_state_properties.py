"""Property-based tests for state-element invariants.

The invariants checked here are the ones the paper's recovery mechanism
relies on: a checkpoint must be transparent to readers and writers, its
cut must be exactly the pre-checkpoint contents, chunking must be a
lossless partition of the cut, and partitioning must be a disjoint
cover of the key space.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StateError
from repro.state import (
    DenseMatrix,
    HashPartitioner,
    KeyValueMap,
    Matrix,
    Vector,
)

keys = st.one_of(st.integers(0, 200), st.text(max_size=8))
values = st.integers(-1000, 1000)
ops = st.lists(st.tuples(keys, values), max_size=60)


def apply_model(pairs):
    model = {}
    for key, value in pairs:
        model[key] = value
    return model


@given(before=ops, during=ops)
def test_overlay_reads_match_plain_dict_semantics(before, during):
    """Reads after a cut behave exactly like a map never checkpointed."""
    kv = KeyValueMap()
    for key, value in before:
        kv.put(key, value)
    kv.cut()
    for key, value in during:
        kv.put(key, value)
    expected = apply_model(before + during)
    for key, value in expected.items():
        assert kv.get(key) == value
    assert sorted(map(repr, kv.keys())) == sorted(map(repr, expected))


@given(before=ops, during=ops)
def test_snapshot_is_exactly_pre_checkpoint_contents(before, during):
    kv = KeyValueMap()
    for key, value in before:
        kv.put(key, value)
    cut = kv.cut()
    snapshot_before_writes = dict(cut.items)
    for key, value in during:
        kv.put(key, value)
    assert dict(cut.items) == snapshot_before_writes
    assert snapshot_before_writes == apply_model(before)


@given(before=ops, during=ops)
def test_consolidate_equals_uninterrupted_execution(before, during):
    """A checkpoint's cut is invisible: the SE it was taken from ends
    bit-identical to one that never checkpointed."""
    interrupted = KeyValueMap()
    plain = KeyValueMap()
    for key, value in before:
        interrupted.put(key, value)
        plain.put(key, value)
    interrupted.cut()
    for key, value in during:
        interrupted.put(key, value)
        plain.put(key, value)
    assert pickle.dumps(interrupted) == pickle.dumps(plain)


@given(pairs=ops, m=st.integers(1, 7))
def test_chunking_is_lossless(pairs, m):
    kv = KeyValueMap()
    for key, value in pairs:
        kv.put(key, value)
    restored = KeyValueMap.from_chunks(kv, kv.to_chunks(m))
    assert sorted(map(repr, restored.items())) == sorted(
        map(repr, kv.items())
    )


@given(pairs=ops, n=st.integers(1, 6))
def test_partitions_are_a_disjoint_cover(pairs, n):
    kv = KeyValueMap()
    for key, value in pairs:
        kv.put(key, value)
    partitioner = HashPartitioner(n)
    parts = [kv.extract_partition(partitioner, i, kv.default_route_key)
             for i in range(n)]
    collected = [key for part in parts for key in part.keys()]
    assert len(collected) == len(kv.keys())
    assert sorted(map(repr, collected)) == sorted(map(repr, kv.keys()))


@given(
    cells=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15),
                  st.floats(-100, 100, allow_nan=False)),
        max_size=40,
    ),
    vec=st.lists(st.floats(-10, 10, allow_nan=False), max_size=16),
)
@settings(max_examples=50)
def test_matrix_multiply_matches_reference(cells, vec):
    m = Matrix()
    model = {}
    for row, col, value in cells:
        m.set_element(row, col, value)
        model[(row, col)] = value
    result = m.multiply(Vector(values=vec))
    expected = {}
    for (row, col), value in model.items():
        if col < len(vec) and vec[col]:
            expected[row] = expected.get(row, 0.0) + value * vec[col]
    # One slot per row up to the highest row a selected column holds a
    # cell in, and nothing but zeros in the rows none of them reaches.
    assert result.size() == max(expected, default=-1) + 1
    for row in range(result.size()):
        assert abs(result.get(row) - expected.get(row, 0.0)) < 1e-9


@given(ops_list=st.lists(st.tuples(st.integers(0, 30), values), max_size=50))
def test_vector_checkpoint_transparency(ops_list):
    plain = Vector()
    checkpointed = Vector()
    mid = len(ops_list) // 2
    for index, value in ops_list[:mid]:
        plain.set(index, value)
        checkpointed.set(index, value)
    cut, at_cut = checkpointed.cut(), checkpointed.to_list()
    for index, value in ops_list[mid:]:
        plain.set(index, value)
        checkpointed.set(index, value)
    assert pickle.dumps(checkpointed) == pickle.dumps(plain)
    restored = Vector.from_chunks(Vector(), cut.chunks(2))
    assert restored.to_list() == at_cut


coordinates = st.one_of(st.integers(-2, 3),
                        st.sampled_from([0.0, 0.5, 1.0, -1.5]))
cell_keys = st.tuples(coordinates, coordinates)
written_values = st.one_of(st.integers(-5, 5), st.floats(-5, 5),
                           st.just("x"))

#: SE kind -> (factory, keys good and bad, write, logical contents).
CHECKED_WRITES = {
    "Vector": (
        lambda: Vector(size=2),
        st.one_of(st.integers(-3, 6), st.booleans(), st.just("k")),
        lambda se, key, value: se.set(key, value),
        lambda se: se.to_list(),
    ),
    "Matrix": (
        Matrix, cell_keys,
        lambda se, key, value: se.set_element(*key, value),
        lambda se: se.to_rows(),
    ),
    "DenseMatrix": (
        lambda: DenseMatrix(2, 2), cell_keys,
        lambda se, key, value: se.set_element(*key, value),
        lambda se: se.to_rows(),
    ),
}


def outcome(action, *args):
    try:
        action(*args)
    except (StateError, KeyError, ValueError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("kind", sorted(CHECKED_WRITES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mid_checkpoint_writes_are_checked_like_idle_ones(kind, data):
    """A write is refused, and its value coerced, by the same rule with
    or without a checkpoint in progress: no data op reads the flag."""
    factory, keys, write, contents = CHECKED_WRITES[kind]
    writes = data.draw(
        st.lists(st.tuples(keys, written_values), max_size=20))
    idle, frozen = factory(), factory()
    cut = frozen.cut()
    frozen.checkpoint_active = True
    for key, value in writes:
        refused = outcome(write, idle, key, value)
        assert outcome(write, frozen, key, value) is refused, (key, value)
        if refused is StateError:  # a malformed key: deletes refuse it too
            for se in (idle, frozen):
                assert outcome(se._delete, key) is StateError, key
    # repr tells 3 from 3.0: both read back what the store coerced.
    assert repr(contents(frozen)) == repr(contents(idle))
    assert repr(list(frozen.backend.items())) == \
        repr(list(idle.backend.items()))
    assert frozen.journal() == idle.journal()
    assert cut.items == list(factory().backend.items())
