"""Unit tests for hash partitioning and chunked serialisation."""

import pytest

from repro.errors import StateError
from repro.state import (
    HashPartitioner,
    KeyValueMap,
    Matrix,
    Vector,
)
from repro.state.base import stable_hash


class TestStableHash:
    def test_int_identity(self):
        assert stable_hash(7) == 7

    def test_negative_int_is_distinct_and_non_negative(self):
        assert stable_hash(-3) >= 0
        assert stable_hash(-3) != stable_hash(3)

    def test_bool_does_not_collide_with_large_int(self):
        assert stable_hash(True) == 1

    def test_string_is_deterministic(self):
        assert stable_hash("user42") == stable_hash("user42")

    def test_tuple_hashing(self):
        assert stable_hash((1, 2)) == stable_hash((1, 2))
        assert stable_hash((1, 2)) != stable_hash((2, 1))


class TestHashPartitioner:
    def test_range_of_outputs(self):
        p = HashPartitioner(4)
        for key in range(100):
            assert 0 <= p.partition(key) < 4

    def test_deterministic(self):
        p = HashPartitioner(8)
        assert p.partition("key") == p.partition("key")

    def test_zero_partitions_rejected(self):
        with pytest.raises(StateError):
            HashPartitioner(0)

    def test_equality(self):
        assert HashPartitioner(3) == HashPartitioner(3)
        assert HashPartitioner(3) != HashPartitioner(4)


class TestStatePartitioning:
    def test_map_partitions_are_disjoint_and_complete(self):
        kv = KeyValueMap()
        for i in range(50):
            kv.put(f"key{i}", i)
        p = HashPartitioner(3)
        parts = [kv.extract_partition(p, i, kv.default_route_key)
                 for i in range(3)]
        all_keys = [k for part in parts for k in part.keys()]
        assert sorted(all_keys) == sorted(kv.keys())
        assert len(all_keys) == len(set(all_keys))

    def test_matrix_row_partitioning_groups_rows(self):
        m = Matrix()
        for row in range(6):
            m.set_element(row, 0, float(row))
        p = HashPartitioner(2)
        parts = [m.extract_partition(p, i, m.default_route_key)
                 for i in range(2)]
        for i, part in enumerate(parts):
            for (row, _col), _val in part.backend.items():
                assert p.partition(row) == i

    def test_matrix_col_partitioning_groups_cols(self):
        m = Matrix()
        for col in range(6):
            m.set_element(0, col, float(col))
        p = HashPartitioner(3)
        parts = [m.extract_partition(p, i, lambda cell: cell[1])
                 for i in range(3)]
        for i, part in enumerate(parts):
            for (_row, col), _val in part.backend.items():
                assert p.partition(col) == i

    def test_merge_partitions_restores_original(self):
        kv = KeyValueMap()
        for i in range(30):
            kv.put(i, i * i)
        p = HashPartitioner(4)
        parts = [kv.extract_partition(p, i, kv.default_route_key)
                 for i in range(4)]
        merged = KeyValueMap.merge_partitions(parts)
        assert sorted(merged.items()) == sorted(kv.items())

    def test_merge_empty_list_rejected(self):
        with pytest.raises(StateError):
            KeyValueMap.merge_partitions([])

    def test_merge_overlapping_partitions_rejected(self):
        """Partitions must be disjoint — a shared key means the
        partitioner was inconsistent, and silently keeping either value
        would corrupt state."""
        a = KeyValueMap()
        a.put("shared", 1)
        a.put("only-a", 2)
        b = KeyValueMap()
        b.put("shared", 3)
        with pytest.raises(StateError, match="disjoint"):
            KeyValueMap.merge_partitions([a, b])


class TestChunking:
    def test_chunks_cover_all_items(self):
        kv = KeyValueMap()
        for i in range(100):
            kv.put(i, str(i))
        chunks = kv.to_chunks(5)
        assert len(chunks) == 5
        total = sum(len(c.items) for c in chunks)
        assert total == 100

    def test_from_chunks_roundtrip(self):
        kv = KeyValueMap()
        for i in range(40):
            kv.put(f"k{i}", i)
        restored = KeyValueMap.from_chunks(kv, kv.to_chunks(3))
        assert sorted(restored.items()) == sorted(kv.items())

    def test_vector_chunk_meta_preserves_trailing_zeros(self):
        v = Vector(size=10)
        v.set(0, 1.0)
        restored = Vector.from_chunks(v, v.to_chunks(2))
        assert restored.size() == 10

    def test_zero_chunks_rejected(self):
        with pytest.raises(StateError):
            KeyValueMap().to_chunks(0)

    def test_chunk_size_model(self):
        kv = KeyValueMap()
        for i in range(10):
            kv.put(i, i)
        chunk = kv.to_chunks(1)[0]
        assert chunk.size_bytes(bytes_per_entry=64) == 640

    def test_chunks_are_taken_from_consistent_snapshot(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        cut = kv.cut()
        kv.put("b", 2)
        chunks = cut.chunks(2)
        keys = {k for c in chunks for k, _ in c.items}
        assert keys == {"a"}
