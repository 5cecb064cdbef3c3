"""Unit tests for the Vector state element."""

import pytest

from repro.errors import StateError
from repro.state import Vector


class TestVectorBasics:
    def test_new_vector_is_empty(self):
        assert Vector().size() == 0
        assert Vector().to_list() == []

    def test_sized_constructor_zero_fills(self):
        assert Vector(size=3).to_list() == [0.0, 0.0, 0.0]

    def test_values_constructor(self):
        assert Vector(values=[1, 2, 3]).to_list() == [1.0, 2.0, 3.0]

    def test_set_and_get(self):
        v = Vector()
        v.set(2, 5.0)
        assert v.get(2) == 5.0
        assert v.size() == 3

    def test_get_beyond_size_returns_zero(self):
        v = Vector(size=2)
        assert v.get(10) == 0.0

    def test_set_grows_with_zero_fill(self):
        v = Vector()
        v.set(4, 1.0)
        assert v.to_list() == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_add_accumulates(self):
        v = Vector()
        assert v.add(1, 2.0) == 2.0
        assert v.add(1, 3.0) == 5.0
        assert v.get(1) == 5.0

    def test_negative_index_rejected(self):
        with pytest.raises(StateError):
            Vector().set(-1, 1.0)

    def test_non_int_index_rejected(self):
        with pytest.raises(StateError):
            Vector().get("a")

    def test_bool_index_rejected(self):
        with pytest.raises(StateError):
            Vector().set(True, 1.0)

    def test_len_matches_size(self):
        v = Vector(values=[1, 2])
        assert len(v) == v.size() == 2


class TestVectorMath:
    def test_dot_product(self):
        a = Vector(values=[1, 2, 3])
        b = Vector(values=[4, 5, 6])
        assert a.dot(b) == 32.0

    def test_dot_with_plain_sequence(self):
        assert Vector(values=[1, 2]).dot([3, 4]) == 11.0

    def test_dot_length_mismatch_zero_pads(self):
        assert Vector(values=[1, 2, 3]).dot([1]) == 1.0

    def test_add_vector_elementwise(self):
        a = Vector(values=[1, 2])
        a.add_vector(Vector(values=[10, 20, 30]))
        assert a.to_list() == [11.0, 22.0, 30.0]

    @pytest.mark.parametrize("checkpointing", [False, True])
    def test_add_vector_writes_what_slot_by_slot_add_writes(
            self, checkpointing):
        other = [0.0, 5.0, 0.0, -2.0, 0.0, 7.0]
        bulk, stepwise = Vector(values=[1, 2, 3]), Vector(values=[1, 2, 3])
        for v in (bulk, stepwise):
            v.mark_clean()
            if checkpointing:
                v.begin_checkpoint()
                v.set(4, 9.0)
        bulk.add_vector(Vector(values=other))
        for index, value in enumerate(other):
            if value:
                stepwise.add(index, value)
        assert bulk.to_list() == stepwise.to_list() == [
            1.0, 7.0, 3.0, -2.0, 9.0 if checkpointing else 0.0, 7.0]
        assert bulk.update_count == stepwise.update_count
        if checkpointing:
            assert bulk.dirty_size == stepwise.dirty_size == 4
            bulk.consolidate()
            stepwise.consolidate()
        # Slot 4 is the zero-fill under slot 5 (or the overlay write).
        assert bulk.journal() == stepwise.journal()
        assert bulk.journal().written == {1, 3, 4, 5}

    def test_scale(self):
        v = Vector(values=[1, -2, 0])
        v.scale(2.0)
        assert v.to_list() == [2.0, -4.0, 0.0]

    def test_sum_merge_of_partials(self):
        parts = [Vector(values=[1, 0, 2]), Vector(values=[0, 3]), Vector()]
        merged = Vector.sum_merge(parts)
        assert merged.to_list() == [1.0, 3.0, 2.0]

    def test_sum_merge_empty_input(self):
        assert Vector.sum_merge([]).to_list() == []

    def test_equality_is_by_value(self):
        assert Vector(values=[1, 2]) == Vector(values=[1, 2])
        assert Vector(values=[1, 2]) != Vector(values=[2, 1])


class TestVectorCheckpointing:
    def test_writes_during_checkpoint_go_to_dirty(self):
        v = Vector(values=[1, 2])
        v.begin_checkpoint()
        v.set(0, 9.0)
        assert v.get(0) == 9.0  # read served by dirty state
        assert dict(v.snapshot_items())[0] == 1.0  # snapshot is consistent
        assert v.consolidate() == 1
        assert v.get(0) == 9.0

    def test_size_accounts_for_dirty_growth(self):
        v = Vector(values=[1])
        v.begin_checkpoint()
        v.set(5, 1.0)
        assert v.size() == 6
        v.consolidate()
        assert v.size() == 6

    def test_spawn_empty_is_fresh(self):
        v = Vector(values=[1, 2])
        assert v.spawn_empty().size() == 0

    def test_update_count_tracks_mutations(self):
        v = Vector()
        v.set(0, 1.0)
        v.add(0, 1.0)
        assert v.update_count == 2
