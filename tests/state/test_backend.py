"""Unit tests for the pluggable state backends and their journals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StateError
from repro.state import (
    DenseGridBackend,
    DictBackend,
    KeyValueMap,
    ListBackend,
    SparseMatrixBackend,
)


class TestJournalInvariants:
    """The three invariants every backend must maintain."""

    def test_write_journals_as_written(self):
        backend = DictBackend()
        backend.set("a", 1)
        journal = backend.journal()
        assert journal.written == {"a"} and not journal.deleted

    def test_write_then_delete_is_a_tombstone_only(self):
        backend = DictBackend()
        backend.set("a", 1)
        backend.delete("a")
        journal = backend.journal()
        assert journal.deleted == {"a"} and not journal.written

    def test_delete_then_rewrite_is_a_write_only(self):
        backend = DictBackend()
        backend.set("a", 1)
        backend.mark_clean()
        backend.delete("a")
        backend.set("a", 2)
        journal = backend.journal()
        assert journal.written == {"a"} and not journal.deleted

    def test_mark_clean_resets(self):
        backend = DictBackend()
        backend.set("a", 1)
        backend.delete("a")
        backend.mark_clean()
        assert backend.journal().empty
        assert backend.journal_size == 0

    def test_clear_journals_every_key_as_deleted(self):
        backend = DictBackend()
        backend.set("a", 1)
        backend.set("b", 2)
        backend.mark_clean()
        backend.clear()
        assert backend.journal().deleted == {"a", "b"}

    def test_journal_is_a_snapshot(self):
        backend = DictBackend()
        backend.set("a", 1)
        journal = backend.journal()
        backend.set("b", 2)
        assert journal.written == {"a"}
        assert len(journal) == 1


class TestListBackend:
    def test_gap_fill_journals_implicit_slots(self):
        backend = ListBackend()
        backend.set(3, 1.5)
        assert backend.journal().written == {0, 1, 2, 3}
        assert [v for _, v in backend.items()] == [0.0, 0.0, 0.0, 1.5]

    def test_delete_keeps_slot_and_journals_a_write(self):
        backend = ListBackend([1.0, 2.0])
        backend.mark_clean()
        backend.delete(1)
        assert backend.get(1) == 0.0
        assert len(backend) == 2
        assert backend.journal().written == {1}
        assert not backend.journal().deleted

    def test_out_of_bounds_delete_raises(self):
        with pytest.raises(KeyError):
            ListBackend([1.0]).delete(5)

    def test_bad_index_raises_state_error(self):
        with pytest.raises(StateError):
            ListBackend().set("x", 1.0)
        with pytest.raises(StateError):
            ListBackend().set(-1, 1.0)

    def test_grow_to_zero_extends(self):
        backend = ListBackend()
        backend.grow_to(3)
        assert len(backend) == 3
        backend.grow_to(2)  # never shrinks
        assert len(backend) == 3


class TestDenseGridBackend:
    def test_bounds_enforced(self):
        backend = DenseGridBackend(2, 2)
        with pytest.raises(StateError):
            backend.set((2, 0), 1.0)
        with pytest.raises(StateError):
            backend.get((0, 5))

    def test_delete_zeroes_and_journals_write(self):
        backend = DenseGridBackend(2, 2)
        backend.set((0, 1), 3.0)
        backend.mark_clean()
        backend.delete((0, 1))
        assert backend.get((0, 1)) == 0.0
        assert backend.journal().written == {(0, 1)}

    def test_clear_journals_all_cells_as_writes(self):
        backend = DenseGridBackend(2, 2)
        backend.set((1, 1), 9.0)
        backend.mark_clean()
        backend.clear()
        journal = backend.journal()
        assert journal.written == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert not journal.deleted

    def test_contains_is_a_bounds_check(self):
        backend = DenseGridBackend(1, 1)
        assert backend.contains((0, 0))

    @pytest.mark.parametrize("key", [
        (-1, 0), (2, 0), (0, 2), (1,), (0, 0, 0), [0, 0], (0.5, 0),
        (0, 1.0), (0, "1"), (None, 0), 7,
    ])
    def test_every_operation_rejects_a_bad_key(self, key):
        backend = DenseGridBackend(2, 2)
        for op in (backend.get, backend.contains, backend.delete,
                   lambda k: backend.set(k, 1.0)):
            with pytest.raises(StateError):
                op(key)
        assert backend.journal().empty
        assert [value for _key, value in backend.items()] == [0.0] * 4

    def test_bool_coordinates_are_ints(self):
        backend = DenseGridBackend(2, 2)
        backend.set((True, 0), 3.0)
        assert backend.get((1, 0)) == 3.0


class TestSparseMatrixBackend:
    def test_row_index_maintained(self):
        backend = SparseMatrixBackend()
        backend.set((1, 2), 5.0)
        backend.set((1, 7), 6.0)
        backend.delete((1, 2))
        assert backend._row_cols == {1: {7}}
        backend.delete((1, 7))
        assert backend._row_cols == {}

    def test_column_index_maintained(self):
        backend = SparseMatrixBackend()
        backend.set((1, 2), 5.0)
        backend.set((4, 2), 6.0)
        backend.put((4, 2), 7.0)  # overwrite: no index change
        assert backend._col_rows == {2: {1, 4}}
        assert backend.get((4, 2)) == 7.0
        backend.delete((1, 2))
        assert backend._col_rows == {2: {4}}
        with pytest.raises(KeyError):
            backend.delete((1, 2))
        assert backend._col_rows == {2: {4}}
        backend.clear()
        assert backend._col_rows == {} and backend._row_cols == {}

    def test_key_validation(self):
        backend = SparseMatrixBackend()
        with pytest.raises(StateError):
            backend.set("bad", 1.0)
        with pytest.raises(StateError):
            backend.set((1, -2), 1.0)

    @pytest.mark.parametrize("key", [
        (-1, 2), (1,), (1, 2, 3), [1, 2], (1.0, 2), (1, "2"), (None, 0), 7,
    ])
    def test_every_operation_rejects_a_bad_key(self, key):
        backend = SparseMatrixBackend()
        for op in (backend.get, backend.contains, backend.delete,
                   lambda k: backend.set(k, 1.0)):
            with pytest.raises(StateError):
                op(key)
        assert len(backend) == 0 and backend.journal().empty


class TestDeltaCapability:
    def test_se_mutations_reach_the_journal(self):
        kv = KeyValueMap()
        kv.put("a", 1)
        kv.delete("a")
        kv.put("b", 2)
        journal = kv.journal()
        assert journal.written == {"b"}
        assert journal.deleted == {"a"}
        kv.mark_clean()
        assert kv.journal().empty

    def test_overlay_writes_journal_on_consolidate(self):
        """Writes after a checkpoint's cut (which restarts the journal,
        as ``CheckpointManager.begin`` does) belong to the *next* delta."""
        kv = KeyValueMap()
        kv.put("a", 1)
        first = kv.cut(delta=True)
        kv.mark_clean()
        kv.put("b", 2)
        kv.delete("a")
        assert (first.items, first.deleted) == ([("a", 1)], [])
        second = kv.cut(delta=True)
        assert (second.items, second.deleted) == ([("b", 2)], ["a"])


#: kind -> (factory, key from two small ints).
BACKENDS = {
    "dict": (DictBackend, lambda a, b: a),
    "list": (ListBackend, lambda a, b: 2 * a + b),
    "grid": (lambda: DenseGridBackend(2, 2), lambda a, b: (a % 2, b % 2)),
    "sparse": (SparseMatrixBackend, lambda a, b: (a, b)),
}


@given(kind=st.sampled_from(sorted(BACKENDS)),
       ops=st.lists(
           st.tuples(st.sampled_from(["set", "del", "clear", "clean"]),
                     st.integers(0, 3), st.integers(0, 3)),
           max_size=30))
@settings(max_examples=200, deadline=None)
def test_any_sequence_is_journal_equivalent(kind, ops):
    """The one-map journal equals a two-set reference (add + discard).

    The reference is told which keys each mutation touches from the
    store's contents just before it: ``ListBackend`` zero-fills the gap
    below a write past its end, both dense stores keep a deleted slot
    and the grid a cleared one, so those journal as writes.
    """
    factory, key_of = BACKENDS[kind]
    backend = factory()
    delete_keeps_slot = kind in ("list", "grid")
    clear_keeps_slots = kind == "grid"
    written, deleted = set(), set()

    def journal_write(keys):
        written.update(keys)
        deleted.difference_update(keys)

    def journal_delete(keys):
        deleted.update(keys)
        written.difference_update(keys)

    for op, a, b in ops:
        key = key_of(a, b)
        if op == "set":
            gap = (set(range(len(backend), key)) if kind == "list"
                   else set())
            backend.set(key, 1.5)
            journal_write(gap | {key})
        elif op == "del":
            if not backend.contains(key):
                with pytest.raises(KeyError):
                    backend.delete(key)
                continue
            backend.delete(key)
            (journal_write if delete_keeps_slot else journal_delete)({key})
        elif op == "clear":
            stored = {k for k, _value in backend.items()}
            backend.clear()
            (journal_write if clear_keeps_slots
             else journal_delete)(stored)
        else:
            backend.mark_clean()
            written.clear()
            deleted.clear()
        journal = backend.journal()
        assert journal.written == written
        assert journal.deleted == deleted
        assert backend.journal_size == len(journal) \
            == len(written) + len(deleted)
