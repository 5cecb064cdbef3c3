"""End-to-end translator tests: structure and semantics (Fig. 3)."""

import pytest

from repro import (
    Partial,
    Partitioned,
    SDGProgram,
    TranslationError,
    collection,
    entry,
    global_,
)
from repro.apps import CollaborativeFiltering, KeyValueStore
from repro.core import AccessMode, Dispatch, StateKind, allocate
from repro.state import KeyValueMap


class TestCFStructure:
    """The translated CF program must match Fig. 1's SDG."""

    @pytest.fixture(scope="class")
    def result(self):
        return CollaborativeFiltering.translate()

    def test_five_task_elements(self, result):
        assert len(result.sdg.tasks) == 5

    def test_two_state_elements(self, result):
        states = result.sdg.states
        assert states["user_item"].kind is StateKind.PARTITIONED
        assert states["user_item"].route_key((7, 3)) == 7
        assert states["co_occ"].kind is StateKind.PARTIAL

    def test_add_rating_splits_into_two_tes(self, result):
        info = result.entry_info("add_rating")
        assert len(info.te_names) == 2
        tasks = result.sdg.tasks
        assert tasks[info.te_names[0]].state == "user_item"
        assert tasks[info.te_names[0]].access is AccessMode.PARTITIONED
        assert tasks[info.te_names[1]].state == "co_occ"
        assert tasks[info.te_names[1]].access is AccessMode.LOCAL

    def test_get_rec_splits_into_three_tes(self, result):
        info = result.entry_info("get_rec")
        assert len(info.te_names) == 3
        tasks = result.sdg.tasks
        assert tasks[info.te_names[1]].access is AccessMode.GLOBAL
        assert tasks[info.te_names[2]].is_merge

    def test_dispatch_semantics(self, result):
        dispatches = {
            (e.src, e.dst): e.dispatch for e in result.sdg.dataflows
        }
        add = result.entry_info("add_rating").te_names
        rec = result.entry_info("get_rec").te_names
        assert dispatches[(add[0], add[1])] is Dispatch.ONE_TO_ANY
        assert dispatches[(rec[0], rec[1])] is Dispatch.ONE_TO_ALL
        assert dispatches[(rec[1], rec[2])] is Dispatch.ALL_TO_ONE

    def test_entry_tes_keyed_by_user(self, result):
        for method in ("add_rating", "get_rec"):
            te = result.sdg.task(result.entry_info(method).entry_te)
            assert te.is_entry
            assert te.entry_key_name == "user"

    def test_allocation_matches_paper_walkthrough(self, result):
        allocation = allocate(result.sdg)
        assert allocation.n_nodes == 3  # n1, n2, n3 in Fig. 1


class TestCFSemantics:
    RATINGS = [
        (0, 0, 5), (0, 1, 3), (1, 0, 4), (1, 2, 2), (2, 1, 1), (0, 2, 1),
        (3, 0, 2), (3, 1, 4),
    ]

    def sequential(self, user):
        program = CollaborativeFiltering()
        for rating in self.RATINGS:
            program.add_rating(*rating)
        return program.get_rec(user).to_list()

    @pytest.mark.parametrize("co_occ_instances", [1, 2, 4])
    @pytest.mark.parametrize("user", [0, 1, 3])
    def test_distributed_equals_sequential(self, co_occ_instances, user):
        app = CollaborativeFiltering.launch(user_item=2,
                                            co_occ=co_occ_instances)
        for rating in self.RATINGS:
            app.add_rating(*rating)
        app.run()
        app.get_rec(user)
        app.run()
        assert app.results("get_rec")[0].to_list() == self.sequential(user)

    def test_interleaved_reads_and_writes(self):
        app = CollaborativeFiltering.launch(co_occ=2)
        seq = CollaborativeFiltering()
        for i, rating in enumerate(self.RATINGS):
            app.add_rating(*rating)
            seq.add_rating(*rating)
            app.run()
        app.get_rec(0)
        app.run()
        assert app.results("get_rec")[0].to_list() == (
            seq.get_rec(0).to_list()
        )


class TestKVStoreTranslation:
    def test_each_entry_is_a_single_te(self):
        result = KeyValueStore.translate()
        assert len(result.sdg.tasks) == 4
        for info in result.entries.values():
            assert len(info.te_names) == 1
            te = result.sdg.task(info.entry_te)
            assert te.access is AccessMode.PARTITIONED
            assert te.entry_key_name == "key"

    def test_distributed_semantics(self):
        app = KeyValueStore.launch(table=4)
        for i in range(20):
            app.put(f"k{i}", i)
        app.bump("counter", 5)
        app.bump("counter", 7)
        app.remove("k0")
        app.run()
        app.get("k1")
        app.get("k0")
        app.get("counter")
        app.run()
        assert sorted(app.results("get")) == [
            ("counter", 12), ("k0", None), ("k1", 1),
        ]

    def test_sequential_semantics_identical(self):
        seq = KeyValueStore()
        seq.put("a", 1)
        seq.bump("c", 2)
        assert seq.get("a") == ("a", 1)
        assert seq.get("c") == ("c", 2)


class TestTranslationErrors:
    def test_no_state_fields_rejected(self):
        class NoState(SDGProgram):
            @entry
            def ping(self, x):
                return x

        with pytest.raises(TranslationError, match="no Partitioned"):
            NoState.translate()

    def test_no_entries_rejected(self):
        class NoEntry(SDGProgram):
            table = Partitioned(KeyValueMap, key="k")

            def helper(self, x):
                return x

        with pytest.raises(TranslationError, match="@entry"):
            NoEntry.translate()

    def test_multi_se_statement_rejected(self):
        class TwoFields(SDGProgram):
            a = Partitioned(KeyValueMap, key="k")
            b = Partitioned(KeyValueMap, key="k")

            @entry
            def bad(self, k):
                self.a.put(k, self.b.get(k))

        with pytest.raises(TranslationError, match="multiple state"):
            TwoFields.translate()

    def test_early_return_rejected(self):
        class EarlyReturn(SDGProgram):
            a = Partitioned(KeyValueMap, key="k")
            b = Partial(KeyValueMap)

            @entry
            def bad(self, k):
                if self.a.get(k) is None:
                    return None
                self.b.put(k, 1)

        with pytest.raises(TranslationError, match="final task element"):
            EarlyReturn.translate()

    def test_merge_without_global_rejected(self):
        class BadMerge(SDGProgram):
            a = Partial(KeyValueMap)

            @entry
            def bad(self, k):
                v = self.a.get(k)
                out = self.combine(collection(v))
                return out

            def combine(self, vs):
                return vs

        with pytest.raises(TranslationError, match="global_"):
            BadMerge.translate()

    def test_helper_accessing_state_rejected(self):
        class StatefulHelper(SDGProgram):
            a = Partial(KeyValueMap)

            @entry
            def op(self, k):
                v = self.sneaky(k)
                return v

            def sneaky(self, k):
                return self.a.get(k)

        with pytest.raises(TranslationError, match="at most one state"):
            StatefulHelper.translate()

    def test_partition_key_must_reach_the_te(self):
        class LostKey(SDGProgram):
            a = Partial(KeyValueMap)
            b = Partitioned(KeyValueMap, key="key")

            @entry
            def bad(self, key):
                v = self.a.get(key)
                # 'key' is dead here, so the keyed dispatch into the
                # partitioned access below cannot be derived.
                self.b.put(v, v)

        with pytest.raises(TranslationError, match="key"):
            LostKey.translate()

    def test_state_field_reassignment_rejected(self):
        class Reassign(SDGProgram):
            a = Partial(KeyValueMap)

            @entry
            def op(self, k):
                self.a.put(k, 1)

        program = Reassign()
        with pytest.raises(TranslationError, match="reassigned"):
            program.a = KeyValueMap()


class TestHelperMethods:
    def test_helpers_compose(self):
        class WithHelpers(SDGProgram):
            table = Partitioned(KeyValueMap, key="key")

            @entry
            def put_twice(self, key, value):
                doubled = self.double(value)
                self.table.put(key, doubled)

            @entry
            def get(self, key):
                return self.table.get(key)

            def double(self, v):
                return self.scale(v, 2)

            def scale(self, v, factor):
                return v * factor

        app = WithHelpers.launch(table=2)
        app.put_twice("x", 21)
        app.run()
        app.get("x")
        app.run()
        assert app.results("get") == [42]

    def test_stateless_prefix_joins_first_te(self):
        class Normalise(SDGProgram):
            table = Partitioned(KeyValueMap, key="key")

            @entry
            def put(self, key, value):
                key = str(key).lower()
                value = value * 10
                self.table.put(key, value)

            @entry
            def get(self, key):
                return self.table.get(key)

        result = Normalise.translate()
        assert len(result.entry_info("put").te_names) == 1
        app = Normalise.launch()
        app.put("KEY", 4)
        app.run()
        app.get("key")
        app.run()
        assert app.results("get") == [40]
