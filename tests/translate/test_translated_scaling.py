"""Scale-up applied to *translated* programs (annotations + §3.3)."""

from repro.apps import CollaborativeFiltering, KeyValueStore


class TestTranslatedKVScaling:
    def test_scale_partitioned_table_preserves_data(self):
        app = KeyValueStore.launch(table=1)
        for i in range(60):
            app.put(f"k{i}", i)
        app.run()
        entry_te = app.translation.entry_info("put").entry_te
        assert app.runtime.scale_up(entry_te)
        assert len(app.runtime.se_instances("table")) == 2
        for i in range(60):
            app.get(f"k{i}")
        app.run()
        assert sorted(app.results("get")) == sorted(
            (f"k{i}", i) for i in range(60)
        )

    def test_sibling_entries_scale_together(self):
        app = KeyValueStore.launch(table=1)
        put_te = app.translation.entry_info("put").entry_te
        get_te = app.translation.entry_info("get").entry_te
        app.runtime.scale_up(put_te)
        # get accesses the same partitioned SE: its instances follow.
        assert len(app.runtime.te_instances(get_te)) == 2


class TestTranslatedCFScaling:
    RATINGS = [(u, i, 1 + (u + i) % 5)
               for u in range(8) for i in range(5)]

    def test_scale_user_item_matrix_by_row(self):
        """The user-item Matrix repartitions by row (user) and keyed
        reads keep matching the sequential program."""
        seq = CollaborativeFiltering()
        app = CollaborativeFiltering.launch(user_item=1, co_occ=1)
        for rating in self.RATINGS:
            seq.add_rating(*rating)
            app.add_rating(*rating)
        app.run()
        update_te = app.translation.entry_info("add_rating").te_names[0]
        assert app.runtime.scale_up(update_te)
        assert len(app.runtime.se_instances("user_item")) == 2
        # Rows are split by user: each partition holds whole users.
        partitioner = app.runtime.topology.partitioner("user_item")
        for inst in app.runtime.se_instances("user_item"):
            for (row, _col), _value in inst.element.backend.items():
                assert partitioner.partition(row) == inst.index
        # More ratings + a read after scaling still match sequential.
        extra = [(0, 4, 2), (7, 0, 3)]
        for rating in extra:
            seq.add_rating(*rating)
            app.add_rating(*rating)
        app.run()
        app.get_rec(0)
        app.run()
        assert (app.results("get_rec")[-1].to_list()
                == seq.get_rec(0).to_list())

    def test_scale_partial_co_occ_adds_replica(self):
        app = CollaborativeFiltering.launch(user_item=1, co_occ=1)
        for rating in self.RATINGS:
            app.add_rating(*rating)
        app.run()
        update_te = app.translation.entry_info("add_rating").te_names[1]
        assert app.runtime.scale_up(update_te)
        replicas = app.runtime.se_instances("co_occ")
        assert len(replicas) == 2
        assert replicas[1].element.nnz() == 0  # fresh replica
        # Reads gather from both replicas and still sum correctly.
        seq = CollaborativeFiltering()
        for rating in self.RATINGS:
            seq.add_rating(*rating)
        app.get_rec(1)
        app.run()
        assert (app.results("get_rec")[-1].to_list()
                == seq.get_rec(1).to_list())
