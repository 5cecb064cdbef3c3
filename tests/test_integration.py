"""Full-stack integration: translation + runtime + checkpoints + failure.

These tests wire every layer together the way a deployment would:
an annotated program is translated, deployed with multiple partitions
and replicas, driven by a synthetic workload while the checkpoint
scheduler runs, subjected to node failures, recovered, and finally
checked against an uninterrupted sequential execution of the same
program.
"""

from repro.apps import CollaborativeFiltering, KeyValueStore
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointScheduler,
    RecoveryManager,
)
from repro.workloads import KVWorkload, RatingsWorkload


class TestKVFullStack:
    def test_workload_with_scheduled_checkpoints_and_failure(self):
        app = KeyValueStore.launch(table=3)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store)
        scheduler = CheckpointScheduler(manager, every_items=40,
                                        complete_after_steps=10).install()
        recovery = RecoveryManager(app.runtime, store)

        workload = KVWorkload(n_keys=60, read_fraction=0.0, seed=17)
        sequential = KeyValueStore()

        # Phase 1: load with scheduled checkpoints running.
        for op in workload.ops(300):
            app.put(op.key, op.value)
            sequential.put(op.key, op.value)
        app.run()
        assert scheduler.completed_count >= 3

        # Phase 2: kill the partition with the most keys; recover.
        victim = max(app.runtime.se_instances("table"),
                     key=lambda inst: len(inst.element))
        app.runtime.fail_node(victim.node_id)
        recovery.recover_node(victim.node_id)
        app.run()

        # Phase 3: more traffic after recovery.
        for op in workload.ops(100):
            app.put(op.key, op.value)
            sequential.put(op.key, op.value)
        app.run()
        scheduler.flush()

        merged = {}
        for element in app.state_of("table"):
            merged.update(dict(element.items()))
        expected = dict(sequential.table.items())
        assert merged == expected
        # The ledger observed the run: every put, replays on top.
        assert app.runtime.metrics.total(
            "engine_items_processed_total") >= 400

    def test_reads_correct_across_failure_boundary(self):
        app = KeyValueStore.launch(table=2)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store)
        recovery = RecoveryManager(app.runtime, store)

        for i in range(50):
            app.put(f"k{i}", i)
        app.run()
        manager.checkpoint_all()
        for i in range(50, 80):
            app.put(f"k{i}", i)
        app.run()

        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)
        recovery.recover_node(victim)
        app.run()

        for i in range(80):
            app.get(f"k{i}")
        app.run()
        assert sorted(app.results("get")) == sorted(
            (f"k{i}", i) for i in range(80)
        )


class TestCFFullStack:
    def test_recommendations_survive_co_occ_replica_failure(self):
        app = CollaborativeFiltering.launch(user_item=2, co_occ=3)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store)
        recovery = RecoveryManager(app.runtime, store)
        sequential = CollaborativeFiltering()

        workload = RatingsWorkload(n_users=25, n_items=12,
                                   read_fraction=0.0, seed=23)
        ops = list(workload.ops(200))
        for op in ops[:120]:
            app.add_rating(op.user, op.item, op.rating)
            sequential.add_rating(op.user, op.item, op.rating)
        app.run()
        manager.checkpoint_all()

        for op in ops[120:]:
            app.add_rating(op.user, op.item, op.rating)
            sequential.add_rating(op.user, op.item, op.rating)
        app.run()

        # Kill one co-occurrence replica's node (partial state!).
        victim = app.runtime.se_instances("co_occ")[1].node_id
        app.runtime.fail_node(victim)
        recovery.recover_node(victim)
        app.run()

        app.get_rec(0)
        app.run()
        distributed = app.results("get_rec")[-1].to_list()
        assert distributed == sequential.get_rec(0).to_list()

    def test_user_item_partition_failure_with_inflight_reads(self):
        app = CollaborativeFiltering.launch(user_item=2, co_occ=2)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store)
        recovery = RecoveryManager(app.runtime, store)
        sequential = CollaborativeFiltering()

        ratings = [(u, i, 1 + (u + i) % 5)
                   for u in range(10) for i in range(6)]
        for user, item, rating in ratings:
            app.add_rating(user, item, rating)
            sequential.add_rating(user, item, rating)
        app.run()
        manager.checkpoint_all()

        victim = app.runtime.se_instance("user_item", 0).node_id
        # Queries injected but not yet processed when the node dies.
        for user in range(10):
            app.get_rec(user)
        app.runtime.fail_node(victim)
        recovery.recover_node(victim)
        app.run()

        results = app.results("get_rec")
        assert len(results) == 10
        # Spot-check one user against the sequential ground truth. The
        # results arrive unordered; compare as multisets of vectors.
        expected = sorted(
            tuple(sequential.get_rec(user).to_list())
            for user in range(10)
        )
        got = sorted(tuple(vec.to_list()) for vec in results)
        assert got == expected
