"""End-to-end failure/recovery tests: checkpoint + replay semantics."""

import pytest

from repro.errors import RecoveryError
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_cf_sdg, build_kv_sdg


def kv_cluster(n_partitions=1):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": n_partitions}))
    runtime.deploy()
    store = BackupStore(m_targets=2)
    return runtime, CheckpointManager(runtime, store), RecoveryManager(
        runtime, store
    )


def table_contents(runtime):
    merged = {}
    for inst in runtime.se_instances("table"):
        merged.update(dict(inst.element.items()))
    return merged


class TestOneToOneRecovery:
    def test_recovery_with_checkpoint_and_replay(self):
        runtime, ckpt, rec = kv_cluster()
        for i in range(30):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        # Post-checkpoint updates exist only in upstream buffers.
        for i in range(30, 50):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(50)}

    def test_recovery_without_any_checkpoint_replays_everything(self):
        runtime, _ckpt, rec = kv_cluster()
        for i in range(25):
            runtime.inject("serve", ("put", i, i * 2))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i * 2 for i in range(25)}

    def test_items_lost_in_inbox_are_replayed(self):
        runtime, ckpt, rec = kv_cluster()
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        # These sit unprocessed in the inbox when the node dies.
        for i in range(10, 20):
            runtime.inject("serve", ("put", i, i))
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(20)}

    def test_recovered_state_matches_failure_free_run(self):
        def run(fail: bool):
            runtime, ckpt, rec = kv_cluster()
            for i in range(40):
                runtime.inject("serve", ("put", i % 7, i))
            runtime.run_until_idle()
            node = runtime.se_instance("table", 0).node_id
            ckpt.checkpoint(node)
            for i in range(40, 80):
                runtime.inject("serve", ("put", i % 7, i))
            runtime.run_until_idle()
            if fail:
                runtime.fail_node(node)
                rec.recover_node(node)
                runtime.run_until_idle()
            return table_contents(runtime)

        assert run(fail=True) == run(fail=False)

    def test_no_duplicate_get_results_after_recovery(self):
        runtime, ckpt, rec = kv_cluster()
        runtime.inject("serve", ("put", "k", 1))
        runtime.inject("serve", ("get", "k", None))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        # Replay re-executes the get, but the client discards the
        # duplicate response.
        assert runtime.results["serve"] == [("k", 1)]

    def test_only_failed_partition_is_recovered(self):
        runtime, ckpt, rec = kv_cluster(n_partitions=3)
        for i in range(60):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        survivors = {
            inst.index: dict(inst.element.items())
            for inst in runtime.se_instances("table")
        }
        node = runtime.se_instance("table", 1).node_id
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        for inst in runtime.se_instances("table"):
            assert dict(inst.element.items()) == survivors[inst.index]

    def test_recover_alive_node_rejected(self):
        runtime, _ckpt, rec = kv_cluster()
        node = runtime.se_instance("table", 0).node_id
        with pytest.raises(RecoveryError, match="not failed"):
            rec.recover_node(node)

    def test_checkpoint_mid_flight_failure_uses_previous(self):
        runtime, ckpt, rec = kv_cluster()
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        pending = ckpt.begin(node)
        for i in range(10, 15):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        runtime.fail_node(node)
        assert ckpt.complete(pending) is None
        rec.recover_node(node)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(15)}


class TestOneToNRecovery:
    def test_restore_to_two_partitions(self):
        runtime, ckpt, rec = kv_cluster(n_partitions=1)
        for i in range(40):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        for i in range(40, 60):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        runtime.fail_node(node)
        nodes = rec.recover_node(node, n_new=2)
        assert len(nodes) == 2
        runtime.run_until_idle()
        assert len(runtime.se_instances("table")) == 2
        assert table_contents(runtime) == {i: i for i in range(60)}

    def test_partitions_are_disjoint_after_restore(self):
        runtime, ckpt, rec = kv_cluster(n_partitions=1)
        for i in range(30):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        runtime.fail_node(node)
        rec.recover_node(node, n_new=3)
        runtime.run_until_idle()
        partitioner = runtime.topology.partitioner("table")
        for inst in runtime.se_instances("table"):
            for key in inst.element.keys():
                assert partitioner.partition(key) == inst.index

    def test_reads_after_restore_hit_new_partitions(self):
        runtime, ckpt, rec = kv_cluster(n_partitions=1)
        for i in range(20):
            runtime.inject("serve", ("put", i, i + 100))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        runtime.fail_node(node)
        rec.recover_node(node, n_new=2)
        runtime.run_until_idle()
        for i in range(20):
            runtime.inject("serve", ("get", i, None))
        runtime.run_until_idle()
        assert sorted(runtime.results["serve"]) == [
            (i, i + 100) for i in range(20)
        ]

    def test_one_to_n_requires_single_instance(self):
        runtime, ckpt, rec = kv_cluster(n_partitions=2)
        node = runtime.se_instance("table", 0).node_id
        runtime.fail_node(node)
        with pytest.raises(RecoveryError, match="only instance"):
            rec.recover_node(node, n_new=2)

    def test_invalid_n_new_rejected(self):
        runtime, _ckpt, rec = kv_cluster()
        node = runtime.se_instance("table", 0).node_id
        runtime.fail_node(node)
        with pytest.raises(RecoveryError, match="n_new"):
            rec.recover_node(node, n_new=0)


class TestCFRecovery:
    RATINGS = [(0, 0, 5), (0, 1, 3), (1, 0, 4), (1, 2, 2), (2, 1, 1)]

    def cf_cluster(self):
        runtime = Runtime(
            build_cf_sdg(),
            RuntimeConfig(se_instances={"userItem": 1, "coOcc": 2}),
        ).deploy()
        store = BackupStore(m_targets=2)
        return runtime, CheckpointManager(runtime, store), RecoveryManager(
            runtime, store
        )

    def baseline_recommendation(self):
        runtime, _c, _r = self.cf_cluster()
        for rating in self.RATINGS:
            runtime.inject("updateUserItem", rating)
        runtime.run_until_idle()
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        return runtime.results["mergeRec"][0][1].to_list()

    def test_useritem_node_recovery_preserves_recommendations(self):
        runtime, ckpt, rec = self.cf_cluster()
        for rating in self.RATINGS[:3]:
            runtime.inject("updateUserItem", rating)
        runtime.run_until_idle()
        node = runtime.se_instance("userItem", 0).node_id
        ckpt.checkpoint(node)
        for rating in self.RATINGS[3:]:
            runtime.inject("updateUserItem", rating)
        runtime.run_until_idle()
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        assert (
            runtime.results["mergeRec"][0][1].to_list()
            == self.baseline_recommendation()
        )

    def test_merge_node_recovery_mid_gather(self):
        runtime, _ckpt, rec = self.cf_cluster()
        for rating in self.RATINGS:
            runtime.inject("updateUserItem", rating)
        runtime.run_until_idle()
        runtime.inject("getUserVec", 0)
        # Run a few steps: the broadcast fans out, partial responses may
        # reach the merge node before it dies.
        for _ in range(4):
            runtime.step()
        merge_node = runtime.te_instances("mergeRec")[0].node_id
        runtime.fail_node(merge_node)
        rec.recover_node(merge_node)
        runtime.run_until_idle()
        results = runtime.results["mergeRec"]
        assert len(results) == 1
        assert results[0][1].to_list() == self.baseline_recommendation()
