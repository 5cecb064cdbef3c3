"""Recovery under compound failure scenarios."""

import pytest

from repro.errors import StaleCheckpointError
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    DiskBackupStore,
    RecoveryManager,
)
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_cf_sdg, build_kv_sdg, input_logs


def kv_cluster(n_partitions=3, store=None):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": n_partitions}))
    runtime.deploy()
    store = store or BackupStore(m_targets=2)
    return (runtime, CheckpointManager(runtime, store),
            RecoveryManager(runtime, store))


def put_range(runtime, start, stop):
    for i in range(start, stop):
        runtime.inject("serve", ("put", i, i))
    runtime.run_until_idle()


def table_contents(runtime):
    merged = {}
    for inst in runtime.se_instances("table"):
        merged.update(dict(inst.element.items()))
    return merged


class TestSequentialFailures:
    def test_two_partitions_fail_one_after_another(self):
        runtime, ckpt, rec = kv_cluster(3)
        for i in range(90):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        ckpt.checkpoint_all()
        for i in range(90, 120):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()

        node0 = runtime.se_instance("table", 0).node_id
        runtime.fail_node(node0)
        rec.recover_node(node0)
        runtime.run_until_idle()

        node1 = runtime.se_instance("table", 1).node_id
        runtime.fail_node(node1)
        rec.recover_node(node1)
        runtime.run_until_idle()

        assert table_contents(runtime) == {i: i for i in range(120)}

    def test_simultaneous_failures(self):
        runtime, ckpt, rec = kv_cluster(3)
        for i in range(60):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        ckpt.checkpoint_all()
        node0 = runtime.se_instance("table", 0).node_id
        node1 = runtime.se_instance("table", 1).node_id
        runtime.fail_node(node0)
        runtime.fail_node(node1)
        rec.recover_node(node0)
        rec.recover_node(node1)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(60)}

    def test_repeated_failure_of_same_partition(self):
        runtime, ckpt, rec = kv_cluster(1)
        total = 0
        for round_number in range(3):
            for i in range(total, total + 25):
                runtime.inject("serve", ("put", i, i))
            total += 25
            runtime.run_until_idle()
            node = runtime.se_instance("table", 0).node_id
            ckpt.checkpoint(node)
            runtime.fail_node(node)
            rec.recover_node(node)
            runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(total)}

    def test_replacement_fails_before_its_own_checkpoint(self):
        """The replacement comes back from the checkpoint that built
        it, not empty: the input log below it is already trimmed."""
        runtime, ckpt, rec = kv_cluster(1)
        put_range(runtime, 0, 40)
        ckpt.checkpoint(runtime.se_instance("table", 0).node_id)
        put_range(runtime, 40, 80)
        for _ in range(2):
            node = runtime.se_instance("table", 0).node_id
            runtime.fail_node(node)
            rec.recover_node(node)
            runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(80)}

    @pytest.mark.parametrize("partition_0_checkpoints", [False, True])
    def test_one_to_n_partition_fails_before_its_own_checkpoint(
            self, partition_0_checkpoints):
        runtime, ckpt, rec = kv_cluster(1)
        put_range(runtime, 0, 40)
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        put_range(runtime, 40, 80)
        runtime.fail_node(node)
        rec.recover_node(node, n_new=2)
        runtime.run_until_idle()
        if partition_0_checkpoints:
            ckpt.checkpoint(runtime.se_instance("table", 0).node_id)
        node = runtime.se_instance("table", 1).node_id
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(80)}

    def test_a_split_partition_refuses_its_lineage_once_repartitioned(self):
        # The split's source checkpoint routes by the split's epoch
        # only: after a scale-up it is as stale as any other checkpoint.
        runtime, ckpt, rec = kv_cluster(1)
        put_range(runtime, 0, 40)
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        put_range(runtime, 40, 80)
        runtime.fail_node(node)
        rec.recover_node(node, n_new=2)
        runtime.run_until_idle()
        assert runtime.scale_up("serve")
        node = runtime.se_instance("table", 1).node_id
        runtime.fail_node(node)
        with pytest.raises(StaleCheckpointError, match="repartitioned"):
            rec.recover_node(node)

    def test_failure_after_trimmed_buffers(self):
        """A checkpoint trims upstream buffers; recovery must then rely
        entirely on the checkpointed state."""
        runtime, ckpt, rec = kv_cluster(1)
        for i in range(50):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        ckpt.checkpoint(node)
        buffered = sum(
            len(b) for b in input_logs(runtime).values()
        )
        assert buffered == 0  # everything trimmed
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(50)}


class TestStatelessNodeFailure:
    def test_merge_node_failure_and_replay_from_stateful_upstream(self):
        runtime = Runtime(
            build_cf_sdg(),
            RuntimeConfig(se_instances={"userItem": 1, "coOcc": 2}),
        ).deploy()
        store = BackupStore()
        rec = RecoveryManager(runtime, store)
        for rating in [(0, 0, 5), (0, 1, 3), (1, 0, 4)]:
            runtime.inject("updateUserItem", rating)
        runtime.run_until_idle()
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        baseline = runtime.results["mergeRec"][0][1].to_list()

        merge_node = runtime.te_instances("mergeRec")[0].node_id
        runtime.fail_node(merge_node)
        # Queries issued while the merge node is down are buffered
        # upstream (responses pile into producer output buffers).
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        assert len(runtime.results["mergeRec"]) == 1  # nothing new
        rec.recover_node(merge_node)
        runtime.run_until_idle()
        results = runtime.results["mergeRec"]
        assert len(results) == 2
        assert results[1][1].to_list() == baseline

    @pytest.mark.parametrize("steps", [1, 2])
    def test_re_executed_broadcast_completes_its_gather(self, steps):
        """A broadcast replayed after its producer's node fails carries
        the request id its surviving replica already answered, so the
        gather completes once."""

        def replies(fail):
            runtime = Runtime(
                build_cf_sdg(),
                RuntimeConfig(se_instances={"userItem": 1, "coOcc": 2}),
            ).deploy()
            store = BackupStore()
            ckpt = CheckpointManager(runtime, store)
            rec = RecoveryManager(runtime, store)
            for rating in [(0, 0, 5), (0, 1, 3), (1, 0, 4)]:
                runtime.inject("updateUserItem", rating)
            runtime.run_until_idle()
            ckpt.checkpoint_all()
            runtime.inject("getUserVec", 0)
            for _ in range(steps):
                runtime.step()
            if fail:
                nodes = [runtime.te_instances("getUserVec")[0].node_id,
                         runtime.te_instances("getRecVec")[1].node_id]
                for node in nodes:
                    runtime.fail_node(node)
                for node in nodes:
                    rec.recover_node(node)
            runtime.run_until_idle()
            return [(user, vector.to_list())
                    for user, vector in runtime.results["mergeRec"]]

        expected = replies(fail=False)
        assert len(expected) == 1
        assert replies(fail=True) == expected


class TestDiskBackedRecovery:
    def test_end_to_end_via_disk_store(self, tmp_path):
        store = DiskBackupStore(str(tmp_path), m_targets=3)
        runtime, ckpt, rec = kv_cluster(2, store=store)
        for i in range(80):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        ckpt.checkpoint_all()
        # Force the restore path to go through the on-disk bytes.
        store.reload_from_disk()
        node = runtime.se_instance("table", 1).node_id
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        assert table_contents(runtime) == {i: i for i in range(80)}


class TestServiceContinuity:
    def test_surviving_partitions_serve_during_failure(self):
        runtime, ckpt, rec = kv_cluster(3)
        for i in range(30):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        dead = runtime.se_instance("table", 0).node_id
        runtime.fail_node(dead)
        # Reads for keys on surviving partitions still succeed.
        partitioner = runtime.topology.partitioner("table")
        answered_before = len(runtime.results["serve"])
        survivors = [i for i in range(30)
                     if partitioner.partition(i) != 0]
        for key in survivors:
            runtime.inject("serve", ("get", key, None))
        runtime.run_until_idle()
        answered = len(runtime.results["serve"]) - answered_before
        assert answered == len(survivors)
