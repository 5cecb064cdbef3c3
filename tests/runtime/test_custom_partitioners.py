"""Range partitioning through the runtime (§3.2 strategies)."""

import pytest

from repro.errors import RecoveryError, RuntimeExecutionError, StateError
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.state import HashPartitioner, RangePartitioner

from tests.helpers import build_cf_sdg, build_kv_sdg


class TestRangePartitionedDeployment:
    def deploy(self):
        # keys < 10 -> partition 0, 10..19 -> 1, >= 20 -> 2.
        partitioner = RangePartitioner([10, 20])
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            partitioners={"table": partitioner},
        ))
        return runtime.deploy(), partitioner

    def test_partitioner_fixes_instance_count(self):
        runtime, partitioner = self.deploy()
        assert len(runtime.se_instances("table")) == 3

    def test_keys_land_in_their_range(self):
        runtime, partitioner = self.deploy()
        for key in (1, 5, 12, 18, 25, 30):
            runtime.inject("serve", ("put", key, key))
        runtime.run_until_idle()
        contents = [sorted(inst.element.keys())
                    for inst in runtime.se_instances("table")]
        assert contents == [[1, 5], [12, 18], [25, 30]]

    def test_reads_follow_ranges(self):
        runtime, _p = self.deploy()
        for key in (1, 12, 25):
            runtime.inject("serve", ("put", key, key * 2))
        for key in (1, 12, 25):
            runtime.inject("serve", ("get", key, None))
        runtime.run_until_idle()
        assert sorted(runtime.results["serve"]) == [
            (1, 2), (12, 24), (25, 50),
        ]

    def test_scale_up_refuses_range_partitions(self):
        runtime, _p = self.deploy()
        with pytest.raises((RuntimeExecutionError, StateError)):
            runtime.scale_up("serve")


class TestConfigValidation:
    def test_conflicting_instance_count_rejected(self):
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            partitioners={"table": RangePartitioner([10])},
            se_instances={"table": 5},
        ))
        with pytest.raises(RuntimeExecutionError, match="conflicts"):
            runtime.deploy()

    def test_matching_instance_count_accepted(self):
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            partitioners={"table": RangePartitioner([10])},
            se_instances={"table": 2},
        ))
        runtime.deploy()
        assert len(runtime.se_instances("table")) == 2

    def test_partitioner_on_partial_se_rejected(self):
        runtime = Runtime(build_cf_sdg(), RuntimeConfig(
            partitioners={"coOcc": RangePartitioner([10])},
        ))
        with pytest.raises(RuntimeExecutionError, match="partial"):
            runtime.deploy()

    def test_auto_scale_refuses_range_partitions_at_deploy(self):
        # Auto-scaling would rescale the partitioner mid-run, which a
        # RangePartitioner refuses: the run must not start.
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            partitioners={"table": RangePartitioner([10])},
            auto_scale=True, scale_threshold=4, scale_check_every=1,
        ))
        with pytest.raises(RuntimeExecutionError, match="auto_scale"):
            runtime.deploy()

    def test_auto_scale_rescales_hash_partitions(self):
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            partitioners={"table": HashPartitioner(2)},
            auto_scale=True, scale_threshold=4, scale_check_every=1,
        )).deploy()
        for key in range(200):
            runtime.inject("serve", ("put", key, key))
        runtime.run_until_idle()
        assert len(runtime.se_instances("table")) > 2


class TestRangePartitionedRestore:
    """A 1-to-n restore rescales the SE's own partitioner, as scale-up
    does; a range partitioner refuses before anything changes."""

    def fail_table(self):
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            partitioners={"table": RangePartitioner([])},
        )).deploy()
        for key in range(20):
            runtime.inject("serve", ("put", key, key))
        runtime.run_until_idle()
        store = BackupStore()
        CheckpointManager(runtime, store).checkpoint_all()
        (serve,) = runtime.te_instances("serve")
        runtime.fail_node(serve.node_id)
        return runtime, RecoveryManager(runtime, store), serve.node_id

    def test_one_to_n_refused_before_any_change(self):
        runtime, manager, node_id = self.fail_table()
        version = runtime.topology.version
        with pytest.raises(RecoveryError, match="RangePartitioner"):
            manager.recover_node(node_id, n_new=2)
        assert runtime.topology.version == version
        assert runtime.topology.partitioner("table") == RangePartitioner([])
        assert not runtime.nodes[node_id].alive

    def test_one_to_one_still_recovers(self):
        runtime, manager, node_id = self.fail_table()
        with pytest.raises(RecoveryError):
            manager.recover_node(node_id, n_new=2)
        manager.recover_node(node_id)
        for key in range(20):
            runtime.inject("serve", ("get", key, None))
        runtime.run_until_idle()
        assert sorted(runtime.results["serve"]) == [
            (key, key) for key in range(20)]
