"""Unit tests for the deployment layer (:class:`Topology`).

Materialisation and placement, partitioning epochs, failure /
replacement slot bookkeeping, reactive growth, and the repartition
contract (drained envelopes are handed back; structural invariants are
enforced before any state moves).
"""

import pytest

from repro.core import SDG
from repro.errors import RuntimeExecutionError
from repro.runtime import Runtime, RuntimeConfig, Topology
from repro.runtime.instances import SEInstance, TEInstance
from repro.state import HashPartitioner
from repro.testing import build_kv_sdg, noop


def make_topology(**config):
    config.setdefault("se_instances", {"table": 2})
    topology = Topology(build_kv_sdg(), RuntimeConfig(**config))
    topology.materialise()
    return topology


class TestMaterialisation:
    def test_facade_delegates_to_topology(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 2})).deploy()
        assert runtime.te_instances("serve") is not None
        assert runtime.topology.te_instances("serve") == \
            runtime.te_instances("serve")
        assert runtime.nodes is runtime.topology.nodes
        assert runtime.topology.partitioner("table").n_partitions == 2

    def test_stateful_te_colocated_with_its_partition(self):
        topology = make_topology()
        for te_inst in topology.te_instances("serve"):
            se_inst = topology.se_instance("table", te_inst.index)
            assert te_inst.se_instance is se_inst
            assert te_inst.node_id == se_inst.node_id

    def test_node_for_is_idempotent(self):
        topology = make_topology()
        node = topology.node_for(0, 0)
        assert topology.node_for(0, 0) is node

    def test_fresh_nodes_get_distinct_ids(self):
        topology = make_topology()
        a, b = topology.fresh_node(), topology.fresh_node()
        assert a.node_id != b.node_id
        assert topology.nodes[a.node_id] is a

    def test_partitioned_se_gets_a_partitioner(self):
        topology = make_topology()
        assert topology.partitioner("table").n_partitions == 2


class TestEpochs:
    def test_epoch_starts_at_zero(self):
        topology = make_topology()
        assert topology.se_epoch("table") == 0

    def test_set_partitioner_bumps_epoch(self):
        topology = make_topology()
        topology.set_partitioner(
            "table", HashPartitioner(3)
        )
        assert topology.se_epoch("table") == 1
        topology.set_partitioner(
            "table", HashPartitioner(4)
        )
        assert topology.se_epoch("table") == 2

    def test_scale_up_advances_epoch_through_facade(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 1})).deploy()
        assert runtime.se_epoch("table") == 0
        runtime.scale_up("serve")
        assert runtime.se_epoch("table") == 1
        runtime.scale_up("serve")
        assert runtime.se_epoch("table") == 2


class TestFailureAndReplacement:
    def test_fail_node_empties_slots(self):
        topology = make_topology()
        victim = topology.te_instances("serve")[0]
        topology.fail_node(victim.node_id)
        assert topology.te_instance("serve", 0) is None
        assert topology.se_instance("table", 0) is None
        assert len(topology.te_instances("serve")) == 1
        assert not topology.nodes[victim.node_id].alive

    def test_install_replacement_refills_slot(self):
        topology = make_topology()
        victim = topology.te_instances("serve")[0]
        topology.fail_node(victim.node_id)
        sdg = topology.sdg
        se_inst = SEInstance(sdg.state("table"), 0)
        te_inst = TEInstance(sdg.task("serve"), 0)
        node = topology.install_replacement([te_inst], [se_inst])
        assert topology.se_instance("table", 0) is se_inst
        assert topology.te_instance("serve", 0) is te_inst
        assert te_inst.se_instance is se_inst
        assert te_inst.node_id == node.node_id

    def test_install_replacement_grows_slot_lists(self):
        # m-to-n recovery: one failed partition comes back as two.
        topology = make_topology(se_instances={"table": 1})
        topology.fail_node(topology.te_instances("serve")[0].node_id)
        sdg = topology.sdg
        ses = [SEInstance(sdg.state("table"), i) for i in range(2)]
        tes = [TEInstance(sdg.task("serve"), i) for i in range(2)]
        topology.install_replacement([tes[0]], [ses[0]])
        topology.install_replacement([tes[1]], [ses[1]])
        assert topology.te_slot_count("serve") == 2
        assert [se.index for se in topology.se_instances("table")] == [0, 1]


class TestGrowth:
    def test_add_stateless_instance(self):
        sdg = SDG("flat")
        sdg.add_task("work", noop, is_entry=True)
        topology = Topology(sdg, RuntimeConfig())
        topology.materialise()
        before = len(topology.nodes)
        instance = topology.add_stateless_instance("work")
        assert instance.index == 1
        assert topology.te_slot_count("work") == 2
        assert len(topology.nodes) == before + 1

    def test_repartition_returns_drained_envelopes(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 2})).deploy()
        for i in range(6):
            runtime.inject("serve", ("put", i, i))
        queued = sum(len(inst.inbox)
                     for inst in runtime.te_instances("serve"))
        assert queued == 6
        pending = runtime.topology.repartition("table", 3)
        assert len(pending) == 6
        assert all(not inst.inbox
                   for inst in runtime.te_instances("serve"))
        assert len(runtime.se_instances("table")) == 3

    def test_repartition_preserves_state_across_partitions(self):
        topology = make_topology()
        for i in range(20):
            index = topology.partitioner("table").partition(i)
            topology.se_instance("table", index).element.put(i, i * 10)
        topology.repartition("table", 3)
        partitioner = topology.partitioner("table")
        merged = {}
        for se_inst in topology.se_instances("table"):
            for key, value in se_inst.element.items():
                assert partitioner.partition(key) == se_inst.index
                merged[key] = value
        assert merged == {i: i * 10 for i in range(20)}

    def test_repartition_refused_while_instance_failed(self):
        topology = make_topology()
        topology.fail_node(topology.se_instances("table")[0].node_id)
        with pytest.raises(RuntimeExecutionError, match="recover first"):
            topology.repartition("table", 3)

    def test_repartition_refused_during_checkpoint(self):
        topology = make_topology()
        element = topology.se_instances("table")[0].element
        element.checkpoint_active = True  # as CheckpointManager.begin sets it
        with pytest.raises(RuntimeExecutionError, match="checkpoint"):
            topology.repartition("table", 3)
