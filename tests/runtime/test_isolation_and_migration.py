"""In-process payload hand-offs and planned node migration."""

import pytest

from repro.core import SDG
from repro.errors import RecoveryError
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def build_mutation_hazard_sdg():
    """Upstream emits a mutable list the downstream mutates."""
    sdg = SDG("hazard")
    captured = []

    def producer(ctx, item):
        payload = [item]
        captured.append(payload)
        return payload

    def consumer(ctx, payload):
        payload.append("mutated-by-consumer")
        return len(payload)

    sdg.add_task("producer", producer, is_entry=True)
    sdg.add_task("consumer", consumer)
    sdg.connect("producer", "consumer")
    return sdg, captured


class TestPayloadIsolation:
    def test_shared_reference_hazard_without_copying(self):
        sdg, captured = build_mutation_hazard_sdg()
        runtime = Runtime(sdg).deploy()
        runtime.inject("producer", 1)
        runtime.run_until_idle()
        # In-process, the consumer's mutation is visible to the
        # producer's retained reference — the hazard.
        assert captured[0] == [1, "mutated-by-consumer"]


class TestPlannedMigration:
    """§6.3: "a straggling node could even be removed and the job
    resumed from a checkpoint with new nodes". A migration is a fresh
    checkpoint, a retirement and a restore, so no replay beyond the
    migration point is needed."""

    def deploy(self, n=1):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": n}))
        runtime.deploy()
        store = BackupStore(m_targets=2)
        rec = RecoveryManager(runtime, store)

        def migrate(node_id, n_new=1):
            CheckpointManager(runtime, store).checkpoint(node_id)
            runtime.fail_node(node_id)
            return rec.recover_node(node_id, n_new=n_new)

        return runtime, migrate

    def test_migration_moves_state_without_loss(self):
        runtime, migrate = self.deploy()
        for i in range(40):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        old_node = runtime.se_instance("table", 0).node_id
        new_nodes = migrate(old_node)
        runtime.run_until_idle()
        assert not runtime.nodes[old_node].alive
        assert new_nodes[0].node_id != old_node
        merged = dict(runtime.se_instance("table", 0).element.items())
        assert merged == {i: i for i in range(40)}

    def test_migration_with_fanout_reshards(self):
        """Migrating onto two nodes doubles as straggler resharding."""
        runtime, migrate = self.deploy()
        for i in range(30):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        old_node = runtime.se_instance("table", 0).node_id
        runtime.nodes[old_node].speed = 0.3  # the straggler
        new_nodes = migrate(old_node, n_new=2)
        runtime.run_until_idle()
        assert len(new_nodes) == 2
        assert len(runtime.se_instances("table")) == 2
        merged = {}
        for inst in runtime.se_instances("table"):
            merged.update(dict(inst.element.items()))
        assert merged == {i: i for i in range(30)}

    def test_service_continues_after_migration(self):
        runtime, migrate = self.deploy()
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        migrate(runtime.se_instance("table", 0).node_id)
        runtime.run_until_idle()
        for i in range(10):
            runtime.inject("serve", ("get", i, None))
        runtime.run_until_idle()
        assert sorted(runtime.results["serve"]) == [
            (i, i) for i in range(10)
        ]

    def test_migrating_dead_node_rejected(self):
        runtime, migrate = self.deploy()
        node = runtime.se_instance("table", 0).node_id
        runtime.fail_node(node)
        with pytest.raises(RecoveryError):
            migrate(node)
