"""Tests for incremental (delta) checkpointing across the recovery stack.

Covers the :class:`~repro.recovery.CheckpointPolicy` cadence, delta
chunk emission with version lineage, the backup store's chain
bookkeeping, chain-folding restore, base-only restore plus log replay,
and the guards that silently re-anchor with a full checkpoint when a
delta would be unsafe.
"""

import pytest

from repro.errors import RecoveryError
from repro.recovery import BackupStore, CheckpointManager, CheckpointPolicy
from repro.recovery.checkpoint import NodeCheckpoint
from repro.runtime import Runtime, RuntimeConfig
from repro.state import DeltaChunk

from tests.helpers import build_kv_sdg


def deploy(policy=None, n_partitions=1):
    config = RuntimeConfig(se_instances={"table": n_partitions})
    runtime = Runtime(build_kv_sdg(), config)
    runtime.deploy()
    store = BackupStore(m_targets=2)
    manager = CheckpointManager(runtime, store, policy=policy)
    return runtime, store, manager


def put_many(runtime, pairs):
    for key, value in pairs:
        runtime.inject("serve", ("put", key, value))
    runtime.run_until_idle()


def table_node(runtime, index=0):
    return runtime.se_instance("table", index).node_id


def merged_table(runtime):
    state = {}
    for instance in runtime.se_instances("table"):
        state.update(dict(instance.element.items()))
    return state


class TestPolicy:
    def test_defaults_to_full_every_cycle(self):
        policy = CheckpointPolicy()
        assert policy.full_every == 1
        assert all(policy.wants_full(c) for c in range(5))

    def test_full_every_k(self):
        policy = CheckpointPolicy(full_every=3)
        assert [policy.wants_full(c) for c in range(7)] == [
            True, False, False, True, False, False, True]

    def test_zero_means_one_base_then_deltas_forever(self):
        policy = CheckpointPolicy(full_every=0)
        assert policy.wants_full(0)
        assert not any(policy.wants_full(c) for c in range(1, 10))

    def test_invalid_cadence_rejected(self):
        for bad in (-1, 1.5, "2", True):
            with pytest.raises(RecoveryError):
                CheckpointPolicy(full_every=bad)


class TestDeltaEmission:
    def test_cycle_kinds_follow_the_cadence(self):
        runtime, _store, manager = deploy(CheckpointPolicy(full_every=3))
        node = table_node(runtime)
        kinds = []
        for i in range(6):
            put_many(runtime, [(f"k{i}", i)])
            kinds.append(manager.checkpoint(node).kind)
        assert kinds == ["full", "delta", "delta", "full", "delta", "delta"]

    def test_delta_lineage_is_contiguous(self):
        runtime, store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        for i in range(4):
            put_many(runtime, [(f"k{i}", i)])
            manager.checkpoint(node)
        chain = store.chain(node)
        assert [c.kind for c in chain] == ["full", "delta", "delta", "delta"]
        assert chain[0].base_version is None
        for prev, entry in zip(chain, chain[1:]):
            assert entry.base_version == prev.version

    def test_delta_moves_only_the_mutations(self):
        runtime, _store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        put_many(runtime, [(f"k{i}", i) for i in range(50)])
        manager.checkpoint(node)
        put_many(runtime, [("k3", 99), ("new", 1)])
        checkpoint = manager.checkpoint(node)
        assert checkpoint.kind == "delta"
        assert checkpoint.state_entries() == 2
        for chunks in checkpoint.se_chunks.values():
            for chunk in chunks:
                assert isinstance(chunk, DeltaChunk)

    def test_quiet_delta_cycle_is_empty(self):
        runtime, _store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        put_many(runtime, [("a", 1)])
        manager.checkpoint(node)
        checkpoint = manager.checkpoint(node)
        assert checkpoint.kind == "delta"
        assert checkpoint.state_entries() == 0

    def test_version_gap_forces_reanchor_with_full(self):
        """An aborted cycle burns a version number; the contiguity guard
        must re-anchor with a full checkpoint, not emit an orphan delta."""
        runtime, store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        put_many(runtime, [("a", 1)])
        manager.checkpoint(node)
        pending = manager.begin(node)
        manager.abort(pending)
        put_many(runtime, [("b", 2)])
        checkpoint = manager.checkpoint(node)
        assert checkpoint.kind == "full"
        assert store.latest(node).version == checkpoint.version


class TestStoreChain:
    def test_full_evicts_prior_chain(self):
        runtime, store, manager = deploy(CheckpointPolicy(full_every=2))
        node = table_node(runtime)
        for i in range(4):
            put_many(runtime, [(f"k{i}", i)])
            manager.checkpoint(node)
        chain = store.chain(node)
        assert [c.kind for c in chain] == ["full", "delta"]
        assert chain[0].version == 3

    def test_delta_with_broken_lineage_refused(self):
        runtime, store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        put_many(runtime, [("a", 1)])
        base = manager.checkpoint(node)
        orphan = NodeCheckpoint(
            node_id=node, version=base.version + 5, kind="delta",
            base_version=base.version + 4)
        with pytest.raises(RecoveryError, match="base"):
            store.save(orphan)

    def test_base_and_latest(self):
        runtime, store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        put_many(runtime, [("a", 1)])
        full = manager.checkpoint(node)
        put_many(runtime, [("b", 2)])
        delta = manager.checkpoint(node)
        assert store.base(node).version == full.version
        assert store.latest(node).version == delta.version


class TestChainRestore:
    def test_restore_folds_base_plus_deltas(self):
        from repro.recovery import RecoveryManager

        runtime, store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        put_many(runtime, [(f"k{i}", i) for i in range(30)])
        manager.checkpoint(node)
        put_many(runtime, [("k3", 99), ("extra", 7)])
        manager.checkpoint(node)
        # A deletion mid-delta-window: only the tombstone in the next
        # delta chunk carries it (the kv SDG has no delete request).
        runtime.se_instance("table", 0).element.delete("k5")
        manager.checkpoint(node)
        expected = merged_table(runtime)

        runtime.fail_node(node)
        RecoveryManager(runtime, store).recover_node(node)
        runtime.run_until_idle()
        assert merged_table(runtime) == expected
        assert "k5" not in merged_table(runtime)
        assert merged_table(runtime)["k3"] == 99

    def test_base_only_restore_plus_replay_matches_oracle(self):
        from repro.recovery import RecoveryManager

        runtime, store, manager = deploy(CheckpointPolicy(full_every=0))
        # Keep upstream buffers: deltas never trim them, and base-only
        # recovery replays the delta-covered span from them.
        manager.trim_input_log = False
        node = table_node(runtime)
        put_many(runtime, [(f"k{i}", i) for i in range(10)])
        manager.checkpoint(node)
        put_many(runtime, [("late", 42)])
        manager.checkpoint(node)
        expected = merged_table(runtime)

        runtime.fail_node(node)
        RecoveryManager(runtime, store).recover_node(node, use_deltas=False)
        runtime.run_until_idle()
        assert merged_table(runtime) == expected

    def test_restored_node_reanchors_with_full(self):
        """After a restore the replacement's first checkpoint must be a
        fresh full base — its version counter restarted."""
        from repro.recovery import RecoveryManager

        runtime, store, manager = deploy(CheckpointPolicy(full_every=0))
        node = table_node(runtime)
        put_many(runtime, [("a", 1)])
        manager.checkpoint(node)
        put_many(runtime, [("b", 2)])
        manager.checkpoint(node)
        runtime.fail_node(node)
        RecoveryManager(runtime, store).recover_node(node)
        new_node = table_node(runtime)
        put_many(runtime, [("c", 3)])
        assert manager.checkpoint(new_node).kind == "full"
