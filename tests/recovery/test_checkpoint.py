"""Tests for the asynchronous checkpoint protocol (§5)."""

import pytest

from repro.errors import RecoveryError
from repro.recovery import BackupStore, CheckpointManager
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def deploy_with_manager(n_partitions=1, m_targets=2):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": n_partitions}))
    runtime.deploy()
    store = BackupStore(m_targets=m_targets)
    manager = CheckpointManager(runtime, store)
    return runtime, store, manager


def node_of_partition(runtime, index=0):
    return runtime.se_instance("table", index).node_id


class TestSynchronousPath:
    def test_checkpoint_captures_state(self):
        runtime, store, manager = deploy_with_manager()
        for i in range(20):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        checkpoint = manager.checkpoint(node_of_partition(runtime))
        assert checkpoint.state_entries() == 20
        assert store.has_checkpoint(checkpoint.node_id)

    def test_checkpoint_captures_te_bookkeeping(self):
        runtime, _store, manager = deploy_with_manager()
        for i in range(5):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        checkpoint = manager.checkpoint(node_of_partition(runtime))
        meta = checkpoint.te_meta[("serve", 0)]
        assert meta.processed_count == 5
        assert list(meta.last_seen.values()) == [5]

    def test_versions_increase(self):
        runtime, _store, manager = deploy_with_manager()
        node = node_of_partition(runtime)
        assert manager.checkpoint(node).version == 1
        assert manager.checkpoint(node).version == 2

    def test_checkpoint_all_covers_every_node(self):
        runtime, store, manager = deploy_with_manager(n_partitions=3)
        checkpoints = manager.checkpoint_all()
        assert len(checkpoints) == 3


class TestAsynchronousPath:
    def test_processing_continues_during_checkpoint(self):
        runtime, _store, manager = deploy_with_manager()
        for i in range(10):
            runtime.inject("serve", ("put", f"pre{i}", i))
        runtime.run_until_idle()
        node = node_of_partition(runtime)
        pending = manager.begin(node)
        # Writes go on while the checkpoint is open.
        for i in range(10):
            runtime.inject("serve", ("put", f"mid{i}", i))
        runtime.run_until_idle()
        element = runtime.se_instance("table", 0).element
        assert element.checkpoint_active
        assert element.get("mid3") == 3
        checkpoint = manager.complete(pending)
        # The checkpoint, cut at begin, excludes mid-checkpoint writes...
        keys = {k for c in checkpoint.se_chunks[("table", 0)]
                for k, _ in c.items}
        assert keys == {f"pre{i}" for i in range(10)}
        # ...but the live state retains them, journalled for the next.
        assert not element.checkpoint_active
        assert element.get("mid3") == 3
        assert element.journal().written == {f"mid{i}" for i in range(10)}

    def test_double_begin_rejected(self):
        runtime, _store, manager = deploy_with_manager()
        node = node_of_partition(runtime)
        manager.begin(node)
        with pytest.raises(RecoveryError, match="in progress"):
            manager.begin(node)

    def test_abort_consolidates_dirty_state(self):
        runtime, store, manager = deploy_with_manager()
        node = node_of_partition(runtime)
        pending = manager.begin(node)
        runtime.inject("serve", ("put", "during", 1))
        runtime.run_until_idle()
        manager.abort(pending)
        element = runtime.se_instance("table", 0).element
        assert not element.checkpoint_active
        assert element.get("during") == 1
        assert not store.has_checkpoint(node)

    def test_begin_on_dead_node_rejected(self):
        runtime, _store, manager = deploy_with_manager()
        node = node_of_partition(runtime)
        runtime.fail_node(node)
        with pytest.raises(RecoveryError, match="dead"):
            manager.begin(node)

    def test_complete_after_node_death_discards(self):
        runtime, store, manager = deploy_with_manager()
        node = node_of_partition(runtime)
        pending = manager.begin(node)
        runtime.fail_node(node)
        assert manager.complete(pending) is None
        assert not store.has_checkpoint(node)


class TestBufferTrimming:
    def test_checkpoint_trims_input_log(self):
        runtime, _store, manager = deploy_with_manager()
        for i in range(15):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        buffered_before = sum(
            len(b) for b in runtime.input_buffers_snapshot().values()
        )
        assert buffered_before == 15
        manager.checkpoint(node_of_partition(runtime))
        buffered_after = sum(
            len(b) for b in runtime.input_buffers_snapshot().values()
        )
        assert buffered_after == 0

    def test_unprocessed_items_survive_trimming(self):
        runtime, _store, manager = deploy_with_manager()
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        # These arrive after the drain but before the checkpoint — they
        # sit in the inbox, unprocessed, so they must not be trimmed.
        for i in range(10, 14):
            runtime.inject("serve", ("put", i, i))
        manager.checkpoint(node_of_partition(runtime))
        buffered = sum(
            len(b) for b in runtime.input_buffers_snapshot().values()
        )
        assert buffered == 4

    def test_chunk_count_configurable(self):
        runtime, store, manager = deploy_with_manager()
        manager.n_chunks = 6
        for i in range(12):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        checkpoint = manager.checkpoint(node_of_partition(runtime))
        assert len(checkpoint.se_chunks[("table", 0)]) == 6


class TestMultiprocessMidCheckpoint:
    def test_state_read_between_begin_and_complete(self):
        """On worker processes a state read replaces the coordinator's
        SE elements. A checkpoint open across such a read must still
        complete, holding exactly its partition's pre-begin keys."""
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        try:
            manager = CheckpointManager(runtime, BackupStore(m_targets=2))
            for i in range(20):
                runtime.inject("serve", ("put", f"pre{i}", i))
            runtime.run_until_idle()
            first = runtime.se_instances("table")[0]
            before = set(first.element.keys())
            assert 0 < len(before) < 20
            pending = manager.begin(first.node_id)
            for i in range(20):
                runtime.inject("serve", ("put", f"mid{i}", i))
            runtime.run_until_idle()
            live = runtime.se_instances("table")
            assert sum(len(inst.element) for inst in live) == 40
            checkpoint = manager.complete(pending)
            keys = {key for chunk in checkpoint.se_chunks[("table", 0)]
                    for key, _value in chunk.items}
            assert keys == before
            assert runtime.metrics.total("recovery_checkpoints_total") == 1
        finally:
            runtime.close()
