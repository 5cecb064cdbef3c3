"""Tests for automatic checkpoint scheduling via the engine step hook."""

import pytest

from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointScheduler,
    RecoveryManager,
)
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def deploy(every_items=50, complete_after=10, n_partitions=1):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": n_partitions}))
    runtime.deploy()
    store = BackupStore(m_targets=2)
    manager = CheckpointManager(runtime, store)
    scheduler = CheckpointScheduler(
        manager, every_items=every_items,
        complete_after_steps=complete_after,
    ).install()
    return runtime, store, manager, scheduler


class TestScheduling:
    def test_checkpoints_fire_periodically(self):
        runtime, store, _manager, scheduler = deploy(every_items=50)
        for i in range(400):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        assert scheduler.completed_count >= 5
        node = runtime.se_instance("table", 0).node_id
        assert store.has_checkpoint(node)

    def test_checkpoint_window_stays_open_asynchronously(self):
        """Between begin and complete a checkpoint really is open: the
        SE keeps taking writes (journalled for the next cycle) that the
        checkpoint, cut at begin, does not hold."""
        runtime, store, _manager, scheduler = deploy(
            every_items=20, complete_after=1_000_000,
        )
        for i in range(60):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        element = runtime.se_instance("table", 0).element
        assert element.checkpoint_active
        assert len(element.journal()) > 0
        scheduler.flush()
        assert not element.checkpoint_active
        node = runtime.se_instance("table", 0).node_id
        assert store.latest(node).state_entries() < len(element) == 60

    def test_latest_checkpoint_supports_recovery(self):
        runtime, store, _manager, scheduler = deploy(every_items=40)
        rec = RecoveryManager(runtime, store)
        for i in range(300):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        node = runtime.se_instance("table", 0).node_id
        version = store.latest(node).version
        assert version >= 3
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        merged = dict(runtime.se_instance("table", 0).element.items())
        assert merged == {i: i for i in range(300)}

    def test_buffer_trimming_is_continuous(self):
        """Periodic checkpoints keep upstream buffers bounded: the input
        log never holds more than ~the un-checkpointed suffix."""
        runtime, _store, _manager, scheduler = deploy(
            every_items=25, complete_after=5,
        )
        for i in range(500):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        buffered = sum(
            len(b) for b in runtime.input_buffers_snapshot().values()
        )
        assert buffered < 100

    def test_uninstall_stops_checkpointing(self):
        runtime, _store, _manager, scheduler = deploy(every_items=10)
        scheduler.uninstall()
        for i in range(100):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert scheduler.completed_count == 0

    def test_invalid_intervals_rejected(self):
        runtime, _store, manager, _scheduler = deploy()
        with pytest.raises(ValueError):
            CheckpointScheduler(manager, every_items=0)

    def test_multiple_partitions_checkpoint_independently(self):
        runtime, store, _manager, scheduler = deploy(
            every_items=30, n_partitions=3,
        )
        for i in range(300):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        checkpointed_nodes = [
            inst.node_id for inst in runtime.se_instances("table")
            if store.has_checkpoint(inst.node_id)
        ]
        assert len(checkpointed_nodes) == 3
