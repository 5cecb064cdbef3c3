"""Error paths of ``RecoveryManager``: migration and epoch refusals."""

import pytest

from repro.apps import KeyValueStore
from repro.errors import RecoveryError, StaleCheckpointError
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    NodeCheckpoint,
    RecoveryManager,
)


def deployed_kv(table=2, n_ops=60):
    app = KeyValueStore.launch(table=table)
    store = BackupStore(m_targets=2)
    for i in range(n_ops):
        app.put(i, i)
    app.run()
    return app, store, RecoveryManager(app.runtime, store)


class TestRecoverNodeErrors:
    def test_alive_node_refused(self):
        app, _store, recovery = deployed_kv()
        node_id = app.runtime.se_instance("table", 0).node_id
        with pytest.raises(RecoveryError, match="has not failed"):
            recovery.recover_node(node_id)

    def test_n_new_below_one_refused(self):
        app, _store, recovery = deployed_kv()
        node_id = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(node_id)
        with pytest.raises(RecoveryError, match="n_new"):
            recovery.recover_node(node_id, n_new=0)

    def test_m_to_n_refused_while_siblings_alive(self):
        app, store, recovery = deployed_kv()
        manager = CheckpointManager(app.runtime, store)
        manager.checkpoint_all()
        node_id = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(node_id)
        with pytest.raises(RecoveryError, match="only instance"):
            recovery.recover_node(node_id, n_new=2)


class TestMigrationErrors:
    def test_migrating_a_dead_node_is_refused(self):
        """A migration starts with a fresh checkpoint, which a dead node
        cannot take."""
        app, store, _recovery = deployed_kv()
        node_id = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(node_id)
        with pytest.raises(RecoveryError, match="dead node"):
            CheckpointManager(app.runtime, store).checkpoint(node_id)


class TestEpochRefusal:
    def test_check_epochs_raises_typed_stale_error(self):
        app, store, recovery = deployed_kv()
        manager = CheckpointManager(app.runtime, store)
        manager.checkpoint_all()
        put_te = app.translation.entry_info("put").entry_te
        assert app.runtime.scale_up(put_te)  # bumps the table epoch

        node_id = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(node_id)
        with pytest.raises(StaleCheckpointError, match="repartitioned"):
            recovery.recover_node(node_id)
        # The typed error is still a RecoveryError for callers that
        # catch broadly.
        assert issubclass(StaleCheckpointError, RecoveryError)

    def test_check_epochs_direct(self):
        app, _store, recovery = deployed_kv()
        stale = NodeCheckpoint(node_id=0, version=1,
                               se_epochs={"table": 7})
        with pytest.raises(StaleCheckpointError, match="epoch 7"):
            recovery._check_epochs(stale)

    def test_check_epochs_accepts_current_epoch(self):
        app, _store, recovery = deployed_kv()
        current = NodeCheckpoint(
            node_id=0, version=1,
            se_epochs={"table": app.runtime.se_epoch("table")},
        )
        recovery._check_epochs(current)  # must not raise

    def test_log_replay_escape_hatch_ignores_stale_checkpoint(self):
        """``use_checkpoint=False`` recovers through the full input log
        even when the stored checkpoint is unusably stale."""
        app = KeyValueStore.launch(table=2)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store,
                                    trim_input_log=False)
        recovery = RecoveryManager(app.runtime, store)
        oracle = {}
        for i in range(80):
            app.put(i, i)
            oracle[i] = i
        app.run()
        manager.checkpoint_all()
        put_te = app.translation.entry_info("put").entry_te
        assert app.runtime.scale_up(put_te)

        node_id = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(node_id)
        with pytest.raises(StaleCheckpointError):
            recovery.recover_node(node_id)
        recovery.recover_node(node_id, use_checkpoint=False)
        app.run()

        merged = {}
        for element in app.state_of("table"):
            merged.update(dict(element.items()))
        assert merged == oracle
