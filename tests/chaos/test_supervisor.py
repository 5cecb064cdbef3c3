"""Supervised automatic recovery: detect -> restore, no manual calls."""

import pytest

from repro.apps import KeyValueStore
from repro.errors import BackupIntegrityError, RecoveryError
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointScheduler,
    RecoveryManager,
    RecoverySupervisor,
)
from repro.runtime import FailureDetector
from repro.workloads import KVWorkload


def put_te_of(app):
    return app.translation.entry_info("put").entry_te


def merged_state(app):
    merged = {}
    for element in app.state_of("table"):
        merged.update(dict(element.items()))
    return merged


def supervisor_log(app):
    """The supervisor's decisions: its events on the runtime's bus."""
    return app.runtime.events.events(source="supervisor")


def supervised_kv(table=2, *, n_new=1, every_items=25, **sup_kwargs):
    """A KV deployment with the full detect-and-repair loop installed."""
    app = KeyValueStore.launch(table=table)
    store = BackupStore(m_targets=2)
    manager = CheckpointManager(app.runtime, store, trim_input_log=False)
    scheduler = CheckpointScheduler(manager, every_items=every_items,
                                    complete_after_steps=3).install()
    recovery = RecoveryManager(app.runtime, store)
    detector = FailureDetector(app.runtime, heartbeat_timeout=20,
                               check_every=5).install()
    supervisor = RecoverySupervisor(detector, recovery,
                                    n_new=n_new, **sup_kwargs).install()
    return app, store, scheduler, detector, supervisor


class TestAutomaticRecovery:
    def test_unannounced_kill_is_detected_and_recovered(self):
        app, _store, scheduler, detector, supervisor = supervised_kv()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=11).ops(400))
        for op in ops[:150]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        victim = app.runtime.se_instance("table", 1).node_id
        app.runtime.fail_node(victim)  # nobody calls recover_node

        for op in ops[150:]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        assert supervisor.settled
        assert [e.kind for e in supervisor_log(app)] == [
            "detected", "recovery-started", "recovered"
        ]
        ((detection, outcome),) = supervisor.cycles()
        assert detection.attrs["node_id"] == victim
        assert outcome.kind == "recovered"
        assert outcome.attrs["new_nodes"]
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())

    def test_crash_is_reported_and_recovered_in_the_same_run(self):
        app, _store, scheduler, detector, supervisor = supervised_kv()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=13).ops(400))
        for op in ops[:100]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        instance = app.runtime.te_instances(put_te_of(app))[0]
        instance.crash_next = True

        for op in ops[100:]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        assert detector.detected("crashed")
        assert supervisor.settled
        ((detection, outcome),) = supervisor.cycles()
        assert detection.attrs["detail"] == "crashed"
        assert outcome.kind == "recovered"
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())

    def test_stalled_node_is_restarted(self):
        app, _store, scheduler, detector, supervisor = supervised_kv()
        detector.stall_timeout = 40
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=17).ops(500))
        for op in ops[:150]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        scheduler.flush()

        wedged = app.runtime.nodes[
            app.runtime.se_instance("table", 0).node_id
        ]
        wedged.speed = 0.0

        for op in ops[150:]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        assert supervisor.settled
        detection = [e for e in supervisor_log(app) if e.kind == "detected"]
        assert detection and detection[0].attrs["detail"] == "stalled"
        assert [e.kind for e in supervisor_log(app) if e.kind == "recovered"]
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())


class TestStrategyLadder:
    def test_m_to_n_falls_back_to_one_to_one(self):
        """n-way restore refused (sibling partitions alive) -> 1-to-1."""
        app, _store, scheduler, _detector, supervisor = supervised_kv(
            n_new=2
        )
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=19).ops(400))
        for op in ops[:150]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)
        for op in ops[150:]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        assert supervisor.settled
        fallbacks = [e for e in supervisor_log(app) if e.kind == "fallback"]
        assert fallbacks and "one-to-one" in fallbacks[0].attrs["detail"]
        (recovered,) = [e for e in supervisor_log(app)
                        if e.kind == "recovered"]
        assert recovered.attrs["detail"] == "one-to-one"
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())

    def test_corrupt_checkpoint_falls_back_to_log_replay(self):
        """The acceptance scenario: CRC failure -> typed error -> replay."""
        app, store, scheduler, _detector, supervisor = supervised_kv()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=23).ops(500))
        for op in ops[:200]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        scheduler.flush()

        victim = app.runtime.se_instance("table", 1).node_id
        key = store.corrupt_chunk(victim)
        assert key is not None
        # The corruption is detected via checksum and surfaces typed.
        # corrupt_chunk returns (node_id, version, se_key, chunk_index).
        with pytest.raises(BackupIntegrityError, match="CRC-32"):
            store.chunks_for(victim, key[2])

        app.runtime.fail_node(victim)
        for op in ops[200:]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        assert supervisor.settled
        fallbacks = [e for e in supervisor_log(app) if e.kind == "fallback"]
        assert fallbacks and "log-replay" in fallbacks[0].attrs["detail"]
        (recovered,) = [e for e in supervisor_log(app)
                        if e.kind == "recovered"]
        assert recovered.attrs["detail"] == "log-replay"
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())

    def test_stale_epoch_falls_back_to_log_replay(self):
        """Failure in the post-scale-up window before fresh checkpoints."""
        app = KeyValueStore.launch(table=2)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store,
                                    trim_input_log=False)
        recovery = RecoveryManager(app.runtime, store)
        detector = FailureDetector(app.runtime, heartbeat_timeout=20,
                                   check_every=5).install()
        supervisor = RecoverySupervisor(detector, recovery).install()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=29).ops(400))
        for op in ops[:150]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        manager.checkpoint_all()

        # Epoch bump invalidates every checkpoint of the table.
        assert app.runtime.scale_up(put_te_of(app))
        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)

        for op in ops[150:]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()

        assert supervisor.settled
        fallbacks = [e for e in supervisor_log(app) if e.kind == "fallback"]
        assert fallbacks and "log-replay" in fallbacks[0].attrs["detail"]
        assert merged_state(app) == dict(oracle.table.items())


class TestRetryAndQuarantine:
    class _FailingManager:
        """A recovery manager whose backend never comes back."""

        def __init__(self, runtime):
            self.runtime = runtime
            self.calls = 0

        def recover_node(self, node_id, n_new=1, use_checkpoint=True):
            self.calls += 1
            raise RecoveryError("backup store unreachable")

    def test_bounded_retry_with_backoff_then_quarantine(self):
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(app.runtime, heartbeat_timeout=10,
                                   check_every=2).install()
        manager = self._FailingManager(app.runtime)
        supervisor = RecoverySupervisor(detector, manager, max_retries=2,
                                        backoff_steps=5).install()
        victim = app.runtime.se_instance("table", 1).node_id
        app.runtime.fail_node(victim)
        for i in range(600):
            app.put(i, i)
        app.run()

        assert manager.calls == 2
        assert victim in supervisor.quarantined
        assert supervisor.settled
        kinds = [e.kind for e in supervisor_log(app)]
        assert kinds == ["detected", "recovery-started", "recovery-failed",
                         "recovery-started", "quarantined"]
        failed = [e for e in supervisor_log(app)
                  if e.kind == "recovery-failed"]
        assert "retrying in 5 steps" in failed[0].attrs["detail"]
        # A quarantined node is left alone even if re-detected somehow.
        ((_detection, outcome),) = supervisor.cycles()
        assert outcome.kind == "quarantined"

    def test_validation(self):
        app = KeyValueStore.launch(table=1)
        detector = FailureDetector(app.runtime)
        manager = self._FailingManager(app.runtime)
        with pytest.raises(RecoveryError):
            RecoverySupervisor(detector, manager, n_new=0)
        with pytest.raises(RecoveryError):
            RecoverySupervisor(detector, manager, max_retries=0)
        with pytest.raises(RecoveryError):
            RecoverySupervisor(detector, manager, backoff_steps=-1)


class TestUninstall:
    def test_uninstalled_supervisor_ignores_detections(self):
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(app.runtime, heartbeat_timeout=5,
                                   check_every=1).install()
        supervisor = RecoverySupervisor(
            detector, RecoveryManager(app.runtime, BackupStore())).install()
        supervisor.uninstall()
        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)
        for i in range(100):
            app.put(i, i)
        app.run()

        assert [e.attrs["node_id"] for e in detector.detected()] == [victim]
        assert supervisor_log(app) == []
        assert supervisor.settled
