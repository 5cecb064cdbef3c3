"""Chaos scenarios against the incremental checkpoint chain.

The acceptance scenario: a delta chunk is corrupted (or dropped) in the
backup store, the node fails, and the supervisor's ladder recovers via
the **base-only** rung — restore the full base, replay the
delta-covered span from the (untrimmed) upstream buffers — with no
silently truncated state.
"""

import pytest

from repro.apps import KeyValueStore
from repro.chaos import (
    CorruptDeltaChunk,
    DropDeltaChunk,
    FaultInjector,
    FaultPlan,
)
from repro.errors import BackupIntegrityError, ChaosError
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointPolicy,
    CheckpointScheduler,
    RecoveryManager,
    RecoverySupervisor,
)
from repro.runtime import FailureDetector
from repro.workloads import KVWorkload


def supervisor_log(app):
    """The supervisor's decisions: its events on the runtime's bus."""
    return app.runtime.events.events(source="supervisor")


def merged_state(app):
    merged = {}
    for element in app.state_of("table"):
        merged.update(dict(element.items()))
    return merged


def supervised_incremental_kv(table=2, *, full_every=0, every_items=25):
    """A supervised KV deployment checkpointing incrementally."""
    app = KeyValueStore.launch(table=table)
    store = BackupStore(m_targets=2)
    manager = CheckpointManager(app.runtime, store, trim_input_log=False,
                                policy=CheckpointPolicy(full_every=full_every))
    scheduler = CheckpointScheduler(manager, every_items=every_items,
                                    complete_after_steps=3).install()
    recovery = RecoveryManager(app.runtime, store)
    detector = FailureDetector(app.runtime, heartbeat_timeout=20,
                               check_every=5).install()
    supervisor = RecoverySupervisor(detector, recovery).install()
    return app, store, scheduler, detector, supervisor


def run_workload(app, oracle, ops):
    for op in ops:
        app.put(op.key, op.value)
        oracle.put(op.key, op.value)
    app.run()


class TestCorruptDeltaRecovery:
    def test_corrupt_delta_recovers_base_only(self):
        """CRC failure in a delta -> base-only rung, state intact."""
        app, store, scheduler, _detector, supervisor = \
            supervised_incremental_kv()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=31).ops(500))
        run_workload(app, oracle, ops[:200])
        scheduler.flush()
        run_workload(app, oracle, ops[200:300])
        scheduler.flush()

        victim = app.runtime.se_instance("table", 1).node_id
        assert len(store.chain(victim)) > 1  # base + at least one delta
        key = store.corrupt_chunk(victim, kind="delta")
        assert key is not None and store._kind_of(key[0], key[1]) == "delta"
        with pytest.raises(BackupIntegrityError):
            store.chunks_for(victim, key[2], version=key[1])

        app.runtime.fail_node(victim)
        run_workload(app, oracle, ops[300:])

        assert supervisor.settled
        fallbacks = [e for e in supervisor_log(app) if e.kind == "fallback"]
        assert fallbacks and "base-only" in fallbacks[0].attrs["detail"]
        (recovered,) = [e for e in supervisor_log(app)
                        if e.kind == "recovered"]
        assert recovered.attrs["detail"] == "base-only"
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())

    def test_dropped_delta_recovers_base_only(self):
        """A delta chunk missing entirely (count mismatch) -> base-only."""
        app, store, scheduler, _detector, supervisor = \
            supervised_incremental_kv()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=37).ops(500))
        run_workload(app, oracle, ops[:200])
        scheduler.flush()
        run_workload(app, oracle, ops[200:300])
        scheduler.flush()

        victim = app.runtime.se_instance("table", 1).node_id
        assert store.drop_chunk(victim, kind="delta") is not None

        app.runtime.fail_node(victim)
        run_workload(app, oracle, ops[300:])

        assert supervisor.settled
        (recovered,) = [e for e in supervisor_log(app)
                        if e.kind == "recovered"]
        assert recovered.attrs["detail"] == "base-only"
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())

    def test_corrupt_base_skips_to_log_replay(self):
        """A corrupt *full base* cannot use the base-only rung."""
        app, store, scheduler, _detector, supervisor = \
            supervised_incremental_kv()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=41).ops(500))
        run_workload(app, oracle, ops[:200])
        scheduler.flush()
        run_workload(app, oracle, ops[200:300])
        scheduler.flush()

        victim = app.runtime.se_instance("table", 1).node_id
        assert store.corrupt_chunk(victim, kind="full") is not None
        # Corrupting the base poisons both the chain restore *and* the
        # base-only rung; the ladder must end at log-replay.
        app.runtime.fail_node(victim)
        run_workload(app, oracle, ops[300:])

        assert supervisor.settled
        (recovered,) = [e for e in supervisor_log(app)
                        if e.kind == "recovered"]
        assert recovered.attrs["detail"] == "log-replay"
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())


class TestPlannedDeltaFaults:
    def test_planned_corrupt_delta_fault_fires(self):
        app, store, scheduler, _detector, supervisor = \
            supervised_incremental_kv()
        oracle = KeyValueStore()
        ops = list(KVWorkload(n_keys=60, read_fraction=0.0,
                              seed=43).ops(600))
        run_workload(app, oracle, ops[:200])
        scheduler.flush()
        run_workload(app, oracle, ops[200:300])
        scheduler.flush()

        victim = app.runtime.se_instance("table", 1).node_id
        step = app.runtime.total_steps + 1
        injector = FaultInjector(
            app.runtime,
            FaultPlan([CorruptDeltaChunk(at_step=step, node_id=victim)]),
            store=store,
        ).install()
        app.runtime.fail_node(victim)
        run_workload(app, oracle, ops[300:])

        assert injector.done and injector.fired()
        assert supervisor.settled
        (recovered,) = [e for e in supervisor_log(app)
                        if e.kind == "recovered"]
        assert recovered.attrs["detail"] in ("base-only", "log-replay")
        scheduler.flush()
        assert merged_state(app) == dict(oracle.table.items())

    def test_delta_faults_require_a_store(self):
        app = KeyValueStore.launch(table=1)
        for fault in (CorruptDeltaChunk(at_step=1),
                      DropDeltaChunk(at_step=1)):
            with pytest.raises(ChaosError, match="store"):
                FaultInjector(app.runtime, FaultPlan([fault]))

    def test_fault_skips_when_no_delta_exists(self):
        """Full-only chains give the fault nothing to hit: log 'skipped'."""
        app = KeyValueStore.launch(table=1)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store,
                                    trim_input_log=False)
        for i in range(30):
            app.put(f"k{i}", i)
        app.run()
        manager.checkpoint(app.runtime.se_instance("table", 0).node_id)
        injector = FaultInjector(
            app.runtime,
            FaultPlan([DropDeltaChunk(at_step=app.runtime.total_steps + 1)]),
            store=store,
        ).install()
        for i in range(10):
            app.put(f"p{i}", i)
        app.run()
        assert injector.done
        assert injector.fired("skipped")
        assert not injector.fired("fired")
