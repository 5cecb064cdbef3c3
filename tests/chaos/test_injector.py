"""The fault injector: plans fire deterministically at logical steps."""

import pytest

from repro.apps import KeyValueStore
from repro.chaos import (
    CorruptChunk,
    CrashTask,
    DropEnvelope,
    DuplicateEnvelope,
    FaultInjector,
    FaultPlan,
    KillNode,
    ScaleUp,
    SlowNode,
    TargetOffline,
    random_plan,
)
from repro.errors import ChaosError
from repro.recovery import BackupStore, CheckpointManager
from repro.workloads import KVWorkload


def put_te_of(app):
    return app.translation.entry_info("put").entry_te


def injector_log(app):
    """Everything the injector did: its events on the runtime's bus."""
    return app.runtime.events.events(source="injector")


def merged_state(app):
    merged = {}
    for element in app.state_of("table"):
        merged.update(dict(element.items()))
    return merged


class TestPlans:
    def test_negative_step_rejected(self):
        with pytest.raises(ChaosError, match="before step 0"):
            FaultPlan([KillNode(at_step=-1, node_id=0)])

    def test_plan_iterates_in_step_order(self):
        plan = FaultPlan([
            KillNode(at_step=30, node_id=0),
            CrashTask(at_step=10, te="serve"),
            SlowNode(at_step=20, factor=0.5, node_id=1),
        ])
        assert [f.at_step for f in plan] == [10, 20, 30]
        assert len(plan) == 3
        assert len(plan.kills()) == 1

    def test_random_plan_is_deterministic_per_seed(self):
        kwargs = dict(horizon=600, se="table", entry_te="serve")
        assert (random_plan(9, **kwargs).faults
                == random_plan(9, **kwargs).faults)
        assert (random_plan(9, **kwargs).faults
                != random_plan(10, **kwargs).faults)

    def test_random_plan_rejects_too_short_horizon(self):
        with pytest.raises(ChaosError, match="too short"):
            random_plan(1, horizon=100, se="table", n_kills=3, min_gap=60)

    def test_store_faults_require_a_store(self):
        app = KeyValueStore.launch(table=1)
        plan = FaultPlan([CorruptChunk(at_step=1)])
        with pytest.raises(ChaosError, match="no store"):
            FaultInjector(app.runtime, plan)
        plan = FaultPlan([TargetOffline(at_step=1, target=0)])
        with pytest.raises(ChaosError, match="no store"):
            FaultInjector(app.runtime, plan)


class TestFiring:
    def test_kill_node_fires_at_its_step(self):
        app = KeyValueStore.launch(table=2)
        expected = app.runtime.se_instance("table", 1).node_id
        injector = FaultInjector(
            app.runtime, FaultPlan([KillNode(at_step=25, se="table",
                                             index=1)])
        ).install()
        for i in range(80):
            app.put(i, i)
        app.run()
        assert not app.runtime.nodes[expected].alive
        (record,) = injector.fired()
        assert record.step >= 25
        assert f"killed node {expected}" in record.attrs["detail"]
        assert injector.done

    def test_selector_resolves_against_live_topology(self):
        """A second kill of the same selector hits the replacement."""
        from repro.recovery import RecoveryManager

        app = KeyValueStore.launch(table=2)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store)
        recovery = RecoveryManager(app.runtime, store)
        injector = FaultInjector(
            app.runtime,
            FaultPlan([KillNode(at_step=200, se="table", index=0)]),
        ).install()

        for i in range(50):
            app.put(i, i)
        app.run()
        manager.checkpoint_all()
        first = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(first)
        recovery.recover_node(first)
        replacement = app.runtime.se_instance("table", 0).node_id
        assert replacement != first

        for i in range(400):
            app.put(i, i)
        app.run()
        (record,) = injector.fired()
        assert f"killed node {replacement}" in record.attrs["detail"]

    def test_slow_node_sets_speed_without_changing_results(self):
        app = KeyValueStore.launch(table=2)
        target = app.runtime.se_instance("table", 0).node_id
        injector = FaultInjector(
            app.runtime,
            FaultPlan([SlowNode(at_step=10, factor=0.5, se="table",
                                index=0)]),
        ).install()
        oracle = KeyValueStore()
        for op in KVWorkload(n_keys=40, read_fraction=0.0, seed=3).ops(200):
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        assert app.runtime.nodes[target].speed == 0.5
        assert len(injector.fired()) == 1
        assert merged_state(app) == dict(oracle.table.items())

    def test_duplicate_envelope_is_discarded_by_timestamp_dedup(self):
        app = KeyValueStore.launch(table=2)
        put_te = put_te_of(app)
        plan = FaultPlan([
            DuplicateEnvelope(at_step=step, te=put_te, index=step)
            for step in (10, 25, 40)
        ])
        injector = FaultInjector(app.runtime, plan).install()
        oracle = KeyValueStore()
        for op in KVWorkload(n_keys=40, read_fraction=0.0, seed=5).ops(200):
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        assert injector.fired()
        assert merged_state(app) == dict(oracle.table.items())

    def test_drop_envelope_kills_the_destination_node(self):
        app = KeyValueStore.launch(table=2)
        put_te = put_te_of(app)
        injector = FaultInjector(
            app.runtime, FaultPlan([DropEnvelope(at_step=5, te=put_te)])
        ).install()
        for i in range(80):
            app.put(i, i)
        app.run()
        (record,) = injector.fired()
        assert "dropped ts=" in record.attrs["detail"]
        dead = [n for n in app.runtime.nodes.values() if not n.alive]
        assert len(dead) == 1

    def test_crash_task_arms_one_instance(self):
        app = KeyValueStore.launch(table=2)
        put_te = put_te_of(app)
        # A no-op handler opts the engine into crash-stop semantics.
        app.runtime.add_crash_handler(lambda *args: None)
        injector = FaultInjector(
            app.runtime, FaultPlan([CrashTask(at_step=5, te=put_te,
                                              index=0)])
        ).install()
        for i in range(80):
            app.put(i, i)
        app.run()
        (record,) = injector.fired()
        assert "armed crash" in record.attrs["detail"]
        assert len([n for n in app.runtime.nodes.values()
                    if not n.alive]) == 1

    def test_backup_store_faults(self):
        app = KeyValueStore.launch(table=2)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store)
        injector = FaultInjector(
            app.runtime,
            FaultPlan([TargetOffline(at_step=30, target=1),
                       CorruptChunk(at_step=60)]),
            store=store,
        ).install()
        for i in range(20):
            app.put(i, i)
        app.run()
        manager.checkpoint_all()
        for i in range(120):
            app.put(i, i)
        app.run()
        outcomes = {type(e.attrs["fault"]).__name__: e.attrs["outcome"]
                    for e in injector_log(app)}
        assert outcomes == {"TargetOffline": "fired",
                            "CorruptChunk": "fired"}
        assert sorted(store._offline) == [1]

    def test_missed_selector_is_logged_as_skipped(self):
        app = KeyValueStore.launch(table=2)
        victim = app.runtime.se_instance("table", 0).node_id
        injector = FaultInjector(
            app.runtime,
            FaultPlan([KillNode(at_step=5, node_id=victim),
                       KillNode(at_step=10, node_id=victim)]),
        ).install()
        for i in range(100):
            app.put(i, i)
        app.run()
        outcomes = [e.attrs["outcome"] for e in injector_log(app)]
        assert outcomes == ["fired", "skipped"]
        assert injector.done


class TestScaleUpFault:
    def test_scale_up_fires_and_grows_the_te(self):
        app = KeyValueStore.launch(table=2)
        put_te = put_te_of(app)
        injector = FaultInjector(
            app.runtime, FaultPlan([ScaleUp(at_step=20, te=put_te)])
        ).install()
        for i in range(80):
            app.put(i, i)
        app.run()
        assert app.runtime.te_slot_count(put_te) == 3
        (record,) = injector.fired()
        assert "scaled" in record.attrs["detail"]

    def test_refused_scale_up_is_rescheduled_until_it_lands(self):
        app = KeyValueStore.launch(table=2)
        put_te = put_te_of(app)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(app.runtime, store)
        injector = FaultInjector(
            app.runtime, FaultPlan([ScaleUp(at_step=2, te=put_te)])
        ).install()
        # An open checkpoint makes the engine refuse to repartition.
        pending = manager.begin(app.runtime.se_instance("table", 0).node_id)
        for i in range(40):
            app.put(i, i)
        app.run()
        assert injector.fired("rescheduled")
        assert app.runtime.te_slot_count(put_te) == 2

        manager.complete(pending)
        for i in range(60):
            app.put(i, i)
        app.run()
        assert injector.fired()
        assert app.runtime.te_slot_count(put_te) == 3
        assert injector.done

    def test_unscalable_te_is_refused_for_good(self):
        app = KeyValueStore.launch(table=2)
        put_te = put_te_of(app)
        app.runtime.config.max_instances = 2
        injector = FaultInjector(
            app.runtime, FaultPlan([ScaleUp(at_step=5, te=put_te)])
        ).install()
        for i in range(40):
            app.put(i, i)
        app.run()
        (record,) = injector.fired("refused")
        assert "cannot scale further" in record.attrs["detail"]
        assert injector.done
