"""The chaos soak: a seeded fault storm against full self-healing.

Acceptance scenario for the chaos layer. A KV workload runs while a
seeded :func:`~repro.chaos.random_plan` kills nodes, crashes tasks,
redelivers envelopes and forces a scale-up, all interleaved with
scheduled asynchronous checkpoints — and *nothing* calls
``recover_node``: the failure detector notices every failure and the
supervisor restores it. The run must converge to the sequential oracle
and the event log must show one complete detection->recovery cycle per
failure.
"""

import pytest

from repro.apps import KeyValueStore
from repro.chaos import (
    CrashTask,
    FaultInjector,
    KillNode,
    ScaleUp,
    random_plan,
)
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointScheduler,
    RecoveryManager,
    RecoverySupervisor,
)
from repro.runtime import FailureDetector
from repro.workloads import KVWorkload


def merged_state(app):
    merged = {}
    for element in app.state_of("table"):
        merged.update(dict(element.items()))
    return merged


def build_supervised_deployment():
    app = KeyValueStore.launch(table=2)
    store = BackupStore(m_targets=3)
    # The full input log is retained so that the supervisor's pure
    # log-replay fallback stays sound whatever the plan corrupts.
    manager = CheckpointManager(app.runtime, store, trim_input_log=False)
    scheduler = CheckpointScheduler(manager, every_items=40,
                                    complete_after_steps=5).install()
    recovery = RecoveryManager(app.runtime, store)
    detector = FailureDetector(app.runtime, heartbeat_timeout=25,
                               check_every=5).install()
    # n_new=2 keeps the m-to-n rung of the strategy ladder in play on
    # every recovery (it is refused while sibling partitions live, which
    # exercises the fallback path each time).
    supervisor = RecoverySupervisor(detector, recovery, n_new=2,
                                    backoff_steps=10).install()
    return app, store, scheduler, detector, supervisor


def settled(injector, detector, supervisor):
    """The storm is over: every fault fired, every failure was noticed
    (no dead node is still inside its heartbeat window) and every
    recovery completed."""
    return (injector.done and supervisor.settled
            and not detector.unreported_dead_nodes())


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [7, 11, 23])
def test_randomized_fault_storm_converges_to_oracle(seed):
    app, store, scheduler, detector, supervisor = (
        build_supervised_deployment()
    )
    put_te = app.translation.entry_info("put").entry_te
    plan = random_plan(seed, horizon=700, se="table", entry_te=put_te,
                       n_kills=3, n_crashes=1, n_duplicates=2,
                       n_scale_ups=1, min_gap=80)
    injector = FaultInjector(app.runtime, plan, store=store).install()

    oracle = KeyValueStore()
    ops = list(KVWorkload(n_keys=120, read_fraction=0.0,
                          seed=seed).ops(6000))
    applied = 0
    # Feed in small batches; keep pumping (mirrored into the oracle)
    # past the plan horizon until every fault fired and every recovery
    # settled.
    while True:
        for op in ops[applied:applied + 25]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        applied += 25
        if applied >= 1400 and settled(injector, detector, supervisor):
            break
        assert applied < len(ops), (
            f"seed {seed}: chaos run failed to settle; event log: "
            f"{app.runtime.events.to_jsonl()}"
        )
    scheduler.flush()
    app.run()

    # Convergence: the distributed, repeatedly-broken deployment ends
    # bit-identical to an uninterrupted sequential run.
    assert merged_state(app) == dict(oracle.table.items())

    # The plan actually happened: >= 3 kills, a mid-item crash and one
    # scale-up, with scheduled checkpoints interleaved throughout.
    fired = injector.fired()
    faults = [e.attrs["fault"] for e in fired]
    assert len([f for f in faults if isinstance(f, KillNode)]) >= 3
    assert len([f for f in faults if isinstance(f, CrashTask)]) == 1
    assert len([f for f in faults if isinstance(f, ScaleUp)]) == 1
    assert scheduler.completed_count > 0

    # Every failure shows a complete detection -> recovery cycle; no
    # node was given up on and no recovery is still in flight.
    cycles = supervisor.cycles()
    assert len(cycles) >= 4  # 3 kills + 1 crash
    assert all(outcome is not None and outcome.kind == "recovered"
               for _detection, outcome in cycles)
    assert supervisor.quarantined == set()


@pytest.mark.chaos
def test_soak_with_backup_target_outage_and_corruption():
    """Store-level faults under supervision: one backup target drops
    offline, the victim's stored chunk is corrupted, and the node is
    killed before any fresh checkpoint can supersede the damage — the
    supervisor must walk the ladder down to pure log replay."""
    from repro.chaos import CorruptChunk, FaultPlan, TargetOffline

    app, store, scheduler, detector, supervisor = (
        build_supervised_deployment()
    )
    oracle = KeyValueStore()
    ops = list(KVWorkload(n_keys=120, read_fraction=0.0,
                          seed=31).ops(6000))
    applied = 0

    def feed(batch=25):
        nonlocal applied
        for op in ops[applied:applied + batch]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        applied += batch

    for _ in range(12):  # warm up: state + scheduled checkpoints
        feed()
    scheduler.flush()
    assert scheduler.completed_count > 0

    # Build the store-fault plan against the live topology: target the
    # node currently hosting partition 1, and land the kill 2 steps
    # after the corruption so no fresh checkpoint can supersede it
    # (the scheduler needs >= every_items more items to even begin one).
    victim = app.runtime.se_instance("table", 1).node_id
    now = app.runtime.total_steps
    plan = FaultPlan([
        TargetOffline(at_step=now + 5, target=0),
        CorruptChunk(at_step=now + 6, node_id=victim),
        KillNode(at_step=now + 8, node_id=victim),
    ])
    injector = FaultInjector(app.runtime, plan, store=store).install()

    while True:
        feed()
        if settled(injector, detector, supervisor):
            break
        assert applied < len(ops), (
            f"chaos run failed to settle; cycles: {supervisor.cycles()}"
        )
    scheduler.flush()
    app.run()

    assert merged_state(app) == dict(oracle.table.items())
    assert len(app.runtime.events.events(source="injector")) == 3
    assert len(injector.fired()) == 3
    # The broken backup pushed recovery down the ladder to log replay.
    fallbacks = app.runtime.events.events(source="supervisor",
                                          kind="fallback")
    assert any("log-replay" in e.attrs["detail"] for e in fallbacks)
    ((detection, outcome),) = [
        c for c in supervisor.cycles() if c[0].attrs["node_id"] == victim
    ]
    assert detection.attrs["detail"] == "dead"
    assert outcome.kind == "recovered"
    assert outcome.attrs["detail"] == "log-replay"
