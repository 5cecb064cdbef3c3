"""Misc — chaos supervision: detection latency and recovery timeline.

Runs the §6.1 KV workload under a seeded fault storm with the full
detect-and-repair loop installed (failure detector + recovery
supervisor, scheduled asynchronous checkpoints) and reports, per
failure, how many logical steps the detector needed to notice it and
how the supervisor resolved it. The run must converge to the
sequential oracle — self-healing must not cost correctness.
"""

from conftest import print_figure

from repro.apps import KeyValueStore
from repro.chaos import FaultInjector, KillNode, random_plan
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointScheduler,
    RecoveryManager,
    RecoverySupervisor,
)
from repro.runtime import FailureDetector
from repro.workloads import KVWorkload

SEED = 5
HEARTBEAT_TIMEOUT = 25
CHECK_EVERY = 5


def run_supervised_storm():
    app = KeyValueStore.launch(table=2)
    store = BackupStore(m_targets=3)
    manager = CheckpointManager(app.runtime, store, trim_input_log=False)
    scheduler = CheckpointScheduler(manager, every_items=40,
                                    complete_after_steps=5).install()
    recovery = RecoveryManager(app.runtime, store)
    detector = FailureDetector(app.runtime,
                               heartbeat_timeout=HEARTBEAT_TIMEOUT,
                               check_every=CHECK_EVERY).install()
    supervisor = RecoverySupervisor(detector, recovery, n_new=2,
                                    backoff_steps=10).install()
    put_te = app.translation.entry_info("put").entry_te
    plan = random_plan(SEED, horizon=700, se="table", entry_te=put_te,
                       n_kills=3, n_crashes=1, n_duplicates=2,
                       n_scale_ups=1, min_gap=80)
    injector = FaultInjector(app.runtime, plan, store=store).install()

    oracle = KeyValueStore()
    ops = list(KVWorkload(n_keys=120, read_fraction=0.0,
                          seed=SEED).ops(4000))
    applied = 0
    while True:
        for op in ops[applied:applied + 25]:
            app.put(op.key, op.value)
            oracle.put(op.key, op.value)
        app.run()
        applied += 25
        if applied >= 1400 and injector.done and supervisor.settled \
                and not detector.unreported_dead_nodes():
            break
        assert applied < len(ops), "storm failed to settle"
    scheduler.flush()
    app.run()
    return app, oracle, injector, supervisor


def test_misc_chaos_supervision(benchmark):
    app, oracle, injector, supervisor = benchmark(run_supervised_storm)

    kill_steps = {}
    for record in injector.fired():
        if isinstance(record.attrs["fault"], KillNode):
            node_id = int(record.attrs["detail"].rsplit(" ", 1)[1])
            kill_steps[node_id] = record.step

    rows = []
    kill_latencies = []
    for detection, outcome in supervisor.cycles():
        node_id = detection.attrs["node_id"]
        fault_step = kill_steps.get(node_id)
        if fault_step is not None:
            latency = detection.step - fault_step
            kill_latencies.append(latency)
        else:
            latency = 0  # crashes are reported in the faulting step
        rows.append((
            node_id,
            detection.attrs["detail"],
            fault_step if fault_step is not None else "-",
            detection.step,
            latency,
            outcome.kind,
            outcome.attrs["detail"],
            outcome.step - detection.step,
        ))
    print_figure(
        "Supervised chaos: per-failure detection and recovery "
        "(logical steps)",
        ["node", "failure", "fault@", "detected@", "detect lat.",
         "outcome", "strategy", "recovery dur."],
        rows,
    )

    merged = {}
    for element in app.state_of("table"):
        merged.update(dict(element.items()))
    assert merged == dict(oracle.table.items())

    # One complete cycle per failure, every one repaired.
    assert len(rows) >= 4  # 3 kills + 1 crash
    assert all(row[5] == "recovered" for row in rows)
    # Silent kills are noticed within one heartbeat window plus one
    # check interval; crashes are reported immediately.
    assert len(kill_latencies) == 3
    assert all(
        latency <= HEARTBEAT_TIMEOUT + CHECK_EVERY
        for latency in kill_latencies
    )
