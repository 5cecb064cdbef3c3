"""The result consumer's replay filter costs nothing until it is needed.

Counted, not clocked: nothing keeps a result stamp until something can
replay (in-process, the first failure, reroute or chaos fault; a
multiprocess worker never), and then the stamps of a (TE, stream)
shrink to a watermark once its slots have served every item. A full
checkpoint empties the request-id sets of the gathers it covers.
"""

from collections import Counter

from repro.apps import CollaborativeFiltering
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def filter_entries(registry) -> list[float]:
    """Each ``engine_result_filter_entries`` cell the registry holds."""
    return list(registry.snapshot()["engine_result_filter_entries"][
        "children"].values())


def kv_op(i):
    return ("get" if i % 3 == 0 else "put", i % 500, i)


def test_stream_stamps_shrink_to_a_watermark():
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": 4})).deploy()
    for i in range(20_000):
        runtime.inject("serve", kv_op(i))
        if i % 1000 == 999:
            runtime.run_until_idle()
    runtime.run_until_idle()
    assert len(runtime.results["serve"]) == 6667
    # Nothing could replay: no stamp was kept, and the gauge says so.
    assert runtime._result_stamps is None
    assert filter_entries(runtime.metrics) == [0]
    # A failure builds the filter; the log replay that recovers the
    # partition collects nothing twice.
    victim = runtime.te_instances("serve")[1].node_id
    runtime.fail_node(victim)
    RecoveryManager(runtime, BackupStore()).recover_node(victim)
    runtime.run_until_idle()
    assert len(runtime.results["serve"]) == 6667
    # One record for the one input stream, shared by every slot's
    # channel, at a watermark with nothing held past a gap.
    (shared,) = set(runtime._result_stamps.values())
    assert shared.low == 20_000
    assert not shared.ahead
    assert filter_entries(runtime.metrics) == [1]
    assert not any(runtime._result_requests.values())


def test_a_worker_filter_is_bounded_by_its_slots():
    """A worker serves only some slots of a stream whose stamps are
    global, so a filter there would hold nearly every stamp past a gap.
    Nothing on a fleet replays a result into it, so no worker builds
    one: after every barrier each worker's gauge, and the merged one,
    read 0."""
    runtime = Runtime(build_kv_sdg(), RuntimeConfig(
        se_instances={"table": 4}, substrate="multiprocess",
        workers=2)).deploy()
    with runtime:
        oracle = {}
        expected = []
        for barrier in range(4):
            for i in range(barrier * 5000, (barrier + 1) * 5000):
                op, key, value = request = kv_op(i)
                runtime.inject("serve", request)
                if op == "put":
                    oracle[key] = value
                else:
                    expected.append((key, oracle.get(key)))
            runtime.run_until_idle()
            shards = runtime.substrate.metric_shards
            assert len(shards) == 2
            for shard in shards:
                assert list(shard["engine_result_filter_entries"][
                    "children"].values()) == [0]
            assert filter_entries(runtime.merged_metrics()) == [0]
        assert Counter(runtime.results["serve"]) == Counter(expected)


def test_full_checkpoint_empties_the_request_sets():
    app = CollaborativeFiltering.launch(user_item=2, co_occ=2)
    runtime = app.runtime
    for user in range(10):
        for item in range(user % 4, 12, 3):
            app.add_rating(user, item, 1 + (user + item) % 5)
    app.run()
    for i in range(200):
        app.get_rec(i % 10)
    app.run()
    assert len(app.results("get_rec")) == 200
    assert sum(map(len, runtime._result_requests.values())) == 200
    CheckpointManager(runtime, BackupStore()).checkpoint_all()
    assert not any(runtime._result_requests.values())


def test_requests_completed_after_begin_outlive_the_trim():
    """Only requests whose cause the checkpoint's ``last_seen`` covers
    go: one completed between begin and complete could be replayed."""
    app = CollaborativeFiltering.launch(user_item=1, co_occ=2)
    runtime = app.runtime
    app.add_rating(0, 1, 3)
    app.add_rating(0, 2, 4)
    app.get_rec(0)
    app.run()
    manager = CheckpointManager(runtime, BackupStore())
    merge_te = app.translation.entry_info("get_rec").terminal_te
    (merge,) = runtime.te_instances(merge_te)
    pending = manager.begin(merge.node_id)
    app.get_rec(0)
    app.run()
    manager.complete(pending)
    (done,) = [ids for ids in runtime._result_requests.values() if ids]
    assert len(done) == 1
