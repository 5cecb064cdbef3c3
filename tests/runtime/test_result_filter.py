"""The result consumer's replay filter stays bounded in steady state.

Counted, not clocked: the stamps of a (TE, stream) shrink to a
watermark once its slots have served every item, whatever the run
length (on a multiprocess worker, which serves only some of the slots,
once it goes idle), and a full checkpoint empties the request-id sets
of the gathers it covers.
"""

from collections import Counter

from repro.apps import CollaborativeFiltering
from repro.recovery import BackupStore, CheckpointManager
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def test_stream_stamps_shrink_to_a_watermark():
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": 4})).deploy()
    stamps = runtime._result_stamps
    for i in range(20_000):
        op = "get" if i % 3 == 0 else "put"
        runtime.inject("serve", (op, i % 500, i))
        if i % 1000 == 999:
            runtime.run_until_idle()
            assert not any(s.ahead for s in stamps.values())
    runtime.run_until_idle()
    assert len(runtime.results["serve"]) == 6667
    # Four partitions, each fed by the one input stream, share its stamps.
    assert len(stamps) == 4
    (shared,) = {id(s): s for s in stamps.values()}.values()
    assert shared.low == 20_000
    assert not shared.ahead
    assert not any(runtime._result_requests.values())


def test_a_worker_filter_is_bounded_by_its_slots():
    """A worker serves only some slots, so its stamps never close up on
    their own: they would grow by one per item it serves. A worker's
    gauge carries its filter's size (channels plus stamps past a gap)
    as it settled after its previous idle report."""
    runtime = Runtime(build_kv_sdg(), RuntimeConfig(
        se_instances={"table": 4}, substrate="multiprocess",
        workers=2)).deploy()
    with runtime:
        oracle = {}
        expected = []
        for i in range(20_000):
            op = "get" if i % 3 == 0 else "put"
            key = i % 500
            runtime.inject("serve", (op, key, i))
            if op == "put":
                oracle[key] = i
            else:
                expected.append((key, oracle.get(key)))
            if i % 1000 == 999:
                runtime.run_until_idle()
        runtime.run_until_idle()
        entries = runtime.merged_metrics().snapshot()[
            "engine_result_filter_entries"]["children"]
        # Per worker: its slots' input channels and the shared key of
        # the stream (slot 0's); no stamp is held past a gap.
        assert 0 < sum(entries.values()) <= 2 * 4, entries
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
