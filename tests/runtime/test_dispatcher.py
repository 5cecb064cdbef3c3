"""Unit tests for the dispatch layer.

Per-semantic routing over the deploy-time successor index, and a guard
that the seed engine's per-item linear edge scan
(``_indexed_successors``) is really gone.
"""

import pytest

from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.errors import RuntimeExecutionError
from repro.runtime import Runtime, RuntimeConfig
from repro.state import KeyValueMap
from repro.testing import build_cf_sdg, noop


class TestSuccessorIndex:
    def test_linear_scan_helper_is_gone(self):
        # The O(edges)-per-item scan must not survive the refactor.
        assert not hasattr(Runtime, "_indexed_successors")

    def test_index_matches_dataflow_positions(self):
        sdg = build_cf_sdg()
        runtime = Runtime(sdg).deploy()
        dataflows = sdg.dataflows
        for te_name in sdg.tasks:
            indexed = list(runtime.dispatcher.successors(te_name))
            expected = [(i, e) for i, e in enumerate(dataflows)
                        if e.src == te_name]
            assert indexed == expected

    def test_terminal_te_has_no_successors(self):
        runtime = Runtime(build_cf_sdg()).deploy()
        assert list(runtime.dispatcher.successors("mergeRec")) == []


def keyed_sdg():
    """src --KEY_PARTITIONED--> dst, dst backed by a partitioned SE."""
    sdg = SDG("keyed")
    sdg.add_state("s", KeyValueMap, kind=StateKind.PARTITIONED)

    def store(ctx, item):
        ctx.state.put(item, item)

    sdg.add_task("src", noop, is_entry=True)
    sdg.add_task("dst", store, state="s", access=AccessMode.PARTITIONED)
    sdg.connect("src", "dst", Dispatch.KEY_PARTITIONED,
                key_fn=lambda x: x, key_name="k")
    return sdg


def fanout_sdg(dispatch):
    """src --dispatch--> dst (stateless), for ONE_TO_ANY / ONE_TO_ALL."""
    sdg = SDG("fanout")
    sdg.add_task("src", noop, is_entry=True)
    sdg.add_task("dst", noop)
    sdg.connect("src", "dst", dispatch)
    return sdg


class TestKeyPartitioned:
    def test_items_meet_their_partition(self):
        runtime = Runtime(keyed_sdg(),
                          RuntimeConfig(se_instances={"s": 3})).deploy()
        for i in range(30):
            runtime.inject("src", i)
        runtime.run_until_idle()
        partitioner = runtime.topology.partitioner("s")
        total = 0
        for se_inst in runtime.se_instances("s"):
            keys = list(se_inst.element.keys())
            total += len(keys)
            for key in keys:
                assert partitioner.partition(key) == se_inst.index
        assert total == 30


class TestOneToAny:
    def test_round_robin_across_destination_instances(self):
        runtime = Runtime(
            fanout_sdg(Dispatch.ONE_TO_ANY),
            RuntimeConfig(te_instances={"dst": 3}),
        ).deploy()
        for i in range(9):
            runtime.inject("src", i)
        runtime.run_until_idle()
        counts = [inst.processed_count
                  for inst in runtime.te_instances("dst")]
        assert counts == [3, 3, 3]


class TestOneToAll:
    def test_broadcast_reaches_every_instance_with_one_request_id(self):
        runtime = Runtime(
            fanout_sdg(Dispatch.ONE_TO_ALL),
            RuntimeConfig(te_instances={"dst": 3}),
        ).deploy()
        runtime.inject("src", "x")
        runtime.step()  # process the src item only
        inboxes = [list(inst.inbox)
                   for inst in runtime.te_instances("dst")]
        assert all(len(inbox) == 1 for inbox in inboxes)
        request_ids = {inbox[0].request_id for inbox in inboxes}
        assert len(request_ids) == 1 and None not in request_ids
        assert all(inbox[0].expected_responses == 3 for inbox in inboxes)

    def test_each_broadcast_gets_a_fresh_request_id(self):
        runtime = Runtime(
            fanout_sdg(Dispatch.ONE_TO_ALL),
            RuntimeConfig(te_instances={"dst": 2}),
        ).deploy()
        seen = []
        original = runtime.substrate.process

        def record(instance, envelope):
            if instance.name == "dst":
                seen.append(envelope.request_id)
            original(instance, envelope)

        runtime.substrate.process = record
        runtime.inject("src", "a")
        runtime.inject("src", "b")
        runtime.run_until_idle()
        # Two broadcasts x two instances, under two distinct request ids.
        assert len(seen) == 4
        assert len(set(seen)) == 2


class TestGather:
    def test_global_round_trip_gathers_all_responses(self):
        runtime = Runtime(
            build_cf_sdg(),
            RuntimeConfig(se_instances={"userItem": 2, "coOcc": 3}),
        ).deploy()
        runtime.inject("updateUserItem", (0, 1, 5))
        runtime.run_until_idle()
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        assert len(runtime.results["mergeRec"]) == 1

    def test_multi_output_on_gather_edge_rejected(self):
        sdg = SDG("bad_gather")

        def chatty(ctx, item):
            ctx.emit("one")
            ctx.emit("two")

        sdg.add_task("src", chatty, is_entry=True)
        sdg.add_task("merge", noop, is_merge=True)
        sdg.connect("src", "merge", Dispatch.ALL_TO_ONE)
        runtime = Runtime(sdg).deploy()
        runtime.inject("src", "x")
        with pytest.raises(RuntimeExecutionError, match="at most one"):
            runtime.run_until_idle()

    def test_gather_without_request_forwards_directly(self):
        sdg = SDG("plain_gather")
        sdg.add_task("src", noop, is_entry=True)
        sdg.add_task("merge", noop, is_merge=True)
        sdg.connect("src", "merge", Dispatch.ALL_TO_ONE)
        runtime = Runtime(sdg).deploy()
        runtime.inject("src", "payload")
        runtime.run_until_idle()
        assert runtime.results["merge"] == ["payload"]
