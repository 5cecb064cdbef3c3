"""Tests for global access: broadcast, gather barriers and NO_RESPONSE."""

import pytest

from repro.apps import CollaborativeFiltering
from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.errors import RuntimeExecutionError
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.state import KeyValueMap


def build_global_sdg(responder):
    """source --one_to_all--> reader(partial SE) --all_to_one--> merge."""
    sdg = SDG("global")
    sdg.add_state("replica", KeyValueMap, kind=StateKind.PARTIAL)
    sdg.add_task("source", lambda ctx, item: item, is_entry=True)
    sdg.add_task("reader", responder, state="replica",
                 access=AccessMode.GLOBAL)
    sdg.add_task("merge", lambda ctx, parts: sorted(parts), is_merge=True)
    sdg.connect("source", "reader", Dispatch.ONE_TO_ALL)
    sdg.connect("reader", "merge", Dispatch.ALL_TO_ONE)
    return sdg


class TestBroadcastGather:
    def test_gather_collects_one_response_per_instance(self):
        def responder(ctx, item):
            return f"instance{ctx.instance_id}"

        runtime = Runtime(build_global_sdg(responder),
                          RuntimeConfig(se_instances={"replica": 3}))
        runtime.deploy()
        runtime.inject("source", "ping")
        runtime.run_until_idle()
        assert runtime.results["merge"] == [
            ["instance0", "instance1", "instance2"]
        ]

    def test_no_response_instances_are_skipped(self):
        def responder(ctx, item):
            # Only even instances answer; the barrier must still complete.
            if ctx.instance_id % 2 == 0:
                return ctx.instance_id
            return None

        runtime = Runtime(build_global_sdg(responder),
                          RuntimeConfig(se_instances={"replica": 4}))
        runtime.deploy()
        runtime.inject("source", "ping")
        runtime.run_until_idle()
        assert runtime.results["merge"] == [[0, 2]]

    def test_all_silent_instances_yield_empty_merge_input(self):
        def responder(ctx, item):
            return None

        runtime = Runtime(build_global_sdg(responder),
                          RuntimeConfig(se_instances={"replica": 2}))
        runtime.deploy()
        runtime.inject("source", "ping")
        runtime.run_until_idle()
        assert runtime.results["merge"] == [[]]

    def test_concurrent_requests_do_not_mix(self):
        def responder(ctx, item):
            return (item, ctx.instance_id)

        runtime = Runtime(build_global_sdg(responder),
                          RuntimeConfig(se_instances={"replica": 2}))
        runtime.deploy()
        for req in range(5):
            runtime.inject("source", req)
        runtime.run_until_idle()
        merged = runtime.results["merge"]
        assert len(merged) == 5
        for parts in merged:
            reqs = {r for r, _ in parts}
            assert len(reqs) == 1  # each barrier saw a single request
            assert {i for _, i in parts} == {0, 1}

    def test_multi_output_on_gather_edge_rejected(self):
        def responder(ctx, item):
            ctx.emit(1)
            ctx.emit(2)

        runtime = Runtime(build_global_sdg(responder),
                          RuntimeConfig(se_instances={"replica": 2}))
        runtime.deploy()
        runtime.inject("source", "ping")
        with pytest.raises(RuntimeExecutionError, match="at most one"):
            runtime.run_until_idle()


class TestEntryGlobalAccess:
    def test_entry_with_global_access_broadcasts(self):
        sdg = SDG("entry_global")
        sdg.add_state("replica", KeyValueMap, kind=StateKind.PARTIAL)

        def reader(ctx, item):
            return ctx.instance_id

        sdg.add_task("reader", reader, state="replica",
                     access=AccessMode.GLOBAL, is_entry=True)
        sdg.add_task("merge", lambda ctx, parts: sorted(parts),
                     is_merge=True)
        sdg.connect("reader", "merge", Dispatch.ALL_TO_ONE)
        runtime = Runtime(sdg, RuntimeConfig(se_instances={"replica": 3}))
        runtime.deploy()
        runtime.inject("reader", "q")
        runtime.run_until_idle()
        assert runtime.results["merge"] == [[0, 1, 2]]


class TestBroadcastAcrossFailure:
    """A broadcast waits for every replica slot, dead ones included."""

    @staticmethod
    def rated():
        app = CollaborativeFiltering.launch(user_item=2, co_occ=2)
        for user in range(6):
            for item in range(5):
                app.add_rating(user, item, 1 + (user + item) % 5)
        app.run()
        return app

    def test_reply_waits_for_the_recovered_replica(self):
        clean = self.rated()
        clean.get_rec(1)
        clean.run()
        (expected,) = [rec.to_list() for rec in clean.results("get_rec")]

        app = self.rated()
        store = BackupStore(m_targets=2)
        CheckpointManager(app.runtime, store).checkpoint_all()
        victim = app.runtime.se_instance("co_occ", 1).node_id
        app.runtime.fail_node(victim)
        app.get_rec(1)
        app.run()
        # One replica's partial vector is not an answer.
        assert app.results("get_rec") == []
        RecoveryManager(app.runtime, store).recover_node(victim)
        app.run()
        assert [rec.to_list() for rec in app.results("get_rec")] == [
            expected]


class TestLocalAccessLoadBalancing:
    def test_one_to_any_round_robins_over_replicas(self):
        sdg = SDG("lb")
        sdg.add_state("replica", KeyValueMap, kind=StateKind.PARTIAL)
        sdg.add_task("source", lambda ctx, item: item, is_entry=True)

        def writer(ctx, item):
            ctx.state.increment("count")
            return None

        sdg.add_task("writer", writer, state="replica",
                     access=AccessMode.LOCAL)
        sdg.connect("source", "writer", Dispatch.ONE_TO_ANY)
        runtime = Runtime(sdg, RuntimeConfig(se_instances={"replica": 4}))
        runtime.deploy()
        for i in range(40):
            runtime.inject("source", i)
        runtime.run_until_idle()
        counts = [inst.element.get("count", 0)
                  for inst in runtime.se_instances("replica")]
        assert counts == [10, 10, 10, 10]
