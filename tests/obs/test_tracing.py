"""Tests for per-envelope causal tracing through the live runtime."""

from repro.apps.wordcount import build_wordcount_sdg
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def deploy_wordcount(trace=True):
    runtime = Runtime(
        build_wordcount_sdg(window_size=10),
        RuntimeConfig(se_instances={"counts": 2}, trace=trace),
    )
    runtime.deploy()
    return runtime


class TestTracing:
    def test_tracing_off_by_default(self):
        runtime = Runtime(build_kv_sdg())
        runtime.deploy()
        runtime.inject("serve", ("put", 1, 1))
        runtime.run_until_idle()
        assert runtime.tracer is None
        for node in runtime.nodes.values():
            for instance in node.te_instances.values():
                assert all(e.trace_id is None
                           for b in instance.output_buffers.values()
                           for e in b)

    def test_one_trace_per_injection(self):
        runtime = deploy_wordcount()
        for i in range(5):
            runtime.inject("split", (i, "a b"))
        runtime.run_until_idle()
        traces = runtime.tracer.traces()
        assert len(traces) == 5
        assert sorted(t.trace_id for t in traces) == [1, 2, 3, 4, 5]

    def test_trace_id_rides_dispatch_fanout(self):
        runtime = deploy_wordcount()
        runtime.inject("split", (0, "x y z"))
        runtime.run_until_idle()
        (trace,) = runtime.tracer.traces()
        # One split hop, then one count hop per emitted word.
        assert [h.te for h in trace.hops] == ["split"] + ["count"] * 3
        assert trace.replayed_hops == 0
        assert trace.latency >= len(trace.hops)

    def test_queue_wait_observed(self):
        runtime = deploy_wordcount()
        # Ten items are queued before the engine takes a single step,
        # so later items demonstrably wait in the inbox.
        for i in range(10):
            runtime.inject("split", (i, "w"))
        runtime.run_until_idle()
        traces = runtime.tracer.traces()
        first_hops = [t.hops[0] for t in traces]
        assert all(h.enqueue_step <= h.entry_step for h in first_hops)
        assert max(h.queue_wait for h in first_hops) > 0
        assert all(h.service_steps >= 1 for h in first_hops)

    def test_repartition_keeps_trace_ids(self):
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": 2}, trace=True),
        )
        runtime.deploy()
        # Queue items, then repartition before any of them is served:
        # the drained envelopes are re-routed under the new epoch but
        # must keep their original trace ids (no fresh traces minted).
        for i in range(8):
            runtime.inject("serve", ("put", i, i))
        runtime.scale_up("serve")
        runtime.run_until_idle()
        traces = runtime.tracer.traces()
        assert len(traces) == 8
        assert all(len(t.hops) == 1 for t in traces)
        assert all(t.replayed_hops == 0 for t in traces)

    def test_summary_renders(self):
        runtime = deploy_wordcount()
        for i in range(4):
            runtime.inject("split", (i, "a b c"))
        runtime.run_until_idle()
        summary = runtime.tracer.summary(limit=2)
        assert "traces: 4" in summary
        assert "p50=" in summary and "queue wait" in summary
        assert "split/0" in summary


class TestBoundedReplayBooks:
    """Satellite: the served-set and enqueue map are FIFO-bounded, so
    long chaos soaks (many crash-replay cycles over the same items)
    keep tracer memory flat instead of growing with item count."""

    def test_served_limit_is_enforced(self):
        import pytest

        from repro.obs.trace import DEFAULT_SERVED_LIMIT, Tracer

        assert Tracer().served_limit == DEFAULT_SERVED_LIMIT
        with pytest.raises(ValueError, match="served_limit"):
            Tracer(served_limit=0)

    def test_books_stay_flat_across_replay_cycles(self):
        from repro.obs.trace import Tracer
        from repro.runtime.envelope import ChannelId, Envelope

        tracer = Tracer(served_limit=64)
        channel = ChannelId(edge_index=0, src_te="a", src_instance=0,
                            dst_te="b", dst_instance=0)
        # 10 "crash cycles", each serving 100 distinct items: without
        # the bound the served-set would hold 1000 keys.
        for cycle in range(10):
            for i in range(100):
                trace_id = tracer.new_trace(step=i)
                env = Envelope(channel=channel, ts=i, payload=i,
                               trace_id=trace_id)
                tracer.on_deliver(env, step=i)
                hop = tracer.begin_hop(env, "b", "b/0", step=i + 1)
                # A serve consumes one step: the hop exits on its own.
                assert hop.exit_step == i + 2
        assert len(tracer._served) <= 64
        assert len(tracer._enqueued) <= 64

    def test_eviction_only_forgets_oldest(self):
        from repro.obs.trace import Tracer
        from repro.runtime.envelope import ChannelId, Envelope

        tracer = Tracer(served_limit=8)

        def serve(ts):
            channel = ChannelId(edge_index=0, src_te="a",
                                src_instance=0, dst_te="b",
                                dst_instance=0)
            trace_id = tracer.new_trace(step=ts)
            env = Envelope(channel=channel, ts=ts, payload=ts,
                           trace_id=trace_id)
            return tracer.begin_hop(env, "b", "b/0", step=ts)

        first = serve(0)
        for ts in range(1, 9):  # push ts=0 out of the 8-slot book
            serve(ts)
        assert not first.replayed
        # A re-execution of a *recent* item is still caught...
        recent = tracer.begin_hop(
            Envelope(channel=ChannelId(edge_index=0, src_te="a",
                                       src_instance=0, dst_te="b",
                                       dst_instance=0),
                     ts=8, payload=8, trace_id=9), "b", "b/0", step=20)
        assert recent.replayed
        # ...while the evicted oldest item mis-reports as fresh (the
        # documented, safe direction of the trade-off).
        evicted = tracer.begin_hop(
            Envelope(channel=ChannelId(edge_index=0, src_te="a",
                                       src_instance=0, dst_te="b",
                                       dst_instance=0),
                     ts=0, payload=0, trace_id=1), "b", "b/0", step=21)
        assert not evicted.replayed
