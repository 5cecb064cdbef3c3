"""``runtime_inbox_depth`` is counted when it is read.

The gauge is the sum of each TE's live inbox lengths, computed on read,
so no path that changes an inbox (delivery, a step, a failure, chaos, a
repartition) keeps it, and none can leave it wrong. Everything here is
a count, never a clock.
"""

from repro.chaos import FaultInjector
from repro.chaos.plan import DropEnvelope, DuplicateEnvelope, FaultPlan
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg


def deploy_kv(**config):
    return Runtime(build_kv_sdg(), RuntimeConfig(
        se_instances={"table": 4}, **config)).deploy()


def live_depth(runtime) -> int:
    return sum(len(instance.inbox)
               for instance in runtime.topology.all_te_instances()
               if runtime.nodes[instance.node_id].alive)


def gauge(runtime) -> float:
    return runtime.metrics.value("runtime_inbox_depth", te="serve")


def inject_puts(runtime, n, start=0):
    for i in range(start, start + n):
        runtime.inject("serve", ("put", f"k{i}", i))


def fire(runtime, fault):
    """Run one step with ``fault`` scheduled for it."""
    injector = FaultInjector(runtime, FaultPlan([fault])).install()
    assert runtime.step()
    injector.uninstall()
    assert injector.fired("fired")


class TestCountedWhenRead:
    def test_injects_and_a_partial_drain(self):
        runtime = deploy_kv()
        inject_puts(runtime, 256)
        assert gauge(runtime) == live_depth(runtime) == 256
        for _ in range(100):
            assert runtime.step()
        assert gauge(runtime) == live_depth(runtime) == 156
        assert runtime.run_until_idle() == 156
        assert gauge(runtime) == 0

    def test_a_failed_node_takes_its_inbox_with_it(self):
        runtime = deploy_kv()
        inject_puts(runtime, 256)
        victim = runtime.te_instance("serve", 1)
        lost = len(victim.inbox)
        assert lost > 0
        runtime.fail_node(victim.node_id)
        assert gauge(runtime) == live_depth(runtime) == 256 - lost

    def test_a_chaos_duplicate_and_a_chaos_drop(self):
        runtime = deploy_kv()
        inject_puts(runtime, 64)
        fire(runtime, DuplicateEnvelope(at_step=1, te="serve", index=2))
        # One served by the step, one queued again by the fault.
        assert gauge(runtime) == live_depth(runtime) == 64
        fire(runtime, DropEnvelope(at_step=2, te="serve", index=3))
        assert gauge(runtime) == live_depth(runtime) < 63

    def test_a_scale_up_that_repartitions_queued_envelopes(self):
        runtime = deploy_kv()
        inject_puts(runtime, 256)
        for _ in range(10):
            runtime.step()
        assert runtime.scale_up("serve")
        assert runtime.te_slot_count("serve") == 5
        assert gauge(runtime) == live_depth(runtime) == 246
        assert runtime.run_until_idle() == 246
        assert gauge(runtime) == 0

    def test_each_te_reads_its_own_inboxes(self):
        runtime = deploy_kv()
        inject_puts(runtime, 10)
        assert runtime.metrics.total("runtime_inbox_depth") == 10
        assert runtime.metrics.snapshot()["runtime_inbox_depth"][
            "children"] == {(("te", "serve"),): 10}


class TestMergedOnAFleet:
    def test_the_merged_gauge_is_zero_after_every_barrier(self):
        with deploy_kv(substrate="multiprocess", workers=2) as runtime:
            for batch in range(4):
                inject_puts(runtime, 300, start=300 * batch)
                assert runtime.run_until_idle() == 300
                merged = runtime.merged_metrics()
                assert merged.total("runtime_inbox_depth") == 0
                assert merged.total("engine_items_processed_total") == (
                    300 * (batch + 1))
