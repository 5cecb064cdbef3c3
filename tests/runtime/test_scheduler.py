"""Unit tests for the scheduling layer.

Covers policy order (round-robin rotor vs longest-queue), straggler
credit, policy resolution from the config knob, and — critically — a
determinism proof that :class:`RoundRobinScheduler` selects in exactly
the order of the seed engine's inlined step loop, so recovery replay
order is unchanged by the layered refactor.
"""

import pytest

from repro.core import SDG
from repro.errors import RuntimeExecutionError
from repro.runtime import (
    InProcessSubstrate,
    LongestQueueScheduler,
    RoundRobinScheduler,
    Runtime,
    RuntimeConfig,
    SCHEDULERS,
)
from repro.runtime.instances import TEInstance
from repro.runtime.node import PhysicalNode
from repro.runtime.scheduler import resolve_scheduler
from repro.testing import build_kv_sdg, noop


def make_instances(n, items_per_instance):
    """``n`` instances of one stateless TE, each hosted on its own node."""
    sdg = SDG("sched")
    spec = sdg.add_task("work", noop, is_entry=True)
    nodes = {}
    instances = []
    for i in range(n):
        node = PhysicalNode(i)
        nodes[i] = node
        inst = TEInstance(spec, i)
        node.host_te(inst)
        for item in range(items_per_instance[i]):
            inst.inbox.append(("item", i, item))
        instances.append(inst)
    return instances, nodes


def drain_order(scheduler, instances, nodes, limit=100):
    """Selection order until the scheduler reports idle."""
    order = []
    for _ in range(limit):
        instance, throttled = scheduler.select(instances, nodes)
        if instance is None:
            if not throttled:
                return order
            continue
        instance.inbox.popleft()
        order.append(instance.index)
    raise AssertionError("scheduler did not drain")


class TestRoundRobin:
    def test_rotates_across_loaded_instances(self):
        instances, nodes = make_instances(3, [2, 2, 2])
        order = drain_order(RoundRobinScheduler(), instances, nodes)
        assert order == [0, 1, 2, 0, 1, 2]

    def test_skips_empty_inboxes(self):
        instances, nodes = make_instances(3, [2, 0, 1])
        order = drain_order(RoundRobinScheduler(), instances, nodes)
        assert order == [0, 2, 0]

    def test_idle_returns_none(self):
        instances, nodes = make_instances(2, [0, 0])
        scheduler = RoundRobinScheduler()
        assert scheduler.select(instances, nodes) == (None, False)


class TestLongestQueue:
    def test_drains_deepest_inbox_first(self):
        instances, nodes = make_instances(3, [1, 4, 2])
        order = drain_order(LongestQueueScheduler(), instances, nodes)
        # Depths after each pick: (1,4,2) -> 1; (1,3,2) -> 1; (1,2,2)
        # tie breaks to 1; (1,1,2) -> 2; then all tied, key order.
        assert order == [1, 1, 1, 2, 0, 1, 2]

    def test_tie_breaks_on_instance_key(self):
        instances, nodes = make_instances(2, [3, 3])
        scheduler = LongestQueueScheduler()
        instance, throttled = scheduler.select(instances, nodes)
        assert (instance.index, throttled) == (0, False)

    def test_deterministic_across_runs(self):
        def once():
            instances, nodes = make_instances(4, [3, 5, 5, 1])
            return drain_order(LongestQueueScheduler(), instances, nodes)

        assert once() == once()


class TestStragglerCredit:
    def test_throttled_node_serves_at_its_speed(self):
        instances, nodes = make_instances(1, [2])
        nodes[0].speed = 0.5
        scheduler = RoundRobinScheduler()
        # First visit accrues 0.5 credit: a stall tick, nothing served.
        assert scheduler.select(instances, nodes) == (None, True)
        instance, throttled = scheduler.select(instances, nodes)
        assert instance is instances[0]
        assert not throttled

    def test_full_speed_node_not_charged(self):
        instances, nodes = make_instances(1, [1])
        scheduler = RoundRobinScheduler()
        instance, throttled = scheduler.select(instances, nodes)
        assert instance is instances[0]
        assert nodes[0].credit == 0.0

    def test_longest_queue_also_honours_credit(self):
        instances, nodes = make_instances(2, [5, 1])
        nodes[0].speed = 0.25  # the deep inbox sits on a straggler
        scheduler = LongestQueueScheduler()
        instance, throttled = scheduler.select(instances, nodes)
        # The straggler is held back; the shallow healthy instance runs.
        assert instance is instances[1]
        assert throttled


class TestResolution:
    def test_known_names_resolve(self):
        assert isinstance(resolve_scheduler("round_robin"),
                          RoundRobinScheduler)
        assert isinstance(resolve_scheduler("longest_queue"),
                          LongestQueueScheduler)

    def test_registry_names_match_classes(self):
        for name, cls in SCHEDULERS.items():
            assert cls.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(RuntimeExecutionError, match="unknown scheduler"):
            resolve_scheduler("fifo")

    def test_custom_policy_object_passthrough(self):
        policy = RoundRobinScheduler()
        assert resolve_scheduler(policy) is policy

    def test_non_scheduler_rejected(self):
        with pytest.raises(RuntimeExecutionError, match="select"):
            resolve_scheduler(42)


# ---------------------------------------------------------------------------
# Determinism against the seed engine
# ---------------------------------------------------------------------------


class SeedLoopScheduler:
    """The seed engine's step-loop selection, transcribed verbatim.

    Used as the reference policy: if :class:`RoundRobinScheduler`
    selects identically on a real workload, replay order is unchanged
    from the pre-refactor engine.
    """

    name = "seed_reference"

    def __init__(self):
        self._rotor = 0

    def select(self, instances, nodes):
        n = len(instances)
        throttled = False
        for offset in range(n):
            instance = instances[(self._rotor + offset) % n]
            if not instance.inbox:
                continue
            node = nodes[instance.node_id]
            if node.speed < 1.0:
                node.credit += max(node.speed, 0.0)
                if node.credit < 1.0:
                    throttled = True
                    continue
                node.credit -= 1.0
            self._rotor = (self._rotor + offset + 1) % n
            return instance, throttled
        return None, throttled


def traced_run(scheduler, straggle=False):
    """Run a fixed KV workload; return the processing trace + results.

    The trace is recorded at the *substrate* surface — the layer the
    engine actually drives — and the run asserts it executes on
    :class:`InProcessSubstrate`: the rotor-determinism reference is a
    property of that substrate (the seed loop, byte-for-byte), not of
    engine internals.
    """
    runtime = Runtime(
        build_kv_sdg(),
        RuntimeConfig(se_instances={"table": 3}, scheduler=scheduler),
    ).deploy()
    assert isinstance(runtime.substrate, InProcessSubstrate)
    trace = []
    original = runtime.substrate.process

    def record(instance, envelope):
        trace.append((instance.name, instance.index, envelope.ts))
        original(instance, envelope)

    runtime.substrate.process = record
    if straggle:
        slow = runtime.te_instances("serve")[1]
        runtime.nodes[slow.node_id].speed = 0.4
    for i in range(40):
        runtime.inject("serve", ("put", f"k{i}", i))
        runtime.inject("serve", ("get", f"k{i}", None))
    runtime.run_until_idle()
    return trace, runtime.results["serve"]


class TestSeedDeterminism:
    def test_round_robin_matches_seed_loop_order(self):
        seed_trace, seed_results = traced_run(SeedLoopScheduler())
        new_trace, new_results = traced_run(RoundRobinScheduler())
        assert new_trace == seed_trace
        assert new_results == seed_results

    def test_round_robin_matches_seed_loop_with_straggler(self):
        seed_trace, _ = traced_run(SeedLoopScheduler(), straggle=True)
        new_trace, _ = traced_run(RoundRobinScheduler(), straggle=True)
        assert new_trace == seed_trace

    def test_round_robin_replay_is_reproducible(self):
        first = traced_run(RoundRobinScheduler())
        second = traced_run(RoundRobinScheduler())
        assert first == second


class TestConfigKnob:
    def test_default_policy_is_round_robin(self):
        runtime = Runtime(build_kv_sdg()).deploy()
        assert isinstance(runtime.scheduler, RoundRobinScheduler)

    def test_longest_queue_selected_by_name(self):
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": 2},
                          scheduler="longest_queue"),
        ).deploy()
        assert isinstance(runtime.scheduler, LongestQueueScheduler)
        for i in range(30):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        merged = {}
        for inst in runtime.se_instances("table"):
            merged.update(dict(inst.element.items()))
        assert merged == {i: i for i in range(30)}

    def test_unknown_policy_fails_at_deploy(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(scheduler="fastest_first"))
        with pytest.raises(RuntimeExecutionError, match="unknown scheduler"):
            runtime.deploy()
