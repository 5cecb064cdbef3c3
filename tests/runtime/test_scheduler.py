"""Unit tests for the scheduling layer.

Covers the round-robin rotor order, straggler credit and — critically —
a determinism proof that :class:`RoundRobinScheduler` selects in
exactly the order of the seed engine's inlined step loop, so recovery
replay order is unchanged by the layered refactor. A reference policy
is installed by assignment after ``deploy()``: the drain loop reads
``scheduler.select`` once per drain. The walk over the ready int's set
bits is held to the bisect walk over a sorted list of positions it
replaced, by a Hypothesis property.
"""

from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector
from repro.chaos.plan import DuplicateEnvelope, FaultPlan
from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import (
    InProcessSubstrate,
    RoundRobinScheduler,
    Runtime,
    RuntimeConfig,
)
from repro.runtime.instances import Candidates, TEInstance
from repro.runtime.node import PhysicalNode
from repro.state import KeyValueMap
from repro.testing import build_kv_sdg, noop


def make_instances(n, items_per_instance):
    """``n`` instances of one stateless TE, each hosted on its own node.

    Returned as the :class:`Candidates` sequence the engine hands a
    policy: the instances plus the ready int, bit ``1 << position`` set
    for each position that has input.
    """
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
    return Candidates(instances), nodes


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
        if not instance.inbox:
            instances.ready &= ~instance.ready_bit
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

    def test_a_straggler_yields_to_a_healthy_instance(self):
        instances, nodes = make_instances(2, [5, 1])
        nodes[0].speed = 0.25  # the rotor's first pick is a straggler
        scheduler = RoundRobinScheduler()
        instance, throttled = scheduler.select(instances, nodes)
        # The straggler is held back; the healthy instance runs.
        assert instance is instances[1]
        assert throttled


# ---------------------------------------------------------------------------
# The bit walk against the sorted-list walk it replaced
# ---------------------------------------------------------------------------


class BisectScheduler(RoundRobinScheduler):
    """``RoundRobinScheduler.select`` as it was over a sorted list of
    ready positions, kept verbatim as the reference for the bit walk."""

    def select(self, instances, nodes):
        ready = instances.ready
        if not ready:
            return None, False
        n = len(instances)
        at = bisect_left(ready, self._rotor % n)
        throttled = False
        for _ in range(len(ready)):
            if at == len(ready):
                at = 0
            position = ready[at]
            at += 1
            instance = instances[position]
            node = nodes[instance.node_id]
            # A full-speed node is admitted without a call.
            if node.speed < 1.0 and not self._admit(node):
                throttled = True
                continue
            self._rotor = (position + 1) % n
            return instance, throttled
        return None, throttled


class SortedReady(list):
    """The instances with ``ready`` as a sorted list of positions."""

    def __init__(self, instances, positions):
        super().__init__(instances)
        self.ready = sorted(positions)


#: Built once: ``make_instances`` of 300 costs more than an example.
POOL = make_instances(300, [0] * 300)


@st.composite
def selections(draw):
    """A live order of 1..300 instances (the int crosses 64 and 256
    bits), a ready subset, node speeds (some below 1, so throttled),
    starting credits, a rotor (past the end too, as after a shrink) and
    how many selects to make in a row."""
    n = draw(st.integers(1, 300))
    ready = draw(st.sets(st.integers(0, n - 1), max_size=n))
    slow = draw(st.dictionaries(
        st.integers(0, n - 1),
        st.tuples(st.sampled_from([0.0, 0.25, 0.4, 0.5, 0.9]),
                  st.sampled_from([0.0, 0.3, 0.75, 0.95])),
        max_size=n))
    rotor = draw(st.integers(0, 2 * n))
    return n, ready, slow, rotor, draw(st.integers(1, 8))


class TestBitWalkMatchesSortedWalk:
    @settings(max_examples=200, deadline=None)
    @given(selections())
    def test_same_instance_throttle_rotor_and_credit(self, case):
        n, ready, slow, rotor, rounds = case
        instances, nodes = POOL
        live = Candidates(instances[:n])
        live.ready = sum(1 << at for at in ready)
        reference = SortedReady(instances[:n], ready)
        new, old = RoundRobinScheduler(), BisectScheduler()
        new._rotor = old._rotor = rotor

        def run(scheduler, candidates):
            for at, node in nodes.items():
                node.speed, node.credit = slow.get(at, (1.0, 0.0))
            picks = []
            for _ in range(rounds):
                instance, throttled = scheduler.select(candidates, nodes)
                picks.append((instance, throttled, scheduler._rotor))
            return picks, [nodes[at].credit for at in range(n)]

        assert run(new, live) == run(old, reference)


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


def record_processing(runtime):
    """The list every served ``(te, index, source index, ts)`` lands in.

    Recorded at the *substrate* surface — the layer the engine actually
    drives — after asserting the run executes on
    :class:`InProcessSubstrate`: the rotor-determinism reference is a
    property of that substrate (the seed loop, byte-for-byte), not of
    engine internals.
    """
    assert isinstance(runtime.substrate, InProcessSubstrate)
    trace = []
    original = runtime.substrate.process

    def record(instance, envelope):
        trace.append((instance.name, instance.index,
                      envelope.channel.src_instance, envelope.ts))
        original(instance, envelope)

    runtime.substrate.process = record
    return trace


def traced_run(scheduler, straggle=False):
    """Run a fixed KV workload; return the processing trace + results."""
    runtime = Runtime(
        build_kv_sdg(), RuntimeConfig(se_instances={"table": 3})).deploy()
    runtime.scheduler = scheduler
    trace = record_processing(runtime)
    if straggle:
        slow = runtime.te_instances("serve")[1]
        runtime.nodes[slow.node_id].speed = 0.4
    for i in range(40):
        runtime.inject("serve", ("put", f"k{i}", i))
        runtime.inject("serve", ("get", f"k{i}", None))
    runtime.run_until_idle()
    return trace, runtime.results["serve"]


def build_pipeline_sdg():
    """``route`` (stateless entry) -> ``serve`` (partitioned KV).

    Two TEs, so growing the first one shifts the position of every
    instance of the second in the scheduler's deployment order.
    """
    sdg = SDG("pipeline")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED)

    def serve(ctx, request):
        op, key, value = request
        if op == "put":
            ctx.state.put(key, value)
            return None
        return (key, ctx.state.get(key))

    sdg.add_task("route", noop, is_entry=True)
    sdg.add_task("serve", serve, state="table",
                 access=AccessMode.PARTITIONED)
    sdg.connect("route", "serve", Dispatch.KEY_PARTITIONED,
                key_fn=lambda request: request[1], key_name="key")
    return sdg


def structural_run(scheduler):
    """One stream with every structural change landing mid-backlog.

    In order: ``scale_up`` of the TE that is *first* in deployment
    order (every later rotor index shifts), a chaos duplicate, a
    straggler node, ``scale_up`` of the partitioned TE (repartition and
    re-route), then ``fail_node`` -> recovery -> ``install_replacement``
    with replay. Returns the processing trace, the results and the
    merged table.
    """
    runtime = Runtime(
        build_pipeline_sdg(),
        RuntimeConfig(te_instances={"route": 2}, se_instances={"table": 3}),
    ).deploy()
    runtime.scheduler = scheduler
    trace = record_processing(runtime)
    store = BackupStore(m_targets=2)
    checkpoints = CheckpointManager(runtime, store)
    recovery = RecoveryManager(runtime, store)
    injector = FaultInjector(runtime, FaultPlan([
        DuplicateEnvelope(at_step=30, te="serve", index=1),
    ])).install()

    def feed(start, count):
        for i in range(start, start + count):
            runtime.inject("route", ("put", f"k{i % 23}", i))
            runtime.inject("route", ("get", f"k{i % 23}", None))

    def steps(count):
        for _ in range(count):
            assert runtime.step()

    feed(0, 30)
    steps(17)
    assert runtime.scale_up("route")
    feed(30, 20)
    steps(25)
    assert len(injector.fired()) == 1
    slow = runtime.te_instances("serve")[1]
    runtime.nodes[slow.node_id].speed = 0.4
    steps(20)
    assert runtime.scale_up("serve")
    feed(50, 20)
    steps(15)
    checkpoints.checkpoint_all()
    feed(70, 20)
    steps(15)
    victim = runtime.se_instance("table", 0).node_id
    runtime.fail_node(victim)
    recovery.recover_node(victim)
    feed(90, 10)
    runtime.run_until_idle()
    assert runtime.is_idle()
    table = {}
    for inst in runtime.se_instances("table"):
        table.update(dict(inst.element.items()))
    return trace, runtime.results["serve"], table


class TestSeedDeterminism:
    def test_round_robin_matches_seed_loop_across_structural_changes(self):
        seed = structural_run(SeedLoopScheduler())
        new = structural_run(RoundRobinScheduler())
        assert new[0] == seed[0]
        assert new[1:] == seed[1:]
        # The workload did what it was built to do.
        assert {te for te, *_ in new[0]} == {"route", "serve"}
        assert set(new[2]) == {f"k{i}" for i in range(23)}

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
