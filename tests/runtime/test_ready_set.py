"""The scheduler's ready set stays exact, and cheap.

``Topology.candidates()`` caches the live instances in deployment order
plus the sorted positions whose inbox is non-empty. Two things are
pinned here: a Hypothesis property that no interleaving of inject,
step, scale-up, failure, recovery and chaos duplicate/drop can make
that set disagree with the inboxes (or with ``runtime_inbox_depth`` and
``is_idle()``), and a complexity guard — counted, no wall clock — that
the order is rebuilt per structural change, not per step.

The transport's per-channel route cache (the destination instance kept
on each ``Channel`` record, stamped with ``Topology.version``) is held
to the same two standards: the same interleavings can never leave a
current stamp on a stale destination, and destinations and input
channel ids are resolved per structural change, not per item.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.engine as engine_module
from repro.chaos import FaultInjector
from repro.chaos.plan import DropEnvelope, DuplicateEnvelope, FaultPlan
from repro.errors import RuntimeExecutionError
from repro.recovery import BackupStore, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.envelope import ChannelId
from repro.testing import build_kv_sdg

from tests.runtime.test_scheduler import build_pipeline_sdg


def assert_ready_set_exact(runtime):
    topology = runtime.topology
    live = [inst for inst in topology.all_te_instances()
            if topology.nodes[inst.node_id].alive]
    waiting = [inst for inst in live if inst.inbox]
    cached = topology._candidates
    if cached is not None and cached.version == topology.version:
        # Incremental upkeep, checked before anything can rebuild it.
        assert [cached[at] for at in cached.ready] == waiting
    candidates = topology.candidates()
    assert list(candidates) == live
    assert [candidates[at] for at in candidates.ready] == waiting
    depth = sum(len(inst.inbox) for inst in live)
    assert runtime.metrics.total("runtime_inbox_depth") == depth
    assert runtime.is_idle() == (depth == 0)


def assert_routes_current(runtime):
    """A route stamped with the current version is the current route."""
    topology = runtime.topology
    for channel in runtime.transport.channels():
        if channel.version == topology.version:
            channel_id = channel.channel_id
            assert channel.instance is topology.te_instance(
                channel_id.dst_te, channel_id.dst_instance)


OPS = st.one_of(
    st.tuples(st.just("inject"), st.integers(0, 40)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("scale_up"), st.sampled_from(["route", "serve"])),
    st.tuples(st.just("fail"), st.integers(0, 7)),
    st.tuples(st.just("recover"), st.none()),
    st.tuples(st.just("duplicate"), st.integers(0, 7)),
    st.tuples(st.just("drop"), st.integers(0, 7)),
)


class TestReadySetProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(OPS, max_size=40))
    def test_ready_positions_track_the_inboxes(self, ops):
        runtime = Runtime(
            build_pipeline_sdg(),
            RuntimeConfig(te_instances={"route": 2},
                          se_instances={"table": 3}, max_instances=5),
        ).deploy()
        recovery = RecoveryManager(runtime, BackupStore(m_targets=2))
        recovered = set()

        def dead_nodes():
            return [node_id for node_id, node in runtime.nodes.items()
                    if not node.alive and node_id not in recovered]

        def chaos(fault):
            # Fires from the step hook, right after the next served item.
            injector = FaultInjector(runtime, FaultPlan([fault])).install()
            runtime.step()
            injector.uninstall()

        assert_ready_set_exact(runtime)
        assert_routes_current(runtime)
        for op, arg in ops:
            if op == "inject":
                runtime.inject("route", ("put", f"k{arg}", arg))
            elif op == "step":
                for _ in range(arg):
                    runtime.step()
            elif op == "scale_up":
                try:
                    runtime.scale_up(arg)
                except RuntimeExecutionError:
                    pass  # refused while an instance is failed
            elif op == "fail":
                alive = runtime.alive_nodes()
                if len(alive) > 1:
                    runtime.fail_node(alive[arg % len(alive)].node_id)
            elif op == "recover":
                for node_id in dead_nodes():
                    recovery.recover_node(node_id)
                    recovered.add(node_id)
            elif op == "duplicate":
                chaos(DuplicateEnvelope(at_step=runtime.total_steps + 1,
                                        te="serve", index=arg))
            elif op == "drop" and len(runtime.alive_nodes()) > 1:
                chaos(DropEnvelope(at_step=runtime.total_steps + 1,
                                   te="serve", index=arg))
            assert_ready_set_exact(runtime)
            assert_routes_current(runtime)


def drive(runtime):
    """2,000 injects and a drain, then 200 closed-loop requests."""
    for i in range(2000):
        runtime.inject("serve", ("put", i, i))
    steps = runtime.run_until_idle()
    for i in range(200):
        runtime.inject("serve", ("get", i, None))
        steps += runtime.run_until_idle()
    return steps


class TestStepCostIsFlatInWidth:
    def test_order_is_rebuilt_per_structural_change_not_per_step(self):
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": 256}, max_instances=512),
        ).deploy()
        topology = runtime.topology
        listings = 0
        original = topology.all_te_instances

        def counting():
            nonlocal listings
            listings += 1
            return original()

        topology.all_te_instances = counting
        deployed = topology.version

        assert drive(runtime) == 2200
        assert listings <= 1
        assert runtime.scale_up("serve")
        assert drive(runtime) == 2200
        assert listings <= (topology.version - deployed) + 1
        assert topology.version - deployed == 1


class TestRoutesAreResolvedPerStructuralChange:
    def test_destinations_and_input_channels_are_not_built_per_item(
            self, monkeypatch):
        # Counted, like the guard above. At 2,200 items per drive, a
        # per-item ``te_instance`` lookup or ``ChannelId`` construction
        # overshoots either bound by two orders of magnitude.
        built = []

        def counting_channel_id(*fields):
            built.append(fields)
            return ChannelId(*fields)

        monkeypatch.setattr(engine_module, "ChannelId", counting_channel_id)
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": 4}, max_instances=8),
        ).deploy()
        topology = runtime.topology
        lookups = 0
        original = topology.te_instance

        def counting(te, index):
            nonlocal lookups
            lookups += 1
            return original(te, index)

        topology.te_instance = counting
        deployed = topology.version

        def bound():
            changes = topology.version - deployed
            return len(runtime.transport.channels()) * (changes + 1)

        assert drive(runtime) == 2200
        assert len(runtime.transport.channels()) == 4
        assert lookups <= bound()
        assert runtime.scale_up("serve")
        assert drive(runtime) == 2200
        assert len(runtime.transport.channels()) == 5
        assert lookups <= bound()
        # One id per distinct (entry, index), however many items.
        assert len(built) == len(set(built)) == 5
        assert {fields[3:] for fields in built} == {
            ("serve", index) for index in range(5)}
