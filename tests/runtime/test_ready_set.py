"""The scheduler's ready set stays exact, and cheap.

``Topology.candidates()`` caches the live instances in deployment order
plus one int whose set bits are the positions whose inbox is non-empty.
Two things are pinned here: a Hypothesis property that no interleaving
of inject, step, scale-up, failure, recovery and chaos duplicate/drop
can make that set disagree with the inboxes (or with
``runtime_inbox_depth`` and ``is_idle()``), and a complexity guard —
counted, no wall clock — that the order is rebuilt per structural
change, not per step.

The transport's per-channel route cache (the destination instance kept
on each ``Channel`` record, stamped with ``Topology.version``) is held
to the same two standards: the same interleavings can never leave a
current stamp on a stale destination, and destinations and input
channel ids are resolved per structural change, not per item.

So is the sending half of a hop: the emit routes a ``TEInstance`` keeps
(``(edge, destination)`` -> channel id and output deque) are pinned by a
differential against the uncached ``Transport.send`` they replaced, and
by counted guards on what a send, a serve and a worker-side deliver may
construct or look up per item — nothing.
"""

import types
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.engine as engine_module
import repro.runtime.instances as instances_module
import repro.runtime.transport as transport_module
from repro.chaos import FaultInjector
from repro.chaos.plan import DropEnvelope, DuplicateEnvelope, FaultPlan
from repro.core.elements import TaskContext
from repro.durability.manifest import state_fingerprint
from repro.errors import RecoveryError, RuntimeExecutionError
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.recovery.checkpoint import TEMeta
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.envelope import ChannelId, Envelope
from repro.testing import build_kv_sdg

from tests.runtime.test_scheduler import build_pipeline_sdg


def positions(ready):
    """The set bits of a ready int, ascending."""
    return [at for at in range(ready.bit_length()) if ready >> at & 1]


def assert_ready_set_exact(runtime):
    topology = runtime.topology
    live = [inst for inst in topology.all_te_instances()
            if topology.nodes[inst.node_id].alive]
    waiting = [inst for inst in live if inst.inbox]
    cached = topology._candidates
    if cached.version == topology.version:
        # Incremental upkeep, checked before anything can rebuild it.
        assert [cached[at] for at in positions(cached.ready)] == waiting
    candidates = topology.candidates()
    assert list(candidates) == live
    assert [candidates[at] for at in positions(candidates.ready)] == waiting
    assert [inst.ready_bit for inst in candidates] == [
        1 << at for at in range(len(candidates))]
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


def assert_emit_routes_current(runtime):
    """A cached emit route is what resolving it again would build."""
    for instance in runtime.all_te_instances():
        for (edge_index, dst_index), route in instance.emit_routes.items():
            channel, buffer = route
            assert channel == ChannelId(
                edge_index, instance.name, instance.index,
                runtime.sdg.dataflows[edge_index].dst, dst_index)
            assert buffer is instance.output_buffers[channel]


class Rig:
    """One deployed pipeline and what the op alphabet drives on it."""

    def __init__(self):
        self.runtime = Runtime(
            build_pipeline_sdg(),
            RuntimeConfig(te_instances={"route": 2},
                          se_instances={"table": 3}, max_instances=5),
        ).deploy()
        store = BackupStore(m_targets=2)
        self.checkpoints = CheckpointManager(self.runtime, store)
        self.recovery = RecoveryManager(self.runtime, store)
        self.recovered = set()

    def live_instances(self):
        nodes = self.runtime.nodes
        return [inst for inst in self.runtime.all_te_instances()
                if nodes[inst.node_id].alive]

    def chaos(self, fault):
        # Fires from the step hook, right after the next served item.
        injector = FaultInjector(self.runtime, FaultPlan([fault])).install()
        self.runtime.step()
        injector.uninstall()

    def apply(self, op, arg):
        """Run one op; what recovery refused it with, if it did."""
        try:
            self._apply(op, arg)
        except RecoveryError as exc:
            return str(exc)
        return None

    def _apply(self, op, arg):
        runtime = self.runtime
        if op == "inject":
            runtime.inject("route", ("put" if arg % 3 else "get",
                                     f"k{arg}", arg))
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
            for node_id, node in list(runtime.nodes.items()):
                if not node.alive and node_id not in self.recovered:
                    self.recovery.recover_node(node_id)
                    self.recovered.add(node_id)
        elif op == "duplicate":
            self.chaos(DuplicateEnvelope(at_step=runtime.total_steps + 1,
                                         te="serve", index=arg))
        elif op == "drop" and len(runtime.alive_nodes()) > 1:
            self.chaos(DropEnvelope(at_step=runtime.total_steps + 1,
                                    te="serve", index=arg))
        elif op == "checkpoint":
            alive = runtime.alive_nodes()
            self.checkpoints.checkpoint(alive[arg % len(alive)].node_id)
        elif op == "trim":
            # What a downstream checkpoint does to its producers,
            # without the checkpoint.
            live = self.live_instances()
            consumer = live[arg % len(live)]
            for stream, ts in consumer.last_seen.items():
                runtime.trim_stream(stream, consumer.name, consumer.index,
                                    ts)
        elif op == "resume":
            # What a durable resume does: restore *deployed* instances
            # in place (here each from its own state, so nothing but the
            # identity of its buffers may change).
            for instance in self.live_instances():
                instance.restore_producer_state(TEMeta(
                    out_seq=instance.out_seq,
                    output_buffers=instance.output_buffers,
                    pending_gathers=instance.pending_gathers,
                    processed_count=instance.processed_count))


OPS = st.one_of(
    st.tuples(st.just("inject"), st.integers(0, 40)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("scale_up"), st.sampled_from(["route", "serve"])),
    st.tuples(st.just("fail"), st.integers(0, 7)),
    st.tuples(st.just("recover"), st.none()),
    st.tuples(st.just("duplicate"), st.integers(0, 7)),
    st.tuples(st.just("drop"), st.integers(0, 7)),
)


#: The same alphabet plus the three ops that touch producer-side state.
EMIT_OPS = st.one_of(
    OPS,
    st.tuples(st.just("checkpoint"), st.integers(0, 7)),
    st.tuples(st.just("trim"), st.integers(0, 7)),
    st.tuples(st.just("resume"), st.none()),
)


class TestReadySetProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(OPS, max_size=40))
    def test_ready_positions_track_the_inboxes(self, ops):
        rig = Rig()
        runtime = rig.runtime
        assert_ready_set_exact(runtime)
        assert_routes_current(runtime)
        for op, arg in ops:
            assert rig.apply(op, arg) is None
            assert_ready_set_exact(runtime)
            assert_routes_current(runtime)


def uncached_send(self, src, edge_index, dst_te, dst_index, payload,
                  request_id, expected, trace_id=None):
    """``Transport.send`` as it was before emit routes: nothing kept
    between items, the channel id built and the buffer found per send."""
    channel = ChannelId(edge_index, src.name, src.index, dst_te, dst_index)
    seq = src.out_seq.get(edge_index, 0) + 1
    src.out_seq[edge_index] = seq
    envelope = Envelope(payload, seq, channel, request_id, expected,
                        trace_id)
    src.output_buffers.setdefault(channel, deque()).append(envelope)
    return self.deliver(envelope)


def producer_view(rig):
    """What the sending and receiving halves have left on every live
    instance, in comparable form."""
    return {
        instance.key: (
            instance.out_seq, instance.last_seen,
            {channel: list(buffer)
             for channel, buffer in instance.output_buffers.items()})
        for instance in rig.live_instances()}


class TestEmitRoutesProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(EMIT_OPS, max_size=40))
    def test_cached_sends_match_uncached_sends(self, ops):
        shipped, reference = Rig(), Rig()
        transport = reference.runtime.transport
        transport.send = types.MethodType(uncached_send, transport)
        for op, arg in ops:
            assert shipped.apply(op, arg) == reference.apply(op, arg)
            assert shipped.runtime.results == reference.runtime.results
            assert (state_fingerprint(shipped.runtime)
                    == state_fingerprint(reference.runtime))
            assert producer_view(shipped) == producer_view(reference)
            assert_emit_routes_current(shipped.runtime)
            assert not any(instance.emit_routes for instance
                           in reference.runtime.all_te_instances())


def drive(runtime, entry="serve"):
    """2,000 injects and a drain, then 200 closed-loop requests."""
    for i in range(2000):
        runtime.inject(entry, ("put", i, i))
    steps = runtime.run_until_idle()
    for i in range(200):
        runtime.inject(entry, ("get", i, None))
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


class TestSendsAndServesBuildNothingPerItem:
    def test_one_channel_id_one_deque_per_channel_one_context_per_instance(
            self, monkeypatch):
        # Counted, like the guards above: 2,200 sends and 4,400 serves
        # per drive overshoot any of these bounds a hundredfold if a
        # ``ChannelId``, a ``deque`` or a ``TaskContext`` is built per item.
        built = {"ChannelId": [], "deque": [], "TaskContext": []}

        def counting(name, factory):
            def build(*args, **kwargs):
                built[name].append(args)
                return factory(*args, **kwargs)
            return build

        monkeypatch.setattr(transport_module, "ChannelId",
                            counting("ChannelId", ChannelId))
        monkeypatch.setattr(transport_module, "deque",
                            counting("deque", deque))
        monkeypatch.setattr(instances_module, "TaskContext",
                            counting("TaskContext", TaskContext))
        runtime = Runtime(
            build_pipeline_sdg(),
            RuntimeConfig(te_instances={"route": 2},
                          se_instances={"table": 3}, max_instances=8),
        ).deploy()

        def within_bounds():
            instances = list(runtime.all_te_instances())
            channels = {channel for instance in instances
                        for channel in instance.output_buffers}
            assert len(built["ChannelId"]) <= len(channels)
            assert len(built["deque"]) <= len(channels)
            assert len(built["TaskContext"]) <= len(instances)
            return len(channels)

        assert drive(runtime, "route") == 4400
        assert within_bounds() == 6  # 2 producers x 3 partitions
        assert runtime.scale_up("serve")
        assert drive(runtime, "route") == 4400
        assert within_bounds() > 6
        assert_emit_routes_current(runtime)

    def test_worker_side_deliver_asks_the_placement_per_route_not_per_item(
            self):
        runtime = Runtime(
            build_pipeline_sdg(),
            RuntimeConfig(te_instances={"route": 1},
                          se_instances={"table": 4}, max_instances=8),
        ).deploy()
        topology, transport = runtime.topology, runtime.transport

        class EvenIsLocal:
            asked = 0

            def owner_of(self, te_name, index):
                self.asked += 1
                return index % 2

        placement, shipped = EvenIsLocal(), []
        producer = runtime.te_instance("route", 0)
        deployed = topology.version

        def send_a_thousand():
            for i in range(1000):
                assert transport.send(producer, 0, "serve", i % 4,
                                      ("put", i, i), None, None)

        def split():
            # Shipped to the owning worker, named per route.
            assert {worker for _, worker in shipped} <= {1}
            return ([e.channel.dst_instance for e, _ in shipped],
                    [len(runtime.te_instance("serve", index).inbox)
                     for index in range(4)])

        # What a fork hands a worker: routes resolved without a placement.
        send_a_thousand()
        assert split() == ([], [250] * 4)
        assert runtime.run_until_idle() == 1000
        transport.enable_worker_routing(
            placement, 0,
            lambda envelope, worker: shipped.append((envelope, worker)))
        send_a_thousand()
        assert 0 < placement.asked <= 4
        assert split() == ([1, 3] * 250, [250, 0, 250, 0])
        assert runtime.scale_up("route")  # a structural change
        send_a_thousand()
        assert placement.asked <= 4 * (topology.version - deployed + 1)
        assert topology.version > deployed
        assert split() == ([1, 3] * 500, [500, 0, 500, 0])
