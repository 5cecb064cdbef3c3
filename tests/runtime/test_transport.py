"""Unit tests for the transport layer.

Channel bookkeeping, delivery to dead destinations, the per-channel
route cache across failure, replacement and repartition, and unbounded
delivery: a backlog never blocks a producer, and the bottleneck
detector reads only inbox depth.
"""

from collections import Counter

from repro.apps.wordcount import build_wordcount_sdg
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import BottleneckDetector, Runtime, RuntimeConfig
from repro.runtime.envelope import INPUT_EDGE, ChannelId, Envelope
from repro.runtime.instances import SEInstance, TEInstance
from repro.testing import build_kv_sdg
from tests.helpers import input_logs


def deploy_kv(**config):
    config.setdefault("se_instances", {"table": 1})
    return Runtime(build_kv_sdg(), RuntimeConfig(**config)).deploy()


def merged_table(runtime, se="table"):
    merged = {}
    for inst in runtime.se_instances(se):
        merged.update(dict(inst.element.items()))
    return merged


class TestDelivery:
    def test_channel_created_on_first_use_and_counts(self):
        runtime = deploy_kv()
        for i in range(3):
            runtime.inject("serve", ("put", i, i))
        channel_id = ChannelId(INPUT_EDGE, "__input__", 0, "serve", 0)
        assert [c.channel_id for c in runtime.transport.channels()] == [
            channel_id]
        assert runtime.metrics.total("transport_delivered_total") == 3
        assert len(runtime.te_instance("serve", 0).inbox) == 3

    def test_dead_destination_refused_and_counted(self):
        runtime = deploy_kv()
        runtime.inject("serve", ("put", 1, 1))
        node_id = runtime.te_instances("serve")[0].node_id
        runtime.fail_node(node_id)
        runtime.inject("serve", ("put", 2, 2))
        channel_id = ChannelId(INPUT_EDGE, "__input__", 0, "serve", 0)
        assert runtime.metrics.total("transport_refused_total") == 1
        assert runtime.metrics.total("transport_delivered_total") == 1
        # The refused envelope survives in the client-side input log.
        assert len(input_logs(runtime)[channel_id]) == 2


def input_channel(index):
    return ChannelId(INPUT_EDGE, "__input__", 0, "serve", index)


def keys_of_partition(runtime, index, count, start=0):
    """The first ``count`` integer keys >= ``start`` routed to ``index``."""
    spec = runtime.sdg.task("serve")
    keys = []
    key = start
    while len(keys) < count:
        if runtime.topology.routers[spec.name].partition(key) == index:
            keys.append(key)
        key += 1
    return keys


def install_empty_replacement(runtime, index, last_seen=None):
    """A fresh ``serve[index]`` + ``table[index]`` on a new node."""
    instance = TEInstance(runtime.sdg.task("serve"), index)
    instance.last_seen = dict(last_seen or {})
    runtime.install_replacement(
        [instance], [SEInstance(runtime.sdg.state("table"), index)])
    return instance


def run_rows(channel, count, start=1):
    """``count`` wire rows of puts on ``channel``, as a frame holds them."""
    return [(("put", f"r{channel.dst_instance}-{i}", i), ts, channel,
             None, None, None)
            for i, ts in enumerate(range(start, start + count))]


class TestDeliverRun:
    """A run of one channel lands with one call: counted, no clock."""

    def test_a_frame_over_two_routes_is_two_calls_and_two_adds(self):
        runtime = deploy_kv(se_instances={"table": 4})
        transport, topology = runtime.transport, runtime.topology
        candidates = topology.candidates()
        adds = []
        add = candidates.add
        candidates.add = lambda instance: (adds.append(instance),
                                           add(instance))
        frame = [run_rows(input_channel(0), 100),
                 run_rows(input_channel(2), 156)]
        for rows in frame:
            transport.deliver_run(rows)
        metrics = runtime.metrics
        assert metrics.total("transport_delivered_total") == 256
        assert metrics.value("runtime_inbox_depth", te="serve") == 256
        assert [inst.index for inst in adds] == [0, 2]
        inbox = runtime.te_instance("serve", 0).inbox
        assert len(inbox) == 100 and type(inbox[0]) is Envelope
        assert inbox[-1] == frame[0][-1]
        assert runtime.run_until_idle() == 256
        assert metrics.value("runtime_inbox_depth", te="serve") == 0
        assert len(merged_table(runtime)) == 256

    def test_a_run_to_a_dead_node_refuses_each_row(self):
        runtime = deploy_kv(se_instances={"table": 2})
        runtime.fail_node(runtime.te_instance("serve", 1).node_id)
        runtime.transport.deliver_run(run_rows(input_channel(1), 40))
        runtime.transport.deliver_run(run_rows(input_channel(0), 3))
        metrics = runtime.metrics
        assert metrics.total("transport_refused_total") == 40
        assert metrics.total("transport_delivered_total") == 3
        assert metrics.value("runtime_inbox_depth", te="serve") == 3

    def test_a_traced_runtime_sees_every_envelope_delivered(self):
        runtime = deploy_kv(se_instances={"table": 2}, trace=True)
        seen = []
        on_deliver = runtime.tracer.on_deliver
        runtime.tracer.on_deliver = lambda envelope, step: (
            seen.append(envelope.ts), on_deliver(envelope, step))
        runtime.transport.deliver_run(run_rows(input_channel(1), 30))
        assert seen == list(range(1, 31))
        assert runtime.metrics.total("transport_delivered_total") == 30
        assert runtime.run_until_idle() == 30


class TestRouteCache:
    """A ``Channel`` keeps its resolved destination between structural
    changes; each kind of change must invalidate it."""

    def test_deliver_to_a_just_failed_node_is_refused_and_counted(self):
        runtime = deploy_kv(se_instances={"table": 2})
        (key,) = keys_of_partition(runtime, 1, 1)
        runtime.inject("serve", ("put", key, 0))
        channel = runtime.transport.channel(input_channel(1))
        victim = channel.instance
        assert victim is runtime.te_instance("serve", 1)
        runtime.fail_node(victim.node_id)
        runtime.inject("serve", ("put", key, 1))
        assert runtime.metrics.total("transport_delivered_total") == 1
        assert runtime.metrics.total("transport_refused_total") == 1
        assert len(victim.inbox) == 1  # the refused one did not land
        assert channel.instance is None

    def test_same_channel_lands_in_the_replacement_after_install(self):
        runtime = deploy_kv(se_instances={"table": 2})
        (key,) = keys_of_partition(runtime, 1, 1)
        runtime.inject("serve", ("put", key, 0))
        runtime.run_until_idle()
        channel = runtime.transport.channel(input_channel(1))
        old = channel.instance
        runtime.fail_node(old.node_id)
        replacement = install_empty_replacement(runtime, 1)
        runtime.inject("serve", ("put", key, 1))
        assert channel.instance is replacement
        assert [e.payload for e in replacement.inbox] == [("put", key, 1)]
        assert not old.inbox
        assert runtime.transport.channel(input_channel(1)) is channel

    def test_rerouted_envelopes_land_where_keyed_index_says(self):
        runtime = deploy_kv(se_instances={"table": 2}, max_instances=4)
        for key in range(40):
            runtime.inject("serve", ("put", key, key))
        assert runtime.scale_up("serve")  # repartitions 2 -> 3, re-routes
        spec = runtime.sdg.task("serve")
        queued = 0
        for instance in runtime.te_instances("serve"):
            for envelope in instance.inbox:
                queued += 1
                assert envelope.channel.dst_instance == instance.index
                assert runtime.topology.routers[spec.name].partition(
                    envelope.payload[1]) == instance.index
        assert queued == 40
        assert len(runtime.te_instance("serve", 2).inbox) > 0
        runtime.run_until_idle()
        assert merged_table(runtime) == {key: key for key in range(40)}


class TestInputLogTrim:
    def test_items_injected_after_a_trim_are_replayed_exactly_once(self):
        # The input log's lists are held by reference on the inject
        # path: a trim that rebound the dict entry instead of trimming
        # in place would leave later injects appending to an orphan.
        runtime = deploy_kv(se_instances={"table": 2})
        manager = CheckpointManager(runtime, BackupStore(m_targets=2))
        before = keys_of_partition(runtime, 1, 5)
        for key in before:
            runtime.inject("serve", ("put", key, "old"))
        runtime.run_until_idle()
        victim = runtime.te_instance("serve", 1)
        manager.checkpoint(victim.node_id)  # trims the input log
        assert input_logs(runtime)[input_channel(1)] == []
        after = keys_of_partition(runtime, 1, 7, start=before[-1] + 1)
        for key in after:
            runtime.inject("serve", ("put", key, "new"))
        runtime.run_until_idle()
        last_seen = dict(victim.last_seen)
        assert list(last_seen.values()) == [len(before) + len(after)]

        runtime.fail_node(victim.node_id)
        # As restored from the checkpoint: marks stop at the trim point.
        replacement = install_empty_replacement(
            runtime, 1, {stream: len(before) for stream in last_seen})
        assert runtime.replay_rerouted("serve", {1}) == len(after)
        assert runtime.run_until_idle() == len(after)
        assert replacement.processed_count == len(after)
        assert dict(replacement.se_instance.element.items()) == {
            key: "new" for key in after}


    def test_one_slot_checkpoint_empties_the_log_it_alone_fed(self):
        # One log per entry: a checkpoint trims what routes to its own
        # slot, and here every key routes to partition 2.
        runtime = deploy_kv(se_instances={"table": 4})
        manager = CheckpointManager(runtime, BackupStore(m_targets=2))
        for key in keys_of_partition(runtime, 2, 12):
            runtime.inject("serve", ("put", key, key))
        runtime.run_until_idle()
        (log,) = {id(r.log): r.log
                  for r in runtime._entries["serve"].routes}.values()
        assert len(log) == 12
        manager.checkpoint(runtime.te_instance("serve", 2).node_id)
        assert log == []


class TestEmitRoutesAcrossRecovery:
    def test_a_restored_producer_sends_into_its_restored_buffers(self):
        # An emit route holds *the* deque of its channel. A producer
        # restored from a checkpoint gets new deques; a send that still
        # appended to a pre-restore one would be invisible to replay
        # (``output_buffers`` is what recovery reads) and to trimming.
        runtime = Runtime(
            build_wordcount_sdg(),
            RuntimeConfig(te_instances={"split": 2},
                          se_instances={"counts": 3}),
        ).deploy()
        store = BackupStore(m_targets=2)
        checkpoints = CheckpointManager(runtime, store)
        recovery = RecoveryManager(runtime, store)
        oracle = Counter()

        def feed(start):
            for ts in range(start, start + 50):
                line = f"w{ts % 7} w{ts % 5} w{ts % 3} the"
                runtime.inject("split", (ts, line))
                oracle.update((0, word) for word in line.split())

        feed(0)
        runtime.run_until_idle()
        checkpoints.checkpoint_all()
        feed(50)
        for _ in range(80):  # mid-ingest: some lines split, some queued
            runtime.step()
        victim = runtime.te_instance("split", 0)
        assert victim.inbox and any(victim.output_buffers.values())
        runtime.fail_node(victim.node_id)
        recovery.recover_node(victim.node_id)
        restored = runtime.te_instance("split", 0)
        assert restored is not victim

        sent = []
        deliver = runtime.transport.deliver

        def recording(envelope):
            if envelope.channel[:3] == (0, "split", 0):
                sent.append(envelope)
            return deliver(envelope)

        runtime.transport.deliver = recording
        runtime.run_until_idle()
        feed(100)
        runtime.run_until_idle()
        del runtime.transport.deliver

        assert len(sent) >= 25 * 4  # its half of the last 50 lines
        for envelope in sent:
            assert envelope in restored.output_buffers[envelope.channel]
        for channel, buffer in restored.emit_routes.values():
            assert buffer is restored.output_buffers[channel]
        assert merged_table(runtime, "counts") == dict(oracle)
        checkpoints.checkpoint_all()  # the consumers' trim their producers
        assert sum(len(b) for b in restored.output_buffers.values()) == 0
        assert sum(len(b) for _c, b in restored.emit_routes.values()) == 0


class TestBackpressure:
    def test_unbounded_transport_never_blocks(self):
        runtime = deploy_kv()
        for i in range(100):
            runtime.inject("serve", ("put", i, i))
        assert len(runtime.te_instance("serve", 0).inbox) == 100
        assert runtime.metrics.total("transport_delivered_total") == 100
        assert runtime.metrics.total("transport_refused_total") == 0

    def test_no_signal_without_capacity_bound(self):
        # A backlog (10) below the depth threshold flags nothing: inbox
        # depth is the detector's only scaling signal.
        runtime = deploy_kv(scale_threshold=10_000)
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        detector = BottleneckDetector(threshold=10_000, max_instances=4)
        assert detector.bottlenecks(runtime) == []
