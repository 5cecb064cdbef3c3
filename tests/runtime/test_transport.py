"""Unit tests for the transport layer.

Channel bookkeeping, payload isolation (the hoisted ``copy`` import),
delivery to dead destinations, the per-channel route cache across
failure, replacement and repartition, and bounded-channel backpressure
— including the end-to-end path where a blocked channel feeds the
bottleneck detector's scale decision.
"""

import copy as stdlib_copy
from collections import Counter

import pytest

import repro.runtime.transport as transport_module
from repro.apps.wordcount import build_wordcount_sdg
from repro.errors import RuntimeExecutionError
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import BottleneckDetector, Runtime, RuntimeConfig
from repro.runtime.envelope import INPUT_EDGE, NO_RESPONSE, ChannelId
from repro.runtime.instances import SEInstance, TEInstance
from repro.testing import build_kv_sdg


def deploy_kv(**config):
    config.setdefault("se_instances", {"table": 1})
    return Runtime(build_kv_sdg(), RuntimeConfig(**config)).deploy()


def merged_table(runtime, se="table"):
    merged = {}
    for inst in runtime.se_instances(se):
        merged.update(dict(inst.element.items()))
    return merged


class TestPayloadIsolation:
    def test_copy_import_hoisted_to_module_level(self):
        # The seed engine re-executed ``import copy`` inside the hot
        # inject/_send paths; it must now be a module-level import.
        assert transport_module.copy is stdlib_copy

    def test_prepare_payload_copies_when_enabled(self):
        runtime = deploy_kv(copy_payloads=True)
        payload = {"a": [1, 2]}
        prepared = runtime.transport.prepare_payload(payload)
        assert prepared == payload and prepared is not payload

    def test_prepare_payload_passthrough_when_disabled(self):
        runtime = deploy_kv()
        payload = {"a": [1, 2]}
        assert runtime.transport.prepare_payload(payload) is payload

    def test_no_response_marker_never_copied(self):
        runtime = deploy_kv(copy_payloads=True)
        assert runtime.transport.prepare_payload(NO_RESPONSE) is NO_RESPONSE

    def test_producer_isolated_from_consumer_mutation(self):
        runtime = deploy_kv(copy_payloads=True)
        value = [1, 2]
        runtime.inject("serve", ("put", "k", value))
        value.append(3)  # client mutates after the send
        runtime.inject("serve", ("get", "k", None))
        runtime.run_until_idle()
        assert runtime.results["serve"] == [("k", [1, 2])]


class TestDelivery:
    def test_channel_created_on_first_use_and_counts(self):
        runtime = deploy_kv()
        for i in range(3):
            runtime.inject("serve", ("put", i, i))
        channel_id = ChannelId(INPUT_EDGE, "__input__", 0, "serve", 0)
        assert runtime.transport.channel(channel_id).delivered == 3

    def test_dead_destination_refused_and_counted(self):
        runtime = deploy_kv()
        runtime.inject("serve", ("put", 1, 1))
        node_id = runtime.te_instances("serve")[0].node_id
        runtime.fail_node(node_id)
        runtime.inject("serve", ("put", 2, 2))
        channel_id = ChannelId(INPUT_EDGE, "__input__", 0, "serve", 0)
        channel = runtime.transport.channel(channel_id)
        assert channel.refused == 1
        # The refused envelope survives in the client-side input log.
        assert len(runtime.input_buffers_snapshot()[channel_id]) == 2


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
        assert (channel.delivered, channel.refused) == (1, 1)
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
        assert runtime.input_buffers_snapshot()[input_channel(1)] == []
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
        assert victim.inbox and victim.buffered_output_count() > 0
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
        assert restored.buffered_output_count() == 0
        assert sum(len(b) for _c, b in restored.emit_routes.values()) == 0


class TestBackpressure:
    def test_unbounded_transport_never_blocks(self):
        runtime = deploy_kv()
        for i in range(100):
            runtime.inject("serve", ("put", i, i))
        assert runtime.blocked_channels() == []

    def test_bounded_channel_reports_backpressure(self):
        runtime = deploy_kv(channel_capacity=4)
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        blocked = runtime.blocked_channels()
        assert blocked, "inbox of 10 over capacity 4 must block"
        assert all(channel.dst_te == "serve" for channel in blocked)

    def test_backpressure_clears_when_destination_drains(self):
        runtime = deploy_kv(channel_capacity=4)
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert runtime.blocked_channels() == []

    def test_blocked_channels_not_reported_before_deploy(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(channel_capacity=4))
        assert runtime.blocked_channels() == []

    def test_detector_consumes_backpressure_signal(self):
        # Mean backlog (10) sits far below the depth threshold, so only
        # the transport's backpressure report can flag the TE.
        runtime = deploy_kv(channel_capacity=4, scale_threshold=10_000)
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        detector = BottleneckDetector(threshold=10_000, max_instances=4)
        assert detector.bottlenecks(runtime) == ["serve"]

    def test_no_signal_without_capacity_bound(self):
        runtime = deploy_kv(scale_threshold=10_000)
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        detector = BottleneckDetector(threshold=10_000, max_instances=4)
        assert detector.bottlenecks(runtime) == []

    def test_backpressure_drives_auto_scale_decision(self):
        # End-to-end: a bounded channel is the *only* scaling signal
        # (the depth threshold is unreachable), and the runtime still
        # reacts by growing the TE and repartitioning its SE.
        runtime = deploy_kv(
            auto_scale=True,
            scale_threshold=10_000,
            channel_capacity=8,
            scale_check_every=25,
            max_instances=4,
        )
        for i in range(200):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert len(runtime.te_instances("serve")) > 1
        assert runtime.scale_events
        assert merged_table(runtime) == {i: i for i in range(200)}


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [0, -4, 2.5, "8", True])
    def test_bad_capacity_rejected_at_deploy(self, bad):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(channel_capacity=bad))
        with pytest.raises(RuntimeExecutionError, match="channel_capacity"):
            runtime.deploy()

    def test_none_capacity_is_valid(self):
        assert deploy_kv(channel_capacity=None).transport.capacity is None

    def test_integer_capacity_is_valid(self):
        assert deploy_kv(channel_capacity=16).transport.capacity == 16
