"""Tests for automatic checkpoint scheduling via the engine step hook."""

import pytest

from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointScheduler,
    RecoveryManager,
)
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.node import PhysicalNode

from tests.helpers import build_kv_sdg, input_logs


def deploy(every_items=50, complete_after=10, n_partitions=1):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": n_partitions}))
    runtime.deploy()
    store = BackupStore(m_targets=2)
    manager = CheckpointManager(runtime, store)
    scheduler = CheckpointScheduler(
        manager, every_items=every_items,
        complete_after_steps=complete_after,
    ).install()
    return runtime, store, manager, scheduler


class TestScheduling:
    def test_checkpoints_fire_periodically(self):
        runtime, store, _manager, scheduler = deploy(every_items=50)
        for i in range(400):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        assert scheduler.completed_count >= 5
        node = runtime.se_instance("table", 0).node_id
        assert store.latest(node) is not None

    def test_checkpoint_window_stays_open_asynchronously(self):
        """Between begin and complete a checkpoint really is open: the
        SE keeps taking writes (journalled for the next cycle) that the
        checkpoint, cut at begin, does not hold."""
        runtime, store, _manager, scheduler = deploy(
            every_items=20, complete_after=1_000_000,
        )
        for i in range(60):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        element = runtime.se_instance("table", 0).element
        assert element.checkpoint_active
        assert len(element.journal()) > 0
        scheduler.flush()
        assert not element.checkpoint_active
        node = runtime.se_instance("table", 0).node_id
        assert store.latest(node).state_entries() < len(element) == 60

    def test_latest_checkpoint_supports_recovery(self):
        runtime, store, _manager, scheduler = deploy(every_items=40)
        rec = RecoveryManager(runtime, store)
        for i in range(300):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        node = runtime.se_instance("table", 0).node_id
        version = store.latest(node).version
        assert version >= 3
        runtime.fail_node(node)
        rec.recover_node(node)
        runtime.run_until_idle()
        merged = dict(runtime.se_instance("table", 0).element.items())
        assert merged == {i: i for i in range(300)}

    def test_buffer_trimming_is_continuous(self):
        """Periodic checkpoints keep upstream buffers bounded: the input
        log never holds more than ~the un-checkpointed suffix."""
        runtime, _store, _manager, scheduler = deploy(
            every_items=25, complete_after=5,
        )
        for i in range(500):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        buffered = sum(
            len(b) for b in input_logs(runtime).values()
        )
        assert buffered < 100

    def test_uninstall_stops_checkpointing(self):
        runtime, _store, _manager, scheduler = deploy(every_items=10)
        scheduler.uninstall()
        for i in range(100):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert scheduler.completed_count == 0

    def test_invalid_intervals_rejected(self):
        runtime, _store, manager, _scheduler = deploy()
        with pytest.raises(ValueError):
            CheckpointScheduler(manager, every_items=0)

    def test_multiple_partitions_checkpoint_independently(self):
        runtime, store, _manager, scheduler = deploy(
            every_items=30, n_partitions=3,
        )
        for i in range(300):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()
        checkpointed_nodes = [
            inst.node_id for inst in runtime.se_instances("table")
            if store.latest(inst.node_id) is not None
        ]
        assert len(checkpointed_nodes) == 3


class TestWalkCost:
    """A step where nothing is due reads no node; checkpoints still
    begin and complete at the steps a walk on every step gives."""

    #: ``b<node>@<step>`` / ``c<node>@<step>``: each ``begin`` and
    #: ``complete`` of the run below, as recorded with a scheduler that
    #: walked every alive node on every step.
    WALK_EVERY_STEP = {
        False: (
            "b0@79 b1@80 c0@86 c1@87 b0@159 b1@160 c0@166 c1@167 b0@239 "
            "b1@240 c0@246 c1@247 b0@301 b1@301 b2@301 c0@308 c1@308 c2@308 "
            "b1@419 b2@420 b0@421 c1@426 c2@427 c0@428 b1@538 b0@540 b2@542 "
            "c1@545 c0@547 c2@549 b0@678 b3@679 c0@685 b2@686 c3@686 c2@693 "
            "b3@796 b0@798 c3@803 c0@805 b2@809 c2@816 b3@916 b0@918"),
        True: (
            "b1@10 b0@11 c1@17 c0@18 b1@22 b0@23 c1@27 c0@27 b0@28 b1@28 "
            "b2@28 c0@35 c1@35 c2@35 b1@38 b0@40 b2@42 c1@45 c0@47 c2@49 "
            "b0@58 b3@59 b2@60 c0@65 c3@66 c2@67 b0@70 b3@71"),
    }

    @pytest.mark.parametrize("optimize,every_items,n", [
        (False, 40, 300),  # one item per step
        (True, 200, 1000),  # runs of up to RUN_MAX items per step
    ])
    def test_checkpoints_begin_and_complete_at_the_same_steps(
            self, optimize, every_items, n):
        runtime = Runtime(build_kv_sdg(), RuntimeConfig(
            se_instances={"table": 2}, optimize=optimize)).deploy()
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(runtime, store)
        calls = []
        begin, complete = manager.begin, manager.complete

        def spy_begin(node_id):
            calls.append(f"b{node_id}@{runtime.total_steps}")
            return begin(node_id)

        def spy_complete(pending):
            calls.append(f"c{pending.node_id}@{runtime.total_steps}")
            return complete(pending)

        manager.begin, manager.complete = spy_begin, spy_complete
        scheduler = CheckpointScheduler(manager, every_items=every_items,
                                        complete_after_steps=7).install()

        def feed(keys):
            for i in range(n):
                runtime.inject("serve", ("put", i % keys, i))
                if i % 150 == 0:
                    runtime.run_until_idle()
            runtime.run_until_idle()

        feed(97)
        scheduler.flush()
        runtime.scale_up("serve")  # a repartition: version and epoch move
        feed(89)
        scheduler.flush()
        node = runtime.te_instance("serve", 1).node_id
        runtime.fail_node(node)  # a restore: the version moves
        RecoveryManager(runtime, store).recover_node(node)
        feed(83)
        assert " ".join(calls) == self.WALK_EVERY_STEP[optimize]

    @staticmethod
    def begun_at(runtime, manager):
        """The steps of ``manager``'s begins, from here on."""
        steps, begin = [], manager.begin
        manager.begin = lambda node_id: (
            steps.append(runtime.total_steps), begin(node_id))[1]
        return steps

    def test_a_flushed_node_begins_again_when_due(self):
        runtime, _store, manager, scheduler = deploy(
            every_items=10, complete_after=1_000_000)
        steps = self.begun_at(runtime, manager)
        for i in range(15):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        scheduler.flush()  # long before its completion step
        for i in range(15, 25):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert steps == [10, 20]

    def test_an_epoch_bump_alone_makes_its_nodes_due(self):
        runtime, _store, manager, _scheduler = deploy(
            every_items=50, complete_after=3, n_partitions=2)
        steps = self.begun_at(runtime, manager)
        for i in range(20):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        # Same fan-out, new epoch; the topology's version stays put.
        version = runtime.topology.version
        runtime.set_partitioner(
            "table", runtime.topology.partitioner("table").rescaled(2))
        assert runtime.topology.version == version
        runtime.inject("serve", ("put", 20, 20))
        runtime.run_until_idle()
        assert steps == [21, 21]

    def test_nodes_are_read_only_on_walks(self, monkeypatch):
        runtime, _store, manager, scheduler = deploy(
            every_items=500, n_partitions=64)
        reads, walks = [], []
        items_processed = PhysicalNode.items_processed.fget
        monkeypatch.setattr(PhysicalNode, "items_processed", property(
            lambda node: reads.append(node) or items_processed(node)))
        alive_nodes = runtime.alive_nodes  # read once per walk
        monkeypatch.setattr(runtime, "alive_nodes", lambda: (
            walks.append(runtime.total_steps), alive_nodes())[1])
        monkeypatch.setattr(manager, "begin", None)  # none is due
        for i in range(5000):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert runtime.total_steps == 5000
        # No completion walks; one version walk, the first step's.
        assert len(walks) <= 5000 // 500 + 1
        assert len(reads) <= 64 * len(walks)
