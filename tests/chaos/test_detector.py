"""Heartbeat failure detection: dead, stalled and crashed nodes."""

import pytest

from repro.apps import KeyValueStore
from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND
from repro.runtime import FailureDetector


def put_te_of(app):
    return app.translation.entry_info("put").entry_te


class TestDeadDetection:
    def test_unannounced_kill_is_detected_by_heartbeat_timeout(self):
        """Nothing tells the detector which node died — it notices."""
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(
            app.runtime, heartbeat_timeout=30, check_every=5
        ).install()
        for i in range(40):
            app.put(i, i)
        app.run()
        assert detector.detected() == []

        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)
        # No detection until the heartbeat has been silent long enough.
        for i in range(200):
            app.put(i, i)
        app.run()

        dead = detector.detected("dead")
        assert [e.attrs["node_id"] for e in dead] == [victim]
        assert "no heartbeat" in dead[0].attrs["detail"]

    def test_each_failure_reported_exactly_once(self):
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(
            app.runtime, heartbeat_timeout=10, check_every=2
        ).install()
        victim = app.runtime.se_instance("table", 1).node_id
        app.runtime.fail_node(victim)
        for i in range(300):
            app.put(i, i)
        app.run()
        assert len(detector.detected("dead")) == 1

    def test_preexisting_failures_are_not_reported(self):
        """The detector supervises what happens on its watch only."""
        app = KeyValueStore.launch(table=2)
        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)
        detector = FailureDetector(
            app.runtime, heartbeat_timeout=10, check_every=2
        ).install()
        for i in range(200):
            app.put(i, i)
        app.run()
        assert detector.detected() == []

    def test_listener_invoked_on_detection(self):
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(
            app.runtime, heartbeat_timeout=10, check_every=2
        ).install()
        seen = []
        app.runtime.events.subscribe(seen.append,
                                     kinds=[KIND.FAILURE_DETECTED])
        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)
        for i in range(200):
            app.put(i, i)
        app.run()
        assert [e.attrs["node_id"] for e in seen] == [victim]
        assert seen == detector.detected()


class TestStallDetection:
    def test_paused_node_with_queued_work_is_reported_stalled(self):
        app = KeyValueStore.launch(table=1)
        detector = FailureDetector(
            app.runtime, heartbeat_timeout=1_000, stall_timeout=50,
            check_every=5,
        ).install()
        for i in range(20):
            app.put(i, i)
        app.run()

        node = app.runtime.nodes[app.runtime.se_instance("table", 0).node_id]
        node.speed = 0.0  # paused, not dead: still heartbeating
        for i in range(10):
            app.put(i, i)
        # The engine emits stall ticks while all work sits on the
        # paused node, so logical time still passes for the detector.
        for _ in range(100):
            assert app.runtime.step()

        stalled = detector.detected("stalled")
        assert [e.attrs["node_id"] for e in stalled] == [node.node_id]
        assert detector.detected("dead") == []

    def test_idle_slow_node_is_not_stalled(self):
        """No queued work -> no stall verdict, however long it idles."""
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(
            app.runtime, stall_timeout=20, check_every=2
        ).install()
        idle = app.runtime.nodes[app.runtime.se_instance("table", 1).node_id]
        idle.speed = 0.0
        # Only feed keys owned by partition 0 so partition 1 stays empty.
        part = app.runtime.topology.partitioner("table")
        keys = [k for k in range(400) if part.partition(k) == 0]
        for k in keys:
            app.put(k, k)
        app.run()
        assert detector.detected() == []


class TestCrashDetection:
    def test_task_crash_reported_immediately(self):
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(app.runtime).install()
        instance = app.runtime.te_instances(put_te_of(app))[0]
        instance.crash_next = True
        victim = instance.node_id

        for i in range(20):
            app.put(i, i)
        app.run()

        crashed = detector.detected("crashed")
        assert [e.attrs["node_id"] for e in crashed] == [victim]
        assert "injected fault" in crashed[0].attrs["detail"]
        assert not app.runtime.nodes[victim].alive

    def test_crash_propagates_without_handlers(self):
        """No crash handler registered -> the engine stays loud."""
        app = KeyValueStore.launch(table=1)
        instance = app.runtime.te_instances(put_te_of(app))[0]
        instance.crash_next = True
        app.put(1, 1)
        with pytest.raises(RuntimeExecutionError, match="injected fault"):
            app.run()


class TestValidation:
    def test_rejects_non_positive_intervals(self):
        app = KeyValueStore.launch(table=1)
        with pytest.raises(RuntimeExecutionError):
            FailureDetector(app.runtime, heartbeat_timeout=0)
        with pytest.raises(RuntimeExecutionError):
            FailureDetector(app.runtime, stall_timeout=0)
        with pytest.raises(RuntimeExecutionError):
            FailureDetector(app.runtime, check_every=0)

    def test_install_is_idempotent_and_uninstall_detaches(self):
        app = KeyValueStore.launch(table=2)
        detector = FailureDetector(
            app.runtime, heartbeat_timeout=10, check_every=2
        ).install()
        assert detector.install() is detector
        detector.uninstall()
        victim = app.runtime.se_instance("table", 0).node_id
        app.runtime.fail_node(victim)
        for i in range(200):
            app.put(i, i)
        app.run()
        assert detector.detected() == []
