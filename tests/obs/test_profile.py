"""Tests for the wall-clock phase profiler."""

import pytest

from repro.obs import (
    NULL_PROBE,
    NULL_REGISTRY,
    PHASES,
    MetricsRegistry,
    Probe,
    ProfileRegistry,
)
from repro.apps.wordcount import build_wordcount_sdg
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg


class TestProfileRegistry:
    def test_phase_timer_accumulates(self):
        reg = ProfileRegistry()
        timer = reg.phase("process")
        timer.add(0.5)
        timer.add(0.25)
        assert reg.seconds("process") == 0.75
        assert reg.count("process") == 2
        assert timer.mean == 0.375

    def test_phase_is_get_or_create(self):
        reg = ProfileRegistry()
        assert reg.phase("x") is reg.phase("x")
        assert reg.seconds("never") == 0.0
        assert reg.count("never") == 0

    def test_canonical_vocabulary_is_stable(self):
        assert PHASES == ("process", "dispatch", "serialize",
                          "wire_wait", "checkpoint", "recovery")

    def test_phases_are_metric_series(self):
        metrics = MetricsRegistry()
        ProfileRegistry(metrics).add("process", 0.5)
        assert metrics.value("profile_seconds_total", phase="process") == 0.5
        assert metrics.value("profile_calls_total", phase="process") == 1

    def test_null_registry_records_nothing(self):
        reg = ProfileRegistry(NULL_REGISTRY)
        reg.phase("process").add(0.5)
        with Probe(profiler=reg).span("checkpoint"):
            pass
        assert reg.names() == [] and reg.count("process") == 0
        assert reg.render() == "(no phases recorded)"

    def test_reset_zeroes_in_place(self):
        metrics = MetricsRegistry()
        reg = ProfileRegistry(metrics)
        timer = reg.phase("dispatch")
        timer.add(1.0)
        metrics.reset()
        # The pre-bound timer object survives the registry reset
        # (workers re-use inherited bindings after a fork).
        assert timer.seconds == 0.0 and timer.count == 0
        timer.add(0.5)
        assert reg.seconds("dispatch") == 0.5

    def test_snapshot_merge_roundtrip(self):
        # Phases ride the metrics shard: the merged registry's view
        # sums every shard's phases.
        a, b = MetricsRegistry(), MetricsRegistry()
        ProfileRegistry(a).add("process", 1.0)
        ProfileRegistry(a).add("process", 1.0)
        ProfileRegistry(b).add("process", 0.5)
        ProfileRegistry(b).add("serialize", 0.25)
        merged = ProfileRegistry(a.merged_with([b.snapshot()]))
        assert merged.seconds("process") == 2.5
        assert merged.count("process") == 3
        assert merged.seconds("serialize") == 0.25
        # Non-destructive: the sources are untouched.
        assert ProfileRegistry(a).seconds("process") == 2.0
        assert ProfileRegistry(b).seconds("process") == 0.5

    def test_repeated_merges_never_double_count(self):
        # Shards are cumulative snapshots; merged_with builds a fresh
        # registry each call, so polling twice must not double.
        base, worker = MetricsRegistry(), MetricsRegistry()
        ProfileRegistry(base).add("checkpoint", 1.0)
        ProfileRegistry(worker).add("process", 2.0)
        shard = worker.snapshot()
        first = ProfileRegistry(base.merged_with([shard]))
        second = ProfileRegistry(base.merged_with([shard]))
        assert first.seconds("process") == second.seconds("process") == 2.0

    def test_breakdown_and_render(self):
        reg = ProfileRegistry()
        reg.add("process", 0.004)
        reg.add("process", 0.002)
        breakdown = reg.breakdown()
        assert breakdown["process"]["count"] == 2
        assert breakdown["process"]["mean_ms"] == pytest.approx(3.0)
        text = reg.render()
        assert "process" in text and "calls" in text
        assert ProfileRegistry().render() == "(no phases recorded)"


class TestProfileSpan:
    def test_span_records_and_none_is_noop(self):
        reg = ProfileRegistry()
        with Probe(profiler=reg).span("recovery"):
            pass
        assert reg.count("recovery") == 1
        with NULL_PROBE.span("recovery"):
            pass  # must not raise

    def test_span_records_on_exception(self):
        reg = ProfileRegistry()
        with pytest.raises(ValueError):
            with Probe(profiler=reg).span("checkpoint"):
                raise ValueError("boom")
        assert reg.count("checkpoint") == 1


class TestEngineIntegration:
    def test_profile_off_by_default(self):
        runtime = Runtime(build_kv_sdg()).deploy()
        assert runtime.profiler is None
        assert runtime.merged_profile() is None

    def test_inprocess_run_populates_engine_phases(self):
        # ``process`` times every served item; ``dispatch`` every
        # ``dispatcher.dispatch`` call: one per line the splitter
        # served, none for the terminal count's words.
        config = RuntimeConfig(se_instances={"counts": 2}, profile=True)
        runtime = Runtime(build_wordcount_sdg(), config).deploy()
        for i in range(25):
            runtime.inject("split", (i, f"w{i % 7} w{i % 3} shared"))
        runtime.run_until_idle()
        profile = runtime.merged_profile()
        assert profile.count("process") == 25 + 3 * 25
        assert profile.count("process") == runtime.metrics.total(
            "engine_items_processed_total")
        assert profile.count("dispatch") == 25
        # Dispatch nests inside the serve it is called from.
        assert profile.seconds("process") >= profile.seconds("dispatch")

    def test_checkpoint_and_recovery_spans(self):
        from repro.recovery import (
            BackupStore,
            CheckpointManager,
            RecoveryManager,
        )

        config = RuntimeConfig(se_instances={"table": 2}, profile=True)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        for i in range(10):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        store = BackupStore()
        CheckpointManager(runtime, store).checkpoint_all()
        assert runtime.profiler.count("checkpoint") > 0
        victim = runtime.se_instance("table", 0).node_id
        runtime.fail_node(victim)
        RecoveryManager(runtime, store).recover_node(victim)
        runtime.run_until_idle()
        assert runtime.profiler.count("recovery") == 1
