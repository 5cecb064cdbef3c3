"""Tests for the streaming windowed wordcount application (§6.1)."""

from collections import Counter

import pytest

from repro.apps import build_wordcount_sdg
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig


def deploy(window_size=100, partitions=4):
    runtime = Runtime(
        build_wordcount_sdg(window_size=window_size),
        RuntimeConfig(se_instances={"counts": partitions}),
    )
    return runtime.deploy()


LINES = [
    (0, "the quick brown fox"),
    (10, "the lazy dog"),
    (120, "the fox again"),
    (130, "fox fox fox"),
]


def reference_counts(lines, window_size):
    counts = Counter()
    for timestamp, line in lines:
        for word in line.split():
            counts[(timestamp // window_size, word)] += 1
    return counts


def assert_owned(runtime):
    """Each stored ``(window, word)`` sits in the partition its route key
    (the word) maps to."""
    route_key = runtime.sdg.state("counts").route_key
    partitioner = runtime.topology.partitioner("counts")
    for inst in runtime.se_instances("counts"):
        for key in inst.element.keys():
            assert partitioner.partition(route_key(key)) == inst.index, key


def ingest(runtime, lines):
    for item in lines:
        runtime.inject("split", item)
    runtime.run_until_idle()


def assert_counts_once(runtime, expected):
    """Every count sits in exactly one partition and equals ``expected``."""
    holders = Counter()
    merged = {}
    for inst in runtime.se_instances("counts"):
        for key, value in inst.element.items():
            holders[key] += 1
            merged[key] = value
    assert set(holders.values()) == {1}
    assert merged == dict(expected)


class TestWordCount:
    def test_counts_match_reference(self):
        runtime = deploy(window_size=100)
        for item in LINES:
            runtime.inject("split", item)
        runtime.run_until_idle()
        expected = reference_counts(LINES, 100)
        merged = {}
        for inst in runtime.se_instances("counts"):
            merged.update(dict(inst.element.items()))
        assert merged == dict(expected)

    def test_windows_separate_counts(self):
        runtime = deploy(window_size=100)
        for item in LINES:
            runtime.inject("split", item)
        runtime.run_until_idle()
        runtime.inject("query", (0, "the"))
        runtime.inject("query", (1, "the"))
        runtime.inject("query", (1, "fox"))
        runtime.run_until_idle()
        assert sorted(runtime.results["query"]) == [
            (0, "the", 2), (1, "fox", 4), (1, "the", 1),
        ]

    def test_missing_word_counts_zero(self):
        runtime = deploy()
        runtime.inject("query", (0, "nothing"))
        runtime.run_until_idle()
        assert runtime.results["query"] == [(0, "nothing", 0)]

    def test_smaller_windows_make_finer_updates(self):
        fine = deploy(window_size=10)
        for item in LINES:
            fine.inject("split", item)
        fine.run_until_idle()
        merged = {}
        for inst in fine.se_instances("counts"):
            merged.update(dict(inst.element.items()))
        # With 10-unit windows, each line lands in its own window.
        assert merged == dict(reference_counts(LINES, 10))
        windows = {window for (window, _word) in merged}
        assert len(windows) == 4

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            build_wordcount_sdg(window_size=0)

    def test_words_partitioned_consistently(self):
        runtime = deploy(partitions=3)
        for item in LINES:
            runtime.inject("split", item)
        runtime.run_until_idle()
        assert_owned(runtime)


class TestResplitKeepsWordsTogether:
    """A re-split of ``counts`` places each ``(window, word)`` where the
    word's items go, so a second pass adds to the same count."""

    def test_one_to_n_restore_then_second_pass(self):
        runtime = deploy(partitions=1)
        store = BackupStore()
        ingest(runtime, LINES)
        CheckpointManager(runtime, store).checkpoint_all()
        (count,) = runtime.te_instances("count")
        runtime.fail_node(count.node_id)
        RecoveryManager(runtime, store).recover_node(count.node_id, n_new=3)
        assert_owned(runtime)
        ingest(runtime, LINES)
        assert_owned(runtime)
        assert_counts_once(runtime, reference_counts(LINES + LINES, 100))

    def test_scale_up_twice_then_second_pass(self):
        runtime = deploy(partitions=1)
        ingest(runtime, LINES)
        assert runtime.scale_up("count") and runtime.scale_up("count")
        assert len(runtime.se_instances("counts")) == 3
        assert_owned(runtime)
        ingest(runtime, LINES)
        assert_owned(runtime)
        assert_counts_once(runtime, reference_counts(LINES + LINES, 100))
