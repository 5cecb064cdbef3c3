"""The per-item path, counted: Python frames per item, seam calls.

Deploy resolves what an item would otherwise look up (the entry table,
the coordinator's owner per input route), and per-item metric updates
add to a pre-bound cell's ``value``. What deploy must *not* bind are the
seams tools rebind afterwards: ``transport.deliver``,
``substrate.process``, ``scheduler.select`` and ``dispatcher.dispatch``
are looked up on every call. Everything here is a count — profiler
"call" events or wrapper calls — never a clock.
"""

import sys
from collections import Counter

import pytest

from repro.apps.wordcount import build_wordcount_sdg
from repro.errors import RuntimeExecutionError
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg

WORDCOUNT_TEXT = ["the quick brown fox", "jumps over the lazy dog",
                  "the fox", "dog days of state"]


def python_calls(fn) -> int:
    """Python-level "call" events while ``fn()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def kv_ops(n):
    """``n`` alternating puts and gets over 300 keys."""
    return [("put", f"k{i % 300}", i) if i % 2 == 0
            else ("get", f"k{i % 300}", None) for i in range(n)]


class TestCountedHotPath:
    def test_a_kv_item_costs_at_most_26_python_calls(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 4})).deploy()
        for i in range(200):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        ops = kv_ops(1000)

        def inject_all():
            for op in ops:
                runtime.inject("serve", op)

        inject = python_calls(inject_all) / len(ops)
        drain = python_calls(runtime.run_until_idle) / len(ops)
        assert len(runtime.results["serve"]) == 500
        # Entry spec, key function and cell come from one table lookup;
        # the envelope is built by a C-level call; cells are bumped in
        # place. What is left: inject, the key function, the partition
        # (keyed_index, partition, stable_hash), _inject_to and the two
        # deliver seams.
        assert inject <= 9, inject
        assert inject + drain <= 26, (inject, drain)

    def test_coordinator_deliver_asks_the_placement_per_route_not_per_item(
            self):
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": 4},
                          substrate="multiprocess", workers=2),
        ).deploy()
        substrate = runtime.substrate
        placement = substrate.placement

        class Counting:
            asked = 0

            def owner_of(self, te_name, index):
                self.asked += 1
                return placement.owner_of(te_name, index)

        substrate.placement = counting = Counting()
        try:
            for i in range(1000):
                runtime.inject("serve", ("put", f"k{i}", i))
            assert runtime.run_until_idle() == 1000
            # One input route per partition of the one entry.
            assert 0 < counting.asked <= 4
            for i in range(1000):
                runtime.inject("serve", ("get", f"k{i}", None))
            assert runtime.run_until_idle() == 1000
            assert counting.asked <= 4
            assert sorted(runtime.results["serve"]) == sorted(
                (f"k{i}", i) for i in range(1000))
        finally:
            runtime.close()


class TestEntryTable:
    def test_an_entry_before_deploy_is_a_runtime_error(self):
        runtime = Runtime(build_kv_sdg())
        for entry in ("serve", "nope"):
            with pytest.raises(RuntimeExecutionError, match="not deployed"):
                runtime.inject(entry, ("put", "a", 1))

    def test_unknown_and_non_entry_tes_are_refused(self):
        runtime = Runtime(build_wordcount_sdg(),
                          RuntimeConfig(se_instances={"counts": 2})).deploy()
        with pytest.raises(KeyError):
            runtime.inject("nope", (0, "a b"))
        non_entry = next(name for name, spec in runtime.sdg.tasks.items()
                         if not spec.is_entry)
        with pytest.raises(RuntimeExecutionError, match="not an entry"):
            runtime.inject(non_entry, "a")
        assert runtime.metrics.total("engine_items_injected_total") == 0


def wrap_seams(runtime) -> Counter:
    """Replace the four per-item seams with counting wrappers."""
    seen = Counter()

    def counting(name, owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    counting("deliver", runtime.transport, "deliver")
    counting("process", runtime.substrate, "process")
    counting("select", runtime.scheduler, "select")
    counting("dispatch", runtime.dispatcher, "dispatch")
    return seen


def drive_kv(runtime):
    for i in range(200):
        runtime.inject("serve", ("put", f"k{i % 50}", i))
    for op in kv_ops(400):
        runtime.inject("serve", op)
    runtime.run_until_idle()


def drive_wordcount(runtime):
    for i in range(80):
        runtime.inject("split", (i, WORDCOUNT_TEXT[i % 4]))
    runtime.run_until_idle()


class TestSeamsStayLive:
    """Wrappers installed after ``deploy()`` see every call."""

    @pytest.mark.parametrize("build, se, drive", [
        (build_kv_sdg, "table", drive_kv),
        (build_wordcount_sdg, "counts", drive_wordcount),
    ], ids=["kv", "wordcount"])
    def test_wrappers_see_every_delivery_serve_step_and_dispatch(
            self, build, se, drive):
        runtime = Runtime(build(), RuntimeConfig(se_instances={se: 4}))
        runtime.deploy()
        seen = wrap_seams(runtime)
        drive(runtime)
        metrics = runtime.metrics
        injected = metrics.total("engine_items_injected_total")
        sent = metrics.total("dispatch_items_total")
        processed = metrics.total("engine_items_processed_total")
        assert injected > 0 and processed > injected - 1
        # Every injected item and every send reaches the inbox through
        # ``transport.deliver``.
        assert seen["deliver"] == injected + sent
        assert seen["deliver"] == metrics.total("transport_delivered_total")
        # Without coalescing, one step serves one envelope.
        assert seen["process"] == processed
        assert seen["select"] == metrics.total("engine_steps_total")
        assert seen["select"] == processed
        non_terminal = sum(
            metrics.value("engine_items_processed_total", te=te)
            for te in runtime.sdg.tasks
            if runtime.dispatcher.successors(te))
        assert seen["dispatch"] == non_terminal
        if build is build_wordcount_sdg:
            assert seen["dispatch"] > 0 and sent > injected
