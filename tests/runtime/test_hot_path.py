"""The per-item path, counted: Python frames per item, seam calls.

Deploy resolves what an item would otherwise look up (the entry table,
the coordinator's owner per input route), and per-item metric updates
add to a pre-bound cell's ``value``. What deploy must *not* bind are the
seams tools rebind afterwards: ``transport.deliver`` and
``dispatcher.dispatch`` are looked up on every call, and the drain loop
reads ``substrate.process`` and ``scheduler.select`` once per drain and
again after a step hook ran. Everything here is a count — profiler
"call" events or wrapper calls — never a clock.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.apps.wordcount import build_wordcount_sdg
from repro.errors import RuntimeExecutionError
from repro.obs.flight import FlightRecorder
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg
from tests.helpers import input_logs

WORDCOUNT_TEXT = ["the quick brown fox", "jumps over the lazy dog",
                  "the fox", "dog days of state"]


def python_calls(fn) -> int:
    """Python-level "call" events while ``fn()`` runs.

    The collector is off meanwhile: a collection would run the
    finalizers of whatever garbage is pending inside the count.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def kv_ops(n):
    """``n`` alternating puts and gets over 300 keys."""
    return [("put", f"k{i % 300}", i) if i % 2 == 0
            else ("get", f"k{i % 300}", None) for i in range(n)]


class TestCountedHotPath:
    def test_a_kv_item_costs_at_most_20_python_calls(self):
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
        # Entry spec, key function, cell, seq and routes come from one
        # table lookup, the route by list index; inject hands a plain
        # row to the substrate's deliver, which builds the envelope by a
        # C-level call in its own frame; cells are bumped in place. What
        # is left of inject: itself, the key function, the partition
        # (one frame for a str key) and the two deliver seams (the
        # ready bit of an inbox that was empty is set inline). Of the
        # drain: select, _serve (bound as
        # substrate.process, so no frame of the substrate's, and with
        # no recorder on no probe around it), the task and its one
        # KeyValueMap op. No probe call, no count but the instance's
        # own and total_steps (the rest are read from those), no
        # context store (stamped when the topology changes) and no
        # result stamp (nothing can replay, so no filter is built).
        # The drain loop, the cached candidates, the ready bits and the
        # task's emits cost no call per item; the hundredths are per
        # batch (the drain's own frames).
        assert inject <= 5.01, inject
        assert drain <= 4.01, drain
        assert inject + drain <= 9.02, (inject, drain)

    @pytest.mark.parametrize("partitions", [4, 256])
    def test_a_closed_loop_get_costs_at_most_12_python_calls(
            self, partitions):
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": partitions})).deploy()
        for i in range(300):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        gets = [("get", f"k{i}", None) for i in range(300)]

        def closed_loop():
            for op in gets:
                runtime.inject("serve", op)
                runtime.run_until_idle()

        per_request = (python_calls(closed_loop) - 1) / len(gets)
        assert runtime.results["serve"] == [(f"k{i}", i) for i in range(300)]
        # The five of a keyed inject (see above), and of the drain:
        # run_until_idle, the substrate's, _drain, select, _serve, the
        # task and its one KeyValueMap op. The deploy guard is tested
        # inline, the ready bit is set by the transport and cleared by
        # the drain without a call, and with no recorder on the drain
        # reads substrate.process without asking the probe; the width
        # of the ready int costs no call.
        assert per_request <= 12, per_request

    def test_a_coordinator_inject_costs_at_most_4_python_calls(self):
        # On a fleet the coordinator builds no envelope: inject, the key
        # function, the partition and the substrate's deliver, which
        # finds the owning worker and the route's pending rows on the
        # route itself; framing is paid per run of 256, not per item.
        config = RuntimeConfig(se_instances={"table": 4},
                               substrate="multiprocess", workers=2)
        with Runtime(build_kv_sdg(), config).deploy() as runtime:
            runtime.run_until_idle()
            ops = kv_ops(2000)

            def inject_all():
                for op in ops:
                    runtime.inject("serve", op)

            inject = python_calls(inject_all) / len(ops)
            assert runtime.run_until_idle() == len(ops)
        assert inject <= 4.05, inject

    def test_a_keyed_send_costs_at_most_4_python_calls_per_item(self):
        runtime = Runtime(build_wordcount_sdg(),
                          RuntimeConfig(se_instances={"counts": 4})).deploy()
        runtime.inject("split", (0, WORDCOUNT_TEXT[0]))
        runtime.run_until_idle()
        (split,) = runtime.te_instances("split")
        ((edge_index, edge),) = runtime.dispatcher.successors("split")
        ((_channel, (cause,)),) = input_logs(runtime).items()
        outputs = [(0, word) for line in WORDCOUNT_TEXT * 16
                   for word in line.split()]

        def send(items):
            calls = python_calls(lambda: runtime.dispatcher.key_partitioned(
                split, edge_index, edge, items, cause))
            runtime.run_until_idle()
            return calls

        send(outputs)  # routes and channels are opened on first use
        per_item = (send(outputs * 2) - send(outputs)) / len(outputs)
        # Per output item: the key function, the partition (the
        # destination's router is read once per call, not per item) and
        # the two seams, transport.send and transport.deliver.
        assert per_item <= 4, per_item
        counts = dict(kv for inst in runtime.se_instances("counts")
                      for kv in inst.element.items())
        assert counts[(0, "the")] == 1 + 4 * 16 * 3

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
        with runtime:
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
    """Wrappers installed after ``deploy()`` see every call.

    ``transport.deliver`` and ``dispatcher.dispatch`` are looked up per
    call; ``substrate.process`` and ``scheduler.select`` are read once
    per drain, and again after any step hook ran, so a wrapper installed
    between two calls, or by a hook mid-drain, sees every later step.
    """

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

    def test_a_hook_that_rebinds_process_mid_drain_sees_every_later_step(
            self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 4})).deploy()
        for i in range(100):
            runtime.inject("serve", ("put", f"k{i}", i))
        original = runtime.substrate.process
        seen = []

        def wrapper(instance, envelope):
            seen.append(runtime.total_steps)
            return original(instance, envelope)

        def rebind(runtime):
            if runtime.total_steps == 40:
                runtime.substrate.process = wrapper
                runtime.remove_step_hook(rebind)

        runtime.add_step_hook(rebind)
        assert runtime.run_until_idle() == 100
        # Steps 41..100, each once: the hook's own step went unwrapped.
        assert seen == list(range(40, 100))
        assert runtime.metrics.total("engine_items_processed_total") == 100

    def test_a_flight_attached_between_drains_records_every_later_serve(
            self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 4})).deploy()
        seen = wrap_seams(runtime)
        for i in range(30):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        assert runtime.flight is None
        runtime.attach_flight(FlightRecorder(capacity=100))
        for i in range(30, 70):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        serves = [e for e in runtime.flight.dump() if e["kind"] == "serve"]
        # Every serve of the second drain, at the step it began, and
        # the tool's wrapper under the probe still saw every call.
        assert [e["step"] for e in serves] == list(range(30, 70))
        assert seen["process"] == 70
        assert runtime.metrics.total("engine_items_processed_total") == 70
