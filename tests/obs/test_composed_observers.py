"""Tracing, profiling and the flight recorder, all on at once.

The three per-envelope recorders observe one event — an instance serves
an envelope at logical step *s* — through one probe, which wraps the
serve seam. These tests pin what they report together, on wordcount
(a splitter whose outputs go through the dispatcher, into a terminal
keyed count), in-process across a failure with checkpoint replay and on
a 2-worker fleet:

* flight ``serve`` entries and trace hops are taken for every envelope
  served, one whose task raised included, a dropped replay duplicate
  not, so there is exactly one entry per hop;
* ``process`` counts every envelope handed to the substrate (replay
  duplicates included), ``dispatch`` every ``dispatcher.dispatch``
  call: one per splitter item, none for a terminal TE's.
"""

import pytest

from repro.apps.wordcount import build_wordcount_sdg
from repro.chaos import FaultInjector
from repro.chaos.plan import DuplicateEnvelope, FaultPlan
from repro.errors import RuntimeExecutionError
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig

ALL_ON = dict(trace=True, profile=True, flight_recorder=256)
TEXT = ["the quick brown fox", "jumps over the lazy dog", "the fox",
        "dog days of state"]
#: Words in each four lines of ``TEXT``.
WORDS = sum(len(line.split()) for line in TEXT)


def observed(runtime):
    """``(flight serves, hops, replayed hops, process, dispatch)``."""
    serves = [e for e in runtime.flight.dump() if e["kind"] == "serve"]
    traces = runtime.tracer.traces()
    profile = runtime.merged_profile()
    return (len(serves), sum(len(t.hops) for t in traces),
            sum(t.replayed_hops for t in traces),
            profile.count("process"), profile.count("dispatch"))


def split_hops(runtime):
    return sum(1 for trace in runtime.tracer.traces()
               for hop in trace.hops if hop.te == "split")


def inject_lines(runtime, first, last):
    for i in range(first, last):
        runtime.inject("split", (i, TEXT[i % 4]))


class TestComposedObservers:
    def test_inprocess_failure_and_checkpoint_replay(self):
        config = RuntimeConfig(se_instances={"counts": 2}, **ALL_ON)
        runtime = Runtime(build_wordcount_sdg(), config).deploy()
        inject_lines(runtime, 0, 12)
        runtime.run_until_idle()
        store = BackupStore()
        # The input log is kept whole, so recovery re-delivers the
        # pre-checkpoint lines too: replay duplicates to drop.
        CheckpointManager(runtime, store,
                          trim_input_log=False).checkpoint_all()
        inject_lines(runtime, 12, 20)
        runtime.run_until_idle()
        victim = runtime.te_instance("split", 0).node_id
        runtime.fail_node(victim)
        RecoveryManager(runtime, store).recover_node(victim)
        runtime.run_until_idle()

        serves, hops, replayed, process, dispatch = observed(runtime)
        duplicates = process - hops
        assert replayed > 0 and duplicates > 0
        # 20 lines and their words served first, then the
        # post-checkpoint lines re-executed on the replacement (whose
        # words the counts drop as duplicates).
        assert hops == 20 + 5 * WORDS + replayed
        # One dispatch per splitter item served, none per count.
        assert dispatch == split_hops(runtime) == 20 + replayed
        # Every dropped duplicate was handed to the substrate, timed,
        # and neither traced nor recorded.
        assert duplicates == sum(node.duplicates_dropped
                                 for node in runtime.nodes.values())
        assert process == hops + duplicates == (
            runtime.metrics.total("engine_items_processed_total")
            + duplicates)
        # Flight entries are taken like hops: one per served envelope,
        # none per dropped duplicate.
        assert serves == hops
        notes = [e for e in runtime.flight.dump()
                 if e["kind"] == "node_failed"]
        assert [e["node"] for e in notes] == [victim]
        # No wire on this substrate: no 0-call wire phase rows.
        names = set(runtime.merged_profile().names())
        assert {"process", "dispatch", "checkpoint", "recovery"} <= names
        assert not names & {"serialize", "wire_wait"}

    def test_two_workers_report_the_same_counts(self):
        def run(**substrate):
            config = RuntimeConfig(se_instances={"counts": 2},
                                   **substrate, **ALL_ON)
            with Runtime(build_wordcount_sdg(), config).deploy() as runtime:
                inject_lines(runtime, 0, 20)
                runtime.run_until_idle()
                return observed(runtime)

        inprocess = run()
        fleet = run(substrate="multiprocess", workers=2)
        items = 20 + 5 * WORDS
        assert inprocess == (items, items, 0, items, 20)
        # Each worker keeps its own ring; the coordinator serves
        # nothing, so its ring holds no envelope digests.
        assert fleet == (0,) + inprocess[1:]

    def test_a_dropped_duplicate_is_no_hop_and_a_raising_task_is_one(
            self):
        config = RuntimeConfig(se_instances={"counts": 2}, **ALL_ON)
        runtime = Runtime(build_wordcount_sdg(), config).deploy()
        inject_lines(runtime, 0, 4)
        runtime.run_until_idle()
        assert observed(runtime) == (4 + WORDS, 4 + WORDS, 0,
                                     4 + WORDS, 4)
        # A chaos duplicate of the second line, queued behind it once
        # the first line is served.
        FaultInjector(runtime, FaultPlan([DuplicateEnvelope(
            at_step=runtime.total_steps + 1, te="split")])).install()
        inject_lines(runtime, 4, 6)
        runtime.run_until_idle()
        # By hand: two lines and their 9 words served, one copy of the
        # second line handed to the substrate and dropped.
        assert observed(runtime) == (4 + WORDS + 11, 4 + WORDS + 11, 0,
                                     4 + WORDS + 12, 6)
        # A line the task cannot split raises out of the drain (no
        # crash handler): it is served, so it is a hop and an entry.
        runtime.inject("split", (6, None))
        with pytest.raises(RuntimeExecutionError, match="failed on"):
            runtime.run_until_idle()
        assert observed(runtime) == (4 + WORDS + 12, 4 + WORDS + 12, 0,
                                     4 + WORDS + 13, 6)
        assert runtime.metrics.total("engine_items_processed_total") == (
            4 + WORDS + 11)
