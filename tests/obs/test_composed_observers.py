"""Tracing, profiling and the flight recorder, all on at once.

The three per-envelope recorders observe one event — an instance serves
an envelope at logical step *s* — through one probe. These tests pin
what they report together, in-process across a failure with checkpoint
replay and on a 2-worker fleet:

* flight ``serve`` entries are taken after replay dedup, so there is
  exactly one per trace hop;
* ``process`` counts every envelope handed to the substrate (replay
  duplicates included), ``dispatch`` every envelope that reached its
  dispatch.
"""

from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg

ALL_ON = dict(trace=True, profile=True, flight_recorder=64)


def observed(runtime):
    """``(flight serves, hops, replayed hops, process, dispatch)``."""
    serves = [e for e in runtime.flight.dump() if e["kind"] == "serve"]
    traces = runtime.tracer.traces()
    profile = runtime.merged_profile()
    return (len(serves), sum(len(t.hops) for t in traces),
            sum(t.replayed_hops for t in traces),
            profile.count("process"), profile.count("dispatch"))


class TestComposedObservers:
    def test_inprocess_failure_and_checkpoint_replay(self):
        config = RuntimeConfig(se_instances={"table": 2}, **ALL_ON)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        for i in range(12):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        store = BackupStore()
        # The input log is kept whole, so recovery re-delivers the
        # pre-checkpoint envelopes too: replay duplicates to drop.
        CheckpointManager(runtime, store,
                          trim_input_log=False).checkpoint_all()
        for i in range(12, 20):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        victim = runtime.se_instance("table", 0).node_id
        owned = runtime.se_instance("table", 0).element.items()
        runtime.fail_node(victim)
        RecoveryManager(runtime, store).recover_node(victim)
        runtime.run_until_idle()

        serves, hops, replayed, process, dispatch = observed(runtime)
        duplicates = process - dispatch
        assert replayed > 0 and duplicates > 0
        # 20 first services, then the post-checkpoint puts partition 0
        # had served, re-executed on the replacement.
        assert hops == 20 + replayed
        assert dispatch == hops
        # Partition 0's pre-checkpoint puts came back and were dropped.
        assert replayed + duplicates == len(owned)
        # Flight entries are taken after replay dedup, like hops: one
        # per served envelope, none per dropped duplicate.
        assert serves == hops
        notes = [e for e in runtime.flight.dump()
                 if e["kind"] == "node_failed"]
        assert [e["node"] for e in notes] == [victim]
        # No wire on this substrate: no 0-call wire phase rows.
        names = set(runtime.merged_profile().names())
        assert {"checkpoint", "recovery"} <= names
        assert not names & {"serialize", "wire_wait"}

    def test_two_workers_report_the_same_counts(self):
        def run(**substrate):
            config = RuntimeConfig(se_instances={"table": 2},
                                   **substrate, **ALL_ON)
            with Runtime(build_kv_sdg(), config).deploy() as runtime:
                for i in range(20):
                    runtime.inject("serve", ("put", f"k{i}", i))
                runtime.run_until_idle()
                return observed(runtime)

        inprocess = run()
        fleet = run(substrate="multiprocess", workers=2)
        assert inprocess == (20, 20, 0, 20, 20)
        # Each worker keeps its own ring; the coordinator serves
        # nothing, so its ring holds no envelope digests.
        assert fleet == (0,) + inprocess[1:]
