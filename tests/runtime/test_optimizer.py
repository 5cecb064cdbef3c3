"""Tests for capability-driven dispatch (``RuntimeConfig(optimize=True)``).

The optimizer's contract has two halves, and the suite pins both:

*Soundness* — the relaxed path is gated on a certificate. Uncertified
programs deployed with ``optimize=True`` take the exact baseline path:
every step serves one envelope, and the differentials below prove
``state_fingerprint`` equality between optimized and baseline runs on
both substrates — alone and combined with tracing, auto-scaling and
chaos.

*Liveness* — certified programs actually take the relaxed path: one
scheduling step serves a run of same-channel envelopes and counts
them. The gather barrier is not a relaxed path: with the flag on or
off, on either substrate, a merge receives the list of replica values.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.apps import CollaborativeFiltering, KeyValueStore
from repro.apps.wordcount import build_wordcount_sdg
from repro.chaos import FaultInjector
from repro.chaos.plan import DuplicateEnvelope, FaultPlan
from repro.durability.manifest import state_fingerprint
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    RecoveryManager,
    RecoverySupervisor,
)
from repro.runtime import FailureDetector, Runtime, RuntimeConfig
from repro.runtime.deployment import Topology
from repro.runtime.engine import RUN_MAX
from repro.testing import build_iterative_sdg, build_kv_sdg

CORPUS = (
    "state is made explicit and managed by the runtime",
    "the quick brown fox jumps over the lazy dog",
    "every envelope carries a trace id across the dataflow",
)


def feed(runtime, app, items):
    if app == "kvstore":
        for i in range(items):
            runtime.inject("serve", ("put", i % 7, i))
        for i in range(items // 4):
            runtime.inject("serve", ("get", i % 7, None))
    elif app == "wordcount":
        for i in range(items):
            runtime.inject("split", (i, CORPUS[i % len(CORPUS)]))
    else:  # loop
        for i in range(items):
            runtime.inject("stepA", 3 + i % 4)


BUILDERS = {
    "kvstore": (build_kv_sdg, {"table": 2}),
    "wordcount": (lambda: build_wordcount_sdg(window_size=8),
                  {"counts": 2}),
    "loop": (build_iterative_sdg, {"modelA": 2, "modelB": 2}),
}


def serve_log(runtime):
    """Record ``(step, instance key, envelope)`` for every serve.

    Installed on the ``substrate.process`` seam, which the engine calls
    once per envelope — inside a run too.
    """
    log = []
    original = runtime.substrate.process

    def watch(instance, envelope):
        log.append((runtime.total_steps, instance.key, envelope))
        original(instance, envelope)

    runtime.substrate.process = watch
    return log


def longest_run(log):
    """The most envelopes any one step served."""
    per_step = {}
    for step, _key, _envelope in log:
        per_step[step] = per_step.get(step, 0) + 1
    return max(per_step.values())


# -- scenarios: how a differential row drives its deployed runtime ----------
#
# Each takes ``(runtime, app, items)``, feeds and drains, and returns
# whatever beyond the state fingerprint must match the baseline run.


def drive_plain(runtime, app, items):
    feed(runtime, app, items)
    runtime.run_until_idle()


def drive_traced(runtime, app, items):
    """Per-trace ``(te, instance)`` hop multisets: one hop per item."""
    drive_plain(runtime, app, items)
    return {
        trace.trace_id: sorted((hop.te, hop.instance) for hop in trace.hops)
        for trace in runtime.tracer.traces()
    }


def drive_journals(runtime, app, items):
    """Every SE instance's mutation journal after the drain."""
    drive_plain(runtime, app, items)
    return {
        instance.key: instance.element.journal()
        for se_name in runtime.sdg.states
        for instance in runtime.se_instances(se_name)
    }


def drive_backlog_repartition(runtime, app, items):
    """The backlog trips the bottleneck detector mid-drain."""
    drive_plain(runtime, app, items)
    assert runtime.se_epoch("table") >= 1
    return runtime.te_slot_count("serve")


def drive_duplicate_mid_run(runtime, app, items):
    """A redelivered envelope ends up between two fresh ones."""
    log = serve_log(runtime)
    injector = FaultInjector(
        runtime,
        FaultPlan([DuplicateEnvelope(at_step=1, te="count", index=1)]),
    ).install()
    drive_plain(runtime, app, items)
    assert [e.attrs["outcome"] for e in
            runtime.events.events(source="injector")] == ["fired"]
    served = [(key, envelope.channel, envelope.ts)
              for _step, key, envelope in log]
    (again,) = [i for i, entry in enumerate(served)
                if entry in served[:i]]
    if runtime.config.optimize:
        step, key, _envelope = log[again]
        assert log[again - 1][:2] == (step, key) == log[again + 1][:2]


def drive_crash_third_of_run(runtime, app, items):
    """The task dies on the 3rd envelope one ``count`` instance serves;
    the supervisor restores the node and replay fills the gap."""
    store = BackupStore(m_targets=2)
    CheckpointManager(runtime, store, trim_input_log=False)
    detector = FailureDetector(runtime, heartbeat_timeout=20,
                               check_every=5).install()
    supervisor = RecoverySupervisor(
        detector, RecoveryManager(runtime, store)).install()
    victim = runtime.te_instance("count", 0)
    served = []
    original = runtime.substrate.process

    def crash_on_third(instance, envelope):
        if instance is victim:
            served.append(runtime.total_steps)
            if len(served) == 3:
                instance.crash_next = True
                if runtime.config.optimize:
                    # Mid-run: two served this step, more still queued.
                    assert served[0] == served[1] == served[2]
                    assert instance.inbox
        original(instance, envelope)

    runtime.substrate.process = crash_on_third
    drive_plain(runtime, app, items)
    assert detector.detected("crashed")
    assert supervisor.settled
    assert [outcome.kind for _d, outcome in supervisor.cycles()] == [
        "recovered"]
    # No word lost, none counted twice.
    counted = {}
    for instance in runtime.se_instances("counts"):
        counted.update(instance.element.items())
    assert counted == Counter(
        (i // 8, word) for i in range(items)
        for word in CORPUS[i % len(CORPUS)].split())


def run_once(app, substrate, optimize, items=120, drive=drive_plain,
             **knobs):
    builder, se_instances = BUILDERS[app]
    config = RuntimeConfig(se_instances=se_instances, substrate=substrate,
                           workers=2 if substrate == "multiprocess" else None,
                           optimize=optimize, **knobs)
    with Runtime(builder(), config).deploy() as runtime:
        extra = drive(runtime, app, items)
        fingerprint = state_fingerprint(runtime)
        metrics = runtime.merged_metrics()
        counters = {
            name: metrics.total(name)
            for name in ("dispatch_coalesced_total",
                         "engine_items_processed_total")
        }
    return fingerprint, counters, extra


# ---------------------------------------------------------------------------
# Differentials: optimized state == baseline state, both substrates
# ---------------------------------------------------------------------------


class TestDifferentials:
    @pytest.mark.parametrize("substrate", ["inprocess", "multiprocess"])
    @pytest.mark.parametrize("app", sorted(BUILDERS))
    def test_optimized_state_matches_baseline(self, app, substrate):
        self.check(app, substrate)

    @pytest.mark.parametrize("app, scenario", [
        pytest.param("kvstore", dict(drive=drive_traced, trace=True),
                     id="trace"),
        pytest.param("kvstore",
                     dict(drive=drive_backlog_repartition, items=600,
                          auto_scale=True, scale_threshold=16,
                          scale_check_every=1, max_instances=3),
                     id="auto_scale"),
        pytest.param("wordcount",
                     dict(drive=drive_duplicate_mid_run, items=150),
                     id="chaos-duplicate"),
        pytest.param("wordcount", dict(drive=drive_crash_third_of_run),
                     id="chaos-crash"),
    ])
    def test_optimize_composes(self, app, scenario):
        self.check(app, "inprocess", **scenario)

    @staticmethod
    def check(app, substrate, **scenario):
        base_fp, base_counters, base_extra = run_once(
            app, substrate, optimize=False, **scenario)
        opt_fp, opt_counters, opt_extra = run_once(
            app, substrate, optimize=True, **scenario)
        assert opt_fp == base_fp
        assert opt_extra == base_extra
        # Same logical work, independent of how steps grouped it.
        assert (opt_counters["engine_items_processed_total"]
                == base_counters["engine_items_processed_total"])
        # Baseline never coalesces; the optimized certified runs do.
        assert base_counters["dispatch_coalesced_total"] == 0
        assert opt_counters["dispatch_coalesced_total"] > 0

    def test_wordcount_journals_match_baseline(self):
        """Runs regroup the writes of a step; what a delta checkpoint
        would ship — each instance's journal — must not move."""
        self.check("wordcount", "inprocess", drive=drive_journals)


# ---------------------------------------------------------------------------
# Soundness: uncertified programs never take a relaxed path
# ---------------------------------------------------------------------------


class TestUncertifiedNeverRelaxed:
    def test_kvstore_program_takes_the_exact_baseline_path(self):
        app = KeyValueStore.launch(RuntimeConfig(optimize=True), table=2)
        runtime = app.runtime
        # The certificate granted nothing the dispatch layer may use.
        assert "COALESCIBLE_DISPATCH" not in runtime.capabilities.flags
        assert not runtime._run_channels

        log = serve_log(runtime)
        for i in range(60):
            app.put(i % 9, i)
            app.bump(i % 9, 1)
        app.run()
        for i in range(9):
            app.get(i)
        app.run()
        # Exactly one envelope per step.
        assert longest_run(log) == 1
        metrics = runtime.merged_metrics()
        assert metrics.total("dispatch_coalesced_total") == 0
        sequential = KeyValueStore()
        for i in range(60):
            sequential.put(i % 9, i)
            sequential.bump(i % 9, 1)
        expected = [sequential.get(i) for i in range(9)]
        assert app.results("get") == expected

    def test_uncertified_program_matches_unoptimized_run(self):
        def run(optimize):
            app = KeyValueStore.launch(
                RuntimeConfig(optimize=optimize), table=2)
            for i in range(40):
                app.put(i % 5, i)
                app.bump(i % 5, 1)
            app.run()
            return state_fingerprint(app.runtime)

        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Liveness: certified paths really engage
# ---------------------------------------------------------------------------


class TestCertifiedPathsEngage:
    def test_a_step_serves_a_run_on_certified_channels(self):
        config = RuntimeConfig(se_instances={"table": 2}, optimize=True)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        log = serve_log(runtime)
        for i in range(50):
            runtime.inject("serve", ("put", i % 3, i))
        # Inboxes hold plain envelopes, one per item.
        assert sum(len(instance.inbox)
                   for instance in runtime.te_instances("serve")) == 50
        steps = runtime.run_until_idle()
        assert steps < 50
        assert longest_run(log) > 1
        metrics = runtime.merged_metrics()
        assert metrics.total("dispatch_coalesced_total") == 50 - steps
        assert metrics.total("engine_items_processed_total") == 50

    def test_no_step_serves_more_than_the_ceiling(self):
        config = RuntimeConfig(se_instances={"table": 1}, optimize=True)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        log = serve_log(runtime)
        for i in range(3 * RUN_MAX + 5):
            runtime.inject("serve", ("put", 0, i))
        assert runtime.run_until_idle() == 4
        assert RUN_MAX == 64
        assert longest_run(log) == RUN_MAX


# ---------------------------------------------------------------------------
# One gather path: a merge receives the list of replica values
# ---------------------------------------------------------------------------

CF_MERGE_TE = "get_rec_2_merge_merge"
CF_RATINGS = [(0, 1, 5), (0, 2, 3), (1, 1, 4), (1, 3, 2), (2, 2, 1)]
CF_REPLICAS = 3


def launch_cf(optimize, substrate="inprocess"):
    app = CollaborativeFiltering.launch(
        RuntimeConfig(substrate=substrate, optimize=optimize,
                      workers=2 if substrate == "multiprocess" else None),
        user_item=2, co_occ=CF_REPLICAS)
    for rating in CF_RATINGS:
        app.add_rating(*rating)
    app.run()
    return app


class TestOneGatherPath:
    @pytest.mark.parametrize("substrate", ["inprocess", "multiprocess"])
    def test_merge_receives_every_replica_value(self, substrate, tmp_path,
                                                monkeypatch):
        # The merge TE's function, wrapped on its instances as they are
        # materialised (after certification reads the SDG, before a
        # fleet forks); a file, because there the merge TE runs in
        # another process.
        spy_file = tmp_path / "gathered.jsonl"
        materialise = Topology.materialise

        def spied(merge):
            def spy(ctx, payload):
                assert type(payload) is list
                with open(spy_file, "a") as out:
                    out.write(json.dumps([v.to_list() for v in payload])
                              + "\n")
                return merge(ctx, payload)
            return spy

        def materialise_spied(topology):
            materialise(topology)
            for instance in topology.te_instances(CF_MERGE_TE):
                instance.spec = dataclasses.replace(
                    instance.spec, fn=spied(instance.spec.fn))

        monkeypatch.setattr(Topology, "materialise", materialise_spied)

        def run(optimize):
            spy_file.write_text("")
            app = launch_cf(optimize, substrate)
            with app.runtime:
                app.get_rec(0)
                app.run()
                user_row = max(
                    (element.get_row(0)
                     for element in app.state_of("user_item")),
                    key=lambda row: row.to_list())
                partials = [element.multiply(user_row).to_list()
                            for element in app.state_of("co_occ")]
                (reply,) = app.results("get_rec")
            (gathered,) = map(json.loads,
                              spy_file.read_text().splitlines())
            # One raw partial vector per live replica, not a pre-reduced
            # value.
            assert len(gathered) == CF_REPLICAS
            assert sorted(gathered) == sorted(partials)
            return gathered, reply.to_list()

        base_gathered, base_reply = run(False)
        opt_gathered, opt_reply = run(True)
        assert opt_reply == base_reply
        if substrate == "inprocess":
            assert opt_gathered == base_gathered  # same arrival order
        else:
            assert sorted(opt_gathered) == sorted(base_gathered)

    def test_half_full_gather_survives_merge_node_recovery(self):
        baseline = launch_cf(optimize=False)
        baseline.get_rec(0)
        baseline.run()

        app = launch_cf(optimize=True)
        runtime = app.runtime
        store = BackupStore(m_targets=2)
        checkpoints = CheckpointManager(runtime, store)
        app.get_rec(0)
        (merge,) = runtime.te_instances(CF_MERGE_TE)
        while not any(0 < gather.received < gather.expected
                      for gather in merge.pending_gathers.values()):
            runtime.step()
        node = merge.node_id
        checkpoints.checkpoint(node)
        runtime.fail_node(node)
        runtime.run_until_idle()
        assert app.results("get_rec") == []
        RecoveryManager(runtime, store).recover_node(node)
        (merge,) = runtime.te_instances(CF_MERGE_TE)
        # The restored barrier is the plain list it was saved as.
        (gather,) = merge.pending_gathers.values()
        assert 0 < len(gather.payloads) == gather.received < gather.expected
        runtime.run_until_idle()
        assert not merge.pending_gathers
        assert ([v.to_list() for v in app.results("get_rec")]
                == [v.to_list() for v in baseline.results("get_rec")])
        assert state_fingerprint(runtime) == state_fingerprint(
            baseline.runtime)


# ---------------------------------------------------------------------------
# Gates: configuration
# ---------------------------------------------------------------------------


class TestGates:
    def test_optimize_defaults_off(self):
        runtime = Runtime(build_kv_sdg()).deploy()
        assert runtime.capabilities is None
        assert not runtime._run_channels

    def test_explicit_capabilities_are_honoured_verbatim(self):
        from repro.analysis.capabilities import ProgramCapabilities

        caps = ProgramCapabilities(target="handmade")  # grants nothing
        config = RuntimeConfig(se_instances={"table": 2}, optimize=True,
                               capabilities=caps)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        assert runtime.capabilities is caps
        assert not runtime._run_channels
