"""An item is counted once: by the instance that served it.

``_serve`` bumps the serving instance's ``served`` and ``_drain`` bumps
``total_steps``; every other count is read from those when it is read:
``engine_items_processed_total{te}`` sums every instance the TE ever
had, ``PhysicalNode.items_processed`` its instances', ``engine_steps_total``
is ``total_steps`` less the base a fork or a durable resume moves, and
``scheduler_picks_total`` is that less the stall ticks. The task
context is not stored per item either: the topology stamps its
``state`` and ``n_instances`` when an element or a slot count changes.

A spy around every TE function counts successful calls, and checks the
context it was handed, while Hypothesis drives KV, wordcount and CF
through injects, steps, failures and recoveries (1-to-1 and 1-to-n),
scale-ups, chaos duplicates and drops, and checkpoints begun and
completed apart. The deterministic cases pin the rest: worker shards,
a fleet restart after a state pull, a durable resume and a registry
two runtimes share.
"""

import os
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.apps.wordcount import build_wordcount_sdg
from repro.chaos import FaultInjector
from repro.chaos.plan import DropEnvelope, DuplicateEnvelope, FaultPlan
from repro.durability import DurableRunner, RunSpec
from repro.errors import RecoveryError, RuntimeExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.instances import TEInstance
from repro.testing import build_cf_sdg, build_kv_sdg
from tests.runtime.test_multiprocess_obs import build_crash_once_kv


def kv_input(n):
    return "serve", ("put" if n % 3 else "get", f"k{n % 23}", n)


def wordcount_input(n):
    if n % 4 == 3:
        return "query", (0, f"w{n % 5}")
    return "split", (0, f"w{n % 5} w{n % 7} w{n % 3}")


def cf_input(n):
    if n % 5 == 4:
        return "getUserVec", n % 4
    return "updateUserItem", (n % 4, n % 6, 1 + n % 3)


#: Per app: builder, config, input maker, TEs to scale, TEs for chaos.
APPS = {
    "kv": (build_kv_sdg, {"table": 4}, kv_input, ["serve"], ["serve"]),
    "wordcount": (build_wordcount_sdg, {"counts": 1}, wordcount_input,
                  ["count", "split"], ["split", "count"]),
    "cf": (build_cf_sdg, {"userItem": 1, "coOcc": 1}, cf_input,
           ["updateCoOcc", "updateUserItem"],
           ["updateUserItem", "updateCoOcc"]),
}


class Rig:
    """One deployed app whose every TE function is spied on."""

    def __init__(self, app):
        build, instances, self.make_input, self.scalable, self.chaos_tes = (
            APPS[app])
        sdg = build()
        #: Successful task calls per TE, and per instance (its context).
        self.per_te, self.per_ctx = Counter(), Counter()
        for spec in sdg.tasks.values():
            object.__setattr__(spec, "fn", self.spy(spec.name, spec.fn))
        self.runtime = Runtime(sdg, RuntimeConfig(
            se_instances=instances, max_instances=3)).deploy()
        store = BackupStore(m_targets=2)
        self.checkpoints = CheckpointManager(self.runtime, store,
                                             trim_input_log=False)
        self.recovery = RecoveryManager(self.runtime, store)
        self.pending = {}
        self.recovered = set()
        self.steps = 0
        #: Restored instance -> (checkpointed count, its calls by then).
        self.restored = {}

    def owner(self, ctx):
        return next(instance
                    for history in self.runtime.topology.te_history.values()
                    for instance in history if instance.context is ctx)

    def spy(self, te, fn):
        def call(ctx, item):
            instance = self.owner(ctx)
            se_instance = instance.se_instance
            assert ctx.state is (se_instance.element
                                 if se_instance is not None else None)
            assert ctx.n_instances == len(self.runtime.topology.te_slots[te])
            returned = fn(ctx, item)
            self.per_te[te] += 1
            self.per_ctx[ctx] += 1
            return returned
        return call

    def restore_spy(self):
        original = TEInstance.restore_producer_state
        rig = self

        def restore(instance, meta):
            rig.restored[instance] = (meta.processed_count,
                                      rig.per_ctx[instance.context])
            return original(instance, meta)
        return mock.patch.object(TEInstance, "restore_producer_state",
                                 restore)

    def recover(self, n_new=1):
        """Recover every failed node, onto ``n_new`` nodes where it
        hosts a partitioned SE's only instance, else 1-to-1."""
        for node_id, node in list(self.runtime.nodes.items()):
            if node.alive or node_id in self.recovered:
                continue
            self.recovered.add(node_id)
            for n in dict.fromkeys((n_new, 1)):
                try:
                    self.recovery.recover_node(node_id, n_new=n)
                    break
                except RecoveryError:
                    continue

    def step(self, n=1):
        for _ in range(n):
            self.steps += self.runtime.step()

    def chaos(self, fault):
        # Fires from the step hook, right after the next step.
        injector = FaultInjector(self.runtime, FaultPlan([fault])).install()
        self.step()
        injector.uninstall()

    def apply(self, op, arg):
        runtime = self.runtime
        alive = runtime.alive_nodes()
        if op == "inject":
            for n in range(arg, arg + 3):
                runtime.inject(*self.make_input(n))
        elif op == "step":
            self.step(arg)
        elif op == "fail" and len(alive) > 1:
            index, n_new = arg
            runtime.fail_node(alive[index % len(alive)].node_id)
            self.recover(n_new)
        elif op == "scale_up":
            try:
                runtime.scale_up(self.scalable[arg % len(self.scalable)])
            except RuntimeExecutionError:
                pass  # a failed instance or an open checkpoint
        elif op == "duplicate":
            self.chaos(DuplicateEnvelope(
                at_step=runtime.total_steps + 1,
                te=self.chaos_tes[arg % len(self.chaos_tes)]))
        elif op == "drop" and len(alive) > 1:
            self.chaos(DropEnvelope(
                at_step=runtime.total_steps + 1,
                te=self.chaos_tes[arg % len(self.chaos_tes)]))
        elif op == "begin":  # every live node's, completed apart
            for node in alive:
                if node.node_id not in self.pending:
                    self.pending[node.node_id] = self.checkpoints.begin(
                        node.node_id)
        elif op == "complete":
            for pending in self.pending.values():
                self.checkpoints.complete(pending)
            self.pending.clear()

    def assert_counted_once(self):
        runtime = self.runtime
        metrics = runtime.metrics
        for te, history in runtime.topology.te_history.items():
            assert metrics.value("engine_items_processed_total",
                                 te=te) == self.per_te[te]
            for instance in history:
                calls = self.per_ctx[instance.context]
                assert instance.served == calls
                base, before = self.restored.get(instance, (0, 0))
                assert instance.processed_count == base + calls - before
        for node in runtime.nodes.values():
            assert node.items_processed == sum(
                self.per_ctx[instance.context]
                for instance in node.te_instances.values())
        assert metrics.value("engine_steps_total") == self.steps
        assert metrics.value("scheduler_picks_total",
                             policy="round_robin") == self.steps - (
            metrics.value("engine_stall_ticks_total"))


INJECT = st.tuples(st.just("inject"), st.integers(0, 60))
STEP = st.tuples(st.just("step"), st.integers(1, 12))
OPS = st.one_of(
    INJECT, INJECT, STEP, STEP,
    st.tuples(st.just("fail"), st.tuples(st.integers(0, 7),
                                          st.sampled_from([1, 2]))),
    st.tuples(st.just("scale_up"), st.integers(0, 1)),
    st.tuples(st.just("duplicate"), st.integers(0, 1)),
    st.tuples(st.just("drop"), st.integers(0, 1)),
    st.tuples(st.just("begin"), st.none()),
    st.tuples(st.just("complete"), st.none()),
)


#: Served, checkpointed, served, failed: a restore from a non-zero
#: count, onto one node and (where the SE has one instance) onto two.
RESTORES = [[("inject", 0), ("inject", 7), ("step", 12), ("begin", None),
             ("inject", 3), ("step", 12), ("complete", None),
             ("inject", 20), ("step", 4), ("fail", (index, n_new)),
             ("inject", 30), ("duplicate", 0), ("step", 12),
             ("scale_up", 0), ("inject", 40), ("drop", 1), ("step", 12),
             ("scale_up", 1)]
            for index in range(3) for n_new in (1, 2)]


def with_examples(test):
    for ops in RESTORES:
        test = example(ops=ops)(test)
    return test


class TestCountedOnceProperty:
    @pytest.mark.parametrize("app", sorted(APPS))
    @settings(max_examples=60, deadline=None)
    @with_examples
    @given(ops=st.lists(OPS, min_size=4, max_size=40))
    def test_every_count_is_what_the_tasks_did(self, app, ops):
        rig = Rig(app)
        with rig.restore_spy():
            for op, arg in ops:
                rig.apply(op, arg)
                rig.assert_counted_once()
            rig.recover()
            rig.step(10_000)
            rig.assert_counted_once()


def kv_counts(metrics):
    return (metrics.total("engine_items_processed_total"),
            metrics.total("engine_steps_total"),
            metrics.total("scheduler_picks_total"))


class TestCountedOnceAcrossProcesses:
    def test_each_worker_shard_holds_only_its_own_work(self):
        def run(**substrate):
            runtime = Runtime(build_kv_sdg(), RuntimeConfig(
                se_instances={"table": 4}, **substrate))
            # A clock that moved before deploy is the coordinator's:
            # counted once, not again by every worker it forks.
            runtime.total_steps = 500
            with runtime.deploy():
                for n in range(400):
                    runtime.inject(*kv_input(n))
                assert runtime.run_until_idle() == 400
                shards = getattr(runtime.substrate, "metric_shards", [])
                return (kv_counts(runtime.metrics),
                        kv_counts(runtime.merged_metrics()), shards)

        own, merged, _ = run()
        assert own == merged == (400, 900, 900)
        coordinator, fleet, shards = run(substrate="multiprocess",
                                         workers=2)
        assert fleet == merged
        assert coordinator == (0, 500, 500)
        served = []
        for shard in shards:
            children = {name: entry["children"]
                        for name, entry in shard.items()}
            (steps,) = children["engine_steps_total"].values()
            (picks,) = children["scheduler_picks_total"].values()
            (processed,) = children["engine_items_processed_total"].values()
            # One step per KV item, all of them this worker's.
            assert 0 < steps == picks == processed
            served.append(processed)
        assert len(served) == 2 and sum(served) == 400

    def test_a_refork_after_a_state_pull_serves_the_pulled_elements(
            self, tmp_path):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate="multiprocess", workers=2,
                               worker_restarts=1)
        runtime = Runtime(build_crash_once_kv(str(tmp_path / "flag")),
                          config).deploy()
        with runtime:
            for i in range(24):
                runtime.inject("serve", ("put", f"k{i}", i))
            # The barrier pulls every element: a restart forks from them.
            runtime.run_until_idle()
            for i in range(12):
                runtime.inject("serve", ("put", f"j{i}", i))
            runtime.inject("serve", ("put", "boom", 99))
            runtime.run_until_idle()
            assert os.path.exists(tmp_path / "flag")
            keys = [f"k{i}" for i in range(24)] + [f"j{i}" for i in
                                                  range(12)] + ["boom"]
            for key in keys:
                runtime.inject("serve", ("get", key, None))
            runtime.run_until_idle()
            state = {key: value for inst in runtime.se_instances("table")
                     for key, value in inst.element.items()}
            replies = dict(runtime.results["serve"])
            processed = runtime.merged_metrics().total(
                "engine_items_processed_total")
        expected = {**{f"k{i}": i for i in range(24)},
                    **{f"j{i}": i for i in range(12)}, "boom": 99}
        assert state == expected
        assert replies == expected
        # 37 puts and 37 gets, each counted once across the restart.
        assert processed == 2 * len(expected)

    def test_a_durable_resume_counts_steps_from_zero(self, tmp_path):
        spec = RunSpec(app="kvstore", seed=7, epochs=3, items_per_epoch=50)
        reference = DurableRunner.start(str(tmp_path / "ref"), spec)
        reference.run()
        run_dir = str(tmp_path / "run")
        runner = DurableRunner.start(run_dir, spec)
        runner.run_epoch()
        runner.run_epoch()
        del runner
        resumed = DurableRunner.resume(run_dir)
        assert resumed.resume_mode == "checkpoint"
        runtime = resumed.runtime
        at = resumed.manifest.latest.total_steps
        assert at > 0 and runtime.total_steps == at
        assert runtime.metrics.value("engine_steps_total") == 0
        resumed.run()
        assert runtime.metrics.value("engine_steps_total") == (
            runtime.total_steps - at) > 0
        # The restored elements are the ones the tasks wrote.
        assert resumed.state_hash() == reference.state_hash()

    def test_two_runtimes_on_one_registry_report_their_sum(self):
        registry = MetricsRegistry()
        runtimes = [Runtime(build_kv_sdg(), RuntimeConfig(
            se_instances={"table": n}, metrics=registry)).deploy()
            for n in (2, 3)]
        for runtime, items in zip(runtimes, (30, 50)):
            for n in range(items):
                runtime.inject(*kv_input(n))
            assert runtime.run_until_idle() == items
        assert kv_counts(registry) == (80, 80, 80)
        assert registry.value("engine_items_processed_total",
                              te="serve") == 80
