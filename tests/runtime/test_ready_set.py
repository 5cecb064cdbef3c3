"""The scheduler's ready set stays exact, and cheap.

``Topology.candidates()`` caches the live instances in deployment order
plus the sorted positions whose inbox is non-empty. Two things are
pinned here: a Hypothesis property that no interleaving of inject,
step, scale-up, failure, recovery and chaos duplicate/drop can make
that set disagree with the inboxes (or with ``runtime_inbox_depth`` and
``is_idle()``), and a complexity guard — counted, no wall clock — that
the order is rebuilt per structural change, not per step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector
from repro.chaos.plan import DropEnvelope, DuplicateEnvelope, FaultPlan
from repro.errors import RuntimeExecutionError
from repro.recovery import BackupStore, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg

from tests.runtime.test_scheduler import build_pipeline_sdg


def assert_ready_set_exact(runtime):
    topology = runtime.topology
    live = [inst for inst in topology.all_te_instances()
            if topology.nodes[inst.node_id].alive]
    waiting = [inst for inst in live if inst.inbox]
    cached = topology._candidates
    if cached is not None and cached.version == topology.version:
        # Incremental upkeep, checked before anything can rebuild it.
        assert [cached[at] for at in cached.ready] == waiting
    candidates = topology.candidates()
    assert list(candidates) == live
    assert [candidates[at] for at in candidates.ready] == waiting
    depth = sum(len(inst.inbox) for inst in live)
    assert runtime.metrics.total("runtime_inbox_depth") == depth
    assert runtime.is_idle() == (depth == 0)


OPS = st.one_of(
    st.tuples(st.just("inject"), st.integers(0, 40)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("scale_up"), st.sampled_from(["route", "serve"])),
    st.tuples(st.just("fail"), st.integers(0, 7)),
    st.tuples(st.just("recover"), st.none()),
    st.tuples(st.just("duplicate"), st.integers(0, 7)),
    st.tuples(st.just("drop"), st.integers(0, 7)),
)


class TestReadySetProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(OPS, max_size=40))
    def test_ready_positions_track_the_inboxes(self, ops):
        runtime = Runtime(
            build_pipeline_sdg(),
            RuntimeConfig(te_instances={"route": 2},
                          se_instances={"table": 3}, max_instances=5),
        ).deploy()
        recovery = RecoveryManager(runtime, BackupStore(m_targets=2))
        recovered = set()

        def dead_nodes():
            return [node_id for node_id, node in runtime.nodes.items()
                    if not node.alive and node_id not in recovered]

        def chaos(fault):
            # Fires from the step hook, right after the next served item.
            injector = FaultInjector(runtime, FaultPlan([fault])).install()
            runtime.step()
            injector.uninstall()

        assert_ready_set_exact(runtime)
        for op, arg in ops:
            if op == "inject":
                runtime.inject("route", ("put", f"k{arg}", arg))
            elif op == "step":
                for _ in range(arg):
                    runtime.step()
            elif op == "scale_up":
                try:
                    runtime.scale_up(arg)
                except RuntimeExecutionError:
                    pass  # refused while an instance is failed
            elif op == "fail":
                alive = runtime.alive_nodes()
                if len(alive) > 1:
                    runtime.fail_node(alive[arg % len(alive)].node_id)
            elif op == "recover":
                for node_id in dead_nodes():
                    recovery.recover_node(node_id)
                    recovered.add(node_id)
            elif op == "duplicate":
                chaos(DuplicateEnvelope(at_step=runtime.total_steps + 1,
                                        te="serve", index=arg))
            elif op == "drop" and len(runtime.alive_nodes()) > 1:
                chaos(DropEnvelope(at_step=runtime.total_steps + 1,
                                   te="serve", index=arg))
            assert_ready_set_exact(runtime)


class TestStepCostIsFlatInWidth:
    def test_order_is_rebuilt_per_structural_change_not_per_step(self):
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": 256}, max_instances=512),
        ).deploy()
        topology = runtime.topology
        listings = 0
        original = topology.all_te_instances

        def counting():
            nonlocal listings
            listings += 1
            return original()

        topology.all_te_instances = counting
        deployed = topology.version

        def drive():
            for i in range(2000):
                runtime.inject("serve", ("put", i, i))
            steps = runtime.run_until_idle()
            for i in range(200):
                runtime.inject("serve", ("get", i, None))
                steps += runtime.run_until_idle()
            return steps

        assert drive() == 2200
        assert listings <= 1
        assert runtime.scale_up("serve")
        assert drive() == 2200
        assert listings <= (topology.version - deployed) + 1
        assert topology.version - deployed == 1
