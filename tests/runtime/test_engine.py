"""End-to-end tests for the pipelined runtime engine."""

import pytest

from repro.core import SDG
from repro.errors import RuntimeExecutionError
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_cf_sdg, build_iterative_sdg, build_kv_sdg


def deploy_kv(n_partitions=4):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": n_partitions}))
    return runtime.deploy()


class TestDeployment:
    def test_deploy_materialises_all_instances(self):
        runtime = deploy_kv(4)
        assert len(runtime.te_instances("serve")) == 4
        assert len(runtime.se_instances("table")) == 4

    def test_stateful_te_colocated_with_its_partition(self):
        runtime = deploy_kv(3)
        for te_inst in runtime.te_instances("serve"):
            assert te_inst.node_id == te_inst.se_instance.node_id
            assert te_inst.index == te_inst.se_instance.index

    def test_double_deploy_rejected(self):
        runtime = deploy_kv(1)
        with pytest.raises(RuntimeExecutionError):
            runtime.deploy()

    def test_cf_deploys_on_three_nodes(self):
        runtime = Runtime(build_cf_sdg()).deploy()
        assert len(runtime.nodes) == 3

    def test_partial_replicas_on_distinct_nodes(self):
        runtime = Runtime(
            build_cf_sdg(), RuntimeConfig(se_instances={"coOcc": 3})
        ).deploy()
        nodes = {inst.node_id for inst in runtime.se_instances("coOcc")}
        assert len(nodes) == 3


class TestKVStore:
    def test_put_then_get(self):
        runtime = deploy_kv()
        runtime.inject("serve", ("put", "k1", "v1"))
        runtime.inject("serve", ("get", "k1", None))
        runtime.run_until_idle()
        assert runtime.results["serve"] == [("k1", "v1")]

    def test_keys_routed_to_owning_partition(self):
        runtime = deploy_kv(4)
        for i in range(40):
            runtime.inject("serve", ("put", f"key{i}", i))
        runtime.run_until_idle()
        partitioner = runtime.topology.partitioner("table")
        for se_inst in runtime.se_instances("table"):
            for key in se_inst.element.keys():
                assert partitioner.partition(key) == se_inst.index

    def test_interleaved_puts_and_gets(self):
        runtime = deploy_kv(2)
        for i in range(20):
            runtime.inject("serve", ("put", i, i * 10))
            runtime.inject("serve", ("get", i, None))
        runtime.run_until_idle()
        assert sorted(runtime.results["serve"]) == [
            (i, i * 10) for i in range(20)
        ]

    def test_inject_unknown_entry_rejected(self):
        runtime = deploy_kv()
        with pytest.raises(KeyError):
            runtime.inject("nope", ("put", 1, 1))

    def test_inject_non_entry_rejected(self):
        runtime = Runtime(build_cf_sdg()).deploy()
        with pytest.raises(RuntimeExecutionError):
            runtime.inject("mergeRec", "x")


def reference_cf(ratings, query_user):
    """Sequential Alg. 1: the ground truth for the CF pipeline."""
    user_item = {}
    co_occ = {}
    for user, item, rating in ratings:
        user_item[(user, item)] = rating
        row = {i: r for (u, i), r in user_item.items() if u == user}
        for i, value in row.items():
            if value > 0 and i != item:
                co_occ[(item, i)] = co_occ.get((item, i), 0) + 1
                co_occ[(i, item)] = co_occ.get((i, item), 0) + 1
    row = {i: r for (u, i), r in user_item.items() if u == query_user}
    rec = {}
    for (r, c), count in co_occ.items():
        if c in row and row[c]:
            rec[r] = rec.get(r, 0.0) + count * row[c]
    return rec


class TestCollaborativeFiltering:
    RATINGS = [
        (0, 0, 5), (0, 1, 3), (1, 0, 4), (1, 2, 2), (2, 1, 1), (2, 2, 5),
        (0, 2, 1), (1, 1, 2),
    ]

    def run_cf(self, n_partial):
        runtime = Runtime(
            build_cf_sdg(),
            RuntimeConfig(se_instances={"userItem": 2,
                                        "coOcc": n_partial}),
        ).deploy()
        for rating in self.RATINGS:
            runtime.inject("updateUserItem", rating)
        runtime.run_until_idle()
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        return runtime

    @pytest.mark.parametrize("n_partial", [1, 2, 3])
    def test_recommendations_match_sequential_reference(self, n_partial):
        runtime = self.run_cf(n_partial)
        results = runtime.results["mergeRec"]
        assert len(results) == 1
        user, rec = results[0]
        assert user == 0
        expected = reference_cf(self.RATINGS, 0)
        for item, score in expected.items():
            assert rec.get(item) == pytest.approx(score)

    def test_partial_instances_hold_divergent_state(self):
        runtime = self.run_cf(2)
        sizes = [inst.element.nnz()
                 for inst in runtime.se_instances("coOcc")]
        # Updates were load-balanced across replicas, so each replica
        # holds only part of the co-occurrence counts.
        assert all(size > 0 for size in sizes)

    def test_merge_sums_across_all_partials(self):
        # With 3 replicas the per-replica recommendation is partial; the
        # merged result must equal the single-replica (global) result.
        single = self.run_cf(1).results["mergeRec"][0][1]
        merged = self.run_cf(3).results["mergeRec"][0][1]
        assert merged.to_list() == single.to_list()


class TestIteration:
    def test_cycle_terminates(self):
        runtime = Runtime(build_iterative_sdg()).deploy()
        runtime.inject("stepA", 5)
        processed = runtime.run_until_idle()
        # 5 -> 4 -> ... -> 0 travels the loop, two TEs per round trip.
        assert processed > 5
        assert runtime.is_idle()

    def test_runaway_loop_hits_step_limit(self):
        sdg = SDG("forever")
        sdg.add_task("spin", lambda ctx, item: item, is_entry=True)
        sdg.connect("spin", "spin")
        runtime = Runtime(sdg).deploy()
        runtime.inject("spin", 1)
        with pytest.raises(RuntimeExecutionError, match="idle"):
            runtime.run_until_idle(max_steps=100)


class TestDeterminism:
    def test_same_input_same_results(self):
        def run():
            runtime = deploy_kv(3)
            for i in range(30):
                runtime.inject("serve", ("put", f"k{i}", i))
                runtime.inject("serve", ("get", f"k{i}", None))
            runtime.run_until_idle()
            return runtime.results["serve"]

        assert run() == run()


class TestErrorPropagation:
    def test_task_exception_is_wrapped(self):
        sdg = SDG()

        def boom(ctx, item):
            raise ValueError("bad item")

        sdg.add_task("boom", boom, is_entry=True)
        runtime = Runtime(sdg).deploy()
        runtime.inject("boom", 1)
        with pytest.raises(RuntimeExecutionError, match="boom"):
            runtime.run_until_idle()


class TestEmitAPI:
    def test_ctx_emit_produces_multiple_outputs(self):
        sdg = SDG()

        def splitter(ctx, item):
            for ch in item:
                ctx.emit(ch)

        sdg.add_task("split", splitter, is_entry=True)
        runtime = Runtime(sdg).deploy()
        runtime.inject("split", "abc")
        runtime.run_until_idle()
        assert runtime.results["split"] == ["a", "b", "c"]

    def test_emit_and_return_both_collected(self):
        sdg = SDG()

        def both(ctx, item):
            ctx.emit("emitted")
            return "returned"

        sdg.add_task("t", both, is_entry=True)
        runtime = Runtime(sdg).deploy()
        runtime.inject("t", 1)
        runtime.run_until_idle()
        assert runtime.results["t"] == ["emitted", "returned"]
