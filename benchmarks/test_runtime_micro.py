"""Microbenchmarks of the real runtime's hot paths.

These measure wall-clock time of the in-process implementation itself
(not the paper's cluster): per-operation cost of the KV store and CF
pipelines, checkpoint cut + persist, chunked serialisation,
and the translator. They guard against performance regressions in the
library rather than reproducing a figure.
"""

from repro.apps import CollaborativeFiltering, KeyValueStore
from repro.core import SDG, Dispatch
from repro.recovery import BackupStore, CheckpointManager
from repro.runtime import Runtime, RuntimeConfig
from repro.state import KeyValueMap
from repro.translate import translate

from repro.testing import build_kv_sdg, noop


def test_micro_kv_put_throughput(benchmark):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": 4})).deploy()
    counter = iter(range(100_000_000))

    def one_put():
        i = next(counter)
        runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()

    benchmark(one_put)


def test_micro_cf_add_rating(benchmark):
    app = CollaborativeFiltering.launch(user_item=2, co_occ=2)
    counter = iter(range(100_000_000))

    def one_rating():
        i = next(counter)
        app.add_rating(i % 50, i % 20, 1 + i % 5)
        app.run()

    benchmark(one_rating)


def test_micro_cf_get_rec(benchmark):
    app = CollaborativeFiltering.launch(user_item=2, co_occ=2)
    for i in range(100):
        app.add_rating(i % 20, i % 10, 3)
    app.run()
    counter = iter(range(100_000_000))

    def one_read():
        app.get_rec(next(counter) % 20)
        app.run()

    benchmark(one_read)


def test_micro_wide_graph_dispatch(benchmark):
    """Per-item dispatch on a many-edge graph.

    Every item traverses a 60-hop chain, so each injection triggers 60
    dispatch decisions. The seed engine rescanned (and copied) the full
    edge list on every decision — O(edges) per hop, quadratic in chain
    length per item; the dispatcher's deploy-time successor index makes
    each hop O(out-degree).
    """
    hops = 60
    sdg = SDG("wide")
    sdg.add_task("hop0", noop, is_entry=True)
    for i in range(1, hops):
        sdg.add_task(f"hop{i}", noop)
        sdg.connect(f"hop{i - 1}", f"hop{i}", Dispatch.ONE_TO_ANY)
    runtime = Runtime(sdg).deploy()
    counter = iter(range(100_000_000))

    def one_traversal():
        runtime.inject("hop0", next(counter))
        runtime.run_until_idle()

    benchmark(one_traversal)


def test_micro_checkpoint_cycle(benchmark):
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": 1})).deploy()
    for i in range(5_000):
        runtime.inject("serve", ("put", i, i))
    runtime.run_until_idle()
    manager = CheckpointManager(runtime, BackupStore(m_targets=2))
    node = runtime.se_instance("table", 0).node_id

    benchmark(manager.checkpoint, node)


def test_micro_chunking(benchmark):
    kv = KeyValueMap()
    for i in range(20_000):
        kv.put(i, i)

    benchmark(kv.to_chunks, 4)


def test_micro_fail_and_recover_cycle(benchmark):
    from repro.recovery import RecoveryManager

    def cycle():
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 1}))
        runtime.deploy()
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(runtime, store)
        recovery = RecoveryManager(runtime, store)
        for i in range(1_000):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        manager.checkpoint(node)
        runtime.fail_node(node)
        recovery.recover_node(node)
        runtime.run_until_idle()
        return len(runtime.se_instance("table", 0).element)

    entries = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert entries == 1_000


def test_micro_translation(benchmark):
    benchmark(translate, KeyValueStore)


def test_micro_full_cf_translation(benchmark):
    benchmark(translate, CollaborativeFiltering)
