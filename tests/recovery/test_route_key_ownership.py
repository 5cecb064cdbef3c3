"""Every split of a partitioned SE puts each entry where its items go.

A partitioned SE is split by one function, its spec's ``route_key``:
the partition that owns a stored key ``k`` is
``partitioner.partition(route_key(k))``, and keyed items reach the same
partition through their ``key_fn``. The property runs every bundled SDG
with partitioned state through an ingest, a 1-to-n restore, a second
ingest, a ``scale_up`` and a third ingest. After each stage, every
stored key of instance ``i`` must have ``partition(route_key(k)) == i``.
At the end, the union of the instances must equal a run without the
restore and the scale-up.
"""

from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    CollaborativeFiltering,
    KeyValueStore,
    build_pagerank_sdg,
    build_wordcount_sdg,
)
from repro.core import StateKind
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_cf_sdg, build_iterative_sdg, build_kv_sdg

#: ``build()`` returns the SDG; ``inputs(stage)`` draws one batch of
#: ``(entry TE, payload)`` pairs; the run restores the node of ``se``
#: 1-to-n (when that node hosts nothing else) and scales ``scale_te``.
Case = namedtuple("Case", "name build inputs se scale_te")

WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
SMALL = st.integers(0, 7)


def batch(element):
    return lambda stage: st.lists(element, min_size=1, max_size=12)


def translated_entry(program, method):
    return program.translate().entry_info(method).entry_te


def wordcount_line():
    return st.tuples(st.integers(0, 299),
                     st.lists(WORDS, min_size=1, max_size=4).map(" ".join))


def pagerank_loads(stage):
    """Fresh vertices whose out-edges point only at earlier stages' ids,
    so no mass reaches a vertex of this stage before its load."""
    edges = (st.lists(st.integers(0, 8 * stage - 1), max_size=3,
                      unique=True).map(sorted)
             if stage else st.just([]))
    graph = st.dictionaries(st.integers(8 * stage, 8 * stage + 7), edges,
                            min_size=1)
    return graph.map(lambda graph: [("load", (vertex, out))
                                    for vertex, out in sorted(graph.items())])


KV_PUT = translated_entry(KeyValueStore, "put")
CF_ADD = translated_entry(CollaborativeFiltering, "add_rating")

CASES = [
    Case("wordcount", lambda: build_wordcount_sdg(window_size=100),
         batch(wordcount_line().map(lambda line: ("split", line))),
         "counts", "count"),
    Case("pagerank", build_pagerank_sdg, pagerank_loads, "vertices", "push"),
    Case("kv", build_kv_sdg,
         batch(st.tuples(SMALL, SMALL).map(
             lambda kv: ("serve", ("put",) + kv))),
         "table", "serve"),
    Case("cf", build_cf_sdg,
         batch(st.tuples(SMALL, SMALL, st.integers(1, 5)).map(
             lambda rating: ("updateUserItem", rating))),
         "userItem", "updateUserItem"),
    Case("iterative", build_iterative_sdg,
         batch(SMALL.map(lambda n: ("stepA", n))), "modelA", "stepA"),
    Case("translated-kv", KeyValueStore.to_sdg,
         batch(st.tuples(SMALL, SMALL).map(lambda kv: (KV_PUT, kv))),
         "table", KV_PUT),
    Case("translated-cf", CollaborativeFiltering.to_sdg,
         batch(st.tuples(SMALL, SMALL, st.integers(1, 5)).map(
             lambda rating: (CF_ADD, rating))),
         "user_item", CF_ADD),
]


def partitioned(runtime):
    return [se.name for se in runtime.sdg.states.values()
            if se.kind is StateKind.PARTITIONED]


def assert_owned(runtime):
    for se in partitioned(runtime):
        route_key = runtime.sdg.state(se).route_key
        partitioner = runtime.topology.partitioner(se)
        for instance in runtime.se_instances(se):
            for key, _value in instance.element.backend.items():
                assert partitioner.partition(route_key(key)) == \
                    instance.index, (se, key, instance.index)


def union(runtime):
    return {se: {key: value for instance in runtime.se_instances(se)
                 for key, value in instance.element.backend.items()}
            for se in partitioned(runtime)}


def restore_one_to_n(runtime, se):
    """Fail the node of ``se``'s only instance and restore it onto 3;
    a 1-to-1 restore when that node hosts a second SE (the iterative
    fixture's cycle colocates both of its SEs)."""
    (node,) = [node for node in runtime.nodes.values()
               if (se, 0) in node.se_instances]
    store = BackupStore()
    CheckpointManager(runtime, store).checkpoint_all()
    runtime.fail_node(node.node_id)
    n_new = 3 if len(node.se_instances) == 1 else 1
    RecoveryManager(runtime, store).recover_node(node.node_id, n_new=n_new)


def run(case, batches, disturb):
    runtime = Runtime(case.build(),
                      RuntimeConfig(se_instances={case.se: 1})).deploy()
    stages = [lambda: restore_one_to_n(runtime, case.se),
              lambda: runtime.scale_up(case.scale_te), lambda: None]
    for inputs, stage in zip(batches, stages):
        for te, payload in inputs:
            runtime.inject(te, payload)
        runtime.run_until_idle()
        assert_owned(runtime)
        if disturb:
            stage()
            runtime.run_until_idle()
            assert_owned(runtime)
    return union(runtime)


def same_state(case, got, want):
    if case.name != "pagerank":
        return got == want
    # Residual-push PageRank converges from any interleaving, to within
    # the residual it leaves behind: compare ranks approximately.
    got, want = got["vertices"], want["vertices"]
    return got.keys() == want.keys() and all(
        got[v]["out"] == want[v]["out"]
        and got[v]["rank"] == pytest.approx(want[v]["rank"], abs=1e-4)
        for v in want)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_split_keeps_keys_where_they_route(case, data):
    batches = [data.draw(case.inputs(stage)) for stage in range(3)]
    disturbed = run(case, batches, disturb=True)
    assert same_state(case, disturbed, run(case, batches, disturb=False))
