"""Keyed routing: one frame per key, and always the current partitioner.

``HashPartitioner.partition`` inlines ``stable_hash``'s ``str`` case, so
the property below pins it to ``stable_hash(key) % n`` for every key
type a program routes by. The keyed entry and the keyed send read the
destination's router off the topology, which re-resolves it whenever
``Topology.set_partitioner`` moves an SE to a new epoch: after a 1-to-n
restore, nothing may still route by the partitioner it replaced.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.apps import build_wordcount_sdg
from repro.apps.wordcount import word_of
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.state import HashPartitioner
from repro.state.base import stable_hash

SCALARS = st.one_of(st.text(), st.integers(min_value=0),
                    st.integers(max_value=-1), st.booleans())
KEYS = st.one_of(SCALARS, st.tuples(SCALARS, SCALARS),
                 st.tuples(st.integers(), st.text(), st.booleans()))


@given(key=KEYS, n=st.integers(min_value=1, max_value=256))
def test_one_frame_partition_is_stable_hash_mod_n(key, n):
    assert HashPartitioner(n).partition(key) == stable_hash(key) % n


#: Two passes of lines over three 100-step windows; every word recurs.
LINES = [(t, " ".join(f"w{(t + 3 * j) % 11}" for j in range(4)))
         for t in range(0, 300, 10)]


def test_keys_route_by_the_partitioner_a_restore_installs():
    """Wordcount's keyed send (``split -> count``) and keyed entry
    (``query``) both meet the partition the restore put each word in."""
    runtime = Runtime(build_wordcount_sdg(window_size=100),
                      RuntimeConfig(se_instances={"counts": 1})).deploy()
    store = BackupStore()
    manager = CheckpointManager(runtime, store, trim_input_log=False)
    for item in LINES:
        runtime.inject("split", item)
    runtime.run_until_idle()
    manager.checkpoint_all()
    (count,) = runtime.te_instances("count")
    runtime.fail_node(count.node_id)
    RecoveryManager(runtime, store).recover_node(count.node_id, n_new=3)
    runtime.run_until_idle()
    assert runtime.topology.partitioner("counts") == HashPartitioner(3)

    routed = []
    deliver = runtime.transport.deliver

    def spy(envelope):
        routed.append(envelope)
        return deliver(envelope)

    runtime.transport.deliver = spy
    for item in LINES:
        runtime.inject("split", item)
    runtime.run_until_idle()
    oracle = Counter()
    for timestamp, line in LINES + LINES:
        for word in line.split():
            oracle[(timestamp // 100, word)] += 1
    for window, word in sorted(oracle):
        runtime.inject("query", (window, word))
    runtime.run_until_idle()

    new = HashPartitioner(3)
    for te in ("count", "query"):
        keyed = [e for e in routed if e.channel.dst_te == te]
        assert {e.channel.dst_instance for e in keyed} == {0, 1, 2}
        for envelope in keyed:
            assert envelope.channel.dst_instance == new.partition(
                word_of(envelope.payload)), envelope
    assert sorted(runtime.results["query"]) == sorted(
        (window, word, n) for (window, word), n in oracle.items())
