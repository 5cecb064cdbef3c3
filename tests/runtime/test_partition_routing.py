"""Keyed routing: one frame per key, and always the current partitioner.

``HashPartitioner.partition`` inlines ``stable_hash``'s ``str`` case, so
the property below pins it to ``stable_hash(key) % n`` for every key
type a program routes by. The keyed entry and the keyed send read the
destination's router off the topology, which re-resolves it whenever
``Topology.set_partitioner`` moves an SE to a new epoch: after a 1-to-n
restore, nothing may still route by the partitioner it replaced.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.state import HashPartitioner, KeyValueMap
from repro.state.base import stable_hash
from repro.testing import noop

SCALARS = st.one_of(st.text(), st.integers(min_value=0),
                    st.integers(max_value=-1), st.booleans())
KEYS = st.one_of(SCALARS, st.tuples(SCALARS, SCALARS),
                 st.tuples(st.integers(), st.text(), st.booleans()))


@given(key=KEYS, n=st.integers(min_value=1, max_value=256))
def test_one_frame_partition_is_stable_hash_mod_n(key, n):
    assert HashPartitioner(n).partition(key) == stable_hash(key) % n


def build_routed_kv_sdg() -> SDG:
    """A keyed send (``route -> put``) and a keyed entry (``get``) into
    one partitioned table whose storage key is the routing key."""
    sdg = SDG("routed-kv")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED,
                  partition_by="key")

    def put(ctx, request):
        key, value = request
        ctx.state.put(key, value)

    def get(ctx, key):
        return (key, ctx.state.get(key))

    sdg.add_task("route", noop, is_entry=True)
    sdg.add_task("put", put, state="table", access=AccessMode.PARTITIONED)
    sdg.add_task("get", get, state="table", access=AccessMode.PARTITIONED,
                 is_entry=True, entry_key_fn=lambda key: key,
                 entry_key_name="key")
    sdg.connect("route", "put", Dispatch.KEY_PARTITIONED,
                key_fn=lambda request: request[0], key_name="key")
    return sdg


def test_keys_route_by_the_partitioner_a_restore_installs():
    runtime = Runtime(build_routed_kv_sdg(),
                      RuntimeConfig(se_instances={"table": 1})).deploy()
    store = BackupStore()
    manager = CheckpointManager(runtime, store, trim_input_log=False)
    oracle = {}
    for i in range(30):
        runtime.inject("route", (f"k{i}", i))
        oracle[f"k{i}"] = i
    runtime.run_until_idle()
    manager.checkpoint_all()
    (put,) = runtime.te_instances("put")
    runtime.fail_node(put.node_id)
    RecoveryManager(runtime, store).recover_node(put.node_id, n_new=3)
    runtime.run_until_idle()
    assert runtime.topology.partitioner("table") == HashPartitioner(3)

    routed = []
    deliver = runtime.transport.deliver

    def spy(envelope):
        routed.append(envelope)
        return deliver(envelope)

    runtime.transport.deliver = spy
    for i in range(20, 60):
        runtime.inject("route", (f"k{i}", -i))
        oracle[f"k{i}"] = -i
    runtime.run_until_idle()
    for key in sorted(oracle):
        runtime.inject("get", key)
    runtime.run_until_idle()

    new = HashPartitioner(3)
    for te, key_of in (("put", lambda payload: payload[0]),
                       ("get", lambda payload: payload)):
        keyed = [e for e in routed if e.channel.dst_te == te]
        assert {e.channel.dst_instance for e in keyed} == {0, 1, 2}
        for envelope in keyed:
            assert envelope.channel.dst_instance == new.partition(
                key_of(envelope.payload)), envelope
    assert sorted(runtime.results["get"]) == sorted(oracle.items())
