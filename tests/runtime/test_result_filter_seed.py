"""The result filter, built late, is the record kept item by item.

Until something can replay, ``_serve`` keeps no result stamp; then
``Runtime.start_result_filter`` seeds the filter from the input logs,
the output buffers and each slot's ``last_seen``. Hypothesis drives
injects, steps and asynchronous checkpoints (begin and complete apart,
input logs trimmed or kept) while a spy on ``substrate.process`` records
every stamp a terminal slot served. After the build, a stamp is in the
filter if and only if the spy saw it served, on KV over 4 partitions
(one input stream), on wordcount, whose terminal ``count`` sits behind
an internal edge (one stream per ``split`` slot) beside the ``query``
entry, and on a merge TE fed items outside any gather (stamped like any
other stream, so seeded too). Two deterministic cases build the filter
first on the supervised-crash path and at a chaos drop: the client
still sees every reply once, as in a failure-free run.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.wordcount import build_wordcount_sdg
from repro.chaos import DropEnvelope, FaultInjector, FaultPlan
from repro.core import SDG, Dispatch
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.envelope import INPUT_EDGE, ChannelId

from tests.helpers import build_kv_sdg

WORDS = ["the", "fox", "dog", "state", "of", "days"]

actions = st.lists(st.one_of(
    st.tuples(st.just("inject"), st.integers(1, 12)),
    st.tuples(st.just("step"), st.integers(1, 8)),
    st.tuples(st.just("begin"), st.integers(0, 7)),
    st.tuples(st.just("complete")),
), max_size=60)


def kv_input(i):
    return "serve", (("put", i % 12, i) if i % 2 else ("get", i % 12, None))


def wc_input(i):
    if i % 3 == 0:
        return "query", (0, WORDS[i % len(WORDS)])
    return "split", (i, " ".join(WORDS[i % 4:i % 4 + 1 + i % 3]))


def build_relay_to_merge_sdg():
    sdg = SDG("relay_to_merge")
    sdg.add_task("relay", lambda ctx, item: item, is_entry=True)
    sdg.add_task("merge", lambda ctx, item: item, is_merge=True)
    sdg.connect("relay", "merge", Dispatch.ALL_TO_ONE)
    return sdg


KV = (build_kv_sdg, RuntimeConfig(se_instances={"table": 4}), kv_input)
WC = (build_wordcount_sdg,
      RuntimeConfig(se_instances={"counts": 4}, te_instances={"split": 2}),
      wc_input)
MERGE = (build_relay_to_merge_sdg, RuntimeConfig(te_instances={"relay": 2}),
         lambda i: ("relay", i))


def spy_served(runtime) -> set:
    """``(te, stream, ts)`` of each terminal item whose slot's
    ``last_seen`` advanced to its stamp, from now on."""
    served = set()
    process = runtime.substrate.process
    terminal = runtime._terminal_tes

    def spy(instance, envelope):
        stream = envelope.channel[:3]
        before = instance.last_seen.get(stream, 0)
        process(instance, envelope)
        after = instance.last_seen.get(stream, 0)
        if instance.name in terminal and before < after == envelope.ts:
            served.add((instance.name, stream, envelope.ts))

    runtime.substrate.process = spy
    return served


def terminal_streams(runtime) -> list:
    """``(te, stream, top)`` of every stream into a terminal TE, with
    ``top`` the highest stamp issued on it."""
    streams = []
    for te in runtime._terminal_tes:
        inputs = runtime._entries.get(te)
        if inputs is not None:
            streams.append((te, (INPUT_EDGE, "__input__", 0), inputs.seq))
        for e, edge in enumerate(runtime.sdg.dataflows):
            if edge.dst == te:
                streams.extend((te, (e, edge.src, p.index),
                                p.out_seq.get(e, 0))
                               for p in runtime.te_instances(edge.src))
    return streams


def held(runtime, te, stream, top) -> set:
    """The stamps in ``1..top`` the filter counts as collected."""
    record = runtime._result_stamps.get(ChannelId(*stream, te, 0))
    if record is None:
        return set()
    return {t for t in range(1, top + 1)
            if t <= record.low or t in record.ahead}


def drive(app, ops, trim_input_log):
    build, config, input_of = app
    runtime = Runtime(build(), config).deploy()
    served = spy_served(runtime)
    manager = CheckpointManager(runtime, BackupStore(m_targets=2),
                                trim_input_log=trim_input_log)
    nodes = sorted(node.node_id for node in runtime.alive_nodes())
    pending, injected = {}, 0
    for op in ops:
        if op[0] == "inject":
            for i in range(injected, injected + op[1]):
                runtime.inject(*input_of(i))
            injected += op[1]
        elif op[0] == "step":
            for _ in range(op[1]):
                if not runtime.step():
                    break
        elif op[0] == "begin":
            node = nodes[op[1] % len(nodes)]
            if node not in pending:
                pending[node] = manager.begin(node)
        else:
            for checkpoint in pending.values():
                manager.complete(checkpoint)
            pending.clear()
    return runtime, served


@settings(max_examples=60, deadline=None)
@given(app=st.sampled_from([KV, WC, MERGE]), ops=actions,
       trim_input_log=st.booleans())
# A gap: ``split`` slot 1's stamp 3 served before its stamps 1 and 2.
@example(app=WC, ops=[("inject", 12), ("step", 3)], trim_input_log=False)
def test_the_seed_holds_exactly_the_served_stamps(app, ops,
                                                  trim_input_log):
    runtime, served = drive(app, ops, trim_input_log)
    assert runtime._result_stamps is None
    runtime.start_result_filter()
    streams = terminal_streams(runtime)
    for te, stream, top in streams:
        assert held(runtime, te, stream, top) == {
            ts for name, key, ts in served if (name, key) == (te, stream)}
    # The rest is collected item by item on top of the seed.
    runtime.run_until_idle()
    for te, stream, top in streams:
        assert held(runtime, te, stream, top) == set(range(1, top + 1))


def kv_replies(first_build=None):
    """KV replies over 300 requests; ``first_build(runtime)`` runs after
    100 steps and must leave a failed node, which is then recovered."""
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": 4})).deploy()
    for i in range(300):
        runtime.inject(*kv_input(i))
    for _ in range(100):
        runtime.step()
    if first_build is not None:
        assert runtime._result_stamps is None
        first_build(runtime)
        runtime.run_until_idle()
        (dead,) = [n for n in runtime.nodes.values() if not n.alive]
        assert runtime._result_stamps is not None
        RecoveryManager(runtime, BackupStore()).recover_node(dead.node_id)
    runtime.run_until_idle()
    return Counter(runtime.results["serve"])


def test_a_supervised_crash_builds_the_filter_with_its_item_open():
    def crash(runtime):
        runtime.add_crash_handler(lambda *_: None)
        victim = next(inst for inst in runtime.te_instances("serve")
                      if inst.inbox)
        victim.crash_next = True

    assert kv_replies(crash) == kv_replies()


def test_a_chaos_drop_builds_the_filter_before_its_pop():
    def drop(runtime):
        victim = next(inst for inst in runtime.te_instances("serve")
                      if inst.inbox)
        FaultInjector(runtime, FaultPlan([DropEnvelope(
            at_step=runtime.total_steps + 1, te="serve",
            index=victim.index)])).install()

    assert kv_replies(drop) == kv_replies()
