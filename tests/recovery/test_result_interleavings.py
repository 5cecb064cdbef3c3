"""Collected results under any legal interleaving equal a failure-free run.

The result consumer filters replayed outputs by the stamps collected
per (TE, stream), and gathered replies by completed request ids that
full checkpoints trim. Hypothesis drives random interleavings of
injection, single steps, asynchronous full and delta checkpoints (begin
and complete apart), node failures, restores (1-to-1, 1-to-n,
base-only), scale-ups (KV) and chaos duplicates, and the client must
see exactly what a failure-free run shows it: per key for KV, and for
CF the reply count plus the final recommendation vectors. Two more
tests pin what rescaling does to stamps under a round-robin and a dead
keyed producer.
"""

from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.errors import RecoveryError, RuntimeExecutionError
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointPolicy,
    RecoveryManager,
)
from repro.runtime import Runtime, RuntimeConfig
from repro.state import KeyValueMap

from tests.helpers import build_cf_sdg, build_kv_sdg

USERS = range(4)

control = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 8)),
    st.tuples(st.just("begin"), st.integers(0, 5)),
    st.tuples(st.just("complete")),
    st.tuples(st.just("fail"), st.integers(0, 5)),
    st.tuples(st.just("recover"), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("dup"), st.integers(0, 5)),
)
kv_actions = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 11), st.integers(0, 50)),
    st.tuples(st.just("get"), st.integers(0, 11)),
    st.tuples(st.just("scale"), st.just("serve")),
    control,
), max_size=50)
cf_actions = st.lists(st.one_of(
    st.tuples(st.just("rate"), st.sampled_from(USERS), st.integers(0, 5),
              st.integers(1, 5)),
    st.tuples(st.just("rec"), st.sampled_from(USERS)),
    control,
), max_size=50)


class Controller:
    """Applies control actions to one deployment, as a supervisor would."""

    def __init__(self, sdg, se_instances, *, full_every, trim_input_log,
                 max_fan_out):
        self.runtime = Runtime(
            sdg, RuntimeConfig(se_instances=se_instances)).deploy()
        store = BackupStore(m_targets=2)
        self.ckpt = CheckpointManager(
            self.runtime, store, trim_input_log=trim_input_log,
            policy=CheckpointPolicy(full_every=full_every))
        self.rec = RecoveryManager(self.runtime, store)
        self.max_fan_out = max_fan_out
        self.pending = {}
        self.dead = []

    def _pick(self, choices, pick):
        return choices[pick % len(choices)] if choices else None

    def apply(self, action):
        runtime = self.runtime
        kind = action[0]
        alive = sorted(node.node_id for node in runtime.alive_nodes())
        if kind == "step":
            for _ in range(action[1]):
                if not runtime.step():
                    break
        elif kind == "begin":
            node = self._pick(alive, action[1])
            if node is not None and node not in self.pending:
                self.pending[node] = self.ckpt.begin(node)
        elif kind == "complete":
            self.complete()
        elif kind == "fail":
            node = self._pick(alive, action[1])
            if node is not None:
                runtime.fail_node(node)
                self.dead.append(node)
        elif kind == "recover":
            self.recover(min(action[1], self.max_fan_out),
                         base_only=action[2])
        elif kind == "scale":
            # Only where log replay can stand in for the checkpoints a
            # repartition makes stale. Refused mid-checkpoint, and while
            # a partition is down.
            if not self.pending and not self.ckpt.trim_input_log:
                try:
                    runtime.scale_up(action[1])
                except RuntimeExecutionError:
                    pass
        elif kind == "dup":
            # The chaos injector's duplicate fault: re-append the head.
            queued = [inst for inst in runtime.all_te_instances()
                      if inst.inbox and runtime.nodes[inst.node_id].alive]
            instance = self._pick(queued, action[1])
            if instance is not None:
                instance.inbox.append(instance.inbox[0])

    def complete(self):
        for pending in self.pending.values():
            self.ckpt.complete(pending)
        self.pending.clear()

    def recover(self, n_new=1, base_only=False):
        for node in self.dead:
            try:
                self.rec.recover_node(node, n_new=n_new,
                                      use_deltas=not base_only)
            except RecoveryError:
                # The supervisor's ladder: an n-way restore refused, then
                # a checkpoint older than a repartition.
                try:
                    self.rec.recover_node(node, use_deltas=not base_only)
                except RecoveryError:
                    self.rec.recover_node(node, use_checkpoint=False)
        self.dead.clear()

    def finish(self):
        self.complete()
        self.recover()
        self.runtime.run_until_idle()


def kv_replies(ops, controller=None):
    runtime = (controller.runtime if controller is not None else
               Runtime(build_kv_sdg(),
                       RuntimeConfig(se_instances={"table": 1})).deploy())
    for action in ops:
        if action[0] == "put":
            runtime.inject("serve", action)
        elif action[0] == "get":
            runtime.inject("serve", ("get", action[1], None))
        elif controller is not None:
            controller.apply(action)
    if controller is not None:
        controller.finish()
    runtime.run_until_idle()
    replies = defaultdict(list)
    for key, value in runtime.results["serve"]:
        replies[key].append(value)
    return dict(replies)


def cf_replies(ops, controller=None):
    runtime = (controller.runtime if controller is not None else
               Runtime(build_cf_sdg(), RuntimeConfig(
                   se_instances={"userItem": 1, "coOcc": 2})).deploy())
    for action in ops:
        if action[0] == "rate":
            runtime.inject("updateUserItem", action[1:])
        elif action[0] == "rec":
            runtime.inject("getUserVec", action[1])
        elif controller is not None:
            controller.apply(action)
    if controller is not None:
        controller.finish()
    runtime.run_until_idle()
    count = len(runtime.results["mergeRec"])
    for user in USERS:
        runtime.inject("getUserVec", user)
    runtime.run_until_idle()
    final = {}
    for user, vector in runtime.results["mergeRec"][count:]:
        values = vector.to_list()
        while values and values[-1] == 0:
            values.pop()
        final[user] = values
    return count, final


@given(ops=kv_actions, full_every=st.sampled_from([1, 2, 0]),
       trim_input_log=st.booleans())
@settings(max_examples=120, deadline=None)
# Gets served after a checkpoint are replayed onto the partitions of a
# 1-to-n restore; keys 1 and 3 hash to partitions 1 and 0 of two.
@example(ops=[("begin", 0), ("complete",), ("get", 1), ("get", 3),
              ("step", 2), ("fail", 0), ("recover", 2, False)],
         full_every=1, trim_input_log=False)
@example(ops=[("put", 1, 5), ("begin", 0), ("get", 1), ("step", 3),
              ("complete",), ("get", 1), ("step", 1), ("fail", 0),
              ("recover", 3, True)],
         full_every=2, trim_input_log=False)
# A repartition re-sends a queued get under a fresh stamp: a log-replayed
# copy of one already answered, and a chaos duplicate, are answered once.
@example(ops=[("get", 0), ("step", 1), ("fail", 0), ("recover", 1, False),
              ("scale", "serve")],
         full_every=1, trim_input_log=False)
@example(ops=[("get", 0), ("dup", 0), ("scale", "serve")],
         full_every=1, trim_input_log=False)
def test_kv_replies_survive_any_interleaving(ops, full_every,
                                             trim_input_log):
    controller = Controller(
        build_kv_sdg(), {"table": 1}, full_every=full_every,
        trim_input_log=trim_input_log,
        # A 1-to-n partition that fails before its first checkpoint
        # needs the untrimmed input log (test_multi_failures pins the
        # trimmed case).
        max_fan_out=1 if trim_input_log else 3)
    assert kv_replies(ops, controller) == kv_replies(ops)


@given(ops=cf_actions, full_every=st.sampled_from([1, 2, 0]),
       trim_input_log=st.booleans())
@settings(max_examples=80, deadline=None)
# A get_rec completed between a merge node's checkpoint begin and
# complete is not covered by it: the trim must keep its request id.
@example(ops=[("rate", 0, 1, 3), ("rate", 0, 2, 4), ("rec", 0),
              ("begin", 3), ("step", 8), ("step", 8), ("complete",),
              ("fail", 3), ("recover", 1, False)],
         full_every=1, trim_input_log=True)
# A broadcast re-executed after the broadcaster's node fails regenerates
# the request id the surviving replica already answered.
@example(ops=[("rate", 0, 0, 5), ("rate", 0, 1, 3), ("rate", 1, 0, 4),
              ("step", 8), ("begin", 0), ("begin", 2), ("complete",),
              ("rec", 0), ("step", 1), ("fail", 0), ("fail", 1),
              ("recover", 1, False)],
         full_every=1, trim_input_log=False)
def test_cf_replies_survive_any_interleaving(ops, full_every,
                                             trim_input_log):
    # 1-to-1 only: a 1-to-n restore of ``userItem`` re-sends replayed
    # outputs on the new partitions' fresh streams (ROADMAP item 2(c)).
    # No scale-ups, for two reasons. A repartition still re-sends a
    # queued input under a fresh stamp, so a copy whose twin was served
    # elsewhere runs twice (item 2(b)). And a producer log-replayed after
    # a repartition re-mints request ids its predecessor used, so a
    # reply is filtered (item 2(e); the strict xfail below).
    controller = Controller(
        build_cf_sdg(), {"userItem": 1, "coOcc": 2}, full_every=full_every,
        trim_input_log=trim_input_log, max_fan_out=1)
    assert cf_replies(ops, controller) == cf_replies(ops)


def test_scale_up_then_log_replay_collects_each_reply_once():
    """A slot that gains keys at a scale-up shares what every slot
    collected: log-replaying it before it served anything new must not
    answer the pre-scale gets again."""

    def replies(fail):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 1})).deploy()
        store = BackupStore()
        ckpt = CheckpointManager(runtime, store, trim_input_log=False)
        for key in range(8):
            runtime.inject("serve", ("put", key, key))
            runtime.inject("serve", ("get", key, None))
        runtime.run_until_idle()
        ckpt.checkpoint_all()
        runtime.scale_up("serve")
        if fail:
            node = runtime.te_instance("serve", 1).node_id
            runtime.fail_node(node)
            # Its only checkpoint predates the repartition: log replay.
            RecoveryManager(runtime, store).recover_node(
                node, use_checkpoint=False)
            runtime.run_until_idle()
        for key in range(8):
            runtime.inject("serve", ("get", key, None))
        runtime.run_until_idle()
        return sorted(runtime.results["serve"], key=repr)

    assert replies(fail=True) == replies(fail=False)


def build_relay_sdg(keyed):
    """``src`` relays each item of a list to a terminal ``sink``:
    round-robin to a stateless one, or by key to one over a partitioned
    table."""
    sdg = SDG("relay")

    def fan_out(ctx, items):
        for item in items:
            ctx.emit(item)

    sdg.add_task("src", fan_out, is_entry=True)
    if not keyed:
        sdg.add_task("sink", lambda ctx, item: item)
        sdg.connect("src", "sink", Dispatch.ONE_TO_ANY)
        return sdg
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED)

    def store(ctx, item):
        ctx.state.put(*item)
        return item

    sdg.add_task("sink", store, state="table",
                 access=AccessMode.PARTITIONED)
    sdg.connect("src", "sink", Dispatch.KEY_PARTITIONED,
                key_fn=lambda item: item[0], key_name="key")
    return sdg


def test_scale_up_then_producer_restore_collects_each_reply_once():
    """A restored round-robin producer re-sends its stamps to other
    slots of the grown TE than the first time: each is still a
    duplicate of the item collected under that stamp."""

    def replies(fail):
        runtime = Runtime(build_relay_sdg(keyed=False), RuntimeConfig(
            te_instances={"sink": 2})).deploy()
        store = BackupStore()
        runtime.inject("src", [0, 1])
        runtime.run_until_idle()
        CheckpointManager(runtime, store).checkpoint_all()
        runtime.inject("src", [2, 3, 4, 5])
        runtime.run_until_idle()
        runtime.scale_up("sink")
        if fail:
            node = runtime.te_instance("src", 0).node_id
            runtime.fail_node(node)
            RecoveryManager(runtime, store).recover_node(node)
            runtime.run_until_idle()
        runtime.inject("src", [6])
        runtime.run_until_idle()
        return sorted(runtime.results["sink"])

    assert replies(fail=False) == list(range(7))
    assert replies(fail=True) == list(range(7))


def test_scale_up_under_a_dead_producer_collects_each_reply_once():
    """A queued item of a dead producer keeps its stamp across a
    repartition, below one a sibling slot already collected: it is
    collected once, and the producer's replay adds nothing."""
    runtime = Runtime(build_relay_sdg(keyed=True), RuntimeConfig(
        se_instances={"table": 2})).deploy()
    # Keys 0 and 2 go to partition 0 of two, key 1 to partition 1: the
    # stamps are 1 and 2 at slot 0, and 3 at slot 1.
    runtime.inject("src", [(0, 0), (2, 2), (1, 1)])
    while len(runtime.results.get("sink", ())) < 2:
        runtime.step()
    assert sorted(runtime.results["sink"]) == [(0, 0), (1, 1)]
    assert [e.ts for e in runtime.te_instance("sink", 0).inbox] == [2]
    node = runtime.te_instance("src", 0).node_id
    runtime.fail_node(node)
    runtime.scale_up("sink")
    runtime.run_until_idle()
    RecoveryManager(runtime, BackupStore()).recover_node(node)
    runtime.run_until_idle()
    assert sorted(runtime.results["sink"]) == [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize("served", [False, True])
def test_scale_up_reroutes_a_duplicated_input_once(served):
    """A copy of an input queued at a repartition is one item with its
    original, whether the original is queued beside it (a chaos
    duplicate) or was already served (a replayed copy): the
    repartition drops the copy, as its old slot would have at serve
    time, and re-sends only an original still queued."""
    runtime = Runtime(build_cf_sdg(), RuntimeConfig(
        se_instances={"userItem": 1, "coOcc": 2})).deploy()
    for user, item, rating in [(0, 1, 3), (0, 2, 4), (1, 1, 5), (1, 3, 2),
                               (2, 0, 1)]:
        runtime.inject("updateUserItem", (user, item, rating))
    runtime.inject("getUserVec", 0)
    instance = runtime.te_instance("getUserVec", 0)
    copy = instance.inbox[0]
    if served:
        while instance.inbox:
            runtime.step()
    instance.inbox.append(copy)
    node = runtime.nodes[instance.node_id]
    runtime.scale_up("updateUserItem")
    runtime.run_until_idle()
    assert len(runtime.results["mergeRec"]) == 1
    assert node.duplicates_dropped == 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2(e): a producer log-replayed after a repartition "
    "replays nothing and re-mints a request id its predecessor used"))
def test_log_replay_after_a_repartition_keeps_every_reply():
    """``getUserVec[0]`` broadcasts for user 1, then user 1 moves to
    slot 1 and slot 0 fails with no checkpoint. Its log replay finds
    nothing to serve, so its next broadcast re-mints the request id the
    merge already completed, and that reply is filtered."""
    runtime = Runtime(build_cf_sdg(), RuntimeConfig(
        se_instances={"userItem": 1, "coOcc": 2})).deploy()
    store = BackupStore()
    CheckpointManager(runtime, store, trim_input_log=False)
    runtime.inject("getUserVec", 1)
    runtime.step()
    runtime.scale_up("updateUserItem")
    node = runtime.te_instance("getUserVec", 0).node_id
    runtime.fail_node(node)
    RecoveryManager(runtime, store).recover_node(node)  # log replay
    runtime.run_until_idle()
    count = len(runtime.results["mergeRec"])
    for user in USERS:
        runtime.inject("getUserVec", user)
    runtime.run_until_idle()
    assert len(runtime.results["mergeRec"]) - count == len(USERS)
