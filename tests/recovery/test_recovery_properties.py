"""Property-based failure injection: recovery is transparent.

The paper's central recovery claim is that asynchronous local
checkpointing + replay + duplicate filtering reconstructs exactly the
state a failure-free execution would have produced, and that the client
sees every reply exactly once. We randomise the workload, the checkpoint
position, the failure position and the restore fan-out, and require
bit-identical state and the same replies per key.
"""

from collections import defaultdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def table_contents(runtime):
    merged = {}
    for inst in runtime.se_instances("table"):
        merged.update(dict(inst.element.items()))
    return merged


def replies_by_key(runtime):
    """Each key's get replies, in the order the client collected them."""
    replies = defaultdict(list)
    for key, value in runtime.results["serve"]:
        replies[key].append(value)
    return dict(replies)


operations = st.lists(
    st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 15),
              st.integers(0, 100)),
    min_size=1, max_size=60,
)


@given(
    ops=operations,
    checkpoint_at=st.integers(0, 60),
    fail_at=st.integers(0, 60),
    n_new=st.integers(1, 3),
    # After the run: fail one partition of the restore again, before
    # its own checkpoint, and (the flag) after a checkpoint of partition 0.
    refail=st.none() | st.tuples(st.integers(0, 2), st.booleans()),
)
@settings(max_examples=60, deadline=None)
# A get served after the checkpoint is replayed onto partition 1 of a
# 1-to-n restore (key 1 hashes there for n = 2 and 3): only a result
# filter the new partition shares with the failed slot drops the duplicate.
@example(ops=[("get", 1, 0)], checkpoint_at=0, fail_at=1, n_new=2,
         refail=None)
@example(ops=[("put", 1, 7), ("get", 1, 0), ("get", 3, 0)],
         checkpoint_at=1, fail_at=3, n_new=3, refail=None)
# A partition of a 1-to-n restore that fails before its own checkpoint
# is rebuilt from the split's source checkpoint, and its inputs since
# are still in the log, whichever partition checkpointed meanwhile.
@example(ops=[("put", i, i) for i in range(16)], checkpoint_at=8,
         fail_at=16, n_new=2, refail=(1, False))
@example(ops=[("put", i, i) for i in range(16)], checkpoint_at=8,
         fail_at=16, n_new=2, refail=(1, True))
def test_recovery_is_transparent(ops, checkpoint_at, fail_at, n_new,
                                 refail):
    checkpoint_at = min(checkpoint_at, len(ops))
    fail_at = min(max(fail_at, checkpoint_at), len(ops))

    def run(fail: bool):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 1}))
        runtime.deploy()
        store = BackupStore(m_targets=2)
        ckpt = CheckpointManager(runtime, store)
        rec = RecoveryManager(runtime, store)
        node = runtime.se_instance("table", 0).node_id

        for index, request in enumerate(ops):
            if fail:
                if index == checkpoint_at:
                    runtime.run_until_idle()
                    ckpt.checkpoint(node)
                if index == fail_at:
                    # Leave whatever is queued in the inbox to be lost.
                    runtime.fail_node(node)
                    rec.recover_node(node, n_new=n_new)
            runtime.inject("serve", request)
        if fail and fail_at >= len(ops):
            if checkpoint_at >= len(ops):
                runtime.run_until_idle()
                ckpt.checkpoint(node)
            runtime.run_until_idle()
            runtime.fail_node(node)
            rec.recover_node(node, n_new=n_new)
        runtime.run_until_idle()
        if fail and refail is not None:
            part, partition_0_checkpoints = refail[0] % n_new, refail[1]
            if partition_0_checkpoints and part != 0:
                ckpt.checkpoint(runtime.se_instance("table", 0).node_id)
            failed = runtime.se_instance("table", part).node_id
            runtime.fail_node(failed)
            rec.recover_node(failed)
            runtime.run_until_idle()
        return table_contents(runtime), replies_by_key(runtime)

    assert run(fail=True) == run(fail=False)
