"""Failure recovery walkthrough (§5): checkpoint, kill, restore, replay.

A KV store checkpoints asynchronously (processing continues while the
cut copied at begin is persisted), a node is killed, and the state is
restored — first 1-to-1, then m-to-n onto two fresh nodes in parallel. Un-checkpointed
updates are replayed from upstream buffers and duplicates are discarded
by timestamp, so the recovered store is bit-identical to a failure-free
run.

Run with:

    python examples/fault_tolerant_kvstore.py
"""

from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.runtime import Runtime, RuntimeConfig
from repro.core import SDG, AccessMode, StateKind
from repro.state import KeyValueMap


def build_store() -> SDG:
    sdg = SDG("kvstore")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED,
                  partition_by="key")

    def serve(ctx, request):
        op, key, value = request
        if op == "put":
            ctx.state.put(key, value)
            return None
        return (key, ctx.state.get(key))

    sdg.add_task("serve", serve, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda r: r[1], entry_key_name="key")
    return sdg


def contents(runtime):
    merged = {}
    for inst in runtime.se_instances("table"):
        merged.update(dict(inst.element.items()))
    return merged


def main():
    runtime = Runtime(build_store(),
                      RuntimeConfig(se_instances={"table": 1})).deploy()
    store = BackupStore(m_targets=2)
    checkpoints = CheckpointManager(runtime, store)
    recovery = RecoveryManager(runtime, store)

    # Phase 1: ingest, then take an asynchronous checkpoint while more
    # updates keep flowing (the checkpoint copied its cut at begin).
    for i in range(200):
        runtime.inject("serve", ("put", i, i))
    runtime.run_until_idle()
    node = runtime.se_instance("table", 0).node_id
    pending = checkpoints.begin(node)
    for i in range(200, 300):
        runtime.inject("serve", ("put", i, i))
    served_mid = runtime.run_until_idle()
    element = runtime.se_instance("table", 0).element
    print(f"served {served_mid} updates while the checkpoint was open "
          f"(journalled for the next checkpoint: "
          f"{len(element.journal())})")
    checkpoint = checkpoints.complete(pending)
    print(f"checkpoint v{checkpoint.version}: "
          f"{checkpoint.state_entries()} entries in "
          f"{store.total_chunks()} chunks over "
          f"{store.m_targets} backup targets "
          f"(loads: {store.target_loads()})")

    # Phase 2: more un-checkpointed updates, then kill the node.
    for i in range(300, 400):
        runtime.inject("serve", ("put", i, i))
    runtime.run_until_idle()
    print(f"\nkilling node {node} "
          f"(holds {len(contents(runtime))} entries; "
          f"100 of them exist only in upstream buffers)")
    runtime.fail_node(node)

    # Phase 3: m-to-n recovery — restore the single failed partition
    # onto TWO fresh nodes in parallel (Fig. 4).
    new_nodes = recovery.recover_node(node, n_new=2)
    runtime.run_until_idle()
    restored = contents(runtime)
    print(f"restored onto nodes "
          f"{[n.node_id for n in new_nodes]} as "
          f"{len(runtime.se_instances('table'))} partitions")
    print(f"entries after recovery: {len(restored)} "
          f"(expected 400) -> "
          f"{'OK' if restored == {i: i for i in range(400)} else 'FAIL'}")

    # Reads keep working against the re-partitioned store.
    runtime.inject("serve", ("get", 42, None))
    runtime.inject("serve", ("get", 399, None))
    runtime.run_until_idle()
    print(f"post-recovery reads: {runtime.results['serve']}")


if __name__ == "__main__":
    main()
