"""Reactive runtime parallelism on the real engine (§3.3).

A single-partition KV store is flooded with requests; the bottleneck
detector notices the backlog and the engine scales the TE (and its
partitioned state) while traffic keeps flowing. The scale-out events on
the runtime's event bus give the timeline, and a small step hook samples
the backlog — the in-process sibling of the paper's Fig. 10.

Run with:

    python examples/reactive_scaling.py
"""

from repro.apps import KeyValueStore
from repro.runtime import RuntimeConfig
from repro.workloads import KVWorkload


def main():
    app = KeyValueStore.launch(config=RuntimeConfig(
        se_instances={"table": 1},
        auto_scale=True,
        scale_threshold=30,
        max_instances=4,
        scale_check_every=100,
    ))
    put_te = app.translation.entry_info("put").entry_te
    backlog = []  # (engine step, queued items), every 200 steps

    def sample(runtime):
        if runtime.total_steps % 200 == 0:
            queued = sum(len(inst.inbox)
                         for inst in runtime.te_instances(put_te))
            backlog.append((runtime.total_steps, queued))

    app.runtime.add_step_hook(sample)

    workload = KVWorkload(n_keys=500, read_fraction=0.0, seed=31)
    for op in workload.ops(1_500):
        app.put(op.key, op.value)
    app.run()

    print("scaling timeline (step, TE, instances after):")
    for step, te_name, count in app.runtime.scale_events:
        print(f"  step {step:5d}: {te_name} -> {count} instances")
    print(f"\nfinal partitions: "
          f"{len(app.runtime.se_instances('table'))}")

    sizes = [len(element) for element in app.state_of("table")]
    print(f"keys per partition after rebalancing: {sizes} "
          f"(total {sum(sizes)})")

    print("\nbacklog samples (engine step -> queued items):")
    for step, queued in backlog[:8]:
        bar = "#" * min(60, queued // 10)
        print(f"  step {step:5d}: {queued:5d} {bar}")

    # Everything still correct after all that movement.
    workload_check = KVWorkload(n_keys=500, read_fraction=0.0, seed=31)
    expected = {}
    for op in workload_check.ops(1_500):
        expected[op.key] = op.value
    merged = {}
    for element in app.state_of("table"):
        merged.update(dict(element.items()))
    assert merged == expected
    print("\nstate identical to a sequential run  [ok]")


if __name__ == "__main__":
    main()
