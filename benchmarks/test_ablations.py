"""Ablations of the design choices DESIGN.md calls out.

Each ablation removes one mechanism the paper argues for and shows the
claimed benefit disappears:

1. the asynchronous checkpoint (vs locking the SE for the whole
   persist; the paper buffers with a dirty overlay, the engine copies
   a cut at begin);
2. pipelined materialisation (vs adding per-batch scheduling overhead);
3. m-to-n parallel restore (vs a single restore stream, and the shift
   of the bottleneck from disk to reconstruction);
4. partial state with merge (the barrier cost that explains Fig. 5's
   slope: reads get more expensive as replicas are added).
"""

from conftest import print_figure

from repro.apps import CollaborativeFiltering
from repro.recovery import BackupStore, CheckpointManager
from repro.runtime import Runtime, RuntimeConfig
from repro.simulation import (
    microbatch_throughput,
    pipelined_throughput,
    recovery_time,
)
from repro.simulation.recovery_model import RecoveryParams

from repro.testing import build_kv_sdg


def test_ablation_dirty_state_overlay(benchmark):
    """Without asynchrony, a checkpoint blocks every update in flight.

    We measure, on the real engine, how many requests the node serves
    *between checkpoint begin and completion*: with the cut copied at
    begin they all proceed; the ablation (complete immediately =
    lock-the-world) forces them to wait for the checkpoint.
    """

    def run():
        outcomes = {}
        for overlap in (True, False):
            runtime = Runtime(build_kv_sdg(),
                              RuntimeConfig(se_instances={"table": 1}))
            runtime.deploy()
            manager = CheckpointManager(runtime, BackupStore())
            for i in range(100):
                runtime.inject("serve", ("put", i, i))
            runtime.run_until_idle()
            node = runtime.se_instance("table", 0).node_id
            pending = manager.begin(node)
            for i in range(100, 200):
                runtime.inject("serve", ("put", i, i))
            if overlap:
                served = runtime.run_until_idle()  # checkpoint open
                manager.complete(pending)
            else:
                manager.complete(pending)          # world stops first
                served = 0
                runtime.run_until_idle()
            outcomes["asynchronous" if overlap else "locked"] = served
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "Ablation 1: requests served during an open checkpoint",
        ["mode", "requests served mid-checkpoint"],
        list(outcomes.items()),
    )
    assert outcomes["asynchronous"] == 100
    assert outcomes["locked"] == 0


def test_ablation_pipelining(benchmark):
    """Reintroducing scheduling overhead erodes small-window throughput.

    Sweeping the per-batch scheduling overhead from 0 (pure pipelining)
    upwards shows the SDG advantage in Fig. 8 is exactly the absence of
    that term.
    """

    def compute():
        rows = []
        service_rate = 90_000.0
        for overhead_ms in (0.0, 1.0, 5.0, 20.0, 100.0):
            if overhead_ms == 0.0:
                throughput = pipelined_throughput(service_rate)
            else:
                throughput = microbatch_throughput(
                    service_rate, batch_size=1_000,
                    scheduling_overhead_s=overhead_ms / 1000,
                )
            rows.append((overhead_ms, throughput))
        return rows

    rows = benchmark(compute)
    print_figure(
        "Ablation 2: throughput vs scheduling overhead (1k batches)",
        ["scheduling overhead (ms)", "throughput (items/s)"],
        rows,
    )
    throughputs = [t for _o, t in rows]
    assert throughputs == sorted(throughputs, reverse=True)
    assert throughputs[0] / throughputs[-1] > 5


def test_ablation_mton_bottleneck_shift(benchmark):
    """Parallel restore helps only the phase that is the bottleneck.

    With a fast reconstructor, disk reads dominate and extra backup
    disks (m) help; with a slow reconstructor (the realistic large-state
    regime), extra recovering nodes (n) are what matters — the paper's
    Fig. 11 observation.
    """

    def compute():
        fast_rebuild = RecoveryParams(reconstruct_rate=1e9)
        slow_rebuild = RecoveryParams(reconstruct_rate=60e6)
        rows = []
        for label, params in (("disk-bound", fast_rebuild),
                              ("rebuild-bound", slow_rebuild)):
            base = recovery_time(4e9, 1, 1, params)
            gain_m = base - recovery_time(4e9, 2, 1, params)
            gain_n = base - recovery_time(4e9, 1, 2, params)
            rows.append((label, base, gain_m, gain_n))
        return rows

    rows = benchmark(compute)
    print_figure(
        "Ablation 3: who benefits from m vs n",
        ["regime", "1-to-1 time (s)", "gain from m=2 (s)",
         "gain from n=2 (s)"],
        rows,
    )
    disk_bound, rebuild_bound = rows
    assert disk_bound[2] >= disk_bound[3]      # m helps when disk-bound
    assert rebuild_bound[3] > rebuild_bound[2]  # n helps when CPU-bound


def test_ablation_merge_barrier_cost(benchmark):
    """Each added partial instance makes a global read do more work.

    Measured on the real engine: getRec fans out to every co-occurrence
    replica and the merge barrier gathers one response per replica, so
    per-read engine steps grow with the replica count while per-write
    steps stay flat. This is the mechanism behind Fig. 5's slope.
    """

    def compute():
        rows = []
        for replicas in (1, 2, 4, 8):
            app = CollaborativeFiltering.launch(
                user_item=2, co_occ=replicas,
                config=RuntimeConfig(max_instances=16),
            )
            for i in range(40):
                app.add_rating(i % 10, i % 7, 3)
            app.run()
            before = app.runtime.total_steps
            for user in range(20):
                app.get_rec(user % 10)
            app.run()
            read_steps = (app.runtime.total_steps - before) / 20
            rows.append((replicas, read_steps))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print_figure(
        "Ablation 4: per-read engine steps vs partial replicas",
        ["co_occ replicas", "steps per getRec"],
        rows,
    )
    steps = [s for _r, s in rows]
    assert steps == sorted(steps)
    assert steps[-1] > steps[0] * 2
