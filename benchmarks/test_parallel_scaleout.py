"""Fig. 7 (parallel) — KV scale-out on the multiprocess substrate.

The paper's Fig. 7 scales a partitioned KV store across VMs; the
in-repo analogue so far scaled *logical* partitions inside one Python
process — more instances, same CPU. The multiprocess substrate makes
the claim physical: worker processes each own a slice of the
partitioned SE and serve requests concurrently.

The workload is deliberately **latency-bound** (a fixed per-item
service delay inside the task), mirroring the paper's request-serving
setup where per-request work dominates: speedup then comes from
workers overlapping service time, which holds even on the single-CPU
containers this suite runs in. The measured series — including an
in-process baseline and the cross-substrate state fingerprint — is
written to ``BENCH_parallel.json`` so CI can archive the trend.
"""

import json
import os
import time

from conftest import print_figure

from repro.core import SDG
from repro.core.elements import AccessMode, StateKind
from repro.durability.manifest import state_fingerprint
from repro.runtime import Runtime, RuntimeConfig
from repro.state import KeyValueMap

ITEMS = 400
SERVICE_DELAY_S = 0.002
PARTITIONS = 4
WORKER_COUNTS = (1, 2, 4)
RESULT_FILE = os.path.join(os.path.dirname(__file__),
                           "BENCH_parallel.json")


def build_slow_kv(delay: float) -> SDG:
    """A partitioned KV whose serve path has fixed service latency."""
    sdg = SDG("slowkv")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED)

    def serve(ctx, request):
        op, key, value = request
        time.sleep(delay)
        if op == "put":
            ctx.state.put(key, value)
            return None
        return (key, ctx.state.get(key))

    sdg.add_task("serve", serve, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda r: r[1], entry_key_name="key")
    return sdg


def timed_run(substrate: str, workers=None):
    config = RuntimeConfig(se_instances={"table": PARTITIONS},
                           substrate=substrate, workers=workers)
    runtime = Runtime(build_slow_kv(SERVICE_DELAY_S), config).deploy()
    try:
        start = time.perf_counter()
        for i in range(ITEMS):
            runtime.inject("serve", ("put", f"k{i}", i))
        processed = runtime.run_until_idle()
        wall = time.perf_counter() - start
        fingerprint = state_fingerprint(runtime)
    finally:
        runtime.close()
    assert processed == ITEMS
    return wall, fingerprint


def compute_figure():
    rows = []
    wall_inproc, fp_inproc = timed_run("inprocess")
    rows.append(("inprocess", "-", wall_inproc, ITEMS / wall_inproc,
                 1.0, fp_inproc))
    wall_base = None
    for workers in WORKER_COUNTS:
        wall, fingerprint = timed_run("multiprocess", workers=workers)
        # Every run must converge to the same merged state as the
        # deterministic in-process baseline.
        assert fingerprint == fp_inproc
        if wall_base is None:
            wall_base = wall
        rows.append(("multiprocess", workers, wall, ITEMS / wall,
                     wall_base / wall, fingerprint))
    return rows


def test_fig7_parallel_kv_scaleout(benchmark):
    rows = benchmark.pedantic(compute_figure, rounds=1, iterations=1)
    print_figure(
        "Fig. 7 (parallel): latency-bound KV on the multiprocess "
        "substrate",
        ["substrate", "workers", "wall (s)", "items/s",
         "speedup vs 1w", "state hash"],
        rows,
    )
    by_workers = {row[1]: row for row in rows if row[0] == "multiprocess"}
    # The acceptance bar: 4 workers overlap service latency for at
    # least a 1.5x wall-clock win over 1 worker (measured 3.5-4x).
    speedup_4 = by_workers[4][4]
    assert speedup_4 >= 1.5, (
        f"4-worker speedup {speedup_4:.2f}x below the 1.5x bar"
    )
    # Scaling is monotone across the sweep.
    walls = [by_workers[w][2] for w in WORKER_COUNTS]
    assert walls == sorted(walls, reverse=True)
    payload = {
        "items": ITEMS,
        "service_delay_s": SERVICE_DELAY_S,
        "partitions": PARTITIONS,
        "series": [
            {
                "substrate": row[0],
                "workers": None if row[1] == "-" else row[1],
                "wall_s": round(row[2], 4),
                "throughput_items_s": round(row[3], 1),
                "speedup_vs_1_worker": round(row[4], 2),
                "state_hash": row[5],
            }
            for row in rows
        ],
    }
    with open(RESULT_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def test_parallel_smoke_two_workers(benchmark):
    """The CI smoke rung: 2 workers must beat nothing — just agree.

    Fast cross-substrate differential on the real (non-slowed) KV app:
    the merged multiprocess state matches the deterministic in-process
    run bit-for-bit under ``state_fingerprint``.
    """
    from repro.testing import build_kv_sdg

    def run(substrate, workers=None):
        config = RuntimeConfig(se_instances={"table": PARTITIONS},
                               substrate=substrate, workers=workers)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        try:
            for i in range(200):
                runtime.inject("serve", ("put", f"k{i % 23}", i))
            runtime.run_until_idle()
            fingerprint = state_fingerprint(runtime)
        finally:
            runtime.close()
        return fingerprint

    def compare():
        return run("inprocess"), run("multiprocess", workers=2)

    inproc, multi = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert inproc == multi
