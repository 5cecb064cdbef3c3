"""Optimizer smoke — capability-driven dispatch on a wide graph.

The coalescing licence pays where per-envelope dispatch overhead
dominates: a *wide* partitioned KV (many SE instances) under the
longest-queue policy re-ranks every instance on every engine step, so
serving one envelope per step is mostly scheduling. With
``optimize=True`` the certifier grants ``COALESCIBLE_DISPATCH`` on the
entry and one scheduling decision then serves a run of up to 64
consecutive same-channel envelopes.

The measured pair (baseline vs optimized, best-of-N walls) is written
to ``BENCH_optimizer.json`` so CI can archive the trend; the run
asserts the acceptance bar — at least a 1.2x dispatch speedup — and,
as everywhere else in the optimizer work, byte-identical
``state_fingerprint`` between the two modes.
"""

import json
import os
import time

from conftest import print_figure

from repro.durability.manifest import state_fingerprint
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg

ITEMS = 6000
PARTITIONS = 32
SCHEDULER = "longest_queue"
ROUNDS = 3
RESULT_FILE = os.path.join(os.path.dirname(__file__),
                           "BENCH_optimizer.json")


def timed_run(optimize: bool):
    config = RuntimeConfig(se_instances={"table": PARTITIONS},
                           scheduler=SCHEDULER, optimize=optimize)
    runtime = Runtime(build_kv_sdg(), config).deploy()
    try:
        start = time.perf_counter()
        for i in range(ITEMS):
            runtime.inject("serve", ("put", i % (PARTITIONS * 5), i))
        runtime.run_until_idle()
        wall = time.perf_counter() - start
        fingerprint = state_fingerprint(runtime)
        metrics = runtime.merged_metrics()
        coalesced = int(metrics.total("dispatch_coalesced_total"))
        processed = int(metrics.total("engine_items_processed_total"))
    finally:
        runtime.close()
    assert processed == ITEMS
    return wall, fingerprint, coalesced


def best_of(optimize: bool):
    """Best wall over ROUNDS runs (noise floor for sub-second walls)."""
    runs = [timed_run(optimize) for _ in range(ROUNDS)]
    fingerprints = {fp for _, fp, _ in runs}
    assert len(fingerprints) == 1, "non-deterministic state"
    wall = min(w for w, _, _ in runs)
    return wall, runs[0][1], runs[0][2]


def compute_figure():
    wall_base, fp_base, co_base = best_of(optimize=False)
    wall_opt, fp_opt, co_opt = best_of(optimize=True)
    # The optimizer's contract: same state, fewer dispatch decisions.
    assert fp_opt == fp_base
    assert co_base == 0 and co_opt > 0
    return [
        ("baseline", wall_base, ITEMS / wall_base, 1.0, co_base, fp_base),
        ("optimized", wall_opt, ITEMS / wall_opt, wall_base / wall_opt,
         co_opt, fp_opt),
    ]


def test_optimizer_wide_graph_dispatch(benchmark):
    rows = benchmark.pedantic(compute_figure, rounds=1, iterations=1)
    print_figure(
        "Optimizer: wide-graph KV dispatch, baseline vs "
        "capability-driven coalescing",
        ["mode", "wall (s)", "items/s", "speedup", "coalesced",
         "state hash"],
        rows,
    )
    speedup = rows[1][3]
    assert speedup >= 1.2, (
        f"optimized dispatch {speedup:.2f}x below the 1.2x bar"
    )
    payload = {
        "items": ITEMS,
        "partitions": PARTITIONS,
        "scheduler": SCHEDULER,
        "rounds_best_of": ROUNDS,
        "series": [
            {
                "mode": row[0],
                "wall_s": round(row[1], 4),
                "throughput_items_s": round(row[2], 1),
                "speedup_vs_baseline": round(row[3], 2),
                "dispatch_coalesced_total": row[4],
                "state_hash": row[5],
            }
            for row in rows
        ],
    }
    with open(RESULT_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
