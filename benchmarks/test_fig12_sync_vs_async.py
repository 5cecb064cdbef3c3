"""Fig. 12 — synchronous vs asynchronous checkpointing.

The paper grows the checkpoint from 1 to 4 GB and compares throughput
and 99th-percentile latency under the two mechanisms. Expected shape:

* sync: throughput drops ~33% at 4 GB; p99 latency climbs from ~2 s to
  ~8 s (processing stops during the checkpoint);
* async: ~5% throughput impact; latency an order of magnitude lower and
  only moderately affected (hundreds of milliseconds).

The second part exercises the real engine's asynchronous checkpoint:
the checkpoint copies its cut at begin, updates applied while it is
open are served by the live SE and journalled for the next cycle — the
mechanism that lets processing continue. (The cluster model above keeps
the paper's dirty-overlay cost model; the engine uses copy-on-begin.)
"""

from conftest import print_figure

from repro.recovery import BackupStore, CheckpointManager
from repro.runtime import Runtime, RuntimeConfig
from repro.simulation import CheckpointPolicy, NodeParams, simulate_node

from repro.testing import build_kv_sdg

STATE_GB = [1, 2, 3, 4]
OFFERED = 50_000.0
RUN = dict(duration_s=120.0, tick_s=0.004)


def compute_figure():
    rows = []
    for gb in STATE_GB:
        params = NodeParams(service_rate=65_000, state_bytes=gb * 1e9)
        sync = simulate_node(
            OFFERED, params,
            CheckpointPolicy(mode="sync", interval_s=10, disk_bw=400e6),
            **RUN,
        )
        async_ = simulate_node(
            OFFERED, params,
            CheckpointPolicy(mode="async", interval_s=10, disk_bw=400e6),
            **RUN,
        )
        rows.append((
            gb,
            sync.throughput, async_.throughput,
            sync.p(99), async_.p(99),
        ))
    return rows


def test_fig12_sync_vs_async(benchmark):
    rows = benchmark.pedantic(compute_figure, rounds=1, iterations=1)
    print_figure(
        "Fig. 12: sync vs async checkpointing",
        ["state (GB)", "sync t'put (req/s)", "async t'put (req/s)",
         "sync p99 (s)", "async p99 (s)"],
        rows,
    )
    first, last = rows[0], rows[-1]
    # Sync throughput degrades heavily with state (paper: -33% at 4GB).
    assert last[1] < first[1] * 0.8
    assert last[1] < OFFERED * 0.75
    # Async throughput impact stays small (paper: ~5%).
    assert last[2] > OFFERED * 0.93
    # Sync p99 in whole seconds; async an order of magnitude lower.
    assert last[3] > 4.0
    assert last[4] < last[3] / 10
    # Async latency only moderately affected by state growth.
    assert last[4] < 1.2


def test_fig12_mechanism_dirty_state(benchmark):
    """Real engine: updates flow while a checkpoint is open."""

    def run():
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 1}))
        runtime.deploy()
        manager = CheckpointManager(runtime, BackupStore(m_targets=2))
        for i in range(200):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        node = runtime.se_instance("table", 0).node_id
        pending = manager.begin(node)
        # Processing continues against the live SE.
        for i in range(200, 400):
            runtime.inject("serve", ("put", i, i))
        processed_during = runtime.run_until_idle()
        element = runtime.se_instance("table", 0).element
        journalled = len(element.journal())
        checkpoint = manager.complete(pending)
        return {
            "processed during checkpoint": processed_during,
            "journal entries at completion": journalled,
            "snapshot entries": checkpoint.state_entries(),
            "live entries after completion": len(element),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "Fig. 12 mechanism: asynchronous checkpoint on the real engine",
        ["measure", "value"],
        list(result.items()),
    )
    assert result["processed during checkpoint"] == 200
    assert result["journal entries at completion"] == 200
    assert result["snapshot entries"] == 200   # consistent cut
    assert result["live entries after completion"] == 400
