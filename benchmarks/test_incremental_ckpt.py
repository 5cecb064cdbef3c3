"""Incremental vs full checkpointing on a large skewed KV state.

The acceptance scenario for the delta-checkpoint subsystem: a
100k-entry state element takes 1 000 zipf-skewed updates between
checkpoint cycles. Under full-every-time, every cycle re-persists all
100k entries; under base+delta, an incremental cycle moves only the
keys actually touched — the journal bounds the chunk payload by the
number of *distinct* updated keys, never by the state size.
"""

from conftest import print_figure

from repro.state import KeyValueMap
from repro.workloads.zipf import ZipfSampler

STATE_ENTRIES = 100_000
UPDATES_PER_CYCLE = 1_000
CYCLES = 5
N_CHUNKS = 8


def build_state():
    se = KeyValueMap()
    for i in range(STATE_ENTRIES):
        se.put(i, i)
    se.mark_clean()
    return se


def run_cycles(se, incremental):
    """Run CYCLES update+checkpoint rounds; returns per-cycle entry
    counts moved to the backup store and the distinct keys updated."""
    sampler = ZipfSampler(STATE_ENTRIES, s=1.0, seed=7)
    moved, distinct = [], []
    # Cycle 0 is always the full base.
    se.cut().chunks(N_CHUNKS)
    se.mark_clean()
    for cycle in range(1, CYCLES + 1):
        keys = sampler.sample_many(UPDATES_PER_CYCLE)
        for key in keys:
            se.put(key, key + cycle)
        distinct.append(len(set(keys)))
        chunks = se.cut(delta=incremental).chunks(
            N_CHUNKS, version=cycle + 1, base_version=cycle)
        se.mark_clean()
        moved.append(sum(chunk.entry_count() for chunk in chunks))
    return moved, distinct


def compute_comparison():
    full_moved, _ = run_cycles(build_state(), incremental=False)
    delta_moved, distinct = run_cycles(build_state(), incremental=True)
    rows = []
    for cycle, (full, delta, touched) in enumerate(
            zip(full_moved, delta_moved, distinct), start=1):
        rows.append((f"cycle {cycle}", full, delta, touched,
                     full / max(delta, 1)))
    return rows


def test_incremental_moves_only_the_mutations(benchmark):
    rows = benchmark.pedantic(compute_comparison, rounds=1, iterations=1)
    print_figure(
        "Incremental checkpointing: entries persisted per cycle "
        f"({STATE_ENTRIES} entries, {UPDATES_PER_CYCLE} zipf updates/cycle)",
        ["cycle", "full ckpt", "delta ckpt", "distinct updates",
         "reduction x"],
        rows,
    )
    for _cycle, full, delta, touched, _reduction in rows:
        # Full cycles re-persist the whole (possibly grown) state.
        assert full >= STATE_ENTRIES
        # A delta moves exactly the distinct updated keys — bounded by
        # the update count, never by the state size.
        assert delta == touched
        assert delta <= UPDATES_PER_CYCLE
        assert delta < STATE_ENTRIES / 50
