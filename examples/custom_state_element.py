"""Defining your own state element (§3.2).

The paper: "Developers can use predefined data structures for SEs
(e.g. Vector, HashMap, Matrix and DenseMatrix) or define their own by
implementing dynamic partitioning and dirty state support."

This example implements a Space-Saving heavy-hitters sketch as a custom
SE. By routing every mutation through the base-class ``_get``/``_set``/
``_delete`` helpers — which sit on the default
:class:`~repro.state.backend.DictBackend` — the sketch inherits the
whole machinery for free: checkpoint cuts (a copy taken at begin, so
checkpoints never block processing), chunked serialisation (so it can
be backed up m-to-n) *including incremental delta checkpoints* (the
backend journals every mutation), and partitioning support. A small annotated program
then tracks trending tags over replicated sketches.

Run with:

    python examples/custom_state_element.py
"""

from repro import Partial, SDGProgram, collection, entry, global_
from repro.recovery import BackupStore, CheckpointManager, RecoveryManager
from repro.state import StateElement


class HeavyHitters(StateElement):
    """Space-Saving top-k counter sketch as a custom SE.

    Keeps at most ``capacity`` counters; when a new key arrives at a
    full sketch, the minimum counter is evicted and the newcomer
    inherits its count + 1 (the classic Space-Saving overestimate).
    """

    BYTES_PER_ENTRY = 48

    def __init__(self, capacity: int = 8) -> None:
        super().__init__()  # default DictBackend stores the counters
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity

    # The only *required* override: how to make an empty twin.

    def spawn_empty(self) -> "HeavyHitters":
        return HeavyHitters(capacity=self.capacity)

    def chunk_meta(self):
        return {"capacity": self.capacity}

    def apply_chunk_meta(self, meta):
        self.capacity = meta.get("capacity", self.capacity)

    # -- domain API -----------------------------------------------------

    def hit(self, key) -> None:
        """Count one occurrence of ``key`` (evicting if necessary)."""
        current = self._get(key, None)
        if current is not None:
            self._set(key, current + 1)
            return
        entries = list(self._iter_items())
        if len(entries) < self.capacity:
            self._set(key, 1)
            return
        victim, floor = min(entries, key=lambda kv: kv[1])
        self._delete(victim)
        self._set(key, floor + 1)

    def top(self, n: int) -> list:
        """The ``n`` heaviest (key, count) pairs, heaviest first."""
        entries = sorted(self._iter_items(), key=lambda kv: -kv[1])
        return entries[:n]


class TrendingTags(SDGProgram):
    """Replicated heavy-hitter sketches with a merging global read."""

    sketches = Partial(lambda: HeavyHitters(capacity=8))

    @entry
    def observe(self, tag):
        self.sketches.hit(tag)

    @entry
    def trending(self, n):
        partial_top = global_(self.sketches).top(n)
        merged = self.merge_top(collection(partial_top), n)
        return merged

    def merge_top(self, all_tops, n):
        combined = {}
        for entries in all_tops:
            for key, count in entries:
                combined[key] = combined.get(key, 0) + count
        ranked = sorted(combined.items(), key=lambda kv: -kv[1])
        return ranked[:n]


def main():
    app = TrendingTags.launch(sketches=3)
    stream = (["#sdg"] * 40 + ["#dataflow"] * 25 + ["#state"] * 15
              + [f"#noise{i}" for i in range(30)])
    for tag in stream:
        app.observe(tag)
    app.run()
    app.trending(3)
    app.run()
    top3 = app.results("trending")[0]
    print("trending (merged across 3 replica sketches):")
    for tag, count in top3:
        print(f"  {tag}: ~{count}")
    assert top3[0][0] == "#sdg"

    # The custom SE inherits checkpoint/recovery support untouched.
    store = BackupStore(m_targets=2)
    manager = CheckpointManager(app.runtime, store)
    recovery = RecoveryManager(app.runtime, store)
    victim = app.runtime.se_instances("sketches")[0].node_id
    manager.checkpoint(victim)
    app.runtime.fail_node(victim)
    recovery.recover_node(victim)
    app.run()
    app.trending(3)
    app.run()
    assert app.results("trending")[-1][0][0] == "#sdg"
    print("\nsketch survived checkpoint + node failure + restore  [ok]")


if __name__ == "__main__":
    main()
