"""The compact metric shard a worker ships in every report.

``MetricsRegistry.shard(cache)`` is ``(schema | None, values)``: one
flat tuple of cell values in registry order, plus the schema naming
those cells only when the registry's shape changed since the previous
call with the same cache. ``MetricsRegistry.expand`` must rebuild
exactly what ``snapshot()`` returns, whatever the registry grew into
between calls and after ``reset()``.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, ShardCache

#: The name fixes the kind, so a draw never clashes kinds.
NAMES = ("c0", "c1", "c2", "g0", "g1", "h0", "h1")
LABEL_KEYS = ("te", "worker", "phase")

LABELS = st.dictionaries(st.sampled_from(LABEL_KEYS),
                         st.text("ab1 ", max_size=3) | st.integers(0, 9),
                         max_size=2)
BUCKETS = st.lists(st.integers(1, 500), min_size=1, max_size=4, unique=True)
#: One registry touch: a metric (created on first use, with its
#: buckets when a histogram), a label set (a cell created on first
#: use) and an amount to count, set or observe.
OPS = st.tuples(st.sampled_from(NAMES), BUCKETS, LABELS,
                st.integers(-50, 5000))
#: Reports: the ops performed since the previous one.
ROUNDS = st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=6)


def touch(registry, name, buckets, labels, amount):
    kind = name[0]
    if kind == "c":
        registry.counter(name, f"help of {name}").labels(
            **labels).inc(abs(amount))
    elif kind == "g":
        registry.gauge(name, "a level").labels(**labels).set(amount)
    else:
        registry.histogram(name, "steps", buckets=tuple(buckets)).labels(
            **labels).observe(amount)


def shape(registry):
    """Metric names and cells, read independently of the codec."""
    snap = registry.snapshot()
    return (len(snap), sum(len(entry["children"]) for entry in snap.values()))


def registry_order(registry):
    """``(name, label keys)`` per metric, in insertion order."""
    return [(name, list(metric._children))
            for name, metric in registry._metrics.items()]


class ShardReader:
    """The coordinator's side: the latest schema and the expanded pair."""

    def __init__(self):
        self.schema = None

    def read(self, pair):
        schema, values = pickle.loads(pickle.dumps(pair))  # the wire
        if schema is not None:
            self.schema = schema
        return MetricsRegistry.expand(self.schema, values)


class TestShardCodec:
    @settings(max_examples=150, deadline=None)
    @given(ROUNDS)
    def test_expand_is_snapshot_and_schema_only_on_growth(self, rounds):
        registry, cache, reader = MetricsRegistry(), ShardCache(), \
            ShardReader()
        before = None
        for ops in rounds:
            for op in ops:
                touch(registry, *op)
            pair = registry.shard(cache)
            now = shape(registry)
            assert (pair[0] is None) == (now == before)
            if pair[0] is not None:
                # Registry insertion order, never hash order.
                assert [(name, list(keys)) for name, _k, _h, _b, keys
                        in pair[0]] == registry_order(registry)
            assert reader.read(pair) == registry.snapshot()
            before = now
        # reset() zeroes in place: same shape, so no schema, and the
        # expansion still equals the (now all-zero) snapshot.
        registry.reset()
        pair = registry.shard(cache)
        assert pair[0] is None
        assert reader.read(pair) == registry.snapshot()

    def test_first_call_always_carries_the_schema(self):
        registry = MetricsRegistry()
        schema, values = registry.shard(ShardCache())
        assert schema == () and values == ()
        assert MetricsRegistry.expand(schema, values) == {}
        registry.counter("unbound")  # a metric with no cell yet
        cache = ShardCache()
        assert registry.shard(cache)[0] is not None
        assert registry.shard(cache)[0] is None

    def test_values_are_flat_cells_in_registry_order(self):
        registry = MetricsRegistry()
        registry.counter("items", "items seen").labels(te="a").inc(3)
        registry.histogram("span", "steps", buckets=(1, 10)).labels(
            te="a").observe(4)
        registry.counter("items").labels(te="b").inc()
        registry.gauge("depth").set(-2)
        schema, values = registry.shard(ShardCache())
        assert values == (3.0, 1.0, ((0, 1, 0), 4.0, 1), -2.0)
        assert schema == (
            ("items", "counter", "items seen", None,
             ((("te", "a"),), (("te", "b"),))),
            ("span", "histogram", "steps", (1, 10), ((("te", "a"),),)),
            ("depth", "gauge", "", None, ((),)),
        )

    def test_separate_caches_each_get_the_schema(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        first, second = ShardCache(), ShardCache()
        assert registry.shard(first)[0] is not None
        assert registry.shard(second)[0] is not None
        assert registry.shard(first)[0] is None

    def test_compact_pair_pickles_smaller_than_the_snapshot(self):
        registry = MetricsRegistry()
        for i in range(20):
            registry.counter(f"series_{i}_total",
                             "a help string of typical length").labels(
                te="serve").inc(i)
        cache = ShardCache()
        registry.shard(cache)
        steady = len(pickle.dumps(registry.shard(cache)))
        assert steady * 4 < len(pickle.dumps(registry.snapshot()))


class ReadCountingTable(dict):
    """A metric's children table that counts every read of its cells."""

    reads = 0

    def _read(self):
        ReadCountingTable.reads += 1

    def __len__(self):
        self._read()
        return super().__len__()

    def __iter__(self):
        self._read()
        return super().__iter__()

    def values(self):
        self._read()
        return super().values()

    def items(self):
        self._read()
        return super().items()

    def keys(self):
        self._read()
        return super().keys()


class TestShapeCheckIsConstant:
    """The shape a shard compares is one counter: counted, no clock."""

    def test_a_steady_shard_reads_no_children_table(self):
        registry = MetricsRegistry()
        for i in range(20):
            registry.counter(f"c{i}").labels(te="serve").inc(i)
        registry.histogram("h", buckets=(1, 10)).labels(te="a").observe(3)
        cache = ShardCache()
        assert registry.shard(cache)[0] is not None
        for metric in registry._metrics.values():
            metric._children = ReadCountingTable(metric._children)
        ReadCountingTable.reads = 0
        registry.counter("c3").labels(te="serve").inc()  # a known cell
        first, second = registry.shard(cache), registry.shard(cache)
        assert first[0] is None and second[0] is None
        assert ReadCountingTable.reads == 0
        assert first[1][3] == 4.0
        # A new label child: the next shard describes the registry again.
        registry.counter("c3").labels(te="new").inc()
        schema, values = registry.shard(cache)
        assert schema is not None and len(values) == 22
        assert registry.shard(cache)[0] is None

    def test_the_shape_counts_metrics_and_cells(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.counter("a").labels(te="x").inc()
        registry.counter("a").labels(te="x").inc()
        registry.gauge("g").set(1)
        assert registry.shape == 4
        registry.reset()
        assert registry.shape == 4
