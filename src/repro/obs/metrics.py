"""Metrics primitives and the registry.

Design constraints, in order:

* **Deterministic** — only the ``*_seconds_total`` series read the
  wall clock, and nothing reads them back into execution.  Histogram
  buckets are denominated in whatever the caller observes, which in
  this codebase is always *logical steps* or entry/byte counts.
* **Cheap when hot** — callers on the per-item path pre-bind label
  children once (``metric.labels(te="count")`` returns a small mutable
  cell) and add to its ``value`` in place (``cell.value += n``): one
  attribute add, no dict lookup, no method call.  ``inc`` / ``dec`` /
  ``set`` are for everything off that path.
* **Injectable** — the engine takes any registry-shaped object via
  ``RuntimeConfig(metrics=...)``, and every such registry hands out
  cells with a numeric ``value`` slot.  :data:`NULL_REGISTRY` is the
  no-op implementation used as the benchmark baseline ("no registry")
  and as the default for layers constructed stand-alone in unit tests:
  its cells are one shared sink, and it ships an empty shard, so it
  works on both substrates.

A process-wide default registry (:func:`default_registry`) exists for
scripts that want one shared sink, but the runtime deliberately
creates a *fresh* registry per `Runtime` unless one is injected, so
tests never see each other's counts.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import SDGError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricError",
    "NullRegistry",
    "NULL_REGISTRY",
    "ShardCache",
    "default_registry",
    "DEFAULT_STEP_BUCKETS",
]


class MetricError(SDGError):
    """Raised on metric misuse: kind clash, negative counter step."""


#: Default histogram buckets, in logical steps.  Chosen to resolve both
#: sub-checkpoint-interval latencies and long replay spans.
DEFAULT_STEP_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _CounterChild:
    """Monotone accumulator bound to one label set."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a Gauge")
        self.value += amount


class _GaugeChild:
    """Up/down level bound to one label set."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """Fixed-bucket distribution bound to one label set."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the landing bucket)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for i, n in enumerate(self.counts):
            running += n
            if running >= target:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")


class _Metric:
    """Shared name/help/children plumbing for the three metric kinds."""

    kind = "untyped"
    _child_cls: type = _CounterChild

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._children: dict[tuple[tuple[str, str], ...], object] = {}

    def _new_child(self):
        return self._child_cls()

    def labels(self, **labels: str):
        """Return (creating if needed) the child cell for ``labels``.

        Pre-bind the result outside any hot loop; the returned child's
        methods are plain attribute arithmetic.
        """
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def value(self, **labels: str) -> float:
        """Current value for a label set, ``0.0`` if never touched."""
        child = self._children.get(_label_key(labels))
        return 0.0 if child is None else child.value

    def samples(self) -> list[tuple[dict[str, str], object]]:
        return [(dict(key), child) for key, child in sorted(self._children.items())]


class Counter(_Metric):
    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)


class Gauge(_Metric):
    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).dec(amount)


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: tuple[float, ...] | None = None) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets)) if buckets else DEFAULT_STEP_BUCKETS

    def _new_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)

    def value(self, **labels: str) -> float:
        """For histograms, ``value`` reads the observation *count*."""
        child = self._children.get(_label_key(labels))
        return 0.0 if child is None else float(child.count)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class ShardCache:
    """What one shard stream remembers between two
    :meth:`MetricsRegistry.shard` calls: the shape it last described
    (a count of metrics and cells), each metric's children table, and
    the cells in registry order, histograms flagged."""

    __slots__ = ("stamp", "tables", "cells")

    def __init__(self) -> None:
        self.stamp = -1
        self.tables: list[dict] = []
        self.cells: list[tuple[object, bool]] = []


class MetricsRegistry:
    """Get-or-create home for metrics, with Prometheus text export."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get(self, name: str, kind: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = _KINDS[kind](name, **kwargs)
        elif metric.kind != kind:
            raise MetricError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, "counter", help=help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, "gauge", help=help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        return self._get(name, "histogram", help=help, buckets=buckets)  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def collect(self) -> list[_Metric]:
        return [self._metrics[name] for name in self.names()]

    def value(self, name: str, **labels: str) -> float:
        """Current value of one metric's label set, 0.0 if absent.

        With no labels this reads the unlabelled child — convenient
        for the engine/transport counters that pre-bind ``.labels()``.
        """
        metric = self._metrics.get(name)
        return 0.0 if metric is None else metric.value(**labels)

    def total(self, name: str) -> float:
        """Sum of every child of one metric (0.0 when unregistered)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        return sum(getattr(child, "value", 0.0)
                   for _labels, child in metric.samples())

    # -- sharding (multiprocess substrate) -----------------------------

    def reset(self) -> None:
        """Zero every child cell in place, keeping bound children valid.

        Forked worker processes inherit the coordinator's registry —
        including deploy-time values — so they reset it at startup:
        their shard then holds only work performed *in* the worker, and
        the barrier merge never double-counts the coordinator's
        deploy-time series. Pre-bound label children stay usable (the
        cells are mutated, not replaced).
        """
        for metric in self._metrics.values():
            for child in metric._children.values():
                if metric.kind == "histogram":
                    child.counts = [0] * len(child.counts)
                    child.sum = 0.0
                    child.count = 0
                else:
                    child.value = 0.0

    def snapshot(self) -> dict:
        """The registry's full state as plain picklable data.

        :meth:`merge_snapshot` folds such shards back into one registry
        so observability output is substrate-agnostic. Worker processes
        ship the compact :meth:`shard` form instead, and the
        coordinator turns it back into this dict with :meth:`expand`
        when it is read.
        """
        out: dict = {}
        for name, metric in self._metrics.items():
            children: dict = {}
            for key, child in metric._children.items():
                if metric.kind == "histogram":
                    children[key] = (list(child.counts), child.sum,
                                     child.count)
                else:
                    children[key] = child.value
            entry = {"kind": metric.kind, "help": metric.help,
                     "children": children}
            if metric.kind == "histogram":
                entry["buckets"] = metric.buckets
            out[name] = entry
        return out

    def shard(self, cache: ShardCache) -> tuple:
        """The registry's state as ``(schema | None, values)``: the
        compact :meth:`snapshot` a worker ships in every report.

        ``values`` has one entry per cell, in registry order: the value
        of a counter or gauge cell, ``(counts, sum, count)`` of a
        histogram cell. ``schema`` describes those cells, one ``(name,
        kind, help, buckets, label keys)`` per metric, and is ``None``
        when ``cache`` saw the same shape on the previous call. Metrics
        and cells are only ever added (:meth:`reset` zeroes in place),
        so their count is the shape. :meth:`expand` turns a pair back
        into the snapshot.
        """
        metrics = self._metrics
        schema = None
        if len(metrics) + sum(map(len, cache.tables)) != cache.stamp:
            schema = tuple(
                (name, metric.kind, metric.help,
                 getattr(metric, "buckets", None), tuple(metric._children))
                for name, metric in metrics.items())
            cache.tables = [metric._children for metric in metrics.values()]
            cache.cells = [(child, metric.kind == "histogram")
                           for metric in metrics.values()
                           for child in metric._children.values()]
            cache.stamp = len(metrics) + len(cache.cells)
        return schema, tuple([
            (tuple(cell.counts), cell.sum, cell.count) if histogram
            else cell.value
            for cell, histogram in cache.cells])

    @staticmethod
    def expand(schema: tuple, values: tuple) -> dict:
        """The :meth:`snapshot` a :meth:`shard` pair describes."""
        cells = iter(values)
        out: dict = {}
        for name, kind, help, buckets, keys in schema:
            if kind == "histogram":
                out[name] = {
                    "kind": kind, "help": help,
                    "children": {key: (list(counts), total, n)
                                 for key, (counts, total, n)
                                 in zip(keys, cells)},
                    "buckets": buckets}
            else:
                out[name] = {"kind": kind, "help": help,
                             "children": dict(zip(keys, cells))}
        return out

    def merge_snapshot(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` shard into this registry.

        Counters and gauges add (a gauge like inbox depth is a per-
        worker level; the merged value is the fleet total); histograms
        merge bucket-by-bucket and require identical bounds.
        """
        for name, entry in snap.items():
            kind = entry["kind"]
            if kind == "histogram":
                metric = self.histogram(name, entry["help"],
                                        buckets=entry.get("buckets"))
            elif kind == "gauge":
                metric = self.gauge(name, entry["help"])
            else:
                metric = self.counter(name, entry["help"])
            if metric.kind != kind:
                raise MetricError(
                    f"cannot merge shard metric {name!r} of kind "
                    f"{kind} into existing {metric.kind}"
                )
            for key, state in entry["children"].items():
                child = metric.labels(**dict(key))
                if kind == "histogram":
                    counts, total, n = state
                    if len(counts) != len(child.counts):
                        raise MetricError(
                            f"histogram {name!r} shard has "
                            f"{len(counts)} buckets, registry has "
                            f"{len(child.counts)}"
                        )
                    for i, c in enumerate(counts):
                        child.counts[i] += c
                    child.sum += total
                    child.count += n
                else:
                    child.value += state

    def merged_with(self, shards: "list[dict]") -> "MetricsRegistry":
        """A fresh registry = this registry's snapshot + all shards.

        Non-destructive: repeated calls with the same cumulative shards
        never double-count, because the merge always starts from a new
        registry.
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(self.snapshot())
        for shard in shards:
            merged.merge_snapshot(shard)
        return merged

    def to_dict(self) -> dict[str, dict[str, float]]:
        """``{metric: {"label=value,...": scalar}}`` — JSON-friendly dump.

        Histograms surface their observation count and sum.
        """
        out: dict[str, dict[str, float]] = {}
        for metric in self.collect():
            series: dict[str, float] = {}
            for labels, child in metric.samples():
                key = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                if metric.kind == "histogram":
                    series[f"{key}#count" if key else "#count"] = float(child.count)
                    series[f"{key}#sum" if key else "#sum"] = child.sum
                else:
                    series[key] = child.value
            out[metric.name] = series
        return out

    def to_prometheus_text(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for metric in self.collect():
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {_escape_help(metric.help)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for labels, child in metric.samples():
                if metric.kind == "histogram":
                    cumulative = 0
                    for bound, n in zip(
                        list(metric.buckets) + [float("inf")], child.counts
                    ):
                        cumulative += n
                        le = "+Inf" if bound == float("inf") else _fmt(bound)
                        lines.append(
                            f"{metric.name}_bucket{_label_str(labels, le=le)} {cumulative}"
                        )
                    lines.append(f"{metric.name}_sum{_label_str(labels)} {_fmt(child.sum)}")
                    lines.append(f"{metric.name}_count{_label_str(labels)} {child.count}")
                else:
                    lines.append(f"{metric.name}{_label_str(labels)} {_fmt(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote and newline must be escaped, in that order
    (backslash first, or the other escapes would be double-escaped)."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (quotes are legal)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labels: dict[str, str], **extra: str) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in sorted(merged.items()))
    return "{" + inner + "}"


class _NullCell(_GaugeChild):
    """The one cell every null metric hands out: a sink whose ``value``
    takes the hot path's adds like any cell's, and that nobody reads."""

    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_CELL = _NullCell()


class _NullMetric:
    """A metric that swallows everything; ``labels()`` hands out the
    shared sink cell."""

    __slots__ = ()

    def labels(self, **labels: str) -> _NullCell:
        return _NULL_CELL

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0

    def samples(self) -> list:
        return []


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """Registry-shaped no-op: the "no metrics at all" baseline.

    Used by the overhead benchmark as the reference configuration and
    as the default sink for layers constructed stand-alone. Every
    factory hands out the null metric and registers nothing, so every
    read sees an empty registry, and a worker's shard is empty.
    """

    def _get(self, name: str, kind: str, **kwargs) -> _NullMetric:
        return _NULL_METRIC  # type: ignore[return-value]

    def merge_snapshot(self, snap: dict) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_default: MetricsRegistry | None = None


def default_registry() -> MetricsRegistry:
    """Process-wide shared registry for scripts that want one sink.

    The runtime does *not* use this implicitly — pass it explicitly:
    ``RuntimeConfig(metrics=default_registry())``.
    """
    global _default
    if _default is None:
        _default = MetricsRegistry()
    return _default
