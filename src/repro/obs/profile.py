"""Wall-clock phase profiling, stored in the metrics registry.

Most of the metrics registry (:mod:`repro.obs.metrics`) is counted in
logical steps and entries, which keeps the replayable core honest but
leaves a visibility gap the paper's operational story (§5–§6) needs
closed: *where does the wall clock actually go* — task code, dispatch,
frame serialisation, waiting on a pipe, checkpointing, recovery?

:class:`ProfileRegistry` answers that with named phase timers, opt-in
(``RuntimeConfig(profile=True)``). It is a view, not a second store:
each phase is a pair of label children of the runtime's registry,
``profile_seconds_total{phase}`` and ``profile_calls_total{phase}``, so
phases travel inside the metrics shards a multiprocess worker already
ships, are zeroed by the same ``reset`` at fork, and are retired with
the metric shards of a restarted fleet. The profiler never feeds back
into scheduling or dispatch decisions, so determinism is untouched.

The engine times phases through its :class:`~repro.obs.probe.Probe`
(``benchmarks/test_obs_profile.py`` holds the disabled path to the
metrics layer's <3% bar); with profiling on, each phase pays two
``perf_counter()`` calls and two attribute updates.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, _CounterChild

__all__ = ["PHASES", "ProfileRegistry"]

#: The canonical phase vocabulary. ``phase()`` accepts any name — these
#: are the ones the runtime itself populates:
#:
#: * ``process``    — each call of the serve seam, duplicates included;
#: * ``dispatch``   — each ``dispatcher.dispatch`` call (none terminal);
#: * ``serialize``  — pickling outbound wire frames (multiprocess);
#: * ``wire_wait``  — blocked in ``select`` on pipe readiness;
#: * ``checkpoint`` — begin/complete spans of checkpoint cycles;
#: * ``recovery``   — node restore (checkpoint load + replay).
PHASES = ("process", "dispatch", "serialize", "wire_wait",
          "checkpoint", "recovery")


class _PhaseTimer:
    """One phase's seconds and call count: two registry children.

    Pre-bind the instance (``registry.phase("process")``) outside any
    hot loop; :meth:`add` is two attribute updates.
    """

    __slots__ = ("_seconds", "_calls")

    def __init__(self, seconds: _CounterChild, calls: _CounterChild) -> None:
        self._seconds = seconds
        self._calls = calls

    def add(self, seconds: float) -> None:
        self._seconds.value += seconds
        self._calls.value += 1

    @property
    def seconds(self) -> float:
        return self._seconds.value

    @property
    def count(self) -> int:
        return int(self._calls.value)

    @property
    def mean(self) -> float:
        calls = self._calls.value
        return self._seconds.value / calls if calls else 0.0


class _NullTimer:
    """The timer of a registry that records nothing."""

    __slots__ = ()
    seconds = 0.0
    count = 0
    mean = 0.0

    def add(self, seconds: float) -> None:
        pass


_NULL_TIMER = _NullTimer()


class ProfileRegistry:
    """Named wall-clock phase timers over a metrics registry."""

    def __init__(self, metrics=None) -> None:
        metrics = MetricsRegistry() if metrics is None else metrics
        self._seconds = metrics.counter(
            "profile_seconds_total",
            "wall-clock seconds spent in each profiled phase")
        self._calls = metrics.counter(
            "profile_calls_total", "timed calls of each profiled phase")
        self._phases: dict[str, _PhaseTimer | _NullTimer] = {}

    def phase(self, name: str) -> _PhaseTimer | _NullTimer:
        """Get-or-create the timer for ``name`` (pre-bindable)."""
        timer = self._phases.get(name)
        if timer is None:
            seconds = self._seconds.labels(phase=name)
            calls = self._calls.labels(phase=name)
            timer = self._phases[name] = (
                _PhaseTimer(seconds, calls)
                if isinstance(seconds, _CounterChild) else _NULL_TIMER)
        return timer

    def add(self, name: str, seconds: float) -> None:
        self.phase(name).add(seconds)

    def seconds(self, name: str) -> float:
        return self._seconds.value(phase=name)

    def count(self, name: str) -> int:
        return int(self._calls.value(phase=name))

    def names(self) -> list[str]:
        return sorted(labels["phase"] for labels, _ in self._calls.samples())

    # -- read side -----------------------------------------------------

    def _rows(self) -> list[tuple[str, float, int, float]]:
        """``(phase, seconds, calls, mean seconds)``, by phase name."""
        rows = []
        for name in self.names():
            seconds, calls = self.seconds(name), self.count(name)
            rows.append((name, seconds, calls,
                         seconds / calls if calls else 0.0))
        return rows

    def breakdown(self) -> dict[str, dict[str, float]]:
        """JSON-friendly ``{phase: {seconds, count, mean_ms}}``."""
        return {
            name: {"seconds": seconds, "count": calls,
                   "mean_ms": mean * 1e3}
            for name, seconds, calls, mean in self._rows()
        }

    def render(self) -> str:
        """A fixed-width phase table for CLI output."""
        rows = sorted(self._rows(), key=lambda row: -row[1])
        if not rows:
            return "(no phases recorded)"
        lines = [f"{'phase':<12} {'seconds':>10} {'calls':>9} "
                 f"{'mean':>10}"]
        for name, seconds, calls, mean in rows:
            lines.append(
                f"{name:<12} {seconds:>10.4f} {calls:>9d} "
                f"{mean * 1e3:>8.3f}ms"
            )
        return "\n".join(lines)
