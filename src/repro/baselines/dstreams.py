"""Streaming Spark (D-Streams) mechanism model (Fig. 8).

D-Streams discretise a stream into micro-batches, one per result
window: the batch size is *coupled* to the window size, so small
windows cannot amortise the scheduling overhead — the paper measures a
collapse below a 250 ms window. Peak throughput at large windows rivals
the pipelined SDG because the per-item cost is comparable once
scheduling is amortised.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.batching import sustainable


@dataclass(frozen=True)
class StreamingSparkModel:
    """A Streaming Spark deployment configuration."""

    service_rate: float = 95_000.0
    #: Per-micro-batch scheduling delay; the paper's observed minimum
    #: sustainable window (250 ms) pins this constant.
    scheduling_overhead_s: float = 0.175

    def batch_size_for_window(self, window_s: float,
                              input_rate: float) -> float:
        """D-Streams processes one window's arrivals per batch."""
        return max(1.0, window_s * input_rate)

    def wordcount_throughput(self, window_s: float) -> float:
        """Sustainable throughput at a window size (0.0 = collapse).

        The batch must finish (processing + scheduling) within its own
        window. The largest input rate satisfying that is the
        sustainable throughput; if even the scheduling overhead exceeds
        the window, no rate is sustainable.
        """
        if window_s <= self.scheduling_overhead_s:
            return 0.0
        # rate*window/service_rate + overhead <= window
        # => rate <= service_rate * (window - overhead) / window
        rate = self.service_rate * (
            (window_s - self.scheduling_overhead_s) / window_s
        )
        batch = self.batch_size_for_window(window_s, rate)
        if not sustainable(window_s, batch, self.service_rate,
                           self.scheduling_overhead_s):
            return 0.0
        return rate
