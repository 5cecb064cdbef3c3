"""Reactive bottleneck and straggler detection (§3.3).

The paper rejects proactive straggler avoidance ("hard due to the many
non-deterministic causes") in favour of a reactive approach borrowed
from speculative execution: each TE is monitored, and when it limits
throughput a new TE instance is created, which may in turn create new
partitioned or partial SE instances.

In the in-process runtime the observable signal is inbox backlog: a TE
whose instances accumulate queued envelopes faster than they drain
them is a processing bottleneck. A node with ``speed < 1`` (a
straggler) manifests as backlog too, because the scheduler charges it
more steps per item; the detector also flags instances hosted on slow
nodes directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Runtime


class BottleneckDetector:
    """Flags TEs whose instances cannot keep up with their input rate."""

    def __init__(self, threshold: int = 64, max_instances: int = 8) -> None:
        self.threshold = threshold
        self.max_instances = max_instances

    def backlog(self, runtime: "Runtime", te_name: str) -> float:
        """Mean inbox length across the TE's live instances."""
        instances = runtime.te_instances(te_name)
        if not instances:
            return 0.0
        return sum(len(i.inbox) for i in instances) / len(instances)

    def straggling_instances(self, runtime: "Runtime",
                             te_name: str) -> list[int]:
        """Instance indices hosted on nodes slower than their peers."""
        flagged = []
        for instance in runtime.te_instances(te_name):
            node = runtime.nodes[instance.node_id]
            if node.speed < 1.0:
                flagged.append(instance.index)
        return flagged

    def bottlenecks(self, runtime: "Runtime") -> list[str]:
        """TE names that should be given an extra instance, worst first.

        A TE qualifies when its mean inbox depth is over the scale
        threshold and it has room for another instance.
        """
        candidates: list[tuple[float, str]] = []
        for te_name, spec in runtime.sdg.tasks.items():
            if spec.is_merge:
                continue
            if runtime.te_slot_count(te_name) >= self.max_instances:
                continue
            backlog = self.backlog(runtime, te_name)
            if backlog > self.threshold:
                candidates.append((backlog, te_name))
        candidates.sort(reverse=True)
        return [name for _, name in candidates]
