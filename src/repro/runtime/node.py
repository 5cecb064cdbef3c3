"""Logical cluster nodes hosting TE and SE instances.

The runtime executes in a single process, but instances are grouped into
:class:`PhysicalNode` objects that define the failure and checkpointing
domain: a node fails as a unit (losing its SE contents, inboxes and
output buffers) and checkpoints as a unit (§5).
"""

from __future__ import annotations

from repro.errors import RuntimeExecutionError
from repro.runtime.instances import SEInstance, TEInstance


# A worker reads these two sums at every report: over a few instances
# a loop costs less than ``sum(map(...))``, and no frame per instance.
def served(instances) -> int:
    """Items ``instances`` served."""
    total = 0
    for instance in instances:
        total += instance.served
    return total


def queued(instances) -> int:
    """Envelopes queued at ``instances`` (``None``: a failed slot)."""
    total = 0
    for instance in instances:
        if instance is not None:
            total += len(instance.inbox)
    return total


class PhysicalNode:
    """A failure/checkpoint domain holding colocated instances."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.alive = True
        self.te_instances: dict[tuple[str, int], TEInstance] = {}
        self.se_instances: dict[tuple[str, int], SEInstance] = {}
        #: Replay duplicates dropped here (progress, to the detector).
        self.duplicates_dropped = 0
        #: Relative processing speed; < 1.0 models a straggler node. The
        #: scheduling layer charges slow nodes fractional credit per
        #: visit, so a node at speed ``s`` serves items at rate ``s``
        #: (deterministically); ``speed <= 0`` pauses the node entirely,
        #: which the failure detector reports as a stall.
        self.speed = 1.0
        #: Accumulated scheduling credit of a throttled node (scheduler
        #: internal; see :mod:`repro.runtime.scheduler`).
        self.credit = 0.0

    @property
    def items_processed(self) -> int:
        """Items served by the TE instances this node ever hosted."""
        return served(self.te_instances.values())

    def host_te(self, instance: TEInstance) -> None:
        if instance.key in self.te_instances:
            raise RuntimeExecutionError(
                f"node {self.node_id} already hosts TE {instance.key}"
            )
        instance.node_id = self.node_id
        self.te_instances[instance.key] = instance

    def host_se(self, instance: SEInstance) -> None:
        if instance.key in self.se_instances:
            raise RuntimeExecutionError(
                f"node {self.node_id} already hosts SE {instance.key}"
            )
        instance.node_id = self.node_id
        self.se_instances[instance.key] = instance

    def fail(self) -> None:
        """Kill the node: all hosted runtime state becomes unreachable."""
        self.alive = False

    def __repr__(self) -> str:
        status = "up" if self.alive else "DOWN"
        return (
            f"PhysicalNode({self.node_id} {status}, "
            f"tes={sorted(self.te_instances)}, "
            f"ses={sorted(self.se_instances)})"
        )
