"""The scheduling layer: which TE instance serves the next item.

The runtime is pipelined (§4): every instance is materialised up front,
and the only scheduling decision left is which ready instance serves
the next item. :class:`RoundRobinScheduler` makes it with the seed
engine's deterministic rotor, which is what keeps recovery replay
(§4.1) reproducing the original execution.

Straggler throttling (§3.3) is part of scheduling, not transport: a
node with ``speed < 1`` earns fractional *credit* per scheduling visit
and only serves an item once a full credit accrues, inflating its
per-item service time by ``1/speed``. When every pending item sits on
a throttled node, ``select`` returns no instance but reports the
throttle, and the engine turns that into a *stall tick* — logical time
passes, hooks run, and the failure detector can observe the stall.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.instances import Candidates, TEInstance
    from repro.runtime.node import PhysicalNode


class RoundRobinScheduler:
    """The seed engine's deterministic rotor scan.

    Instances are visited in deployment order starting one past the
    previously served instance, so every instance with pending input is
    served within one full rotation — the fairness property the replay
    determinism contract (§4.1) is built on. The rotor is the seed
    loop's raw index into the same order; only the walk is shorter — a
    bisect to the first ready position at or after it, then the ready
    positions cyclically — so the cost is O(log instances), not
    O(instances).
    """

    #: The ``policy`` label of ``scheduler_picks_total``.
    name = "round_robin"

    def __init__(self) -> None:
        self._rotor = 0

    def select(
        self,
        instances: "Candidates",
        nodes: "dict[int, PhysicalNode]",
    ) -> "tuple[TEInstance | None, bool]":
        """Pick the instance that serves the next item.

        ``instances`` is the list of live TE instances in deployment
        order; its ``ready`` attribute holds the sorted positions with
        input. Returns ``(instance, throttled)``: ``instance`` is
        ``None`` when nothing can be served; ``throttled`` is True when
        a pending item was held back by straggler credit — the
        stall-tick signal.
        """
        ready = instances.ready
        if not ready:
            return None, False
        n = len(instances)
        at = bisect_left(ready, self._rotor % n)
        throttled = False
        for _ in range(len(ready)):
            if at == len(ready):
                at = 0
            position = ready[at]
            at += 1
            instance = instances[position]
            node = nodes[instance.node_id]
            # A full-speed node is admitted without a call.
            if node.speed < 1.0 and not self._admit(node):
                throttled = True
                continue
            self._rotor = (position + 1) % n
            return instance, throttled
        return None, throttled

    @staticmethod
    def _admit(node: "PhysicalNode") -> bool:
        """Charge one scheduling visit; True if the node may serve now."""
        node.credit += max(node.speed, 0.0)
        if node.credit < 1.0:
            return False
        node.credit -= 1.0
        return True

    @staticmethod
    def charge(node: "PhysicalNode", extra_items: int) -> None:
        """Debit credit for items served beyond the admitted one.

        A run on a certified channel serves N items in the step the
        scheduler admitted a single item for; charging the extra
        ``N - 1`` keeps a throttled node's effective throughput at
        ``speed`` items per visit instead of letting runs smuggle work
        past the straggler model. Full-speed nodes carry no credit
        account, so this is a no-op for them.
        """
        if node.speed < 1.0:
            node.credit -= float(extra_items)
