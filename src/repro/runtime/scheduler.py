"""The scheduling layer: which TE instance serves the next item.

The engine's step loop used to hard-code a round-robin scan; this
module turns instance selection into a pluggable :class:`Scheduler`
policy chosen by ``RuntimeConfig(scheduler=...)``. Two policies ship:

* :class:`RoundRobinScheduler` (the default) preserves the seed
  engine's deterministic rotor order exactly, which is what keeps
  recovery replay (§4.1) reproducing the original execution;
* :class:`LongestQueueScheduler` drains the deepest inbox first — a
  latency-oriented policy for skewed loads, still deterministic via an
  instance-key tie-break.

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
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import RuntimeExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.instances import Candidates, TEInstance
    from repro.runtime.node import PhysicalNode


@runtime_checkable
class Scheduler(Protocol):
    """Instance-selection policy driven once per engine step."""

    #: Registry name of the policy (``RuntimeConfig(scheduler=name)``).
    name: str

    def select(
        self,
        instances: "Candidates",
        nodes: "dict[int, PhysicalNode]",
    ) -> "tuple[TEInstance | None, bool]":
        """Pick the instance that serves the next item.

        ``instances`` is the list of live TE instances in deployment
        order; its ``ready`` attribute holds the sorted positions with
        input (never empty when the engine calls). A policy that ignores
        ``ready`` and scans the list is correct, only O(instances).
        Returns ``(instance, throttled)``: ``instance`` is ``None`` when
        nothing can be served; ``throttled`` is True when a pending item
        was held back by straggler credit — the stall-tick signal.
        """
        ...  # pragma: no cover - protocol


class _CreditedScheduler:
    """Shared straggler-credit accounting (see module docstring)."""

    @staticmethod
    def _admit(node: "PhysicalNode") -> bool:
        """Charge one scheduling visit; True if the node may serve now."""
        if node.speed >= 1.0:
            return True
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
        if node.speed >= 1.0 or extra_items <= 0:
            return
        node.credit -= float(extra_items)


class RoundRobinScheduler(_CreditedScheduler):
    """The seed engine's deterministic rotor scan (default policy).

    Instances are visited in deployment order starting one past the
    previously served instance, so every instance with pending input is
    served within one full rotation — the fairness property the replay
    determinism contract (§4.1) is built on. The rotor is the seed
    loop's raw index into the same order; only the walk is shorter — a
    bisect to the first ready position at or after it, then the ready
    positions cyclically — so the cost is O(log instances), not
    O(instances).
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._rotor = 0

    def select(self, instances, nodes):
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


class LongestQueueScheduler(_CreditedScheduler):
    """Serve the instance with the deepest inbox first.

    Ties break on the instance key ``(te_name, index)``, keeping the
    policy fully deterministic. Useful under skewed load, where
    draining the worst backlog first bounds the maximum queue depth;
    note that it changes processing order relative to the seed, so
    replays must use the same policy they recorded under.
    """

    name = "longest_queue"

    def select(self, instances, nodes):
        ready = [instances[position] for position in instances.ready]
        ready.sort(key=lambda inst: (-len(inst.inbox), inst.key))
        throttled = False
        for instance in ready:
            if not self._admit(nodes[instance.node_id]):
                throttled = True
                continue
            return instance, throttled
        return None, throttled


#: Built-in policies selectable by name via ``RuntimeConfig(scheduler=...)``.
SCHEDULERS: dict[str, type] = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    LongestQueueScheduler.name: LongestQueueScheduler,
}


def resolve_scheduler(spec: "str | Scheduler") -> "Scheduler":
    """Turn a config knob into a scheduler instance.

    Accepts a registry name or any object implementing the
    :class:`Scheduler` protocol (a custom policy). Raises
    :class:`~repro.errors.RuntimeExecutionError` for anything else, so
    a typo'd policy name fails at deploy time.
    """
    if isinstance(spec, str):
        cls = SCHEDULERS.get(spec)
        if cls is None:
            raise RuntimeExecutionError(
                f"unknown scheduler {spec!r}; available policies: "
                f"{sorted(SCHEDULERS)}"
            )
        return cls()
    if callable(getattr(spec, "select", None)):
        return spec
    raise RuntimeExecutionError(
        f"RuntimeConfig.scheduler must be a policy name or an object "
        f"with a select() method, got {spec!r}"
    )
