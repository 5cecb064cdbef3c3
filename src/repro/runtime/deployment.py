"""The deployment layer: instance materialisation and placement.

A validated SDG is *materialised* (§3.3): every TE/SE spec becomes one
or more instances grouped onto :class:`~repro.runtime.node.PhysicalNode`
failure domains by the four-step allocation algorithm. The
:class:`Topology` owns everything structural that results — the slot
lists (with ``None`` holes for failed instances), the node map, the
routing partitioners and their repartition epochs — and performs the
structural mutations: reactive scale-up growth, repartitioning, node
failure, and replacement installation during recovery.

What the topology deliberately does *not* do is move data: draining and
re-routing queued envelopes after a repartition is the engine's job
(via the transport), so :meth:`Topology.repartition` hands the drained
envelopes back to its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.core.allocation import allocate
from repro.core.elements import StateKind
from repro.core.graph import SDG
from repro.errors import RuntimeExecutionError
from repro.runtime.envelope import Envelope
from repro.runtime.instances import Candidates, SEInstance, TEInstance
from repro.runtime.node import PhysicalNode
from repro.state import HashPartitioner
from repro.state.base import StateElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.config import RuntimeConfig


@dataclass(frozen=True)
class WorkerPlacement:
    """The deploy-time assignment of logical nodes to worker processes.

    The multiprocess substrate is shared-nothing: a worker owns every
    TE instance — and, transitively, every StateElement partition —
    hosted on its assigned nodes, and nothing else. Because a stateful
    TE instance is always co-located with its SE instance on one
    logical node, mapping *nodes* to workers automatically keeps each
    partition's state and its accessing task on the same process, so
    workers never contend on state (the shared-nothing discipline of
    the state-access-patterns taxonomy).
    """

    n_workers: int
    #: node id -> worker index.
    node_worker: dict[int, int] = field(default_factory=dict)
    #: (te_name, instance_index) -> worker index.
    instance_worker: dict[tuple[str, int], int] = field(
        default_factory=dict)

    def owner_of(self, te_name: str, index: int) -> int:
        """The worker owning TE instance ``(te_name, index)``."""
        return self.instance_worker[(te_name, index)]

    def worker_of_node(self, node_id: int) -> int:
        return self.node_worker[node_id]


class Topology:
    """Owns the materialised instances, nodes, partitioners and epochs."""

    def __init__(self, sdg: SDG, config: "RuntimeConfig") -> None:
        self.sdg = sdg
        self.config = config
        self.nodes: dict[int, PhysicalNode] = {}
        #: TE name -> slot list (``None``: failed). Changed in place,
        #: never replaced: its length is always the TE's slot count.
        self.te_slots: dict[str, list[TEInstance | None]] = {}
        self._se_instances: dict[str, list[SEInstance | None]] = {}
        self._partitioners: dict[str, HashPartitioner] = {}
        #: Per-SE repartition counter. A checkpoint records the epoch it
        #: was taken under; restoring it under a different partitioning
        #: would resurrect keys the instance no longer owns, so recovery
        #: refuses stale-epoch checkpoints.
        self._se_epochs: dict[str, int] = {}
        self._node_key_map: dict[tuple[int, int], int] = {}
        self._next_node_id = 0
        #: Stateless fallback partitioners for keyed dispatch into TEs
        #: without a partitioned SE, cached per fan-out.
        self._fallbacks: dict[int, HashPartitioner] = {}
        #: Bumped by every method that assigns into ``te_slots`` or
        #: kills a node; :meth:`candidates` rebuilds when it has moved.
        self.version = 0
        self._candidates: Candidates | None = None

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def materialise(self) -> None:
        """Allocate and instantiate every element of the SDG."""
        self.version += 1
        base = allocate(self.sdg)

        for se in self.sdg.states.values():
            custom = self.config.partitioners.get(se.name)
            if custom is not None:
                if se.kind is not StateKind.PARTITIONED:
                    raise RuntimeExecutionError(
                        f"SE {se.name!r} is {se.kind.value}; only "
                        f"partitioned SEs take a custom partitioner"
                    )
                n = custom.n_partitions
                configured = self.config.se_instances.get(se.name)
                if configured is not None and configured != n:
                    raise RuntimeExecutionError(
                        f"SE {se.name!r}: se_instances={configured} "
                        f"conflicts with the partitioner's "
                        f"{n} partitions"
                    )
            else:
                n = max(1, self.config.se_instances.get(se.name, 1))
            self._se_instances[se.name] = [
                SEInstance(se, i) for i in range(n)
            ]
            if se.kind is StateKind.PARTITIONED:
                self._partitioners[se.name] = (
                    custom if custom is not None else HashPartitioner(n)
                )

        for te in self.sdg.tasks.values():
            if te.state is not None:
                n = len(self._se_instances[te.state])
            else:
                n = max(1, self.config.te_instances.get(te.name, 1))
            self.te_slots[te.name] = [
                TEInstance(te, i, se_instance=None) for i in range(n)
            ]

        # Bind stateful TE instances to the same-index SE instance and
        # group everything onto nodes following the base allocation.
        for se_name, instances in self._se_instances.items():
            for se_inst in instances:
                node = self.node_for(base.node_of[se_name], se_inst.index)
                node.host_se(se_inst)
        for te_name, instances in self.te_slots.items():
            spec = self.sdg.task(te_name)
            for te_inst in instances:
                if spec.state is not None:
                    se_inst = self._se_instances[spec.state][te_inst.index]
                    te_inst.se_instance = se_inst
                    node = self.nodes[se_inst.node_id]
                else:
                    node = self.node_for(
                        base.node_of[te_name], te_inst.index
                    )
                node.host_te(te_inst)

    def node_for(self, base_node: int, replica: int) -> PhysicalNode:
        """The node hosting replica ``replica`` of allocation slot
        ``base_node``, created on first use."""
        key = (base_node, replica)
        if key not in self._node_key_map:
            node_id = self._next_node_id
            self._next_node_id += 1
            self._node_key_map[key] = node_id
            self.nodes[node_id] = PhysicalNode(node_id)
        return self.nodes[self._node_key_map[key]]

    def fresh_node(self) -> PhysicalNode:
        """A brand-new empty node (scale-up and recovery targets)."""
        node_id = self._next_node_id
        self._next_node_id += 1
        node = PhysicalNode(node_id)
        self.nodes[node_id] = node
        return node

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def te_instances(self, te: str) -> list[TEInstance]:
        """Live instances of TE ``te`` (failed slots omitted)."""
        return [i for i in self.te_slots[te] if i is not None]

    def te_instance(self, te: str, index: int) -> TEInstance | None:
        instances = self.te_slots[te]
        return instances[index] if index < len(instances) else None

    def te_slot_count(self, te: str) -> int:
        return len(self.te_slots[te])

    def se_instances(self, se: str) -> list[SEInstance]:
        return [i for i in self._se_instances[se] if i is not None]

    def se_instance(self, se: str, index: int) -> SEInstance | None:
        instances = self._se_instances[se]
        return instances[index] if index < len(instances) else None

    def all_te_instances(self) -> Iterator[TEInstance]:
        for instances in self.te_slots.values():
            for instance in instances:
                if instance is not None:
                    yield instance

    def alive_nodes(self) -> list[PhysicalNode]:
        return [n for n in self.nodes.values() if n.alive]

    def candidates(self) -> Candidates:
        """The live instances in deployment order, with their ready set.

        Cached: rebuilt only after :attr:`version` moved, so serving an
        item costs the same at 4 partitions and at 256.
        """
        cached = self._candidates
        if cached is None or cached.version != self.version:
            cached = self._candidates = Candidates(
                (inst for inst in self.all_te_instances()
                 if self.nodes[inst.node_id].alive), self.version)
        return cached

    def is_idle(self) -> bool:
        """Whether no envelope is waiting in any live inbox."""
        return not self.candidates().ready

    # ------------------------------------------------------------------
    # Worker placement (multiprocess substrate)
    # ------------------------------------------------------------------

    def plan_workers(self, n_workers: int) -> WorkerPlacement:
        """Assign every materialised node to one of ``n_workers`` workers.

        Nodes are distributed round-robin in node-id (deployment)
        order, which keeps the assignment deterministic and balances
        partitions across workers for the common symmetric layouts.
        Every TE instance inherits its hosting node's worker, so state
        ownership follows placement with no further bookkeeping.
        """
        if n_workers < 1:
            raise RuntimeExecutionError(
                f"worker count must be >= 1, got {n_workers}"
            )
        node_worker = {
            node_id: i % n_workers
            for i, node_id in enumerate(sorted(self.nodes))
        }
        instance_worker = {
            inst.key: node_worker[inst.node_id]
            for inst in self.all_te_instances()
        }
        return WorkerPlacement(n_workers=n_workers,
                               node_worker=node_worker,
                               instance_worker=instance_worker)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def partitioner(self, se_name: str) -> HashPartitioner:
        return self._partitioners[se_name]

    def keyed_index(self, spec, key) -> int:
        """Partition index for keyed dispatch into TE ``spec``."""
        if spec.state is not None and spec.state in self._partitioners:
            return self._partitioners[spec.state].partition(key)
        slots = self.te_slot_count(spec.name)
        fallback = self._fallbacks.get(slots)
        if fallback is None:
            fallback = self._fallbacks[slots] = HashPartitioner(slots)
        return fallback.partition(key)

    def set_partitioner(self, se_name: str,
                        partitioner: HashPartitioner) -> None:
        """Replace the routing partitioner of a partitioned SE.

        Used by m-to-n recovery when a failed SE instance is restored as
        ``n`` partitions, changing the partition count.
        """
        self._partitioners[se_name] = partitioner
        self._se_epochs[se_name] = self.se_epoch(se_name) + 1

    def se_epoch(self, se_name: str) -> int:
        """The SE's current partitioning epoch (0 until repartitioned)."""
        return self._se_epochs.get(se_name, 0)

    # ------------------------------------------------------------------
    # Failure and replacement (used by repro.recovery)
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Kill a node: inboxes, SE contents and output buffers are lost."""
        self.version += 1
        node = self.nodes[node_id]
        node.fail()
        for key in list(node.te_instances):
            te_name, index = key
            self.te_slots[te_name][index] = None
        for key in list(node.se_instances):
            se_name, index = key
            self._se_instances[se_name][index] = None

    def install_replacement(
        self,
        te_replacements: list[TEInstance],
        se_replacements: list[SEInstance],
    ) -> PhysicalNode:
        """Host replacement instances on a fresh node (recovery R-steps).

        Slot lists grow on demand so that m-to-n recovery can restore a
        single failed instance as several new partitioned instances.
        """
        self.version += 1
        node = self.fresh_node()
        for se_inst in se_replacements:
            slots = self._se_instances[se_inst.name]
            while len(slots) <= se_inst.index:
                slots.append(None)
            slots[se_inst.index] = se_inst
            node.host_se(se_inst)
        for te_inst in te_replacements:
            spec = te_inst.spec
            if spec.state is not None:
                te_inst.se_instance = self._se_instances[spec.state][
                    te_inst.index
                ]
            slots = self.te_slots[te_inst.name]
            while len(slots) <= te_inst.index:
                slots.append(None)
            slots[te_inst.index] = te_inst
            node.host_te(te_inst)
        return node

    # ------------------------------------------------------------------
    # Growth (reactive scaling, §3.3)
    # ------------------------------------------------------------------

    def add_stateless_instance(self, te_name: str) -> TEInstance:
        """Append one instance to a stateless TE on a fresh node."""
        self.version += 1
        spec = self.sdg.task(te_name)
        instance = TEInstance(spec, self.te_slot_count(te_name))
        self.te_slots[te_name].append(instance)
        self.fresh_node().host_te(instance)
        return instance

    def add_partial_instance(self, se_name: str) -> None:
        """Create one more partial replica and bind new TE instances."""
        self.version += 1
        spec = self.sdg.state(se_name)
        index = len(self._se_instances[se_name])
        se_inst = SEInstance(spec, index)
        self._se_instances[se_name].append(se_inst)
        node = self.fresh_node()
        node.host_se(se_inst)
        for te in self.sdg.tasks_accessing(se_name):
            te_inst = TEInstance(te, index, se_instance=se_inst)
            self.te_slots[te.name].append(te_inst)
            node.host_te(te_inst)

    def repartition(self, se_name: str, n_new: int) -> list[Envelope]:
        """Re-split a partitioned SE over ``n_new`` instances.

        Queued envelopes for the accessing TEs are drained and returned
        so the engine can re-route them under the new partitioner
        (keyed items must still meet their partition).
        """
        spec = self.sdg.state(se_name)
        old_instances = self.se_instances(se_name)
        if len(old_instances) != len(self._se_instances[se_name]):
            raise RuntimeExecutionError(
                f"cannot repartition SE {se_name!r} while an instance is "
                f"failed; recover first"
            )
        if any(inst.element.checkpoint_active for inst in old_instances):
            raise RuntimeExecutionError(
                f"cannot repartition SE {se_name!r} while a checkpoint "
                f"is in progress; complete or abort it first"
            )
        merged: StateElement = type(old_instances[0].element).merge_partitions(
            [inst.element for inst in old_instances]
        )
        # Rescale the *existing* strategy; a RangePartitioner refuses
        # (its boundaries are semantic) and the scale-up fails loudly.
        partitioner = self._partitioners[se_name].rescaled(n_new)
        self.set_partitioner(se_name, partitioner)

        self.version += 1
        pending: list[Envelope] = []
        accessing = self.sdg.tasks_accessing(se_name)
        for te in accessing:
            for te_inst in self.te_instances(te.name):
                while te_inst.inbox:
                    pending.append(te_inst.inbox.popleft())

        for index in range(n_new):
            part = merged.extract_partition(partitioner, index)
            if index < len(self._se_instances[se_name]):
                se_inst = self._se_instances[se_name][index]
                se_inst.element = part
            else:
                se_inst = SEInstance(spec, index, element=part)
                self._se_instances[se_name].append(se_inst)
                node = self.fresh_node()
                node.host_se(se_inst)
                for te in accessing:
                    te_inst = TEInstance(te, index, se_instance=se_inst)
                    self.te_slots[te.name].append(te_inst)
                    node.host_te(te_inst)
        return pending
