"""The dispatch layer: the paper's four routing semantics (§4.2).

A TE's outputs travel its outgoing dataflow edges under one of four
dispatch strategies (§3.1): keyed partitioning, round-robin
``ONE_TO_ANY``, ``ONE_TO_ALL`` broadcast under a request id named by
its first stamp, and ``ALL_TO_ONE`` gather feeding a merge barrier.
The :class:`Dispatcher` implements one method per semantic on top of
the transport layer.

Routing is fed by a **successor index** precomputed at deploy time:
``sdg.dataflows`` is scanned once and every TE's outgoing
``(edge_index, edge)`` pairs are stored in a dict. The seed engine
re-scanned (and re-copied) the full edge list for every processed item
— O(edges) per item; the index makes it O(out-degree).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.core.dispatch import Dispatch
from repro.core.graph import SDG
from repro.errors import RuntimeExecutionError
from repro.obs.metrics import NULL_REGISTRY
from repro.runtime.envelope import NO_RESPONSE, Envelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.deployment import Topology
    from repro.runtime.instances import TEInstance
    from repro.runtime.transport import Transport


class Dispatcher:
    """Routes TE outputs along dataflow edges, one method per semantic."""

    def __init__(self, sdg: SDG, topology: "Topology",
                 transport: "Transport", metrics: Any = None) -> None:
        self.topology = topology
        self.transport = transport
        registry = metrics if metrics is not None else NULL_REGISTRY
        counter = registry.counter(
            "dispatch_items_total", "items routed, by dispatch semantics")
        # Pre-bound per-semantics children: hot-path increments are a
        # single attribute add, no label resolution.
        self._c_gather = counter.labels(semantics="all_to_one")
        self._c_broadcast = counter.labels(semantics="one_to_all")
        self._c_keyed = counter.labels(semantics="key_partitioned")
        self._c_any = counter.labels(semantics="one_to_any")
        #: Deploy-time successor index: TE name -> [(edge_index, edge)].
        self._successors: dict[str, list[tuple[int, Any]]] = {
            name: [] for name in sdg.tasks
        }
        for index, edge in enumerate(sdg.dataflows):
            self._successors[edge.src].append((index, edge))

    def successors(self, te: str) -> "Sequence[tuple[int, Any]]":
        """The precomputed outgoing ``(edge_index, edge)`` pairs of ``te``."""
        return self._successors[te]

    def export_index(self) -> dict[str, list[tuple[int, str, str]]]:
        """The successor index as plain picklable data.

        Shipped to every worker at deploy by the multiprocess substrate
        (``MSG_HELLO``): each worker verifies the coordinator's routing
        table against its own view before serving traffic, so a
        divergence between the processes' dispatch structures fails
        loudly at bootstrap instead of silently misrouting envelopes.
        """
        return {
            te: [(index, edge.src, edge.dst) for index, edge in pairs]
            for te, pairs in self._successors.items()
        }

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def dispatch(self, instance: "TEInstance", outputs: list[Any],
                 cause: Envelope) -> None:
        """Route ``outputs`` along every outgoing edge of ``instance``."""
        for edge_index, edge in self._successors[instance.name]:
            if edge.dispatch is Dispatch.ALL_TO_ONE:
                self.gather(instance, edge_index, edge, outputs, cause)
            elif edge.dispatch is Dispatch.ONE_TO_ALL:
                self.broadcast(instance, edge_index, edge, outputs, cause)
            elif edge.dispatch is Dispatch.KEY_PARTITIONED:
                self.key_partitioned(instance, edge_index, edge, outputs,
                                     cause)
            else:
                self.one_to_any(instance, edge_index, edge, outputs, cause)

    # ------------------------------------------------------------------
    # The four semantics
    # ------------------------------------------------------------------

    def gather(self, instance: "TEInstance", edge_index: int, edge,
               outputs: list[Any], cause: Envelope) -> None:
        """``ALL_TO_ONE``: answer a global-access round trip (§3.2)."""
        if len(outputs) > 1:
            raise RuntimeExecutionError(
                f"TE {instance.name!r} produced {len(outputs)} outputs for "
                f"one request on gather edge {edge.src}->{edge.dst}; "
                f"global-access TEs must emit at most one item per input"
            )
        if cause.request_id is None:
            # Not part of a global-access round trip: forward directly.
            for item in outputs:
                self._c_gather.inc()
                self.transport.send(instance, edge_index, edge.dst, 0,
                                    item, None, None,
                                    trace_id=cause.trace_id)
            return
        item = outputs[0] if outputs else NO_RESPONSE
        self._c_gather.inc()
        self.transport.send(instance, edge_index, edge.dst, 0, item,
                            cause.request_id, cause.expected_responses,
                            trace_id=cause.trace_id)

    def broadcast(self, instance: "TEInstance", edge_index: int, edge,
                  outputs: list[Any], cause: Envelope) -> None:
        """``ONE_TO_ALL``: fan each item out under its own request id.

        The id is the fan-out's stream and first stamp, ``(edge_index,
        src_te, src_index, seq)``: producer-local state that a restore
        brings back, so a re-executed broadcast regenerates the id its
        replicas already answered, and ids from different producers
        never collide. ``cause`` threads the causal trace id through
        the fan-out. The barrier waits for every slot, as for an
        injected broadcast: a replica on a dead node answers from its
        replayed buffer once it is recovered.
        """
        dst_te = edge.dst
        slots = self.topology.te_slot_count(dst_te)
        out_seq = instance.out_seq
        send = self.transport.send
        trace_id = cause.trace_id
        for item in outputs:
            request_id = (edge_index, instance.name, instance.index,
                          out_seq.get(edge_index, 0) + 1)
            for dst in range(slots):
                send(instance, edge_index, dst_te, dst, item, request_id,
                     slots, trace_id)
        self._c_broadcast.inc(slots * len(outputs))

    def key_partitioned(self, instance: "TEInstance", edge_index: int,
                        edge, outputs: list[Any], cause: Envelope) -> None:
        """``KEY_PARTITIONED``: route each item to its key's partition."""
        dst_te = edge.dst
        partition = self.topology.routers[dst_te].partition
        key_fn = edge.key_fn
        send = self.transport.send
        request_id = cause.request_id
        expected = cause.expected_responses
        trace_id = cause.trace_id
        for item in outputs:
            send(instance, edge_index, dst_te, partition(key_fn(item)),
                 item, request_id, expected, trace_id)
        self._c_keyed.inc(len(outputs))

    def one_to_any(self, instance: "TEInstance", edge_index: int, edge,
                   outputs: list[Any], cause: Envelope) -> None:
        """``ONE_TO_ANY``: deterministic producer-local round-robin."""
        dst_te = edge.dst
        slots = self.topology.te_slot_count(dst_te)
        out_seq = instance.out_seq
        send = self.transport.send
        request_id = cause.request_id
        expected = cause.expected_responses
        trace_id = cause.trace_id
        for item in outputs:
            # The destination is derived from the producer's own per-edge
            # send counter (read per item: every send bumps it) —
            # producer-local state that is checkpointed and restored — so
            # deterministic re-execution after recovery reproduces the
            # exact original routing and duplicates are recognised.
            send(instance, edge_index, dst_te,
                 out_seq.get(edge_index, 0) % slots, item, request_id,
                 expected, trace_id)
        self._c_any.inc(len(outputs))
