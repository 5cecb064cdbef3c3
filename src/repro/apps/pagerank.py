"""Asynchronous PageRank over a cyclic SDG (§3.1 iteration).

Cycles in the dataflow propagate updates between TEs, and "SDGs do not
provide coordination during iteration by default — sufficient for many
iterative machine learning and data mining algorithms because they can
converge from different intermediate states". Residual-push PageRank is
the canonical such algorithm: each message carries probability mass to
a vertex; the vertex absorbs it into its rank and, once its residual
exceeds a threshold, pushes the damped mass onward along its out-edges
— a keyed dataflow cycle with no barriers, terminating when all
residual mass falls below the threshold.

The vertex state (rank, residual, adjacency) lives in a partitioned SE;
the loop edge is key-partitioned on the vertex id, so the allocation
algorithm's step 1 (colocate cycle state) applies.
"""

from __future__ import annotations

from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.state import KeyValueMap


def build_pagerank_sdg(damping: float = 0.85,
                       epsilon: float = 1e-6) -> SDG:
    """A cyclic PageRank SDG.

    Entries:

    * ``load`` — ``(vertex, out_edges)``: register a vertex and seed it
      with the teleport mass ``1 - damping``;
    * ``push``  — internal/loop messages ``(vertex, mass)``; also the
      external seed channel;
    * ``read`` — ``vertex``: emit ``(vertex, rank)``.
    """
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    sdg = SDG("pagerank")
    sdg.add_state("vertices", KeyValueMap, kind=StateKind.PARTITIONED)

    def load(ctx, item):
        vertex, out_edges = item
        # Mass pushed by already-loaded neighbours may have arrived
        # first; merge rather than overwrite so none of it is lost.
        record = ctx.state.get(vertex) or {
            "rank": 0.0, "residual": 0.0, "out": [], "scheduled": False,
        }
        record["out"] = list(out_edges)
        ctx.state.put(vertex, record)
        # Seed with the teleport mass; flows around the loop from here.
        return (vertex, 1.0 - damping)

    def push(ctx, message):
        """Handle a mass delivery ``(v, m)`` or an activation ``(v, None)``.

        Mass deliveries only accumulate into the vertex residual; the
        first delivery that lifts the residual over the threshold
        schedules one activation token. The activation then absorbs the
        *whole* accumulated residual at once — coalescing any deliveries
        queued in between, which keeps the message complexity near the
        textbook bound instead of branching per delivery.
        """
        vertex, mass = message
        record = ctx.state.get(vertex)
        if record is None:
            # Mass sent to a vertex not loaded yet: retain it.
            record = {"rank": 0.0, "residual": 0.0, "out": [],
                      "scheduled": False}
        if mass is not None:
            record["residual"] += mass
            if record["residual"] >= epsilon and not record["scheduled"]:
                record["scheduled"] = True
                ctx.emit((vertex, None))
            ctx.state.put(vertex, record)
            return None
        # Activation: absorb everything accumulated so far.
        record["scheduled"] = False
        absorbed = record["residual"]
        record["residual"] = 0.0
        record["rank"] += absorbed
        ctx.state.put(vertex, record)
        if absorbed > 0 and record["out"]:
            share = damping * absorbed / len(record["out"])
            for neighbour in record["out"]:
                ctx.emit((neighbour, share))
        return None

    def read(ctx, vertex):
        record = ctx.state.get(vertex)
        return (vertex, record["rank"] if record else 0.0)

    sdg.add_task("load", load, state="vertices",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda item: item[0],
                 entry_key_name="vertex")
    sdg.add_task("push", push, state="vertices",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda item: item[0],
                 entry_key_name="vertex")
    sdg.add_task("read", read, state="vertices",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda vertex: vertex,
                 entry_key_name="vertex")
    sdg.connect("load", "push", Dispatch.KEY_PARTITIONED,
                key_fn=lambda item: item[0], key_name="vertex")
    # The iteration: push feeds itself along the keyed loop edge.
    sdg.connect("push", "push", Dispatch.KEY_PARTITIONED,
                key_fn=lambda item: item[0], key_name="vertex")
    return sdg


def pagerank_scores(runtime, vertices) -> dict:
    """Normalised ranks for ``vertices`` from a drained runtime."""
    before = len(runtime.results.get("read", []))
    for vertex in vertices:
        runtime.inject("read", vertex)
    runtime.run_until_idle()
    raw = dict(runtime.results["read"][before:])
    total = sum(raw.values()) or 1.0
    return {vertex: rank / total for vertex, rank in raw.items()}
