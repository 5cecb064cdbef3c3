"""The execution-substrate layer: one program semantics, N executors.

The runtime's upper layers (deployment, scheduling, transport,
dispatch) define *what* an SDG execution means; an
:class:`ExecutionSubstrate` decides *where and how* the step loop
actually runs. The layered-dataflow discipline (Misale et al.) is the
contract: every substrate must produce the same final SE state for the
same injected inputs — the cross-substrate differential tests enforce
it.

Two substrates ship:

* :class:`InProcessSubstrate` (default) — the deterministic
  single-threaded logical-time loop the repository has always had,
  byte-for-byte. It remains the testing, repro and durability baseline
  (durable runs pin it: deterministic replay is its contract).
* :class:`~repro.runtime.multiprocess.MultiprocessSubstrate` —
  shared-nothing worker processes, each owning the TE instances and
  StateElement partitions of its assigned logical nodes, connected by
  OS pipes speaking the length-prefixed pickle codec of
  :mod:`repro.runtime.wire`.

A substrate is chosen per deployment via
``RuntimeConfig(substrate="inprocess" | "multiprocess" | <object>)``;
a custom substrate plugs in by passing any object implementing the
protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import RuntimeExecutionError
from repro.runtime.envelope import make_envelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import InputRoute, Runtime
    from repro.runtime.envelope import Envelope
    from repro.runtime.instances import TEInstance


@runtime_checkable
class ExecutionSubstrate(Protocol):
    """Where the step loop runs: the execution layer behind the facade.

    The engine calls, in order: :meth:`bind` at deploy, then
    :meth:`deliver` for every injected row, :meth:`run_until_idle`
    to drain, and :meth:`shutdown` when the runtime is closed.
    :meth:`process` lets a substrate observe/intercept the in-process
    step loop, which worker processes of a distributed substrate reuse
    verbatim. Optional, looked up by name: ``poll(timeout)`` (service
    telemetry between barriers) and ``pull_state()`` (fetch SE state
    held by workers before the engine hands it to a reader).
    """

    #: Registry name (``RuntimeConfig(substrate=name)``).
    name: str

    #: Capability flag: True when every payload hand-off through this
    #: substrate crosses a serialisation boundary. :meth:`Runtime.deploy`
    #: reads it to decide whether the SDG4xx substrate-safety gate
    #: (``RuntimeConfig.substrate_check``) runs.
    isolates_payloads: bool

    def bind(self, runtime: "Runtime") -> None:
        """Attach to a deployed runtime (spawn workers, open pipes...)."""
        ...  # pragma: no cover - protocol

    def deliver(self, route: "InputRoute", row: tuple) -> bool:
        """Hand one injected item to the execution layer.

        ``row`` is the envelope's six fields as a plain tuple, ``(payload,
        seq, channel, request_id, expected, trace_id)``; ``route`` is its
        input route: ``route.append`` logs what a replay may need in its
        entry's one input log, and ``route.sink`` keeps what the
        substrate resolved for the route on first use.
        """
        ...  # pragma: no cover - protocol

    def process(self, instance: "TEInstance",
                envelope: "Envelope") -> bool | None:
        """Serve one envelope on one instance (the per-item semantics);
        False when it was a replay duplicate, dropped unserved."""
        ...  # pragma: no cover - protocol

    def run_until_idle(self, max_steps: int) -> int:
        """Drain all pending work; returns the items processed."""
        ...  # pragma: no cover - protocol

    def shutdown(self) -> None:
        """Release substrate resources (idempotent)."""
        ...  # pragma: no cover - protocol


class InProcessSubstrate:
    """The deterministic single-process logical-time loop (default).

    This substrate *is* the seed engine's behaviour: the scheduler's
    rotor order, stall ticks, hook timing and auto-scale cadence are
    unchanged — the rotor-determinism reference test asserts selection
    order against this class, which is what makes the substrate
    refactor provably behaviour-preserving.
    """

    name = "inprocess"
    isolates_payloads = False

    def __init__(self) -> None:
        self.runtime: "Runtime | None" = None

    def bind(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        # The per-item semantics, with no frame of this substrate's own.
        self.process = runtime._serve

    # -- execution -------------------------------------------------------

    def deliver(self, route: "InputRoute", row: tuple) -> bool:
        envelope = make_envelope(row)
        route.append(envelope)
        return self.runtime.transport.deliver(envelope)

    def process(self, instance: "TEInstance",
                envelope: "Envelope") -> bool | None:
        """Shadowed at :meth:`bind` by ``runtime._serve`` itself."""
        return self.runtime._serve(instance, envelope)

    def run_until_idle(self, max_steps: int) -> int:
        """The seed drain loop: one drain, or with auto-scale one per
        ``scale_check_every`` steps with a scale check between them."""
        runtime, config = self.runtime, self.runtime.config
        every = config.scale_check_every if config.auto_scale else max_steps
        steps = 0
        while steps < max_steps:
            if steps:  # only with auto-scale: else one drain takes all
                runtime._maybe_scale()
            most = min(every, max_steps - steps)
            taken = runtime._drain(most)
            steps += taken
            if taken < most:
                return steps
        raise RuntimeExecutionError(
            f"pipeline did not become idle within {max_steps} steps"
        )

    def shutdown(self) -> None:
        pass


#: Built-in substrates selectable by name. The multiprocess substrate
#: is imported lazily so that plain in-process deployments never pay
#: its imports (selectors, multiprocessing).
SUBSTRATES = ("inprocess", "multiprocess")


def resolve_substrate(spec, config) -> "ExecutionSubstrate":
    """Turn the config knob into a substrate instance.

    Accepts a registry name or any object implementing the
    :class:`ExecutionSubstrate` protocol. Raises
    :class:`~repro.errors.RuntimeExecutionError` on anything else, so a
    typo'd substrate name fails at deploy time.
    """
    if isinstance(spec, str):
        if spec == "inprocess":
            return InProcessSubstrate()
        if spec == "multiprocess":
            from repro.runtime.multiprocess import MultiprocessSubstrate

            workers = config.workers if config.workers is not None else 2
            return MultiprocessSubstrate(
                workers=workers, restarts=config.worker_restarts,
            )
        raise RuntimeExecutionError(
            f"unknown substrate {spec!r}; available substrates: "
            f"{sorted(SUBSTRATES)}"
        )
    required = ("bind", "deliver", "run_until_idle", "process",
                "shutdown")
    if all(callable(getattr(spec, hook, None)) for hook in required):
        return spec
    raise RuntimeExecutionError(
        f"RuntimeConfig.substrate must be a substrate name or an object "
        f"implementing the ExecutionSubstrate protocol, got {spec!r}"
    )
