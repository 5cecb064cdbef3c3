"""Deployment-time knobs of the runtime and their validation.

:class:`RuntimeConfig` is a closed set of fields: every scalar knob has
a row in :data:`SCALAR_KNOBS` and is checked by
:meth:`RuntimeConfig.validate` at deploy, so an illegal value fails
before the first item flows rather than mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import RuntimeExecutionError
from repro.runtime.substrate import ExecutionSubstrate, resolve_substrate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import SDG

#: The scalar knobs as ``(field, kind, minimum)``. ``"int"`` is a real
#: integer (``bool`` excluded) ``>= minimum``; ``"optional_int"`` also
#: admits ``None``; ``"bool"`` is exactly ``True`` or ``False``.
SCALAR_KNOBS: tuple[tuple[str, str, int | None], ...] = (
    ("auto_scale", "bool", None),
    ("scale_threshold", "int", 1),
    ("max_instances", "int", 1),
    ("scale_check_every", "int", 1),
    ("trace", "bool", None),
    ("profile", "bool", None),
    ("flight_recorder", "int", 0),
    ("worker_restarts", "int", 0),
    ("workers", "optional_int", 1),
    ("optimize", "bool", None),
)


def _int_at_least(value: Any, minimum: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


@dataclass
class RuntimeConfig:
    """Deployment-time knobs of the runtime."""

    #: Initial instance count per SE (partition or replica count).
    se_instances: dict[str, int] = field(default_factory=dict)
    #: Initial instance count per *stateless* TE.
    te_instances: dict[str, int] = field(default_factory=dict)
    #: Enable the reactive bottleneck detector (§3.3).
    auto_scale: bool = False
    #: Inbox backlog per instance that flags a TE as a bottleneck.
    scale_threshold: int = 64
    #: Upper bound on instances created by auto-scaling.
    max_instances: int = 8
    #: Steps between bottleneck checks when auto-scaling.
    scale_check_every: int = 256
    #: Metrics sink: anything registry-shaped (``counter``/``gauge``/
    #: ``histogram`` factories — see :mod:`repro.obs.metrics`). ``None``
    #: gives each runtime a fresh private
    #: :class:`~repro.obs.metrics.MetricsRegistry`; pass
    #: :data:`~repro.obs.metrics.NULL_REGISTRY` to disable collection
    #: entirely, or ``repro.obs.metrics.default_registry()`` to share
    #: one process-wide sink.
    metrics: Any = None
    #: Enable per-envelope causal tracing (:mod:`repro.obs.trace`).
    #: Every injected item gets a trace id that survives dispatch
    #: fan-out, repartition and replay; hop/queue-wait spans are
    #: recorded on ``runtime.tracer``. Off by default. Works on every
    #: substrate: multiprocess workers record hops locally and the
    #: coordinator merges their shards into one causal view.
    trace: bool = False
    #: Enable wall-clock phase profiling (:mod:`repro.obs.profile`):
    #: process/dispatch/serialize/wire-wait/checkpoint/recovery timers
    #: on ``runtime.profiler``, merged across workers via
    #: :meth:`Runtime.merged_profile`. Off by default.
    profile: bool = False
    #: Flight-recorder ring capacity (:mod:`repro.obs.flight`): keep
    #: the digests of the last N served envelopes per process for
    #: post-mortems (crash frames, durable-run dumps, ``repro top``).
    #: ``0`` (the default) disables recording entirely.
    flight_recorder: int = 0
    #: Fleet-restart budget for the multiprocess substrate: how many
    #: worker crashes are absorbed by re-forking the fleet from the
    #: last barrier (replaying the inputs delivered since) before one
    #: propagates as an error. ``0`` (the default) propagates the
    #: first crash. Requires ``substrate="multiprocess"``.
    worker_restarts: int = 0
    #: Execution substrate: ``"inprocess"`` (the deterministic
    #: single-threaded logical-time loop — the default and the
    #: testing/repro baseline), ``"multiprocess"`` (shared-nothing
    #: worker processes connected by OS pipes), or a custom
    #: :class:`~repro.runtime.substrate.ExecutionSubstrate` object.
    substrate: str | ExecutionSubstrate = "inprocess"
    #: Worker process count for the multiprocess substrate (``None``
    #: defaults to 2). Only meaningful with
    #: ``substrate="multiprocess"``; setting it for the in-process
    #: substrate is a deploy-time error.
    workers: int | None = None
    #: Deploy-time substrate-safety gate for payload-isolating
    #: substrates (multiprocess): run the SDG4xx static passes and
    #: ``"warn"`` about findings, ``"enforce"`` (refuse to deploy on
    #: any error-severity finding, with the offending call chain in
    #: the error), or ``"off"``. Ignored on the in-process substrate.
    substrate_check: str = "warn"
    #: Capability-driven optimization (the sdglint-as-optimizer seam).
    #: When on, the runtime consults a
    #: :class:`~repro.analysis.capabilities.ProgramCapabilities`
    #: certificate and arms one relaxed path *only* where the
    #: analyzer produced a positive proof: one scheduling step serves a
    #: run of consecutive envelopes on ``COALESCIBLE_DISPATCH``
    #: channels. Uncertified programs take the exact baseline path
    #: even with this flag set.
    optimize: bool = False
    #: Pre-certified capabilities to deploy with (e.g. attached by
    #: ``SDGProgram.launch``). ``None`` with ``optimize=True`` makes
    #: the runtime certify its SDG itself at deploy time.
    capabilities: Any = None

    def validate(self, sdg: "SDG") -> None:
        """Reject malformed deployment knobs before they misbehave.

        Called by :meth:`Runtime.deploy`; raising here turns a typo'd SE
        name or a zero scaling interval into a clear deploy-time error
        instead of a silently ignored setting.
        """
        for knob, kind, minimum in SCALAR_KNOBS:
            value = getattr(self, knob)
            if kind == "bool":
                legal, expected = isinstance(value, bool), "a bool"
            else:
                legal = _int_at_least(value, minimum)
                expected = f"an integer >= {minimum}"
                if kind == "optional_int":
                    legal = legal or value is None
                    expected = "None or " + expected
            if not legal:
                raise RuntimeExecutionError(
                    f"RuntimeConfig.{knob} must be {expected}, "
                    f"got {value!r}"
                )
        if self.worker_restarts and self.substrate != "multiprocess":
            raise RuntimeExecutionError(
                "RuntimeConfig.worker_restarts requires "
                "substrate='multiprocess'; the in-process substrate has "
                "no worker fleet to restart"
            )
        if self.workers is not None and self.substrate == "inprocess":
            raise RuntimeExecutionError(
                "RuntimeConfig.workers requires "
                "substrate='multiprocess'; the in-process substrate "
                "is single-process by definition"
            )
        if self.substrate == "multiprocess" and self.auto_scale:
            # Structural mutations (scale-out, repartition) are not yet
            # wired through the control plane; fail at deploy instead
            # of mid-run.
            raise RuntimeExecutionError(
                "auto_scale requires the in-process substrate: "
                "reactive scale-out is not yet a multiprocess "
                "control-plane action"
            )
        if self.substrate_check not in ("warn", "enforce", "off"):
            raise RuntimeExecutionError(
                f"RuntimeConfig.substrate_check must be 'warn', "
                f"'enforce' or 'off', got {self.substrate_check!r}"
            )
        # Raises on unknown substrate names / non-substrate objects.
        resolve_substrate(self.substrate, self)
        if self.metrics is not None:
            needed = ("counter", "gauge", "histogram")
            if self.substrate == "multiprocess":
                # Workers reset and shard it, the coordinator merges.
                needed += ("reset", "shard", "merged_with")
            missing = [name for name in needed
                       if not callable(getattr(self.metrics, name, None))]
            if missing:
                raise RuntimeExecutionError(
                    f"RuntimeConfig.metrics must be registry-shaped "
                    f"(callable {'/'.join(needed)}), got "
                    f"{self.metrics!r}, which lacks {missing}"
                )
        for mapping, what, elements, known in (
            (self.se_instances, "se_instances", "SEs", sdg.states),
            (self.te_instances, "te_instances", "TEs", sdg.tasks),
        ):
            unknown = sorted(set(mapping) - set(known))
            if unknown:
                raise RuntimeExecutionError(
                    f"{what} names unknown {elements} {unknown}; this "
                    f"SDG declares {sorted(known)}"
                )
            for name, count in mapping.items():
                if not _int_at_least(count, 1):
                    raise RuntimeExecutionError(
                        f"{what}[{name!r}] must be an integer >= 1, "
                        f"got {count!r}"
                    )
