"""Chaos layer: deterministic fault plans and a step-hook injector.

Compose a :class:`~repro.chaos.plan.FaultPlan` (or draw one with
:func:`~repro.chaos.plan.random_plan`), install a
:class:`~repro.chaos.injector.FaultInjector` on the runtime, and run
the workload — faults land at exact logical steps, reproducibly.
Pair with a :class:`~repro.runtime.detector.FailureDetector` and a
:class:`~repro.recovery.supervisor.RecoverySupervisor` to exercise the
full detect-and-repair loop.
"""

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import (
    CorruptChunk,
    CorruptDeltaChunk,
    CrashTask,
    DropDeltaChunk,
    DropEnvelope,
    DuplicateEnvelope,
    Fault,
    FaultPlan,
    KillNode,
    ScaleUp,
    SlowNode,
    TargetOffline,
    fault_from_dict,
    fault_to_dict,
    random_plan,
)

__all__ = [
    "CorruptChunk",
    "CorruptDeltaChunk",
    "CrashTask",
    "DropDeltaChunk",
    "DropEnvelope",
    "DuplicateEnvelope",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "KillNode",
    "ScaleUp",
    "SlowNode",
    "TargetOffline",
    "fault_from_dict",
    "fault_to_dict",
    "random_plan",
]
