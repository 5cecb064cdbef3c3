"""Exception hierarchy for the SDG reproduction.

Every error raised by the library derives from :class:`SDGError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the phase that failed (translation,
validation, runtime, recovery).
"""

from __future__ import annotations


class SDGError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TranslationError(SDGError):
    """Raised when an imperative program cannot be translated to an SDG.

    This covers violations of the paper's §4.1 program restrictions
    (explicit state classes, side-effect-free parallelism, determinism)
    as well as structural problems found during static analysis.
    """

    def __init__(self, message: str, *, lineno: int | None = None) -> None:
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class ValidationError(SDGError):
    """Raised when an SDG violates a structural invariant.

    Examples: a task element with access edges to two different state
    elements (access edges must be a partial function, §3.1), or task
    elements accessing one partitioned state element with conflicting
    partitioning strategies (§3.2).
    """


class AllocationError(SDGError):
    """Raised when TE/SE instances cannot be mapped onto cluster nodes."""


class RuntimeExecutionError(SDGError):
    """Raised when the pipelined runtime fails while processing data."""


class StateError(SDGError):
    """Raised on invalid operations against a state element.

    Examples: partitioning a matrix by row after it was already accessed
    by column, or writing a key its store refuses.
    """


class RecoveryError(SDGError):
    """Raised when checkpointing, backup or restore cannot proceed."""


class StaleCheckpointError(RecoveryError):
    """Raised when a checkpoint was captured under a superseded
    partitioning epoch.

    Restoring it would resurrect keys the instance no longer owns and
    miss keys it gained. The :class:`~repro.recovery.supervisor.
    RecoverySupervisor` reacts by falling back to pure log-replay
    recovery instead of restoring the stale snapshot.
    """


class BackupIntegrityError(RecoveryError):
    """Raised when stored checkpoint chunks fail verification.

    Covers missing chunks (a backup target offline or data lost) and
    CRC-32 checksum mismatches (corrupted chunk payloads). Restores must
    never silently proceed with partial or tampered state.
    """


class ChaosError(SDGError):
    """Raised on invalid fault plans or fault-injection misuse."""


class DurabilityError(SDGError):
    """Raised when a durable run directory cannot be used.

    Covers a missing or half-formed run manifest, a schema-version or
    program-fingerprint mismatch between the manifest and the code
    resuming it, and a restored state whose fingerprint disagrees with
    the hash the manifest committed for that epoch.
    """


class SimulationError(SDGError):
    """Raised by the discrete-event cluster simulator on invalid input."""
