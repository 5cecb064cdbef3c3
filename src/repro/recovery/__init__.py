"""Failure recovery for SDGs (§5).

The mechanism combines **asynchronous local checkpoints** with
**message replay**:

* nodes checkpoint independently (no global coordination). A checkpoint
  copies a consistent cut of each local SE, so processing continues
  against the live SE while the cut is chunked and backed up;
* checkpoints carry, per TE instance, the vector of last-processed
  timestamps per input stream, the output buffers and the gather state,
  so that replay after recovery is exact;
* checkpoints are split into chunks stored on *m* backup targets and can
  be restored to *n* new nodes in parallel (Fig. 4);
* after restoring the last checkpoint, upstream output buffers are
  replayed and downstream nodes discard duplicates by timestamp — no
  global rollback, no output-commit problem;
* under an incremental :class:`CheckpointPolicy`, most cycles persist
  only a delta (the keys mutated since the previous cycle) and the
  restore path folds the full base plus its ordered deltas, falling
  back to base-only recovery when a delta is corrupt or missing.
"""

from repro.recovery.backup import (
    BackupStore,
    DiskBackupStore,
    chunk_checksum,
)
from repro.recovery.checkpoint import (
    CheckpointManager,
    NodeCheckpoint,
    PendingCheckpoint,
    TEMeta,
)
from repro.recovery.policy import CheckpointPolicy
from repro.recovery.manager import RecoveryManager
from repro.recovery.scheduler import CheckpointScheduler
from repro.recovery.supervisor import RecoverySupervisor

__all__ = [
    "BackupStore",
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointScheduler",
    "DiskBackupStore",
    "NodeCheckpoint",
    "PendingCheckpoint",
    "RecoveryManager",
    "RecoverySupervisor",
    "TEMeta",
    "chunk_checksum",
]
