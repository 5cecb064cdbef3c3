"""Checkpoint cadence policy: full bases vs incremental deltas.

Asynchronous checkpointing (§5) keeps the *capture* of a checkpoint
off the processing path; this policy makes its *persistence* cheap too, by
letting most cycles back up only the keys mutated since the previous
cycle (a :class:`~repro.state.base.DeltaChunk` chain) and re-anchoring
on a full base every ``full_every`` cycles to bound the chain length a
restore has to fold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RecoveryError


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to take a full base checkpoint vs an incremental delta.

    ``full_every`` is the base cadence, counted in completed
    checkpoint cycles per node:

    * ``1`` (default) — every checkpoint is a full base: the seed
      behaviour, zero restore-chain length, O(state) backup each cycle;
    * ``K > 1`` — a full base at cycles 0, K, 2K, ... and deltas in
      between: restores fold at most K-1 deltas;
    * ``0`` — one full base at cycle 0, deltas forever after: minimal
      backup traffic, unbounded chain length.

    A delta is only *attempted* when it is sound: the previous
    checkpoint must still be in the store with a contiguous version,
    and the node's SE set and partitioning epochs must be unchanged;
    otherwise the manager silently re-anchors with a full base.
    """

    full_every: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.full_every, int) \
                or isinstance(self.full_every, bool) or self.full_every < 0:
            raise RecoveryError(
                f"full_every must be an int >= 0, got {self.full_every!r}"
            )

    def wants_full(self, cycle: int) -> bool:
        """Whether checkpoint cycle ``cycle`` (0-based) should be full."""
        if cycle == 0 or self.full_every == 1:
            return True
        if self.full_every == 0:
            return False
        return cycle % self.full_every == 0
