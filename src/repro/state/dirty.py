"""Dirty-state tombstone used during asynchronous checkpointing (§5).

While a checkpoint of a state element is in progress, the main data
structure must stay immutable so that a consistent snapshot can be
serialised concurrently with processing. Updates arriving in that window
are recorded in a plain ``dict`` overlay on the SE, keyed like the main
structure — a deletion as :data:`TOMBSTONE` — and reads are served by
the overlay first. When the checkpoint has been persisted, the overlay is
*consolidated* back into the main structure (the only step that requires
exclusive access, which is why the paper reports the locking overhead to
be proportional to the update rate rather than the state size).
"""

from __future__ import annotations


class _Tombstone:
    """Sentinel marking a key deleted while the overlay is active."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<TOMBSTONE>"


#: Sentinel overlaid on keys deleted while a checkpoint is in progress.
TOMBSTONE = _Tombstone()
