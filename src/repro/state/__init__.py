"""State elements (SEs): the explicit mutable state of an SDG.

The paper (§3.2) requires state elements to be implemented with efficient
data structures that additionally support:

* **dynamic partitioning** — splitting one SE instance into disjoint
  partitions placed on separate nodes (partitioned state), and the reverse
  merge used during recovery and re-scaling;
* **asynchronous snapshots** — a checkpoint copies a consistent cut of
  the SE (all of it, or the keys journalled since the previous one) and
  processing goes on against the live SE while the cut is persisted (§5);
* **chunked serialisation** — splitting a checkpoint into chunks that are
  backed up to *m* nodes and restored to *n* nodes in parallel (Fig. 4),
  including the *incremental* variant that serialises only the keys
  mutated since the previous checkpoint (:class:`DeltaChunk`).

This package provides the predefined SE classes named in the paper
(``Vector``, ``HashMap``-style :class:`KeyValueMap`, ``Matrix`` and
``DenseMatrix``) plus the base protocol for user-defined SEs and the
pluggable :class:`StateBackend` physical stores behind them.
"""

from repro.state.backend import (
    DenseGridBackend,
    DictBackend,
    ListBackend,
    MutationJournal,
    SparseMatrixBackend,
    StateBackend,
)
from repro.state.base import DeltaChunk, StateChunk, StateCut, StateElement
from repro.state.keyvalue import KeyValueMap
from repro.state.matrix import DenseMatrix, Matrix
from repro.state.partitioner import HashPartitioner
from repro.state.vector import Vector

__all__ = [
    "DeltaChunk",
    "DenseGridBackend",
    "DenseMatrix",
    "DictBackend",
    "HashPartitioner",
    "KeyValueMap",
    "ListBackend",
    "Matrix",
    "MutationJournal",
    "SparseMatrixBackend",
    "StateBackend",
    "StateChunk",
    "StateCut",
    "StateElement",
    "Vector",
]
