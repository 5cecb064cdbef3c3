"""State elements (SEs): the explicit mutable state of an SDG.

The paper (§3.2) requires state elements to be implemented with efficient
data structures that additionally support:

* **dynamic partitioning** — splitting one SE instance into disjoint
  partitions placed on separate nodes (partitioned state), and the reverse
  merge used during recovery and re-scaling;
* **dirty state** — a write overlay that lets processing continue while an
  asynchronous checkpoint captures a consistent snapshot (§5), followed by
  consolidation of the overlay into the main structure;
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
from repro.state.base import DeltaChunk, StateChunk, StateElement
from repro.state.dirty import TOMBSTONE
from repro.state.keyvalue import KeyValueMap
from repro.state.matrix import DenseMatrix, Matrix
from repro.state.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)
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
    "Partitioner",
    "RangePartitioner",
    "SparseMatrixBackend",
    "StateBackend",
    "StateChunk",
    "StateElement",
    "TOMBSTONE",
    "Vector",
]
