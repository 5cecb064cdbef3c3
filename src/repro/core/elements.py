"""Vertex and edge definitions of the SDG model (§3.1).

These are *specifications*: a logical graph description produced either
by hand (the low-level API) or by the translator. The runtime
materialises every spec into one or more physical instances (§3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.state.base import StateElement


class StateKind(enum.Enum):
    """How a state element may be distributed across nodes (§3.2)."""

    #: Disjoint partitions on separate nodes, accessed via a key.
    PARTITIONED = "partitioned"
    #: Full replicas updated independently; reconciled by a merge TE.
    PARTIAL = "partial"


class AccessMode(enum.Enum):
    """Classification of a TE's access to its state element (Fig. 3 step 3)."""

    #: The TE accesses no SE (e.g. a merge TE or a pure transformation).
    NONE = "none"
    #: Access to the single local instance (partial SEs, un-distributed SEs).
    LOCAL = "local"
    #: Keyed access to one partition of a partitioned SE.
    PARTITIONED = "partitioned"
    #: ``@Global`` access to every instance of a partial SE.
    GLOBAL = "global"


@dataclass(frozen=True)
class StateElementSpec:
    """A state element vertex.

    ``factory`` builds a fresh, empty instance of the SE's data structure;
    the runtime calls it once per SE instance (partition or partial copy)
    and again when restoring after failure.
    """

    name: str
    kind: StateKind
    factory: Callable[[], StateElement]
    #: Partitioned SEs only (``None`` otherwise): storage key -> the key
    #: its items route by. Every split of the state puts an entry in
    #: ``partitioner.partition(route_key(key))``, so it must agree with
    #: the ``key_fn`` of every route into the SE.
    route_key: Callable[[Hashable], Hashable] | None = None


class TaskContext:
    """Execution context handed to a TE function on every invocation.

    Provides access to the co-located SE instance and an ``emit`` hook for
    producing zero or more output items; a non-``None`` return value of
    the TE function is emitted as well.
    """

    __slots__ = ("state", "instance_id", "n_instances", "_outputs")

    def __init__(self, state: StateElement | None = None,
                 instance_id: int = 0, n_instances: int = 1) -> None:
        self.state = state
        self.instance_id = instance_id
        self.n_instances = n_instances
        self._outputs: list[Any] = []

    def emit(self, item: Any) -> None:
        """Queue ``item`` on the TE's outgoing dataflow."""
        self._outputs.append(item)

    def drain(self) -> list[Any]:
        """Return and clear the emitted items (runtime-internal)."""
        outputs, self._outputs = self._outputs, []
        return outputs


#: A task-element function: ``fn(ctx, item) -> output-item | None``.
TaskFn = Callable[[TaskContext, Any], Any]


@dataclass(frozen=True)
class TaskElementSpec:
    """A task element vertex.

    The access edge of §3.1 is folded into the spec: ``state`` names the
    single SE this TE may access (``A`` is a partial function — one SE per
    TE) and ``access`` classifies that access.
    """

    name: str
    fn: TaskFn
    state: str | None = None
    access: AccessMode = AccessMode.NONE
    #: Entry points receive external input (one TE per program entry).
    is_entry: bool = False
    #: Merge TEs reconcile gathered partial values (``@Collection``).
    is_merge: bool = False
    #: For entry TEs feeding a partitioned SE: how external input items
    #: are routed to instances (the paper's "new rating" flow is
    #: partitioned by ``user``). ``None`` means round-robin.
    entry_key_fn: Callable[[Any], Hashable] | None = None
    entry_key_name: str | None = None

    def __post_init__(self) -> None:
        if self.state is None and self.access not in (AccessMode.NONE,):
            raise ValueError(
                f"TE {self.name!r} declares access {self.access.value!r} "
                f"but names no state element"
            )
        if self.state is not None and self.access is AccessMode.NONE:
            raise ValueError(
                f"TE {self.name!r} names SE {self.state!r} but declares "
                f"no access mode"
            )


@dataclass(frozen=True)
class DataflowEdge:
    """A dataflow edge between two TEs, with dispatch semantics (§4.2)."""

    src: str
    dst: str
    dispatch: "Dispatch"
    #: Extracts the partitioning key from an item (KEY_PARTITIONED only).
    key_fn: Callable[[Any], Hashable] | None = None
    #: Human-readable key name for diagnostics (e.g. ``"user"``).
    key_name: str | None = None

    def __post_init__(self) -> None:
        from repro.core.dispatch import Dispatch

        if self.dispatch is Dispatch.KEY_PARTITIONED and self.key_fn is None:
            raise ValueError(
                f"dataflow {self.src}->{self.dst} is key-partitioned but "
                f"has no key_fn"
            )


# Re-exported here to avoid an import cycle in the type annotation above.
from repro.core.dispatch import Dispatch  # noqa: E402  (intentional)
