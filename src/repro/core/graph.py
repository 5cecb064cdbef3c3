"""The stateful dataflow graph container.

An :class:`SDG` collects task-element and state-element specs plus the
dataflow edges between TEs. It offers the structural queries used by
validation (§3.1 invariants), allocation (§3.3, which needs cycles and
access edges) and the runtime (successors and entry points).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.core.dispatch import Dispatch
from repro.core.elements import (
    AccessMode,
    DataflowEdge,
    StateElementSpec,
    StateKind,
    TaskElementSpec,
    TaskFn,
)
from repro.errors import ValidationError
from repro.state.base import StateElement


class SDG:
    """A stateful dataflow graph: TEs, SEs, access and dataflow edges."""

    def __init__(self, name: str = "sdg") -> None:
        self.name = name
        self._tasks: dict[str, TaskElementSpec] = {}
        self._states: dict[str, StateElementSpec] = {}
        self._dataflows: list[DataflowEdge] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_state(
        self,
        name: str,
        factory: Callable[[], StateElement],
        kind: StateKind = StateKind.PARTITIONED,
        route_key: Callable[[Hashable], Hashable] | None = None,
    ) -> StateElementSpec:
        """Declare a state element. Returns its spec.

        A partitioned SE's ``route_key`` defaults to its element class's
        ``default_route_key``: the storage key itself, a matrix's row.
        """
        if name in self._states:
            raise ValidationError(f"duplicate state element {name!r}")
        if name in self._tasks:
            raise ValidationError(f"{name!r} already names a task element")
        if kind is StateKind.PARTITIONED:
            route_key = route_key or factory().default_route_key
        elif route_key is not None:
            raise ValidationError(
                f"SE {name!r} is {kind.value}; only a partitioned SE has "
                f"a route_key")
        spec = StateElementSpec(
            name=name, kind=kind, factory=factory, route_key=route_key
        )
        self._states[name] = spec
        return spec

    def add_task(
        self,
        name: str,
        fn: TaskFn,
        state: str | None = None,
        access: AccessMode = AccessMode.NONE,
        is_entry: bool = False,
        is_merge: bool = False,
        entry_key_fn: Callable[[Any], Hashable] | None = None,
        entry_key_name: str | None = None,
    ) -> TaskElementSpec:
        """Declare a task element. Returns its spec.

        The access edge is checked immediately: the named SE must already
        have been declared (declare SEs first).
        """
        if name in self._tasks:
            raise ValidationError(f"duplicate task element {name!r}")
        if name in self._states:
            raise ValidationError(f"{name!r} already names a state element")
        if state is not None and state not in self._states:
            raise ValidationError(
                f"TE {name!r} accesses unknown SE {state!r}"
            )
        spec = TaskElementSpec(
            name=name, fn=fn, state=state, access=access,
            is_entry=is_entry, is_merge=is_merge,
            entry_key_fn=entry_key_fn, entry_key_name=entry_key_name,
        )
        self._tasks[name] = spec
        return spec

    def connect(
        self,
        src: str,
        dst: str,
        dispatch: Dispatch = Dispatch.ONE_TO_ANY,
        key_fn: Callable[[Any], Hashable] | None = None,
        key_name: str | None = None,
    ) -> DataflowEdge:
        """Add a dataflow edge from TE ``src`` to TE ``dst``."""
        for endpoint in (src, dst):
            if endpoint not in self._tasks:
                raise ValidationError(
                    f"dataflow endpoint {endpoint!r} is not a task element"
                )
        edge = DataflowEdge(
            src=src, dst=dst, dispatch=dispatch,
            key_fn=key_fn, key_name=key_name,
        )
        self._dataflows.append(edge)
        return edge

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def tasks(self) -> dict[str, TaskElementSpec]:
        return dict(self._tasks)

    @property
    def states(self) -> dict[str, StateElementSpec]:
        return dict(self._states)

    @property
    def dataflows(self) -> list[DataflowEdge]:
        return list(self._dataflows)

    def task(self, name: str) -> TaskElementSpec:
        return self._tasks[name]

    def state(self, name: str) -> StateElementSpec:
        return self._states[name]

    def entries(self) -> list[TaskElementSpec]:
        """TEs marked as program entry points (one per entry method)."""
        return [t for t in self._tasks.values() if t.is_entry]

    def successors(self, te: str) -> list[DataflowEdge]:
        """Outgoing dataflow edges of ``te``."""
        return [e for e in self._dataflows if e.src == te]

    def predecessors(self, te: str) -> list[DataflowEdge]:
        """Incoming dataflow edges of ``te``."""
        return [e for e in self._dataflows if e.dst == te]

    def tasks_accessing(self, se: str) -> list[TaskElementSpec]:
        """All TEs with an access edge to state element ``se``."""
        return [t for t in self._tasks.values() if t.state == se]

    # ------------------------------------------------------------------
    # Cycle detection (for iteration support and allocation step 1)
    # ------------------------------------------------------------------

    def cycles(self) -> list[set[str]]:
        """Strongly connected components with a cycle, as TE-name sets.

        Tarjan's algorithm over the TE dataflow graph; an SCC counts as a
        cycle if it has more than one TE or a self-loop.
        """
        index_counter = [0]
        indices: dict[str, int] = {}
        lowlinks: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[set[str]] = []
        adjacency: dict[str, list[str]] = {t: [] for t in self._tasks}
        for edge in self._dataflows:
            adjacency[edge.src].append(edge.dst)

        def strongconnect(node: str) -> None:
            # Iterative Tarjan to avoid recursion limits on long pipelines.
            work = [(node, iter(adjacency[node]))]
            indices[node] = lowlinks[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, neighbours = work[-1]
                advanced = False
                for neighbour in neighbours:
                    if neighbour not in indices:
                        indices[neighbour] = lowlinks[neighbour] = (
                            index_counter[0]
                        )
                        index_counter[0] += 1
                        stack.append(neighbour)
                        on_stack.add(neighbour)
                        work.append((neighbour, iter(adjacency[neighbour])))
                        advanced = True
                        break
                    if neighbour in on_stack:
                        lowlinks[current] = min(
                            lowlinks[current], indices[neighbour]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent],
                                           lowlinks[current])
                if lowlinks[current] == indices[current]:
                    component: set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == current:
                            break
                    has_self_loop = any(
                        e.src == e.dst and e.src in component
                        for e in self._dataflows
                    )
                    if len(component) > 1 or has_self_loop:
                        sccs.append(component)

        for task_name in self._tasks:
            if task_name not in indices:
                strongconnect(task_name)
        return sccs

    def reachable_from_entries(self) -> set[str]:
        """TE names reachable via dataflow edges from any entry TE."""
        frontier = [t.name for t in self.entries()]
        seen = set(frontier)
        while frontier:
            current = frontier.pop()
            for edge in self.successors(current):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return seen

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; see :mod:`repro.core.validation`."""
        from repro.core.validation import validate

        validate(self)

    def to_dot(self) -> str:
        """Render the SDG in Graphviz dot format (TEs boxes, SEs ovals)."""
        lines = [f"digraph {self.name} {{", "  rankdir=LR;"]
        for se in self._states.values():
            style = "dashed" if se.kind is StateKind.PARTIAL else "solid"
            lines.append(
                f'  "{se.name}" [shape=ellipse style={style} '
                f'label="{se.name}\\n({se.kind.value})"];'
            )
        for te in self._tasks.values():
            peripheries = 2 if te.is_entry else 1
            lines.append(
                f'  "{te.name}" [shape=box peripheries={peripheries}];'
            )
            if te.state is not None:
                lines.append(
                    f'  "{te.name}" -> "{te.state}" [style=dotted '
                    f'label="{te.access.value}"];'
                )
        for edge in self._dataflows:
            label = edge.dispatch.value
            if edge.key_name:
                label += f"({edge.key_name})"
            lines.append(f'  "{edge.src}" -> "{edge.dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SDG({self.name!r}, tasks={len(self._tasks)}, "
            f"states={len(self._states)}, dataflows={len(self._dataflows)})"
        )
