"""Structural validation of SDGs.

Enforces the invariants stated in the paper:

* access edges form a partial function — each TE accesses at most one SE
  (§3.1); guaranteed by construction here, re-checked for completeness;
* partitioned SEs must be reached through a *unique* partitioning: all
  keyed dataflows into TEs that access the same partitioned SE must use
  the same key, and a partitioned matrix cannot be accessed by row and by
  column at once (§3.2);
* ``@Global`` access is only meaningful on partial SEs (§4.1);
* an ``ALL_TO_ONE`` (gather) edge must terminate at a merge TE, and merge
  TEs must be fed by gather edges (§4.2 rule 5);
* every TE should be reachable from an entry TE, otherwise it would never
  receive data.

Each check reports through the ``sdglint`` diagnostics engine:
:func:`collect` returns **every** violated invariant as a structured
:class:`~repro.analysis.diagnostics.Diagnostic`, while :func:`validate`
keeps the historical contract of raising
:class:`~repro.errors.ValidationError` on the first violation (with the
same messages, in the same order).
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, DiagnosticSink
from repro.core.dispatch import Dispatch
from repro.core.elements import AccessMode, StateKind
from repro.errors import ValidationError


def validate(sdg) -> None:
    """Raise :class:`ValidationError` on the first violated invariant."""
    diagnostics = collect(sdg)
    if diagnostics:
        raise ValidationError(diagnostics[0].message)


def collect(sdg) -> list[Diagnostic]:
    """Run every structural check; return all findings, raise nothing."""
    sink = DiagnosticSink()
    _check_access_modes(sdg, sink)
    _check_partitioned_access(sdg, sink)
    _check_gather_edges(sdg, sink)
    _check_reachability(sdg, sink)
    return sink.diagnostics


def _check_access_modes(sdg, sink: DiagnosticSink) -> None:
    for te in sdg.tasks.values():
        if te.state is None:
            continue
        se = sdg.state(te.state)
        if te.access is AccessMode.GLOBAL and se.kind is not StateKind.PARTIAL:
            sink.emit(
                "SDG201",
                f"TE {te.name!r} uses global access on SE {se.name!r}, "
                f"but global access requires partial state",
                origin=te.name,
                hint=f"declare {se.name!r} as Partial, or drop the "
                     f"global_ marker",
            )
        if (
            te.access is AccessMode.PARTITIONED
            and se.kind is not StateKind.PARTITIONED
        ):
            sink.emit(
                "SDG202",
                f"TE {te.name!r} uses partitioned access on SE "
                f"{se.name!r}, which is {se.kind.value}",
                origin=te.name,
                hint=f"declare {se.name!r} as Partitioned with a key, "
                     f"or access it locally",
            )
        if te.access is AccessMode.LOCAL and se.kind is StateKind.PARTITIONED:
            sink.emit(
                "SDG203",
                f"TE {te.name!r} uses local access on partitioned SE "
                f"{se.name!r}; partitioned SEs require keyed access",
                origin=te.name,
                hint="route items to this TE through a key-partitioned "
                     "dataflow",
            )


def route_key_names(sdg, se_name: str) -> list[str]:
    """The named keys of the entries and keyed edges into the TEs that
    access an SE, sorted (SDG213 allows one)."""
    tes = sdg.tasks_accessing(se_name)
    names = {te.entry_key_name for te in tes if te.is_entry}
    names.update(edge.key_name for te in tes
                 for edge in sdg.predecessors(te.name)
                 if edge.dispatch is Dispatch.KEY_PARTITIONED)
    return sorted(names - {None})


def _check_partitioned_access(sdg, sink: DiagnosticSink) -> None:
    """All routes into one partitioned SE must agree on the key (§3.2)."""
    for se in sdg.states.values():
        if se.kind is not StateKind.PARTITIONED:
            continue
        for te in sdg.tasks_accessing(se.name):
            if te.is_entry and te.entry_key_fn is None:
                sink.emit(
                    "SDG211",
                    f"entry TE {te.name!r} accesses partitioned SE "
                    f"{se.name!r} but declares no entry_key_fn; "
                    f"external input must be dispatched by key",
                    origin=te.name,
                    hint="pass entry_key_fn= (and entry_key_name=) "
                         "when declaring the entry TE",
                )
            for edge in sdg.predecessors(te.name):
                if edge.dispatch not in (Dispatch.KEY_PARTITIONED,
                                         Dispatch.ALL_TO_ONE):
                    sink.emit(
                        "SDG212",
                        f"dataflow {edge.src}->{edge.dst} reaches TE "
                        f"{te.name!r} accessing partitioned SE "
                        f"{se.name!r} but is dispatched "
                        f"{edge.dispatch.value!r}; keyed dispatch is "
                        f"required for local partition access",
                        origin=te.name,
                        hint="connect the edge with "
                             "Dispatch.KEY_PARTITIONED and a key_fn",
                    )
        named = route_key_names(sdg, se.name)
        if len(named) > 1:
            sink.emit(
                "SDG213",
                f"partitioned SE {se.name!r} is accessed with conflicting "
                f"partitioning keys {named}; a unique partitioning "
                f"is required",
                origin=se.name,
                hint="re-key every route into the SE to one partition "
                     "key, or split the SE",
            )


def _check_gather_edges(sdg, sink: DiagnosticSink) -> None:
    for edge in sdg.dataflows:
        dst = sdg.task(edge.dst)
        if edge.dispatch is Dispatch.ALL_TO_ONE and not dst.is_merge:
            sink.emit(
                "SDG221",
                f"gather dataflow {edge.src}->{edge.dst} must end at a "
                f"merge TE (a synchronisation barrier)",
                origin=edge.dst,
                hint="mark the destination TE is_merge=True and give it "
                     "merge semantics",
            )
    for te in sdg.tasks.values():
        if not te.is_merge:
            continue
        incoming = sdg.predecessors(te.name)
        if incoming and not any(
            e.dispatch is Dispatch.ALL_TO_ONE for e in incoming
        ):
            sink.emit(
                "SDG222",
                f"merge TE {te.name!r} has no all-to-one input; a merge "
                f"reconciles gathered partial values",
                origin=te.name,
                hint="feed the merge through Dispatch.ALL_TO_ONE",
            )


def _check_reachability(sdg, sink: DiagnosticSink) -> None:
    if not sdg.entries():
        sink.emit(
            "SDG231", "SDG has no entry task element",
            hint="mark at least one TE is_entry=True so external input "
                 "can enter the graph",
        )
        return
    reachable = sdg.reachable_from_entries()
    unreachable = set(sdg.tasks) - reachable
    if unreachable:
        sink.emit(
            "SDG232",
            f"task elements unreachable from any entry: "
            f"{sorted(unreachable)}",
            hint="connect the orphaned TEs to the dataflow or remove "
                 "them",
        )
