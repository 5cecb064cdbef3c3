"""Pass 1 — partial-state race detection (``SDG301``).

A *partial* SE is replicated: every instance updates its own copy and
the copies are reconciled only by an explicit merge TE behind a gather
barrier (§3.2, §4.2 rule 5). Inside a local-access TE a
read-modify-write on partial state is therefore *replica-dependent*:
each instance observes its own intermediate value.

That is fine as long as the value stays inside the TE (the paper's CF
co-occurrence update does exactly this). It becomes a race the moment
the value **escapes** onto a downstream dataflow edge: the payload now
depends on which replica happened to serve the item, downstream keyed
state absorbs replica-divergent values, and no merge function can
reconcile them after the fact — the results differ run to run and
break the §4.1 determinism that replay recovery relies on.

The pass finds, per entry method, blocks with *local* access to a
partial field that both read and write it, taints every variable
defined from a read of that field (with intra-block propagation
through assignments), and reports any tainted variable that is live
out of the block (i.e. ships on the outgoing dataflow edge).
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import DiagnosticSink
from repro.analysis.model import (
    READ_METHODS,
    WRITE_METHODS,
    ProgramModel,
    field_method_calls,
    stmt_reads_field,
)
from repro.core.elements import AccessMode
from repro.translate.liveness import uses_defs


def run(model: ProgramModel, sink: DiagnosticSink) -> None:
    for ir in model.entries.values():
        for index, block in enumerate(ir.blocks):
            if block.access is None or block.is_merge:
                continue
            if block.access.mode is not AccessMode.LOCAL:
                continue
            field = block.access.field
            if field not in model.partial_fields:
                continue
            live_out = (set(ir.lives[index + 1])
                        if index + 1 < len(ir.blocks) else set())
            if not live_out:
                continue
            _check_block(block, field, model.partial_fields, live_out,
                         ir.method, sink, interproc=model.interproc)


def block_taints(
    block, field: str, partial_fields: set[str],
    interproc=None, caller: str | None = None,
) -> tuple[bool, bool, set[str], dict[str, ast.stmt]]:
    """Taint facts for one block's access to a partial ``field``.

    Returns ``(writes, reads, tainted, taint_site)``: whether the block
    writes / reads the field, the set of variables derived (directly or
    transitively) from a read of it, and the statement that first
    tainted each. The SDG301 warning pass reports the tainted names
    that are live out of the block.

    With ``interproc`` (a :class:`~repro.analysis.summaries.
    ProgramSummaries`) and ``caller`` (the entry method name), taint
    additionally flows through helper calls that mutate their
    parameters: in a statement that touches tainted data,
    ``self._stash(out, seen)`` taints ``out`` when the summary of
    ``_stash`` proves it mutates its first parameter. The extension is
    strictly additive — more taint, never less.
    """
    writes = False
    reads = False
    tainted: set[str] = set()
    taint_site: dict[str, ast.stmt] = {}
    for stmt in block.statements:
        for _field, call_method, _node in field_method_calls(
            stmt, partial_fields
        ):
            if _field != field:
                continue
            if (call_method in WRITE_METHODS
                    or call_method not in READ_METHODS):
                writes = True
            if call_method in READ_METHODS:
                reads = True
        stmt_uses, stmt_defs = uses_defs(stmt)
        derived = (
            stmt_reads_field(stmt, field, partial_fields)
            or bool(stmt_uses & tainted)
        )
        if derived:
            for name in stmt_defs:
                tainted.add(name)
                taint_site.setdefault(name, stmt)
            if interproc is not None:
                for name in _mutated_call_args(stmt, interproc, caller):
                    tainted.add(name)
                    taint_site.setdefault(name, stmt)
    return writes, reads, tainted, taint_site


def _mutated_call_args(stmt: ast.stmt, interproc,
                       caller: str | None) -> set[str]:
    """Names passed to known callees at parameter positions the callee
    summary proves it mutates."""
    mutated: set[str] = set()
    for call in ast.walk(stmt):
        if not isinstance(call, ast.Call):
            continue
        target = interproc.graph.resolve_call(caller or "", call)
        if target is None:
            continue
        summary = interproc.get(target)
        for position, arg in enumerate(call.args):
            if position in summary.mutated_params and isinstance(
                arg, ast.Name
            ):
                mutated.add(arg.id)
    return mutated


def _check_block(block, field: str, partial_fields: set[str],
                 live_out: set[str], method: str,
                 sink: DiagnosticSink, interproc=None) -> None:
    writes, _reads, tainted, taint_site = block_taints(
        block, field, partial_fields, interproc=interproc,
        caller=method,
    )
    if not writes:
        return
    for name in sorted(tainted & live_out):
        site = taint_site[name]
        sink.emit(
            "SDG301",
            f"method {method!r}: {name!r} is derived from partial SE "
            f"{field!r} inside a read-modify-write block and escapes "
            f"onto the downstream dataflow; its value depends on which "
            f"replica served the item, so downstream state absorbs "
            f"replica-divergent results the merge cannot reconcile",
            lineno=site.lineno, col=site.col_offset, origin=method,
            hint=f"keep values read from {field!r} inside the block, or "
                 f"read the field through global_()+merge to reconcile "
                 f"replicas before the value travels",
        )
