"""SDG4xx — substrate-safety passes: is this program safe to fork?

The in-process substrate is forgiving: every TE shares one address
space, so closures, open handles, object identity and module globals
all behave. The multiprocess substrate
(:class:`~repro.runtime.multiprocess.MultiprocessSubstrate`) is not —
payloads cross process boundaries and worker state diverges silently.
These passes prove (or refute) the three fork hazards statically:

``SDG401`` *unpicklable-payload*
    A value that cannot cross a process boundary — a lambda, generator
    expression, open file handle or thread/lock primitive — is stored
    into a state element or shipped on a dataflow edge.

``SDG402`` *cross-process-nondeterminism*
    A process-dependent value escapes onto an edge or into a partition
    key: ``hash()`` differs per process under hash randomization,
    ``id()`` is an address, and iteration order over a freshly built
    ``set`` is hash-dependent. Routing or payloads built from these
    differ between workers and across recovery replays.

``SDG403`` *shared-mutable-global*
    A module global or shared class attribute is mutated from a task
    method. After fork each worker owns a private copy, so the write
    is invisible to every other process — state the paper requires to
    be explicit (§4.1) hiding in the interpreter.

The passes are **not** part of the default ``analyze()`` pipeline:
substrate-unsafe code is perfectly valid in-process. They run through
``analyze(..., substrate_safety=True)``, ``repro lint
--substrate-safety``, the capability certifier (``SUBSTRATE_SAFE``)
and the multiprocess deploy gate
(:attr:`~repro.runtime.config.RuntimeConfig.substrate_check`).
Helper- and free-function-laundered hazards surface through the
interprocedural summaries with their call chain.
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import Diagnostic, DiagnosticSink
from repro.analysis.interproc import diagnostic_chain
from repro.analysis.model import (
    WRITE_METHODS,
    ProgramModel,
    field_method_calls,
    source_location,
)
from repro.translate.liveness import uses_defs

#: Module roots whose objects hold process-local resources.
_PROCESS_LOCAL_MODULES = frozenset({
    "threading", "multiprocessing", "_thread",
})

#: Builtins whose result is process-dependent.
_PROCESS_DEPENDENT = frozenset({"hash", "id"})


# ----------------------------------------------------------------------
# Shared expression classification
# ----------------------------------------------------------------------


def _unpicklable_reason(node: ast.expr,
                        aliases: dict[str, str]) -> str | None:
    """Why the value of ``node`` cannot cross a process boundary, or
    ``None``. Deliberately shallow: a lambda passed as a ``key=``
    argument is consumed in-process and never ships, so only the value
    itself (and the top level of container displays) is inspected."""
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            reason = _unpicklable_reason(element, aliases)
            if reason:
                return reason
        return None
    if isinstance(node, ast.Dict):
        for value in node.values:
            if value is None:
                continue
            reason = _unpicklable_reason(value, aliases)
            if reason:
                return reason
        return None
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "an open file handle"
        root = func
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name):
            resolved = aliases.get(root.id, root.id)
            if resolved in _PROCESS_LOCAL_MODULES:
                return f"a {resolved!r} primitive"
    return None


def _process_dependent_call(node: ast.expr,
                            shadowed: set[str]) -> str | None:
    """The name of a ``hash()``/``id()`` call anywhere in ``node``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in _PROCESS_DEPENDENT
            and sub.func.id not in shadowed
        ):
            return sub.func.id
    return None


def _is_set_expr(node: ast.expr, set_vars: set[str]) -> bool:
    """Expression whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    return False


# ----------------------------------------------------------------------
# Program path
# ----------------------------------------------------------------------


def run_program(model: ProgramModel, sink: DiagnosticSink) -> None:
    """All three SDG4xx passes over one translated program."""
    interproc = model.interproc
    aliases = interproc.graph.aliases
    fields = set(model.result.fields)
    for method, ir in model.entries.items():
        _check_entry_blocks(model, method, ir, fields, aliases, sink)
        _report_global_writes(method, interproc.get(method), sink)


def _check_entry_blocks(model, method, ir, fields, aliases, sink):
    from repro.analysis.callgraph import local_bindings

    interproc = model.interproc
    shadowed = local_bindings(ir.fn_ast)
    shadowed &= _PROCESS_DEPENDENT  # only relevant shadows
    for index, block in enumerate(ir.blocks):
        live_out = (set(ir.lives[index + 1])
                    if index + 1 < len(ir.blocks) else set())
        unpicklable: dict[str, tuple[ast.stmt, str]] = {}
        nondet: dict[str, tuple[ast.stmt, str]] = {}
        set_vars: set[str] = set()
        stored: set[str] = set()
        for stmt in block.statements:
            _scan_se_stores(stmt, fields, aliases, method, sink)
            stored |= _stored_names(stmt, fields)
            _scan_statement(
                stmt, method, interproc, aliases, shadowed,
                unpicklable, nondet, set_vars,
            )
        # A value escapes the task either on the outgoing dataflow
        # edge (live into the next block) or into a state element.
        escaping = live_out | stored
        for name in sorted(set(unpicklable) & escaping):
            site, reason = unpicklable[name]
            sink.emit(
                "SDG401",
                f"method {method!r}: {name!r} holds {reason} and "
                f"leaves the task (dataflow edge or state write); it "
                f"cannot cross a process boundary under the "
                f"multiprocess substrate",
                lineno=site.lineno, col=site.col_offset, origin=method,
                hint="ship plain data (tuples, dicts, numbers) on "
                     "edges; construct callables and handles where "
                     "they are used",
            )
        for name in sorted(set(nondet) & escaping):
            site, why = nondet[name]
            sink.emit(
                "SDG402",
                f"method {method!r}: {name!r} is derived from {why} "
                f"and escapes onto the dataflow edge or into state; "
                f"its value differs between worker processes, so "
                f"routing and downstream state diverge across runs",
                lineno=site.lineno, col=site.col_offset, origin=method,
                hint="derive keys and payloads from stable data "
                     "(fields, explicit counters), and sort sets "
                     "before iterating",
            )
        key = block.access.key if block.access is not None else None
        if key is not None and key in nondet:
            site, why = nondet[key]
            sink.emit(
                "SDG402",
                f"method {method!r}: partition key {key!r} is derived "
                f"from {why}; keys must agree across processes or the "
                f"same record lands in different partitions",
                lineno=site.lineno, col=site.col_offset, origin=method,
                hint="partition by a stable field of the data itself",
            )


def _scan_se_stores(stmt, fields, aliases, method, sink):
    """SDG401 for unpicklable values stored directly into an SE."""
    for field_name, call_method, call in field_method_calls(
        stmt, fields
    ):
        if call_method not in WRITE_METHODS:
            continue
        for arg in call.args:
            reason = _unpicklable_reason(arg, aliases)
            if reason:
                sink.emit(
                    "SDG401",
                    f"method {method!r} stores {reason} in state "
                    f"element {field_name!r}; checkpoints and "
                    f"cross-process state movement cannot serialise "
                    f"it",
                    lineno=call.lineno, col=call.col_offset,
                    origin=method,
                    hint="store plain data in SEs; keep callables and "
                         "handles outside program state",
                )


def _stored_names(stmt, fields) -> set[str]:
    """Variable names written into an SE by this statement."""
    names: set[str] = set()
    for _field, call_method, call in field_method_calls(stmt, fields):
        if call_method not in WRITE_METHODS:
            continue
        for arg in call.args:
            for node in ast.walk(arg):
                if isinstance(node, ast.Name):
                    names.add(node.id)
    return names


def _scan_statement(stmt, method, interproc, aliases, shadowed,
                    unpicklable, nondet, set_vars):
    """Track unpicklable / process-dependent / set-valued variables
    through one statement (flow-insensitive within the block)."""
    graph = interproc.graph
    stmt_uses, stmt_defs = uses_defs(stmt)

    # for x in {…} / set(…) / known-set var: iteration order taint.
    # Everything the loop statement defines — the target *and* any
    # name assigned in the body — is derived from the visit order.
    for node in ast.walk(stmt):
        if isinstance(node, ast.For) and _is_set_expr(node.iter,
                                                      set_vars):
            for name in stmt_defs:
                nondet.setdefault(
                    name, (stmt, "unordered set iteration"),
                )

    value = None
    if isinstance(stmt, ast.Assign):
        value = stmt.value
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        value = stmt.value

    if value is not None:
        if _is_set_expr(value, set_vars):
            set_vars.update(stmt_defs)
        reason = _unpicklable_reason(value, aliases)
        if reason:
            for name in stmt_defs:
                unpicklable.setdefault(name, (stmt, reason))
        elif isinstance(value, ast.Name) and value.id in unpicklable:
            for name in stmt_defs:
                unpicklable.setdefault(name, unpicklable[value.id])

    builtin = _process_dependent_call(stmt, shadowed)
    why = f"the process-dependent builtin {builtin}()" if builtin else None
    if why is None and stmt_uses & set(nondet):
        first = sorted(stmt_uses & set(nondet))[0]
        why = nondet[first][1]
    if why is None:
        # A resolved callee that transitively calls hash()/id() taints
        # the values it returns into this statement.
        for call in ast.walk(stmt):
            if not isinstance(call, ast.Call):
                continue
            target = graph.resolve_call(method, call)
            if target is None:
                continue
            for effect in interproc.get(target).effects:
                if (effect.kind == "nondet"
                        and effect.detail in _PROCESS_DEPENDENT):
                    why = (f"the process-dependent builtin "
                           f"{effect.detail}() (via {target})")
                    break
            if why:
                break
    if why:
        for name in stmt_defs:
            nondet.setdefault(name, (stmt, why))


def _report_global_writes(method, summary, sink):
    """SDG403 for module-global / class-attribute writes reachable
    from one entry, with the call chain when laundered."""
    for effect in summary.global_writes:
        path = " → ".join(hop.fn for hop in effect.chain)
        where = f" (through {path})" if path else ""
        lineno = (effect.chain[0].lineno if effect.chain
                  else effect.lineno)
        sink.emit(
            "SDG403",
            f"method {method!r} mutates {effect.detail!r}{where}: "
            f"after fork each worker owns a private copy, so the "
            f"write is invisible to every other process — make the "
            f"state explicit (Partitioned/Partial) instead",
            lineno=lineno, origin=method,
            hint="move mutable program state into annotated state "
                 "elements; module globals and class attributes do "
                 "not replicate across workers",
            chain=(diagnostic_chain(method, effect)
                   if effect.chain else ()),
        )


# ----------------------------------------------------------------------
# Graph path (hand-built SDGs: scan the task functions' sources)
# ----------------------------------------------------------------------


def run_graph(sdg, sink: DiagnosticSink) -> None:
    """The SDG4xx scans over a hand-built graph's task functions."""
    from repro.analysis.capabilities import _task_source

    for te_name, spec in sorted(sdg.tasks.items()):
        fn_ast = _task_source(spec.fn)
        if fn_ast is None:
            continue
        _scan_task_fn(te_name, fn_ast, sink)


def _scan_task_fn(te_name: str, fn_ast: ast.FunctionDef,
                  sink: DiagnosticSink) -> None:
    declared_global: set[str] = set()
    for node in ast.walk(fn_ast):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(fn_ast):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _PROCESS_DEPENDENT
            ):
                sink.emit(
                    "SDG402",
                    f"task {te_name!r} calls the process-dependent "
                    f"builtin {node.func.id!r}; its result differs "
                    f"between worker processes",
                    lineno=node.lineno, col=node.col_offset,
                    origin=te_name,
                    hint="derive keys and identities from the data "
                         "itself",
                )
            # ctx.state.<write>(… lambda …): unpicklable into state.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in WRITE_METHODS
            ):
                for arg in node.args:
                    reason = _unpicklable_reason(arg, {})
                    if reason:
                        sink.emit(
                            "SDG401",
                            f"task {te_name!r} stores {reason} in "
                            f"state; it cannot be serialised for "
                            f"checkpoints or cross-process movement",
                            lineno=node.lineno, col=node.col_offset,
                            origin=te_name,
                            hint="store plain data in state elements",
                        )
        elif isinstance(node, (ast.Assign, ast.AugAssign,
                               ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id in declared_global):
                    sink.emit(
                        "SDG403",
                        f"task {te_name!r} mutates module global "
                        f"{target.id!r}; after fork the write is "
                        f"invisible to every other worker process",
                        lineno=node.lineno, col=node.col_offset,
                        origin=te_name,
                        hint="move mutable state into the task's "
                             "state element",
                    )


# ----------------------------------------------------------------------
# Deploy-gate entry point
# ----------------------------------------------------------------------


def deploy_findings(sdg) -> list[Diagnostic]:
    """The SDG4xx findings the multiprocess deploy gate checks.

    Prefers the program path (full interprocedural analysis over the
    original class, attached by ``translate()`` as
    ``sdg.source_program``); falls back to the task-source scan for
    hand-built graphs.
    """
    program = getattr(sdg, "source_program", None)
    if program is not None:
        from repro.translate.builder import translate

        file, line_base = source_location(program)
        sink = DiagnosticSink(file=file, line_base=line_base)
        try:
            result = translate(program, sink=sink)
        except Exception:
            return []
        model = ProgramModel.build(program, result)
        gate_sink = DiagnosticSink(file=file, line_base=line_base)
        run_program(model, gate_sink)
        return gate_sink.diagnostics
    sink = DiagnosticSink()
    run_graph(sdg, sink)
    return sink.diagnostics
