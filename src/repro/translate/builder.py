"""The py2sdg driver: annotated class → executable SDG (Fig. 3).

``translate(cls)`` runs the full pipeline over an ``SDGProgram``
subclass and returns a :class:`TranslationResult` holding the SDG plus
per-entry-method metadata (parameter lists, entry/terminal TE names)
used by the program runner to inject calls and collect results.

The pipeline doubles as the front-end of the ``sdglint`` analyzer
(:mod:`repro.analysis`): passing a
:class:`~repro.analysis.diagnostics.DiagnosticSink` switches every
check from raise-on-first to collect-all — restriction violations,
per-method structural failures and SDG validation findings are
recorded as diagnostics and translation continues as far as it can.
Without a sink the behaviour (and the produced SDG) is unchanged.

Each translated entry additionally records its intermediate
representation (:class:`MethodIR`: the method AST, TE blocks, live-in
sets and TE names) on the result, which is what the analysis passes
consume — capturing it costs nothing because the objects already
exist.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.diagnostics import DiagnosticSink
from repro.annotations import StateField
from repro.core.dispatch import Dispatch
from repro.core.elements import AccessMode
from repro.core.graph import SDG
from repro.errors import TranslationError
from repro.translate.codegen import compile_block, compile_helper
from repro.translate.liveness import live_ins
from repro.translate.restrictions import (
    check_restrictions,
    collect_import_aliases,
)
from repro.translate.splitter import Block, split_method


@dataclass
class EntryInfo:
    """Runner-facing metadata of one translated entry method."""

    method: str
    params: list[str]
    entry_te: str
    terminal_te: str
    #: TE names in pipeline order.
    te_names: list[str] = field(default_factory=list)


@dataclass
class MethodIR:
    """Front-end intermediate representation of one entry method.

    Captured for the ``sdglint`` passes: the split TE blocks and the
    live-variable results are exactly what the value-level analyses
    (partial-race, key-provenance, dead-payload) need.
    """

    method: str
    fn_ast: ast.FunctionDef
    params: list[str]
    blocks: list[Block]
    lives: list[list[str]]
    te_names: list[str]


@dataclass
class TranslationResult:
    """The SDG plus the metadata needed to drive it."""

    sdg: SDG
    entries: dict[str, EntryInfo]
    program_class: type
    #: Per-entry analysis IR (populated for every translated entry).
    method_ir: dict[str, MethodIR] = field(default_factory=dict)
    #: All method ASTs of the class body (entries, helpers, merges).
    method_asts: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: Annotated state-field descriptors by name.
    fields: dict[str, StateField] = field(default_factory=dict)
    #: Certified :class:`~repro.analysis.capabilities.
    #: ProgramCapabilities`, attached by ``SDGProgram.launch`` when the
    #: runtime is asked to optimize (``None`` otherwise).
    capabilities: Any = None

    def entry_info(self, method: str) -> EntryInfo:
        if method not in self.entries:
            raise TranslationError(
                f"{method!r} is not an entry method of "
                f"{self.program_class.__name__}"
            )
        return self.entries[method]


def _collect_fields(cls: type) -> dict[str, StateField]:
    fields: dict[str, StateField] = {}
    for klass in reversed(cls.__mro__):
        for name, value in vars(klass).items():
            if isinstance(value, StateField):
                fields[name] = value
    return fields


def _collect_methods(cls: type) -> dict[str, Callable]:
    methods: dict[str, Callable] = {}
    for klass in reversed(cls.__mro__):
        if klass is object:
            continue
        for name, value in vars(klass).items():
            if callable(value) and not name.startswith("__"):
                methods[name] = value
    return methods


def _class_ast(cls: type) -> ast.ClassDef:
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError) as exc:
        raise TranslationError(
            f"cannot read the source of {cls.__name__}: {exc}; py2sdg "
            f"needs source access (like java2sdg needs the class file)"
        ) from exc
    module = ast.parse(textwrap.dedent(source))
    for node in module.body:
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            return node
    raise TranslationError(
        f"source of {cls.__name__} does not contain its class definition"
    )


def _module_aliases(cls: type) -> dict[str, str]:
    """Import aliases visible to the class from its module's top level.

    ``from time import time as now`` at module scope must not evade the
    §4.1 restriction scan any more than it would inside a method. Only
    top-level imports are considered; failure to read the module source
    (REPL-defined classes) degrades to no module aliases.
    """
    module = sys.modules.get(cls.__module__)
    if module is None:
        return {}
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        return {}
    try:
        tree = ast.parse(source)
    except SyntaxError:  # pragma: no cover - source is importable
        return {}
    top_level = [stmt for stmt in tree.body
                 if isinstance(stmt, (ast.Import, ast.ImportFrom))]
    return collect_import_aliases(top_level)


def _method_asts(class_def: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in class_def.body
        if isinstance(node, ast.FunctionDef)
    }


def _params_of(fn: ast.FunctionDef) -> list[str]:
    params = [arg.arg for arg in fn.args.args]
    if not params or params[0] != "self":
        raise TranslationError(
            f"entry method {fn.name!r} must take self first",
            lineno=fn.lineno,
        )
    if fn.args.vararg or fn.args.kwarg or fn.args.kwonlyargs:
        raise TranslationError(
            f"entry method {fn.name!r} must use plain positional "
            f"parameters", lineno=fn.lineno,
        )
    return params[1:]


def _item_key_fn(names: list[str], key: str) -> Callable[[Any], Any]:
    """Extract the partition key from a live-var payload."""
    if key not in names:
        raise TranslationError(
            f"partition key variable {key!r} is not available on the "
            f"dataflow (live variables: {names}); the key must reach the "
            f"task element that accesses the partitioned state"
        )
    if len(names) == 1:
        return lambda item: item
    index = names.index(key)
    return lambda item: item[index]


def _block_label(block: Block) -> str:
    if block.is_merge:
        return f"merge_{block.merge.method}"
    if block.access is None:
        return "task"
    if block.access.mode is AccessMode.GLOBAL:
        return f"{block.access.field}_global"
    return block.access.field


def translate(cls: type,
              sink: DiagnosticSink | None = None) -> TranslationResult:
    """Translate an annotated program class into an SDG.

    With ``sink`` (lint mode) every violation is recorded as a
    diagnostic and translation continues method-by-method; a method
    that cannot be structured into TEs at all is reported (``SDG001``)
    and skipped. Without a sink the first problem raises, exactly as
    the runtime callers expect.
    """
    strict = sink is None
    fields = _collect_fields(cls)
    if not fields:
        message = (f"{cls.__name__} declares no Partitioned/Partial state "
                   f"fields; nothing to distribute")
        if strict:
            raise TranslationError(message)
        sink.emit("SDG001", message, origin=cls.__name__)
        return TranslationResult(sdg=SDG(cls.__name__), entries={},
                                 program_class=cls)
    methods = _collect_methods(cls)
    entry_names = [
        name for name, method in methods.items()
        if getattr(method, "_sdg_entry", False)
    ]
    if not entry_names:
        message = f"{cls.__name__} has no @entry methods"
        if strict:
            raise TranslationError(message)
        sink.emit("SDG001", message, origin=cls.__name__)
        return TranslationResult(sdg=SDG(cls.__name__), entries={},
                                 program_class=cls, fields=fields)
    helper_names = {
        name for name in methods
        if name not in entry_names
    }

    class_def = _class_ast(cls)
    method_asts = _method_asts(class_def)
    aliases = _module_aliases(cls)
    aliases.update(collect_import_aliases(class_def.body))

    # Shared compile namespace: the program module's globals (so names
    # like Vector resolve) plus the compiled helper functions.
    module = sys.modules.get(cls.__module__)
    namespace: dict[str, Any] = dict(vars(module)) if module else {}
    for helper in sorted(helper_names):
        if helper not in method_asts:
            message = (f"helper method {helper!r} has no source in the "
                       f"class body (inherited helpers are not supported)")
            if strict:
                raise TranslationError(message)
            sink.emit("SDG001", message, origin=helper)
            continue
        check_restrictions(method_asts[helper], helper,
                           module_aliases=aliases, sink=sink)
        try:
            compile_helper(method_asts[helper], helper_names, namespace,
                           class_name=cls.__name__)
        except TranslationError as exc:
            if strict:
                raise
            sink.emit("SDG001", str(exc), origin=helper,
                      lineno=exc.lineno)
            continue

    sdg = SDG(cls.__name__)
    sdg.source_program = cls
    for name, descriptor in fields.items():
        sdg.add_state(name, descriptor.factory, kind=descriptor.kind)

    result = TranslationResult(sdg=sdg, entries={}, program_class=cls,
                               method_asts=method_asts, fields=fields)
    for method in entry_names:
        if method not in method_asts:
            message = (f"entry method {method!r} has no source in the "
                       f"class body (inherited entries are not supported)")
            if strict:
                raise TranslationError(message)
            sink.emit("SDG001", message, origin=method)
            continue
        fn_ast = method_asts[method]
        check_restrictions(fn_ast, method,
                           module_aliases=aliases, sink=sink)
        try:
            _translate_entry(sdg, fn_ast, method, result, namespace)
        except TranslationError as exc:
            if strict:
                raise
            sink.emit("SDG001", str(exc), origin=method)

    if strict:
        sdg.validate()
    else:
        from repro.core.validation import collect

        sink.extend(collect(sdg))
    return result


def _translate_entry(sdg: SDG, fn_ast: ast.FunctionDef, method: str,
                     result: TranslationResult,
                     namespace: dict[str, Any]) -> None:
    """Split, analyse and compile one entry method into the SDG."""
    params = _params_of(fn_ast)
    blocks = split_method(fn_ast, result.fields)
    lives = live_ins([b.statements for b in blocks], params)

    te_names = []
    for i, block in enumerate(blocks):
        if len(blocks) == 1:
            te_names.append(method)
        else:
            te_names.append(f"{method}_{i}_{_block_label(block)}")

    # Record the front-end IR before code generation: the analysis
    # passes still want the blocks/liveness of a method whose code
    # generation or edge wiring subsequently fails.
    result.method_ir[method] = MethodIR(
        method=method, fn_ast=fn_ast, params=params,
        blocks=blocks, lives=lives, te_names=te_names,
    )

    for i, block in enumerate(blocks):
        live_in = lives[i]
        live_out = lives[i + 1] if i + 1 < len(blocks) else None
        fn = compile_block(block, te_names[i], live_in, live_out,
                           namespace,
                           class_name=result.program_class.__name__)
        is_entry = i == 0
        access = (
            block.access.mode if block.access is not None
            else AccessMode.NONE
        )
        state = block.access.field if block.access is not None else None
        entry_key_fn = None
        entry_key_name = None
        if is_entry and access is AccessMode.PARTITIONED:
            entry_key_name = block.access.key
            entry_key_fn = _item_key_fn(params, entry_key_name)
        sdg.add_task(
            te_names[i], fn, state=state, access=access,
            is_entry=is_entry, is_merge=block.is_merge,
            entry_key_fn=entry_key_fn, entry_key_name=entry_key_name,
        )

    for i in range(len(blocks) - 1):
        downstream = blocks[i + 1]
        live = lives[i + 1]
        if downstream.is_merge:
            sdg.connect(te_names[i], te_names[i + 1],
                        Dispatch.ALL_TO_ONE)
        elif (
            downstream.access is not None
            and downstream.access.mode is AccessMode.GLOBAL
        ):
            sdg.connect(te_names[i], te_names[i + 1],
                        Dispatch.ONE_TO_ALL)
        elif (
            downstream.access is not None
            and downstream.access.mode is AccessMode.PARTITIONED
        ):
            key = downstream.access.key
            sdg.connect(te_names[i], te_names[i + 1],
                        Dispatch.KEY_PARTITIONED,
                        key_fn=_item_key_fn(live, key),
                        key_name=key)
        else:
            sdg.connect(te_names[i], te_names[i + 1],
                        Dispatch.ONE_TO_ANY)

    result.entries[method] = EntryInfo(
        method=method, params=params, entry_te=te_names[0],
        terminal_te=te_names[-1], te_names=te_names,
    )
