"""Capability certification: static proofs become runtime licences.

The lint passes prove *negative* facts (this merge is order-sensitive,
this RMW leaks replica-divergent values). This module runs the same
machinery in the *positive* direction and emits a
:class:`ProgramCapabilities` artifact — a set of machine-checkable
licences the runtime optimizer (``RuntimeConfig(optimize=True)``) is
allowed to act on:

``COMMUTATIVE_MERGE``
    A merge method whose result provably does not depend on the order
    of the gathered collection: :func:`~repro.analysis.merges.
    order_sensitive_sites` finds nothing, every use of the collection
    parameter fits a closed whitelist (iteration, emptiness tests,
    ``len``/``max``/``min``/``sum``), and every loop over it performs
    only commutative-associative accumulation. The gather barrier may
    then fold replica values in *arrival* order. A strict subclass —
    the *foldable* tier — additionally matches the canonical
    ``acc = identity; for x in coll: steps; return acc`` shape, from
    which an incremental :class:`MergeFold` is synthesised so the
    barrier can fold each value as it arrives instead of buffering
    the whole collection.

``COALESCIBLE_DISPATCH``
    The program-wide licence for one scheduling step to serve a run
    of consecutive same-channel envelopes. A run preserves per-channel
    FIFO order but changes the *cross-channel interleaving* at every
    instance, so it is granted only when the interleaving provably
    cannot reach state: every SE is written either exclusively through
    commutative mutators (``add``/``increment``...) or by a single
    entry TE fed by one totally-ordered input stream, and no TE whose
    reads could observe interleaving-dependent intermediate state
    (an *unstable reader*) writes state itself or flows into a TE
    that does.

All certificates are *logical*: commutativity of floating-point
addition is assumed exact, as the dependency-guided synchronization
literature does. The optimizer differentials therefore pin
``state_fingerprint`` equality on integer-valued workloads.

:func:`certify` mirrors :func:`repro.analysis.engine.analyze` — it
accepts an ``SDGProgram`` subclass (certified from the captured
method IR), a hand-built :class:`~repro.core.graph.SDG` (certified
from the task functions' sources), or a zero-argument SDG factory.
Anything the certifier cannot *read* it refuses: an unreadable task
source disables coalescing for the whole program, never silently
enables it.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.merges import (
    _mentions,
    _same_target,
    order_sensitive_sites,
)
from repro.analysis.model import (
    READ_METHODS,
    WRITE_METHODS,
    ProgramModel,
    field_method_calls,
    stmt_reads_field,
)
from repro.core.dispatch import Dispatch
from repro.core.elements import AccessMode
from repro.core.graph import SDG

#: SE mutators that commute with each other on distinct calls: the
#: final state does not depend on the order in which they are applied.
#: (``put``/``set`` overwrite — last writer wins — so they are *not*
#: commutative; ``append``/``extend`` encode arrival order.)
COMMUTATIVE_WRITE_METHODS = frozenset({
    "add", "add_element", "add_vector", "increment",
})

#: Binary operators that are commutative *and* associative.
_COMMUTATIVE_BINOPS = (ast.Add, ast.Mult, ast.BitOr, ast.BitAnd, ast.BitXor)

#: Builtins whose result over the gathered collection is a function of
#: its multiset of elements, never of their order.
_MULTISET_CALLS = frozenset({"len", "max", "min", "sum"})

#: Dispatch semantics whose edges may be served in runs. The
#: barrier semantics stay per-item: ``ONE_TO_ALL`` needs one request id
#: per item and ``ALL_TO_ONE`` responses are request-tagged.
_COALESCIBLE_DISPATCH = (Dispatch.KEY_PARTITIONED, Dispatch.ONE_TO_ANY)


@dataclass(frozen=True)
class MergeFold:
    """Synthesised incremental form of a foldable merge.

    ``init()`` builds the accumulator (the ``acc = identity``
    statement of the canonical shape); ``step(acc, item)`` applies one
    loop iteration and returns the accumulator. Folding the gathered
    values in arrival order is bit-identical to running the original
    loop over the buffered collection, because the buffer is built in
    arrival order too.
    """

    init: Callable[[], Any]
    step: Callable[[Any, Any], Any]


@dataclass
class ProgramCapabilities:
    """The certificates granted to one program (or hand-built SDG).

    Names are merge *method* names for translated programs and TE
    names for hand-built SDGs, except the runtime-facing fields
    (``merge_folds``, ``coalescible_*``) which always speak TE/edge
    names.
    """

    target: str
    #: Merges certified order-insensitive (``COMMUTATIVE_MERGE``).
    commutative_merges: tuple[str, ...] = ()
    #: The subset matching the canonical fold shape.
    foldable_merges: tuple[str, ...] = ()
    #: Entry TEs whose injected input may be served in runs.
    coalescible_entries: frozenset = frozenset()
    #: ``(src, dst)`` dataflow edges that may be served in runs.
    coalescible_edges: frozenset = frozenset()
    #: Merge TE name → synthesised incremental fold. Not serialised.
    merge_folds: dict = field(default_factory=dict)
    #: Human-readable reasons for every refused certificate.
    refusals: tuple[str, ...] = ()
    #: No error-severity SDG4xx finding: safe to fork across processes.
    substrate_safe: bool = False
    #: The SDG4xx diagnostics found during certification (empty when
    #: substrate-safe apart from warnings).
    substrate_findings: tuple = ()

    @property
    def flags(self) -> list[str]:
        """The granted capability flags, in documentation order."""
        flags = []
        if self.commutative_merges:
            flags.append("COMMUTATIVE_MERGE")
        if self.coalescible_edges or self.coalescible_entries:
            flags.append("COALESCIBLE_DISPATCH")
        if self.substrate_safe:
            flags.append("SUBSTRATE_SAFE")
        return flags

    def to_dict(self) -> dict:
        """JSON-friendly form (folds are code, so they stay out)."""
        return {
            "target": self.target,
            "flags": self.flags,
            "commutative_merges": sorted(self.commutative_merges),
            "foldable_merges": sorted(self.foldable_merges),
            "coalescible_entries": sorted(self.coalescible_entries),
            "coalescible_edges": sorted(
                list(edge) for edge in self.coalescible_edges
            ),
            "refusals": list(self.refusals),
            "substrate_safe": self.substrate_safe,
            "substrate_findings": [
                d.to_dict() for d in self.substrate_findings
            ],
        }

    @classmethod
    def empty(cls, target: str,
              *refusals: str) -> "ProgramCapabilities":
        return cls(target=target, refusals=tuple(refusals))


def certify(target, name: str | None = None) -> ProgramCapabilities:
    """Certify ``target`` and return its granted capabilities."""
    from repro.program import SDGProgram

    if isinstance(target, SDG):
        return _certify_sdg(target, name or target.name)
    if isinstance(target, type) and issubclass(target, SDGProgram):
        return _certify_program(target, name or target.__name__)
    if callable(target):
        sdg = target()
        if isinstance(sdg, SDG):
            label = name or getattr(target, "__name__", sdg.name)
            return _certify_sdg(sdg, label)
    raise TypeError(
        f"cannot certify {target!r}: expected an SDGProgram subclass, "
        f"an SDG, or a zero-argument SDG factory"
    )


# ----------------------------------------------------------------------
# Merge commutativity (COMMUTATIVE_MERGE) and the foldable tier
# ----------------------------------------------------------------------


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    return {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }


def _unwhitelisted_uses(fn_ast: ast.FunctionDef,
                        coll: str) -> list[ast.Name]:
    """Uses of the collection outside the certified-commutative forms.

    Whitelisted positions: ``for x in coll`` / comprehension iteration,
    multiset builtins (``len(coll)``, ``max``/``min``/``sum``),
    emptiness tests (``if coll:`` / ``not coll``). Everything else —
    including rebinding the parameter — disqualifies the merge.
    """
    parents = _parent_map(fn_ast)
    bad: list[ast.Name] = []
    for node in ast.walk(fn_ast):
        if not (isinstance(node, ast.Name) and node.id == coll):
            continue
        if not isinstance(node.ctx, ast.Load):
            bad.append(node)
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.For) and parent.iter is node:
            continue
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            continue
        if (
            isinstance(parent, ast.Call)
            and node in parent.args
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _MULTISET_CALLS
        ):
            continue
        if isinstance(parent, ast.UnaryOp) and isinstance(
            parent.op, ast.Not
        ):
            continue
        if isinstance(parent, ast.If) and parent.test is node:
            continue
        bad.append(node)
    return bad


def _is_accumulation(stmt: ast.stmt) -> bool:
    """``t += x`` / ``t = t + x`` / ``t = x + t`` / ``t = max(t, x)``
    with a commutative-associative combiner."""
    if isinstance(stmt, ast.AugAssign):
        return isinstance(stmt.op, _COMMUTATIVE_BINOPS)
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
        if isinstance(value, ast.BinOp) and isinstance(
            value.op, _COMMUTATIVE_BINOPS
        ):
            return (_same_target(target, value.left)
                    or _same_target(target, value.right))
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("max", "min")
            and len(value.args) == 2
            and not value.keywords
        ):
            return any(_same_target(target, arg) for arg in value.args)
    return False


def _body_commutative(stmts: list[ast.stmt]) -> bool:
    """Whether a loop body (over the gathered collection) performs only
    commutative accumulation, in any control-flow nesting."""
    for stmt in stmts:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if _is_accumulation(stmt):
            continue
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in COMMUTATIVE_WRITE_METHODS
            ):
                continue
            return False
        if isinstance(stmt, ast.If):
            if (_body_commutative(stmt.body)
                    and _body_commutative(stmt.orelse)):
                continue
            return False
        if isinstance(stmt, (ast.For, ast.While)):
            if _body_commutative(stmt.body) and not stmt.orelse:
                continue
            return False
        return False
    return True


def _merge_commutative(fn_ast: ast.FunctionDef,
                       coll: str) -> tuple[bool, str]:
    """(certified, refusal reason) for one merge method."""
    sites = order_sensitive_sites(fn_ast, coll)
    if sites:
        kind, node, _op = sites[0]
        return False, (
            f"order-sensitive {kind.replace('_', ' ')} at line "
            f"{node.lineno}"
        )
    bad = _unwhitelisted_uses(fn_ast, coll)
    if bad:
        return False, (
            f"the gathered collection is used outside the certified "
            f"forms at line {bad[0].lineno}"
        )
    for loop in ast.walk(fn_ast):
        if isinstance(loop, ast.While) and _mentions(loop.test, coll):
            return False, (
                f"while-loop over the collection at line {loop.lineno} "
                f"may consume it order-dependently"
            )
        if isinstance(loop, ast.For) and _mentions(loop.iter, coll):
            if loop.orelse or not _body_commutative(loop.body):
                return False, (
                    f"loop over the collection at line {loop.lineno} "
                    f"does more than commutative accumulation"
                )
    return True, ""


def _is_fold_step(stmt: ast.stmt, acc: str) -> bool:
    """One loop statement that only advances the accumulator."""
    if isinstance(stmt, ast.AugAssign):
        return (isinstance(stmt.target, ast.Name)
                and stmt.target.id == acc
                and isinstance(stmt.op, _COMMUTATIVE_BINOPS))
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name) and target.id == acc):
            return False
        return _is_accumulation(stmt)
    if isinstance(stmt, ast.Expr):
        value = stmt.value
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id == acc
            and value.func.attr in COMMUTATIVE_WRITE_METHODS
        )
    return False


def _synthesise_fold(fn_ast: ast.FunctionDef, coll: str,
                     namespace: dict) -> MergeFold | None:
    """Build a :class:`MergeFold` when the merge matches the canonical
    ``acc = identity; for x in coll: steps; return acc`` shape.

    The init must be an additive identity — the literal ``0``/``0.0``
    or an empty no-argument constructor — so that re-merging a folded
    accumulator (``merge([fold(items)])``) equals ``merge(items)``.
    """
    body = list(fn_ast.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) != 3:
        return None
    init, loop, ret = body
    if not (
        isinstance(init, ast.Assign)
        and len(init.targets) == 1
        and isinstance(init.targets[0], ast.Name)
    ):
        return None
    acc = init.targets[0].id
    init_value = init.value
    is_identity = (
        isinstance(init_value, ast.Constant)
        and type(init_value.value) in (int, float)
        and init_value.value == 0
    ) or (
        isinstance(init_value, ast.Call)
        and not init_value.args
        and not init_value.keywords
    )
    if not is_identity:
        return None
    if not (
        isinstance(loop, ast.For)
        and isinstance(loop.iter, ast.Name)
        and loop.iter.id == coll
        and not loop.orelse
    ):
        return None
    if not (
        isinstance(ret, ast.Return)
        and isinstance(ret.value, ast.Name)
        and ret.value.id == acc
    ):
        return None
    first_param = fn_ast.args.args[0].arg
    for stmt in loop.body:
        if not _is_fold_step(stmt, acc):
            return None
        if _mentions(stmt, coll) or _mentions(stmt, first_param):
            return None
    if isinstance(loop.target, ast.Name):
        param = loop.target.id
        prelude = ""
    else:
        param = "__gathered_item__"
        prelude = f"    {ast.unparse(loop.target)} = {param}\n"
    if param == acc:
        return None
    step_body = "".join(
        f"    {line}\n"
        for stmt in loop.body
        for line in ast.unparse(stmt).splitlines()
    )
    source = (
        f"def __fold_init__():\n"
        f"    return {ast.unparse(init_value)}\n"
        f"def __fold_step__({acc}, {param}):\n"
        f"{prelude}{step_body}"
        f"    return {acc}\n"
    )
    scope = dict(namespace)
    try:
        exec(compile(source, "<capability-fold>", "exec"), scope)
    except Exception:
        return None
    return MergeFold(init=scope["__fold_init__"],
                     step=scope["__fold_step__"])


# ----------------------------------------------------------------------
# Per-TE state-access facts and the coalescing safety argument
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TEFacts:
    """What one TE does to its SE; ``None`` facts mean *unknown*."""

    se: str | None
    reads: bool
    writes: bool
    commutative_only: bool


_NO_STATE = _TEFacts(se=None, reads=False, writes=False,
                     commutative_only=True)


def _coalescing(
    sdg: SDG, facts: dict[str, "_TEFacts | None"],
) -> tuple[frozenset, frozenset, list[str]]:
    """Grant or refuse the program-wide coalescing licence.

    Batching preserves per-channel FIFO delivery but perturbs the
    cross-channel interleaving at every instance (a multi-item batch
    is one scheduling step). The licence therefore requires:

    1. every SE is written either only through commutative mutators,
       or by exactly one entry TE with no dataflow predecessors (its
       single totally-ordered input stream fixes the write order);
    2. every other TE that *reads* written state is an unstable
       reader — it may observe interleaving-dependent intermediate
       values — and must neither write state itself nor reach, along
       dataflow edges, any TE that writes state.

    Under (1) the final SE contents are interleaving-independent, and
    under (2) no interleaving-dependent observation can flow back
    into state, so ``state_fingerprint`` is preserved exactly.
    """
    for te_name in sorted(facts):
        if facts[te_name] is None:
            return frozenset(), frozenset(), [
                f"TE {te_name!r}: task source unavailable; cannot "
                f"prove dispatch batching safe"
            ]
    sole_writer_entries: set[str] = set()
    for se_name in sorted(sdg.states):
        writers = sorted(
            te for te, fact in facts.items()
            if fact.se == se_name and fact.writes
        )
        if not writers:
            continue
        if all(facts[te].commutative_only for te in writers):
            continue
        if len(writers) == 1:
            spec = sdg.task(writers[0])
            if spec.is_entry and not sdg.predecessors(writers[0]):
                sole_writer_entries.add(writers[0])
                continue
        return frozenset(), frozenset(), [
            f"SE {se_name!r}: non-commutative writes from "
            f"{', '.join(writers)}; batching could reorder them"
        ]
    unstable = []
    for te_name in sorted(facts):
        fact = facts[te_name]
        if not fact.reads or te_name in sole_writer_entries:
            continue
        if not any(
            other.se == fact.se and other.writes
            for other in facts.values()
        ):
            continue  # static state: every interleaving reads the same
        unstable.append(te_name)
    seen: set[str] = set()
    frontier = list(unstable)
    while frontier:
        te_name = frontier.pop()
        if te_name in seen:
            continue
        seen.add(te_name)
        if facts[te_name].writes:
            return frozenset(), frozenset(), [
                f"TE {te_name!r} writes state downstream of an "
                f"interleaving-dependent read; batching could change "
                f"the written values"
            ]
        for edge in sdg.successors(te_name):
            frontier.append(edge.dst)
    entries = frozenset(
        te.name for te in sdg.entries()
        if te.access is not AccessMode.GLOBAL
    )
    edges = frozenset(
        (edge.src, edge.dst) for edge in sdg.dataflows
        if edge.dispatch in _COALESCIBLE_DISPATCH
    )
    return entries, edges, []


# ----------------------------------------------------------------------
# Program path (translated SDGProgram subclasses)
# ----------------------------------------------------------------------


def _module_namespace(obj) -> dict:
    module = sys.modules.get(getattr(obj, "__module__", ""), None)
    return dict(vars(module)) if module is not None else {}


def _block_facts(block, fields: set[str]) -> _TEFacts:
    if block.access is None or block.is_merge:
        return _NO_STATE
    se_field = block.access.field
    reads = writes = False
    commutative = True
    for stmt in block.statements:
        for _field, method, _call in field_method_calls(
            stmt, {se_field}
        ):
            if method in READ_METHODS:
                reads = True
            elif method in WRITE_METHODS:
                writes = True
                commutative = (commutative
                               and method in COMMUTATIVE_WRITE_METHODS)
            else:
                reads = writes = True
                commutative = False
        if stmt_reads_field(stmt, se_field, fields):
            reads = True
    return _TEFacts(se=se_field, reads=reads, writes=writes,
                    commutative_only=commutative)


def _certify_program(cls: type, name: str) -> ProgramCapabilities:
    from repro.translate.builder import translate

    try:
        result = translate(cls)
    except Exception as exc:
        return ProgramCapabilities.empty(
            name, f"translation failed: {exc}"
        )
    model = ProgramModel.build(cls, result)
    namespace = _module_namespace(cls)
    refusals: list[str] = []

    commutative: list[str] = []
    foldable: list[str] = []
    folds_by_method: dict[str, MergeFold] = {}
    for method, (fn_ast, coll) in sorted(model.merge_methods().items()):
        certified, why = _merge_commutative(fn_ast, coll)
        if not certified:
            refusals.append(f"merge {method!r}: {why}")
            continue
        commutative.append(method)
        fold = _synthesise_fold(fn_ast, coll, namespace)
        if fold is not None:
            foldable.append(method)
            folds_by_method[method] = fold

    merge_folds: dict[str, MergeFold] = {}
    facts: dict[str, _TEFacts] = {}
    all_fields = set(result.fields)
    for ir in model.entries.values():
        for index, block in enumerate(ir.blocks):
            te_name = ir.te_names[index]
            facts[te_name] = _block_facts(block, all_fields)
            if block.is_merge and block.merge.method in folds_by_method:
                merge_folds[te_name] = folds_by_method[
                    block.merge.method
                ]

    entries, edges, coalesce_refusals = _coalescing(result.sdg, facts)
    refusals.extend(coalesce_refusals)
    substrate_safe, substrate_findings = _substrate_certificate(
        model=model, cls=cls
    )
    return ProgramCapabilities(
        target=name,
        commutative_merges=tuple(commutative),
        foldable_merges=tuple(foldable),
        coalescible_entries=entries,
        coalescible_edges=edges,
        merge_folds=merge_folds,
        refusals=tuple(refusals),
        substrate_safe=substrate_safe,
        substrate_findings=substrate_findings,
    )


def _substrate_certificate(model=None, cls=None, sdg=None):
    """(substrate_safe, findings) via the SDG4xx passes."""
    from repro.analysis import substrate
    from repro.analysis.diagnostics import DiagnosticSink, Severity
    from repro.analysis.model import source_location

    if model is not None:
        file, line_base = source_location(cls)
        sink = DiagnosticSink(file=file, line_base=line_base)
        substrate.run_program(model, sink)
    else:
        sink = DiagnosticSink()
        substrate.run_graph(sdg, sink)
    findings = tuple(sink.diagnostics)
    safe = not any(d.severity is Severity.ERROR for d in findings)
    return safe, findings


# ----------------------------------------------------------------------
# SDG path (hand-built graphs: facts from the task functions' sources)
# ----------------------------------------------------------------------


def _task_source(fn) -> ast.FunctionDef | None:
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError,
            ValueError):
        return None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


def _ctx_state_facts(fn_ast: ast.FunctionDef,
                     se_name: str) -> _TEFacts:
    """Classify every ``ctx.state.<method>(...)`` use in a task fn.

    Any opaque use of ``ctx.state`` (aliasing it, passing it around)
    is conservatively read+write and non-commutative.
    """
    if not fn_ast.args.args:
        return _TEFacts(se=se_name, reads=True, writes=True,
                        commutative_only=False)
    ctx_param = fn_ast.args.args[0].arg
    parents = _parent_map(fn_ast)
    reads = writes = False
    commutative = True
    for node in ast.walk(fn_ast):
        if not (
            isinstance(node, ast.Attribute)
            and node.attr == "state"
            and isinstance(node.value, ast.Name)
            and node.value.id == ctx_param
        ):
            continue
        parent = parents.get(node)
        call = parents.get(parent)
        if (
            isinstance(parent, ast.Attribute)
            and isinstance(call, ast.Call)
            and call.func is parent
        ):
            method = parent.attr
            if method in READ_METHODS:
                reads = True
            elif method in WRITE_METHODS:
                writes = True
                commutative = (commutative
                               and method in COMMUTATIVE_WRITE_METHODS)
                grandparent = parents.get(call)
                if not (isinstance(grandparent, ast.Expr)
                        and grandparent.value is call):
                    reads = True  # value-consuming mutator
            else:
                reads = writes = True
                commutative = False
        else:
            reads = writes = True
            commutative = False
    return _TEFacts(se=se_name, reads=reads, writes=writes,
                    commutative_only=commutative)


def _certify_sdg(sdg: SDG, name: str) -> ProgramCapabilities:
    refusals: list[str] = []
    facts: dict[str, _TEFacts | None] = {}
    commutative: list[str] = []
    foldable: list[str] = []
    merge_folds: dict[str, MergeFold] = {}

    for te_name, spec in sorted(sdg.tasks.items()):
        fn_ast = _task_source(spec.fn)
        if spec.is_merge:
            facts[te_name] = _NO_STATE
            if fn_ast is None or len(fn_ast.args.args) < 2:
                refusals.append(
                    f"merge TE {te_name!r}: source unavailable; "
                    f"cannot certify commutativity"
                )
                continue
            coll = fn_ast.args.args[1].arg
            certified, why = _merge_commutative(fn_ast, coll)
            if not certified:
                refusals.append(f"merge TE {te_name!r}: {why}")
                continue
            commutative.append(te_name)
            fold = _synthesise_fold(
                fn_ast, coll, _module_namespace(spec.fn)
            )
            if fold is not None:
                foldable.append(te_name)
                merge_folds[te_name] = fold
            continue
        if spec.state is None or spec.access is AccessMode.NONE:
            facts[te_name] = _NO_STATE
            continue
        if fn_ast is None:
            facts[te_name] = None
            continue
        facts[te_name] = _ctx_state_facts(fn_ast, spec.state)

    entries, edges, coalesce_refusals = _coalescing(sdg, facts)
    refusals.extend(coalesce_refusals)
    substrate_safe, substrate_findings = _substrate_certificate(sdg=sdg)
    return ProgramCapabilities(
        target=name,
        commutative_merges=tuple(commutative),
        foldable_merges=tuple(foldable),
        coalescible_entries=entries,
        coalescible_edges=edges,
        merge_folds=merge_folds,
        refusals=tuple(refusals),
        substrate_safe=substrate_safe,
        substrate_findings=substrate_findings,
    )
