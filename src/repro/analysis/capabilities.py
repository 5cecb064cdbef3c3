"""Capability certification: static proofs become runtime licences.

The lint passes prove *negative* facts (this merge is order-sensitive,
this RMW leaks replica-divergent values). This module runs the same
machinery in the *positive* direction and emits a
:class:`ProgramCapabilities` artifact — plain, picklable data naming
what a layer consumes. The runtime optimizer
(``RuntimeConfig(optimize=True)``) acts on one licence:

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

``SUBSTRATE_SAFE`` (no error-severity SDG4xx finding) is consumed by
``deploy()`` on a forking substrate, not by the optimizer.

The certificate is *logical*: commutativity of floating-point
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
import textwrap
from dataclasses import dataclass

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

#: Dispatch semantics whose edges may be served in runs. The
#: barrier semantics stay per-item: ``ONE_TO_ALL`` needs one request id
#: per item and ``ALL_TO_ONE`` responses are request-tagged.
_COALESCIBLE_DISPATCH = (Dispatch.KEY_PARTITIONED, Dispatch.ONE_TO_ANY)


@dataclass
class ProgramCapabilities:
    """The certificates granted to one program (or hand-built SDG).

    Every field speaks TE / edge names and holds plain data: the
    certificate pickles, compares by value and travels to forked
    workers like any other config.
    """

    target: str
    #: Entry TEs whose injected input may be served in runs.
    coalescible_entries: frozenset = frozenset()
    #: ``(src, dst)`` dataflow edges that may be served in runs.
    coalescible_edges: frozenset = frozenset()
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
        if self.coalescible_edges or self.coalescible_entries:
            flags.append("COALESCIBLE_DISPATCH")
        if self.substrate_safe:
            flags.append("SUBSTRATE_SAFE")
        return flags

    def to_dict(self) -> dict:
        """JSON-friendly form: one key per field, plus ``flags``."""
        return {
            "target": self.target,
            "flags": self.flags,
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
    all_fields = set(result.fields)
    facts: dict[str, _TEFacts] = {
        ir.te_names[index]: _block_facts(block, all_fields)
        for ir in model.entries.values()
        for index, block in enumerate(ir.blocks)
    }
    return _certificate(name, result.sdg, facts,
                        _substrate_certificate(model=model, cls=cls))


def _certificate(name: str, sdg: SDG, facts: dict,
                 substrate: tuple[bool, tuple]) -> ProgramCapabilities:
    entries, edges, refusals = _coalescing(sdg, facts)
    substrate_safe, substrate_findings = substrate
    return ProgramCapabilities(
        target=name,
        coalescible_entries=entries,
        coalescible_edges=edges,
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


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    return {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }


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
    facts: dict[str, _TEFacts | None] = {}
    for te_name, spec in sorted(sdg.tasks.items()):
        if (spec.is_merge or spec.state is None
                or spec.access is AccessMode.NONE):
            facts[te_name] = _NO_STATE
            continue
        fn_ast = _task_source(spec.fn)
        facts[te_name] = (None if fn_ast is None
                          else _ctx_state_facts(fn_ast, spec.state))
    return _certificate(name, sdg, facts,
                        _substrate_certificate(sdg=sdg))
