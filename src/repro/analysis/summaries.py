"""Per-function summaries, computed to fixpoint over call-graph SCCs.

A :class:`MethodSummary` is the interprocedural contract of one
function: what the §4.1 restriction scan would find anywhere beneath
it (with the call chain that reaches each site), which parameters it
journal-bypasses, mutates, or flows into its return value, and which
module globals / shared class attributes it writes. The passes consume
summaries instead of re-walking callee bodies:

* SDG101/SDG102 report violations *transitively reachable* from an
  entry, rendering the full call chain;
* SDG303 catches a journal bypass inside a helper that received the
  state element as an argument;
* SDG301 taint propagates through helpers that mutate their
  parameters (``self._stash(out, seen)`` taints ``out`` when ``seen``
  is replica-derived);
* SDG403 reports class-attribute/global writes wherever they hide.

Summaries are computed callees-first over the condensation of the
call graph; members of a strongly connected component (recursion,
mutual recursion) are iterated together until nothing changes.
Propagated facts are deduplicated by their *raw site*, not their
chain, so a recursive cycle contributes each site once with the first
chain that reached it — the fixpoint terminates on any input.

Unknown call targets degrade to :data:`OPAQUE_SUMMARY`: no effects,
no parameter mutation, but full param→return taint — exactly the
assumption the intra-procedural passes have always made about calls
they could not see through, so opacity never *removes* a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from repro.analysis.callgraph import CallGraph
from repro.analysis.model import WRITE_METHODS
from repro.translate.restrictions import restriction_sites

#: Attribute names on a state element that reach journal-bypassing
#: internals (mirrors the SDG303 scan in ``analysis.checkpoints``).
_BYPASS_ATTR = "backend"


@dataclass(frozen=True)
class ChainHop:
    """One frame of a call chain: ``fn`` entered from a call at
    ``lineno`` (class-relative) in the previous frame."""

    fn: str
    lineno: int | None


@dataclass(frozen=True)
class EffectSite:
    """One effect a function (transitively) performs.

    ``kind``: ``"nondet"`` / ``"env"`` (restriction sites),
    ``"bypass"`` (journal bypass), ``"global-write"`` (module global or
    shared class attribute mutated). ``chain`` holds the hops *below*
    the summary's owner down to ``origin``; an empty chain is a direct
    site in the owner itself.
    """

    kind: str
    detail: str
    origin: str
    lineno: int
    col: int
    chain: tuple[ChainHop, ...] = ()

    @property
    def site_key(self) -> tuple:
        """Identity of the raw site, chain-independent (dedup key)."""
        return (self.kind, self.detail, self.origin, self.lineno)


@dataclass
class MethodSummary:
    """The interprocedural facts of one function."""

    name: str
    #: True for the conservative stand-in of an unknown callee.
    opaque: bool = False
    #: Restriction violations reachable from this function.
    effects: tuple[EffectSite, ...] = ()
    #: Param index (0-based, ``self`` excluded) → journal-bypass site
    #: reached when the state element arrives through that parameter.
    param_bypass: dict[int, EffectSite] = field(default_factory=dict)
    #: Param indices that (may) flow into the return value.
    taints_return: frozenset = frozenset()
    #: Param indices the function (may) mutate in place.
    mutated_params: frozenset = frozenset()
    #: Module-global / class-attribute writes reachable from here.
    global_writes: tuple[EffectSite, ...] = ()

    def facts_key(self) -> tuple:
        """Comparable digest of the summary, for fixpoint convergence."""
        return (
            frozenset(e.site_key for e in self.effects),
            frozenset(self.param_bypass),
            self.taints_return,
            self.mutated_params,
            frozenset(e.site_key for e in self.global_writes),
        )


#: What an unresolvable callee is assumed to do: taint its return from
#: every argument (matching the generic assignment-taint the passes
#: always applied), and nothing else. ``ALL_PARAMS`` is a sentinel the
#: consumers treat as "every index".
ALL_PARAMS = frozenset({-1})

OPAQUE_SUMMARY = MethodSummary(
    name="<opaque>", opaque=True, taints_return=ALL_PARAMS,
)


def _param_names(fn: ast.FunctionDef, kind: str) -> list[str]:
    names = [arg.arg for arg in fn.args.args]
    if kind == "method" and names and names[0] == "self":
        return names[1:]
    return names


def _bypass_exprs(fn: ast.FunctionDef,
                  params: list[str]) -> list[tuple[int, ast.Attribute]]:
    """``(param index, node)`` for each journal-bypassing attribute
    rooted at a parameter (``se._backend``, ``se.backend``)."""
    hits = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Attribute):
            continue
        if not (isinstance(node.value, ast.Name)
                and node.value.id in params):
            continue
        if node.attr.startswith("_") or node.attr == _BYPASS_ATTR:
            hits.append((params.index(node.value.id), node))
    return hits


def _global_write_sites(fn: ast.FunctionDef, origin: str,
                        class_name: str) -> list[EffectSite]:
    """Writes to module globals (``global x; x = ...``) and shared
    class attributes (``self.__class__.attr = ...`` /
    ``ClassName.attr = ...``), the state that silently diverges across
    forked workers."""
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    sites: list[EffectSite] = []

    def class_attr(node: ast.expr) -> str | None:
        if not isinstance(node, ast.Attribute):
            return None
        owner = node.value
        if (
            isinstance(owner, ast.Attribute)
            and owner.attr == "__class__"
            and isinstance(owner.value, ast.Name)
            and owner.value.id == "self"
        ):
            return f"{class_name}.{node.attr}"
        if isinstance(owner, ast.Name) and owner.id == class_name:
            return f"{class_name}.{node.attr}"
        return None

    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Name)
                    and target.id in declared_global):
                sites.append(EffectSite(
                    kind="global-write", detail=target.id,
                    origin=origin, lineno=node.lineno,
                    col=node.col_offset,
                ))
            attr = class_attr(target)
            if attr is not None:
                sites.append(EffectSite(
                    kind="global-write", detail=attr,
                    origin=origin, lineno=node.lineno,
                    col=node.col_offset,
                ))
    return sites


def _direct_mutations(fn: ast.FunctionDef,
                      params: list[str]) -> set[int]:
    """Param indices mutated in the function's own body: subscript or
    attribute stores rooted at the parameter, or journalled mutator
    calls (``p.append(...)``, ``p.put(...)``) on it."""
    mutated: set[int] = set()

    def root_param(node: ast.expr) -> int | None:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name) and node.id in params:
            return params.index(node.id)
        return None

    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                index = root_param(target)
                if index is not None:
                    mutated.add(index)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in params
            and node.func.attr in WRITE_METHODS
        ):
            mutated.add(params.index(node.func.value.id))
    return mutated


def _return_taint(fn: ast.FunctionDef, params: list[str]) -> frozenset:
    """Param indices whose value may reach a ``return`` expression.

    Flow-insensitive closure over simple assignments: good enough for
    helper bodies, conservative for everything else.
    """
    from repro.translate.liveness import uses_defs

    taint: dict[str, set[int]] = {
        name: {index} for index, name in enumerate(params)
    }
    for _ in range(2):  # two rounds close loops in straight-line bodies
        for stmt in fn.body:
            stmt_uses, stmt_defs = uses_defs(stmt)
            flowing: set[int] = set()
            for name in stmt_uses:
                flowing.update(taint.get(name, ()))
            if not flowing:
                continue
            for name in stmt_defs:
                taint.setdefault(name, set()).update(flowing)
    result: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            for name_node in ast.walk(node.value):
                if isinstance(name_node, ast.Name) and isinstance(
                    name_node.ctx, ast.Load
                ):
                    result.update(taint.get(name_node.id, ()))
    return frozenset(result)


def _arg_param_index(arg: ast.expr, params: list[str]) -> int | None:
    """The caller's param index an argument forwards, if it is a bare
    parameter name."""
    if isinstance(arg, ast.Name) and arg.id in params:
        return params.index(arg.id)
    return None


class ProgramSummaries:
    """All function summaries of one program, plus their call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, MethodSummary] = {}
        self._compute()

    def get(self, name: str) -> MethodSummary:
        """The summary of ``name``; unknown names are opaque."""
        return self.summaries.get(name, OPAQUE_SUMMARY)

    # -- construction ----------------------------------------------------

    def _compute(self) -> None:
        for component in self.graph.sccs():
            for name in component:
                self.summaries[name] = self._base_summary(name)
            # Iterate the component to fixpoint: facts only grow and
            # are deduplicated by raw site, so this terminates.
            changed = True
            while changed:
                changed = False
                for name in component:
                    updated = self._with_callees(name)
                    if (updated.facts_key()
                            != self.summaries[name].facts_key()):
                        self.summaries[name] = updated
                        changed = True
                    else:
                        self.summaries[name] = updated

    def _base_summary(self, name: str) -> MethodSummary:
        node = self.graph.nodes[name]
        params = _param_names(node.fn_ast, node.kind)
        effects = tuple(
            EffectSite(kind=site.kind, detail=site.detail, origin=name,
                       lineno=site.lineno, col=site.col)
            for site in restriction_sites(node.fn_ast,
                                          self.graph.aliases)
        )
        param_bypass = {
            index: EffectSite(
                kind="bypass", detail=ast.unparse(expr), origin=name,
                lineno=expr.lineno, col=expr.col_offset,
            )
            for index, expr in _bypass_exprs(node.fn_ast, params)
        }
        return MethodSummary(
            name=name,
            effects=effects,
            param_bypass=param_bypass,
            taints_return=_return_taint(node.fn_ast, params),
            mutated_params=frozenset(
                _direct_mutations(node.fn_ast, params)
            ),
            global_writes=tuple(_global_write_sites(
                node.fn_ast, name, self.graph.class_name
            )),
        )

    def _with_callees(self, name: str) -> MethodSummary:
        base = self._base_summary(name)
        node = self.graph.nodes[name]
        params = _param_names(node.fn_ast, node.kind)

        effects: dict[tuple, EffectSite] = {
            e.site_key: e for e in base.effects
        }
        global_writes: dict[tuple, EffectSite] = {
            e.site_key: e for e in base.global_writes
        }
        param_bypass = dict(base.param_bypass)
        mutated = set(base.mutated_params)

        # Map call sites back to their argument expressions so the
        # parameter-sensitive facts can be forwarded.
        calls_by_key: dict[tuple[int, int], ast.Call] = {}
        for call in ast.walk(node.fn_ast):
            if isinstance(call, ast.Call):
                calls_by_key.setdefault(
                    (call.lineno, call.col_offset), call
                )

        for site in self.graph.callees(name):
            callee = self.get(site.callee)
            hop = ChainHop(fn=site.callee, lineno=site.lineno)
            for effect in callee.effects:
                key = effect.site_key
                if key not in effects:
                    effects[key] = replace(
                        effect, chain=(hop,) + effect.chain
                    )
            for effect in callee.global_writes:
                key = effect.site_key
                if key not in global_writes:
                    global_writes[key] = replace(
                        effect, chain=(hop,) + effect.chain
                    )
            call_node = calls_by_key.get((site.lineno, site.col))
            if call_node is None:
                continue
            for position, arg in enumerate(call_node.args):
                forwarded = _arg_param_index(arg, params)
                if forwarded is None:
                    continue
                bypass = callee.param_bypass.get(position)
                if bypass is not None and forwarded not in param_bypass:
                    param_bypass[forwarded] = replace(
                        bypass, chain=(hop,) + bypass.chain
                    )
                if position in callee.mutated_params:
                    mutated.add(forwarded)

        return MethodSummary(
            name=name,
            effects=tuple(effects.values()),
            param_bypass=param_bypass,
            taints_return=base.taints_return,
            mutated_params=frozenset(mutated),
            global_writes=tuple(global_writes.values()),
        )


def compute_summaries(graph: CallGraph) -> ProgramSummaries:
    """Summaries for every node of ``graph``, callees-first."""
    return ProgramSummaries(graph)
