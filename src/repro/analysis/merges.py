"""Pass 2 — merge order-sensitivity check (``SDG302``).

A merge TE reconciles the gathered partial values of a ``global_``
access (§4.2 rule 5). The gather barrier delivers one value per
replica, but their **order is not defined** — it depends on scheduling,
instance count and recovery replay. A merge function must therefore be
insensitive to the order of its collection argument (the same
discipline Naiad demands of its vertices and SEEP of its upstream
backups: deterministic results regardless of delivery interleaving).

This is a conservative AST scan of every merge method reachable from
an entry. Inside loops that iterate the gathered collection it flags
accumulation through non-commutative/non-associative operators
(``-``, ``/``, ``//``, ``%``, ``**``, ``<<``, ``>>``, ``@``) — the
``acc -= cur``, ``acc = acc - cur`` and operand-swapped
``acc = cur - acc`` shapes — and, anywhere in the method, positional
indexing of the collection parameter itself (``gathered[0]`` picks an
arbitrary replica) or of a call over it (``sorted(gathered)[0]``
launders the same arbitrary pick through a transform).
Order-insensitive reductions (sums, maxes, elementwise means divided
*after* the loop) pass untouched, as every bundled application's
merge does.

The finding is advice to the programmer and nothing more: the gather
barrier always hands the merge the list of replica values, so nothing
at run time depends on the scan finding nothing.
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import DiagnosticSink
from repro.analysis.model import ProgramModel

#: BinOp / AugAssign operators whose accumulation is order-sensitive.
_ORDER_SENSITIVE_OPS = (
    ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.MatMult,
)


def run(model: ProgramModel, sink: DiagnosticSink) -> None:
    for name, (fn_ast, collection_param) in model.merge_methods().items():
        _check_merge(fn_ast, name, collection_param, sink)


def _mentions(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def _op_name(op: ast.operator) -> str:
    return {
        ast.Sub: "-", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
        ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
        ast.MatMult: "@",
    }.get(type(op), type(op).__name__)


def _same_target(target: ast.expr, operand: ast.expr) -> bool:
    """``acc = acc - x`` / ``m[i] = m[i] - x``: operand is the target."""
    return ast.unparse(target) == ast.unparse(operand)


def order_sensitive_sites(
    fn_ast: ast.FunctionDef, collection_param: str,
) -> list[tuple[str, ast.AST, ast.operator | None]]:
    """Every order-sensitivity witness in one merge method.

    Returns ``(kind, node, op)`` triples with ``kind`` one of
    ``"index"`` (positional indexing of the collection itself),
    ``"laundered_index"`` (indexing a call over the collection, e.g.
    ``sorted(gathered)[0]``) or ``"accumulation"`` (non-commutative
    accumulation inside a loop over the collection; ``op`` is the
    operator).
    """
    sites: list[tuple[str, ast.AST, ast.operator | None]] = []

    # Positional indexing of the gathered collection anywhere — direct,
    # or laundered through a call over it (sorted()/list()/reversed()
    # re-expose the arbitrary gather order as a positional pick).
    for node in ast.walk(fn_ast):
        if not isinstance(node, ast.Subscript):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id == collection_param:
            sites.append(("index", node, None))
        elif isinstance(value, ast.Call) and _mentions(
            value, collection_param
        ):
            sites.append(("laundered_index", node, None))

    # Order-sensitive accumulation inside loops over the collection.
    # Both operand orders are accumulation: ``acc = acc - x`` and the
    # swapped ``acc = x - acc`` each fold the loop-carried value
    # through a non-commutative operator.
    for loop in ast.walk(fn_ast):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        if isinstance(loop, ast.For):
            if not _mentions(loop.iter, collection_param):
                continue
        elif not _mentions(loop.test, collection_param):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, _ORDER_SENSITIVE_OPS
            ):
                sites.append(("accumulation", node, node.op))
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, _ORDER_SENSITIVE_OPS)
                and (
                    _same_target(node.targets[0], node.value.left)
                    or _same_target(node.targets[0], node.value.right)
                )
            ):
                sites.append(("accumulation", node, node.value.op))
    return sites


def _check_merge(fn_ast: ast.FunctionDef, method: str,
                 collection_param: str, sink: DiagnosticSink) -> None:
    for kind, node, op in order_sensitive_sites(fn_ast, collection_param):
        if kind == "index":
            sink.emit(
                "SDG302",
                f"merge method {method!r} indexes the gathered "
                f"collection {collection_param!r} by position; the "
                f"gather order of partial values is not deterministic, "
                f"so position selects an arbitrary replica",
                lineno=node.lineno, col=node.col_offset, origin=method,
                hint="iterate the collection and combine values with an "
                     "order-insensitive reduction instead of indexing",
            )
        elif kind == "laundered_index":
            sink.emit(
                "SDG302",
                f"merge method {method!r} indexes a transform of the "
                f"gathered collection {collection_param!r} by position "
                f"({ast.unparse(node.value)!r}); sorting or reshaping "
                f"the collection launders but does not remove the "
                f"dependence on the arbitrary gather order",
                lineno=node.lineno, col=node.col_offset, origin=method,
                hint="combine the gathered values with an "
                     "order-insensitive reduction instead of selecting "
                     "one by position",
            )
        else:
            _flag_accumulation(sink, method, collection_param, node, op)


def _flag_accumulation(sink: DiagnosticSink, method: str,
                       collection_param: str, node: ast.stmt,
                       op: ast.operator) -> None:
    sink.emit(
        "SDG302",
        f"merge method {method!r} accumulates with {_op_name(op)!r} "
        f"while iterating the gathered collection "
        f"{collection_param!r}; the result depends on the replica "
        f"delivery order, which is not deterministic across runs or "
        f"recovery replays",
        lineno=node.lineno, col=node.col_offset, origin=method,
        hint="restructure the reduction to be commutative (sum the "
             "terms, then apply the non-commutative step once after "
             "the loop)",
    )
