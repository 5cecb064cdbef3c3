"""The diagnostics engine behind ``sdglint``.

Every check in the analyzer — the refactored §4.1 restriction scanner,
the structural SDG validators, and the dedicated lint passes — reports
its findings as structured :class:`Diagnostic` objects instead of
raising on the first problem. A :class:`DiagnosticSink` collects them
(translating source-relative line numbers to absolute file positions),
and a :class:`Report` is the user-facing result: filterable, sortable,
renderable as text or JSON.

The legacy raise-on-first behaviour of ``translate()`` / ``validate()``
is preserved by simply not passing a sink: the checks then raise their
first error exactly as before.

This module is dependency-free on purpose — ``core.validation`` and
``translate.restrictions`` import it, so it must not import them back.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings describe programs that are wrong under the
    paper's semantics (they fail translation, corrupt recovery, or
    produce replica-divergent results); ``WARNING`` findings are
    conservative heuristics or performance problems; ``INFO`` is
    advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Span:
    """A source position (absolute, 1-based) a diagnostic points at."""

    file: str | None = None
    line: int | None = None
    col: int | None = None
    end_line: int | None = None
    end_col: int | None = None

    def __str__(self) -> str:
        place = self.file or "<sdg>"
        if self.line is not None:
            place += f":{self.line}"
            if self.col is not None:
                place += f":{self.col}"
        return place


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry of one diagnostic code."""

    code: str
    name: str
    severity: Severity
    section: str  # paper section the check enforces
    summary: str


def _c(code: str, name: str, severity: Severity, section: str,
       summary: str) -> tuple[str, CodeInfo]:
    return code, CodeInfo(code, name, severity, section, summary)


#: Every diagnostic code the analyzer can emit. ``docs/analysis.md``
#: catalogues these with minimal offending examples.
CODES: dict[str, CodeInfo] = dict([
    _c("SDG001", "translation-failure", Severity.ERROR, "§4",
       "the method could not be translated to task elements at all"),
    _c("SDG101", "nondeterministic-call", Severity.ERROR, "§4.1",
       "call into a nondeterministic module (time, random, ...)"),
    _c("SDG102", "environment-dependence", Severity.ERROR, "§4.1",
       "call that ties the program to the local execution environment"),
    _c("SDG201", "global-access-needs-partial", Severity.ERROR, "§4.1",
       "global access on a state element that is not partial"),
    _c("SDG202", "partitioned-access-needs-partitioned", Severity.ERROR,
       "§3.2", "partitioned access on a non-partitioned state element"),
    _c("SDG203", "local-access-on-partitioned", Severity.ERROR, "§3.2",
       "local access on a partitioned state element"),
    _c("SDG211", "entry-missing-key", Severity.ERROR, "§3.2",
       "entry TE into a partitioned SE without an entry key function"),
    _c("SDG212", "unkeyed-dataflow-into-partition", Severity.ERROR,
       "§3.2", "non-keyed dataflow reaching a partitioned SE"),
    _c("SDG213", "conflicting-partition-keys", Severity.ERROR, "§3.2",
       "one partitioned SE reached through different partition keys"),
    _c("SDG221", "gather-needs-merge", Severity.ERROR, "§4.2",
       "all-to-one dataflow that does not terminate at a merge TE"),
    _c("SDG222", "merge-needs-gather", Severity.ERROR, "§4.2",
       "merge TE with inputs but no all-to-one dataflow"),
    _c("SDG231", "no-entry", Severity.ERROR, "§3.1",
       "the SDG has no entry task element"),
    _c("SDG232", "unreachable-te", Severity.ERROR, "§3.1",
       "task elements unreachable from every entry"),
    _c("SDG301", "partial-state-race", Severity.ERROR, "§3.2",
       "replica-dependent value read from partial state escapes "
       "into downstream dataflow"),
    _c("SDG302", "order-sensitive-merge", Severity.WARNING, "§4.1",
       "merge method accumulation looks order-sensitive"),
    _c("SDG303", "checkpoint-bypass", Severity.ERROR, "§5",
       "state mutation bypasses the journalled StateBackend API"),
    _c("SDG304", "inconsistent-key-provenance", Severity.WARNING, "§3.2",
       "the variable carrying the partition key was redefined upstream"),
    _c("SDG305", "dead-payload", Severity.WARNING, "§4.2",
       "variable shipped on a dataflow edge but never read downstream"),
    _c("SDG401", "unpicklable-payload", Severity.ERROR, "§6/fork",
       "value stored in a state element or shipped on an edge that "
       "cannot cross a process boundary (lambda, generator, handle, "
       "lock)"),
    _c("SDG402", "cross-process-nondeterminism", Severity.ERROR,
       "§4.1/fork", "process-dependent value (hash randomization, "
       "object address, set order) escapes onto an edge or into a "
       "partition key"),
    _c("SDG403", "shared-mutable-global", Severity.WARNING, "§6/fork",
       "module global or shared class attribute mutated from a task "
       "method — the write is invisible to other worker processes"),
])


def render_chain(chain: tuple) -> str:
    """``entry:120 → _helper:98`` for a tuple of (function, line)."""
    return " → ".join(
        f"{fn}:{line}" if line is not None else fn
        for fn, line in chain
    )


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding of the analyzer."""

    code: str
    severity: Severity
    message: str
    span: Span = field(default_factory=Span)
    #: The method / TE / SE the finding is about, when known.
    origin: str | None = None
    #: Actionable suggestion for fixing the program.
    hint: str | None = None
    #: Interprocedural call chain from the reported method down to the
    #: offending site: ``((function, absolute_line), ...)``. Empty for
    #: direct findings.
    chain: tuple = ()

    @property
    def name(self) -> str:
        info = CODES.get(self.code)
        return info.name if info else self.code

    def render(self) -> str:
        head = (f"{self.span}: {self.code} {self.severity.value} "
                f"[{self.name}] {self.message}")
        if self.chain:
            head += f"\n    call chain: {render_chain(self.chain)}"
        if self.hint:
            head += f"\n    hint: {self.hint}"
        return head

    def to_dict(self) -> dict:
        payload = {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.span.file,
            "line": self.span.line,
            "col": self.span.col,
            "origin": self.origin,
            "hint": self.hint,
        }
        if self.chain:
            payload["chain"] = [
                {"function": fn, "line": line} for fn, line in self.chain
            ]
        return payload


class DiagnosticSink:
    """Collects diagnostics during one analysis run.

    The sink knows where the analysed source lives: checks report line
    numbers relative to the parsed class source (the same numbers the
    strict-mode exceptions carry) and the sink rebases them onto the
    absolute file position via ``line_base``.
    """

    def __init__(self, file: str | None = None, line_base: int = 1) -> None:
        self.file = file
        self.line_base = line_base
        self.diagnostics: list[Diagnostic] = []

    def span(self, lineno: int | None = None,
             col: int | None = None) -> Span:
        line = None
        if lineno is not None:
            line = self.line_base + lineno - 1
        return Span(file=self.file, line=line, col=col)

    def emit(self, code: str, message: str, *,
             lineno: int | None = None, col: int | None = None,
             origin: str | None = None, hint: str | None = None,
             severity: Severity | None = None,
             chain: tuple = ()) -> Diagnostic:
        """Record one finding; line numbers are class-source-relative.

        ``chain`` is a tuple of ``(function, lineno)`` hops with
        class-relative line numbers; they are rebased onto the file the
        same way the primary line is.
        """
        if severity is None:
            info = CODES.get(code)
            severity = info.severity if info else Severity.ERROR
        rebased = tuple(
            (fn, self.line_base + line - 1 if line is not None else None)
            for fn, line in chain
        )
        diagnostic = Diagnostic(
            code=code, severity=severity, message=message,
            span=self.span(lineno, col), origin=origin, hint=hint,
            chain=rebased,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)


@dataclass
class Report:
    """The result of one ``sdglint`` run over a program or SDG."""

    target: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was found."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when nothing at all was found."""
        return not self.diagnostics

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def sorted(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, d.span.line or 0, d.code),
        )

    def render_text(self) -> str:
        lines = [f"sdglint: {self.target}"]
        for diagnostic in self.sorted():
            lines.append("  " + diagnostic.render().replace("\n", "\n  "))
        lines.append(
            f"  {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
            + (" — clean" if self.clean else "")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "total": len(self.diagnostics),
            },
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
