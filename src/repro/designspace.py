"""The design-space classification of Table 1.

The paper positions SDGs against fourteen existing frameworks along the
dimensions motivated in §2.2: programming model, state handling (how
state is represented, whether large state and fine-grained updates are
supported), dataflow execution (scheduled / hybrid / pipelined, latency,
iteration) and failure recovery. This module encodes the table as data
and renders it, so the reproduction of Table 1 is a program artifact
rather than prose.
"""

from __future__ import annotations

from dataclasses import dataclass

YES = "yes"
NO = "no"
NA = "n/a"


@dataclass(frozen=True)
class FrameworkRow:
    computational_model: str
    system: str
    programming_model: str
    state_representation: str
    large_state: str
    fine_grained_updates: str
    execution: str
    low_latency: str
    iteration: str
    failure_recovery: str


TABLE_1: list[FrameworkRow] = [
    FrameworkRow("stateless dataflow", "MapReduce", "map/reduce",
                 "as data", NA, NO, "scheduled", NO, NO, "recompute"),
    FrameworkRow("stateless dataflow", "DryadLINQ", "functional",
                 "as data", NA, NO, "scheduled", NO, YES, "recompute"),
    FrameworkRow("stateless dataflow", "Spark", "functional",
                 "as data", NA, NO, "hybrid", NO, YES, "recompute"),
    FrameworkRow("stateless dataflow", "CIEL", "imperative",
                 "as data", NA, NO, "scheduled", NO, YES, "recompute"),
    FrameworkRow("incremental dataflow", "HaLoop", "map/reduce",
                 "cache", YES, NO, "scheduled", NO, YES, "recompute"),
    FrameworkRow("incremental dataflow", "Incoop", "map/reduce",
                 "cache", YES, NO, "scheduled", NO, NO, "recompute"),
    FrameworkRow("incremental dataflow", "Nectar", "functional",
                 "cache", YES, NO, "scheduled", NO, NO, "recompute"),
    FrameworkRow("incremental dataflow", "CBP", "dataflow",
                 "loopback", YES, YES, "scheduled", NO, NO, "recompute"),
    FrameworkRow("batched dataflow", "Comet", "functional",
                 "as data", NA, NO, "scheduled", YES, NO, "recompute"),
    FrameworkRow("batched dataflow", "D-Streams", "functional",
                 "as data", NA, NO, "hybrid", YES, YES, "recompute"),
    FrameworkRow("batched dataflow", "Naiad", "dataflow",
                 "explicit", NO, YES, "hybrid", YES, YES,
                 "sync. global checkpoints"),
    FrameworkRow("continuous dataflow", "Storm, S4", "dataflow",
                 "as data", NA, NO, "pipelined", YES, NO, "recompute"),
    FrameworkRow("continuous dataflow", "SEEP", "dataflow",
                 "explicit", NO, YES, "pipelined", YES, NO,
                 "sync. local checkpoints"),
    FrameworkRow("parallel in-memory", "Piccolo", "imperative",
                 "explicit", YES, YES, NA, YES, YES,
                 "async. global checkpoints"),
    FrameworkRow("stateful dataflow", "SDG", "imperative",
                 "explicit", YES, YES, "pipelined", YES, YES,
                 "async. local checkpoints"),
]

_COLUMNS = [
    ("computational_model", "Computational model"),
    ("system", "System"),
    ("programming_model", "Programming model"),
    ("state_representation", "State repr."),
    ("large_state", "Large state"),
    ("fine_grained_updates", "Fine-grained updates"),
    ("execution", "Execution"),
    ("low_latency", "Low latency"),
    ("iteration", "Iteration"),
    ("failure_recovery", "Failure recovery"),
]


def frameworks_with(**criteria: str) -> list[FrameworkRow]:
    """Filter the table by column values (e.g. ``large_state=YES``)."""
    rows = TABLE_1
    for column, value in criteria.items():
        rows = [row for row in rows if getattr(row, column) == value]
    return list(rows)


def render_table() -> str:
    """Plain-text rendering of Table 1."""
    widths = {
        attr: max(len(header),
                  max(len(getattr(row, attr)) for row in TABLE_1))
        for attr, header in _COLUMNS
    }
    header_line = "  ".join(
        header.ljust(widths[attr]) for attr, header in _COLUMNS
    )
    separator = "-" * len(header_line)
    lines = [header_line, separator]
    for row in TABLE_1:
        lines.append("  ".join(
            getattr(row, attr).ljust(widths[attr])
            for attr, _header in _COLUMNS
        ))
    return "\n".join(lines)
