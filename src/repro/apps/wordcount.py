"""Streaming windowed wordcount (§6.1, update-granularity experiment).

Wordcount exercises frequent fine-grained state updates: every token
increments one counter. The splitter fans a line out into many word
items (one input, many outputs), which the annotated programming model
deliberately does not express — so this application uses the low-level
SDG API with ``ctx.emit``, as a dataflow author would in SEEP.

Items are ``(timestamp, line)`` pairs; the splitter assigns each word
the window ``timestamp // window_size`` and the counting TE maintains
``counts[(window, word)]``. Queries read a word's count in a window.
"""

from __future__ import annotations

from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.state import KeyValueMap


def word_of(key: tuple[int, str]) -> str:
    """``counts`` is split, and every item into it routed, by word."""
    return key[1]


def build_wordcount_sdg(window_size: int = 1000) -> SDG:
    """A two-stage wordcount SDG: split → keyed count.

    ``window_size`` is in the same (logical-time) unit as the item
    timestamps, mirroring the wall-clock windows of the paper's WC.
    """
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    sdg = SDG("wordcount")
    sdg.add_state("counts", KeyValueMap, kind=StateKind.PARTITIONED,
                  route_key=word_of)

    def split(ctx, item):
        timestamp, line = item
        window = timestamp // window_size
        for word in line.split():
            ctx.emit((window, word))

    def count(ctx, item):
        window, word = item
        ctx.state.increment((window, word))

    def query(ctx, item):
        window, word = item
        return (window, word, ctx.state.get((window, word), 0))

    sdg.add_task("split", split, is_entry=True)
    sdg.add_task("count", count, state="counts",
                 access=AccessMode.PARTITIONED)
    sdg.add_task("query", query, state="counts",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=word_of, entry_key_name="word")
    sdg.connect("split", "count", Dispatch.KEY_PARTITIONED,
                key_fn=word_of, key_name="word")
    return sdg
