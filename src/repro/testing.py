"""Reference graphs and oracles for testing SDG deployments.

Downstream users (and this repository's own suite) need small,
well-understood SDGs to exercise runtimes, checkpointing and recovery
against. This module provides:

* :func:`build_cf_sdg` — the paper's Fig. 1 collaborative-filtering
  graph, hand-built with the low-level API (five TEs, two SEs);
* :func:`build_kv_sdg` — the §6.1 partitioned key/value store;
* :func:`build_iterative_sdg` — a two-TE keyed loop over two SEs
  (exercises cycle detection and step 1 of the allocator);
* :func:`reference_cf` — a plain-Python oracle for Alg. 1, used to
  check distributed CF results item by item.
"""

from __future__ import annotations

from repro.core import SDG, AccessMode, Dispatch, StateKind
from repro.state import KeyValueMap, Matrix, Vector


def noop(ctx, item):
    """The identity task function."""
    return item


def build_cf_sdg() -> SDG:
    """The collaborative-filtering SDG of the paper's Fig. 1.

    ``updateUserItem -> updateCoOcc`` realise ``addRating``;
    ``getUserVec -> getRecVec -> mergeRec`` realise ``getRec``. Inputs:
    inject ``(user, item, rating)`` into ``updateUserItem`` and a user
    id into ``getUserVec``; results appear as ``(user, Vector)`` pairs
    from ``mergeRec``.
    """
    sdg = SDG("cf")
    sdg.add_state("userItem", Matrix, kind=StateKind.PARTITIONED)
    sdg.add_state("coOcc", Matrix, kind=StateKind.PARTIAL)

    def update_user_item(ctx, item):
        user, movie, rating = item
        ctx.state.set_element(user, movie, rating)
        user_row = ctx.state.get_row(user)
        return (movie, user_row)

    def update_co_occ(ctx, item):
        movie, user_row = item
        for i, value in enumerate(user_row.to_list()):
            if value > 0 and i != movie:
                ctx.state.add_element(movie, i, 1)
                ctx.state.add_element(i, movie, 1)
        return None

    def get_user_vec(ctx, item):
        user = item
        return (user, ctx.state.get_row(user))

    def get_rec_vec(ctx, item):
        user, user_row = item
        return (user, ctx.state.multiply(user_row))

    def merge(ctx, gathered):
        user = gathered[0][0]
        rec = Vector.sum_merge([vec for _, vec in gathered])
        return (user, rec)

    sdg.add_task("updateUserItem", update_user_item, state="userItem",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda item: item[0], entry_key_name="user")
    sdg.add_task("updateCoOcc", update_co_occ, state="coOcc",
                 access=AccessMode.LOCAL)
    sdg.add_task("getUserVec", get_user_vec, state="userItem",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda user: user, entry_key_name="user")
    sdg.add_task("getRecVec", get_rec_vec, state="coOcc",
                 access=AccessMode.GLOBAL)
    sdg.add_task("mergeRec", merge, is_merge=True)

    sdg.connect("updateUserItem", "updateCoOcc", Dispatch.ONE_TO_ANY)
    sdg.connect("getUserVec", "getRecVec", Dispatch.ONE_TO_ALL)
    sdg.connect("getRecVec", "mergeRec", Dispatch.ALL_TO_ONE)
    return sdg


def build_kv_sdg() -> SDG:
    """A partitioned key/value store (the §6.1 synthetic benchmark).

    Inject ``("put", key, value)`` or ``("get", key, None)`` into
    ``serve``; get responses appear as ``(key, value)`` results.
    """
    sdg = SDG("kvstore")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED)

    def serve(ctx, request):
        op, key, value = request
        if op == "put":
            ctx.state.put(key, value)
            return None
        return (key, ctx.state.get(key))

    sdg.add_task("serve", serve, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda req: req[1], entry_key_name="key")
    return sdg


def build_iterative_sdg() -> SDG:
    """A two-TE keyed loop over two SEs (cycle/allocation fixture).

    Inject an integer into ``stepA``; it circulates ``stepA -> stepB ->
    stepA`` decrementing until it reaches zero.
    """
    sdg = SDG("loop")
    sdg.add_state("modelA", KeyValueMap, kind=StateKind.PARTITIONED)
    sdg.add_state("modelB", KeyValueMap, kind=StateKind.PARTITIONED)

    def step_a(ctx, item):
        return item - 1 if item > 0 else None

    def step_b(ctx, item):
        return item

    sdg.add_task("stepA", step_a, state="modelA",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda x: x, entry_key_name="k")
    sdg.add_task("stepB", step_b, state="modelB",
                 access=AccessMode.PARTITIONED)
    sdg.connect("stepA", "stepB", Dispatch.KEY_PARTITIONED,
                key_fn=lambda x: x, key_name="k")
    sdg.connect("stepB", "stepA", Dispatch.KEY_PARTITIONED,
                key_fn=lambda x: x, key_name="k")
    return sdg


def reference_cf(ratings, query_user) -> dict[int, float]:
    """Sequential Alg. 1 oracle: item -> recommendation score.

    Matches :func:`build_cf_sdg`'s semantics (self co-occurrence
    excluded) for any interleaving-free rating sequence.
    """
    user_item: dict[tuple[int, int], float] = {}
    co_occ: dict[tuple[int, int], float] = {}
    for user, item, rating in ratings:
        user_item[(user, item)] = rating
        row = {i: r for (u, i), r in user_item.items() if u == user}
        for i, value in row.items():
            if value > 0 and i != item:
                co_occ[(item, i)] = co_occ.get((item, i), 0) + 1
                co_occ[(i, item)] = co_occ.get((i, item), 0) + 1
    row = {i: r for (u, i), r in user_item.items() if u == query_user}
    rec: dict[int, float] = {}
    for (r, c), count in co_occ.items():
        if c in row and row[c]:
            rec[r] = rec.get(r, 0.0) + count * row[c]
    return rec
