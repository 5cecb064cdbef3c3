"""Property-based tests for incremental (delta) checkpoint correctness.

The contract: for *any* interleaving of mutations and checkpoints,
folding the full base plus the ordered delta chain reconstructs exactly
the state a full checkpoint would have captured — including deletions
inside a delta window and writes made after a delta checkpoint's cut
while it is pending.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state import DeltaChunk, KeyValueMap

keys = st.one_of(st.integers(0, 40), st.text(max_size=4))
# An op is (key, value) for a put, or (key, None) for a delete.
op = st.tuples(keys, st.one_of(st.none(), st.integers(-100, 100)))
# A run is a list of checkpoint windows, each a list of ops.
windows = st.lists(st.lists(op, max_size=25), min_size=1, max_size=6)


def apply_ops(se, ops):
    for key, value in ops:
        if value is None:
            try:
                se.delete(key)
            except KeyError:
                pass
        else:
            se.put(key, value)


def take_cut(se, version):
    """A checkpoint's begin: full base at v1, deltas after; the journal
    restarts once the cut is taken."""
    cut = se.cut(delta=version > 1)
    se.mark_clean()
    return cut


def checkpoint_cycle(se, version, n_chunks=3):
    """One cycle with nothing in between; returns (kind, chunks)."""
    chunks = take_cut(se, version).chunks(
        n_chunks, version=version, base_version=version - 1)
    return ("full" if version == 1 else "delta"), chunks


def fold(base_chunks, delta_cycles):
    restored = KeyValueMap()
    for chunk in base_chunks:
        restored.load_chunk(chunk)
    for chunks in delta_cycles:
        for chunk in chunks:
            restored.load_delta_chunk(chunk)
    return restored


@settings(max_examples=60, deadline=None)
@given(runs=windows)
def test_fold_of_base_plus_deltas_equals_live_state(runs):
    se = KeyValueMap()
    base = None
    deltas = []
    for version, ops in enumerate(runs, start=1):
        apply_ops(se, ops)
        kind, chunks = checkpoint_cycle(se, version)
        if kind == "full":
            base = chunks
        else:
            deltas.append(chunks)
    restored = fold(base, deltas)
    assert dict(restored.items()) == dict(se.items())


@settings(max_examples=60, deadline=None)
@given(runs=windows, pending=st.lists(op, max_size=25))
def test_overlay_writes_during_pending_delta_land_in_next_delta(
    runs, pending
):
    """Writes made *while a delta checkpoint is pending* are not lost:
    they journal straight into the next delta, and the pending one is
    chunked from its cut as if they had not happened."""
    se = KeyValueMap()
    base = None
    deltas = []
    for version, ops in enumerate(runs, start=1):
        apply_ops(se, ops)
        cut = take_cut(se, version)
        # Mutations racing the pending checkpoint, before it is chunked.
        apply_ops(se, pending)
        chunks = cut.chunks(3, version=version, base_version=version - 1)
        if version == 1:
            base = chunks
        else:
            deltas.append(chunks)
    # One final cycle flushes what the last pending window journalled.
    _kind, chunks = checkpoint_cycle(se, len(runs) + 1)
    deltas.append(chunks)
    restored = fold(base, deltas)
    assert dict(restored.items()) == dict(se.items())


@settings(max_examples=60, deadline=None)
@given(runs=windows)
def test_delta_chain_equals_one_full_checkpoint(runs):
    """restore(base + delta chain) == restore(full checkpoint now)."""
    se = KeyValueMap()
    base = None
    deltas = []
    for version, ops in enumerate(runs, start=1):
        apply_ops(se, ops)
        kind, chunks = checkpoint_cycle(se, version)
        if kind == "full":
            base = chunks
        else:
            deltas.append(chunks)
    via_chain = fold(base, deltas)

    full_now = se.to_chunks(3)
    via_full = KeyValueMap.from_chunks(KeyValueMap(), full_now)

    assert dict(via_chain.items()) == dict(via_full.items())


@settings(max_examples=40, deadline=None)
@given(ops_before=st.lists(op, max_size=25),
       ops_after=st.lists(op, max_size=25))
def test_delta_size_is_bounded_by_mutations_not_state(ops_before, ops_after):
    se = KeyValueMap()
    apply_ops(se, ops_before)
    checkpoint_cycle(se, 1)
    apply_ops(se, ops_after)
    _kind, chunks = checkpoint_cycle(se, 2)
    moved = sum(chunk.entry_count() for chunk in chunks)
    distinct = len({key for key, _ in ops_after})
    assert moved <= distinct
    for chunk in chunks:
        assert isinstance(chunk, DeltaChunk)
        assert chunk.version == 2 and chunk.base_version == 1
